#!/usr/bin/env python3
"""Build liblattice's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The exit code is the benchmark's: nonzero when the build
fails or any output check fails. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("volunteer_1m", "volunteer_flaky_net", "portal_1m_users",
             "garli_islands")
RUN_TIMEOUT_S = 170


def run_quietly(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        if not run_quietly(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quietly(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs])


def source_id():
    """Git commit when there is one, plus a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git:%s tree:%s" % (sha, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources at %s" %
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 1
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace_%s.json" % args.workload)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
