// perfbench — the liblattice benchmark program. One process runs one
// workload for a fixed wall-clock budget in whole rounds, checks every
// round's outputs, and prints one JSON result as its last stdout line:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--source-id TEXT]
//
// --trace 0 reports the end-to-end metrics (medians over the rounds);
// --trace 1 alternates untimed-observability rounds with traced ones
// (registry bound, spans recorded, stacks sampled) and reports the
// per-layer ledger. See README.md for the workloads and metrics.
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "phylo/kernels/kernels.hpp"
#include "trace.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string source_id = "unknown";
};

bool parse(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else if (key == "--source-id") {
      options.source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && is_workload(options.workload);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + "\"";
}

/// The processor's brand string, read with CPUID.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  model.erase(model.find_last_not_of(' ') + 1);
  return model.empty() ? "unknown" : model;
#else
  return "unknown";
#endif
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// Figures are comparable only between runs with the same stamp.
void print_stamp(const Options& options) {
  namespace kernels = lattice::phylo::kernels;
  std::cout << "perfbench stamp: {\"cpu\": " << json_string(cpu_model())
            << ", \"cores\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_string(kCompiler)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"flags\": " << json_string(PERFBENCH_CXX_FLAGS)
            << ", \"source\": " << json_string(options.source_id)
            << ", \"isa_tier\": "
            << json_string(kernels::tier_name(kernels::active_tier()))
            << "}\n";
}

double median(const std::vector<double>& xs) {
  return lattice::util::quantile(xs, 0.5);
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The simulated outputs every round of a run must reproduce bit for bit.
bool same_outputs(const RoundResult& a, const RoundResult& b) {
  return a.events == b.events && a.completions == b.completions &&
         a.turnaround_mean_h == b.turnaround_mean_h &&
         a.turnaround_p50_h == b.turnaround_p50_h &&
         a.turnaround_p99_h == b.turnaround_p99_h &&
         a.neg_log_likelihood == b.neg_log_likelihood &&
         a.lnl_ratio_to_truth == b.lnl_ratio_to_truth;
}

const char* const kLayerMetrics[] = {
    "core.build_inventory_s", "core.calibrate_speeds_s", "rf.train_s",
    "phylo.dataset_s", "portal.submit_s", "portal.submit_p50_us",
    "portal.submit_p99_us", "portal.batch_turnaround_p50_h",
    "portal.batch_turnaround_p99_h", "core.drain_s", "sim.makespan_h", "phylo.round_p50_ms",
    "phylo.serial_round_p50_ms", "phylo.parallel_speedup",
    "sim.events_fired", "sim.peak_pending", "sched.decisions",
    "sched.match_candidates_scanned", "sched.fair_share_reorders",
    "grid.attempts_started", "sched.placed_per_decision",
    "boinc.results_sent", "boinc.results_reissued",
    "boinc.workunits_validated", "boinc.results_per_workunit",
    "net.transfers_started", "net.bytes_down", "net.bytes_up",
    "lattice.failed_attempts", "sched.retry_scheduled", "phylo.evaluations",
    "phylo.partials_reuse_ratio", "phylo.matrix_cache_hit_ratio"};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_h")) return "h";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (name.rfind("net.bytes", 0) == 0) return "bytes";
  if (ends("ratio") || ends("speedup") || ends("coverage") ||
      ends("per_decision") || ends("per_workunit")) {
    return "ratio";
  }
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload "
                 "volunteer_1m|volunteer_flaky_net|portal_1m_users|"
                 "garli_islands --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--source-id TEXT]\n";
    return 2;
  }
  lattice::util::set_log_level(lattice::util::LogLevel::kOff);
  print_stamp(options);

  SpanLog spans;
  std::unique_ptr<StackSampler> sampler;
  if (options.trace) sampler = std::make_unique<StackSampler>(argv[0]);

  std::vector<RoundResult> timed_rounds;
  std::vector<RoundResult> traced_rounds;
  std::vector<StackSampler::Ledger> ledgers;
  Failures failures;
  double first_round_rss_mb = 0.0;
  const auto begin = Clock::now();
  do {
    timed_rounds.push_back(run_round(options.workload, options.seed, nullptr));
    // The peak resident set of one round in a fresh process: later rounds
    // raise the high-water mark by heap fragmentation alone, so the
    // process-wide peak would grow with the round count.
    if (timed_rounds.size() == 1) first_round_rss_mb = rss_peak_mb();
    // Only the first round's ledgers feed the self-test.
    if (timed_rounds.size() > 1) {
      timed_rounds.back().grid.reset();
      timed_rounds.back().admission.reset();
    }
    std::cerr << "round " << timed_rounds.size() << ": setup "
              << timed_rounds.back().setup_s << " s, run "
              << timed_rounds.back().run_s << " s\n";
    if (options.trace) {
      spans.set_enabled(true);
      Tracing tracing{spans, *sampler};
      traced_rounds.push_back(
          run_round(options.workload, options.seed, &tracing));
      traced_rounds.back().grid.reset();
      traced_rounds.back().admission.reset();
      spans.set_enabled(false);
      ledgers.push_back(sampler->drain());
      std::cerr << "traced round " << traced_rounds.size() << ": run "
                << traced_rounds.back().run_s << " s, "
                << ledgers.back().samples << " samples\n";
    }
  } while (seconds_since(begin) < options.seconds);

  std::uint64_t attempted = 0;
  const RoundResult& first = timed_rounds.front();
  for (const auto* rounds : {&timed_rounds, &traced_rounds}) {
    for (const RoundResult& r : *rounds) {
      attempted += r.operations;
      for (const auto& f : r.failures) failures.push_back(f);
      if (!same_outputs(r, first)) {
        failures.push_back("simulated outputs differ between rounds");
      }
    }
  }
  SelfTestInputs self;
  self.grid = first.grid ? &*first.grid : nullptr;
  self.admission = first.admission ? &*first.admission : nullptr;
  self.corruption = first.quorum_checked;
  self.search = first.search_checked;
  self.best_lnl = -first.neg_log_likelihood;
  self.starting_lnl = first.starting_lnl;
  for (const auto& f : self_test(self)) failures.push_back(f);

  std::ostringstream metrics;
  metrics.precision(17);
  bool first_metric = true;
  const auto emit = [&](const std::string& name, double value,
                        const std::string& unit) {
    metrics << (first_metric ? "" : ", ") << json_string(name)
            << ": {\"value\": " << value << ", \"unit\": "
            << json_string(unit) << "}";
    first_metric = false;
  };
  const auto median_of = [](const std::vector<RoundResult>& rounds,
                            double RoundResult::*field) {
    std::vector<double> xs;
    for (const RoundResult& r : rounds) xs.push_back(r.*field);
    return median(xs);
  };
  if (!options.trace) {
    emit("setup_s", median_of(timed_rounds, &RoundResult::setup_s), "s");
    emit("run_s", median_of(timed_rounds, &RoundResult::run_s), "s");
    emit("rss_peak_mb", first_round_rss_mb, "MB");
    emit("sim_turnaround_mean_h", first.turnaround_mean_h, "h");
    emit("sim_turnaround_p50_h", first.turnaround_p50_h, "h");
    emit("sim_turnaround_p99_h", first.turnaround_p99_h, "h");
    // The grid workloads search no trees: their ratio reads 1 by definition.
    emit("lnl_ratio_to_truth",
         first.search_checked ? first.lnl_ratio_to_truth : 1.0, "ratio");
  } else {
    for (const char* name : kLayerMetrics) {
      std::vector<double> xs;
      for (const RoundResult& r : traced_rounds) {
        const auto it = r.layer.find(name);
        xs.push_back(it == r.layer.end() ? 0.0 : it->second);
      }
      emit(name, median(xs), unit_of(name));
    }
    std::uint64_t samples = 0;
    std::uint64_t attributed = 0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::vector<double> xs;
      for (const auto& ledger : ledgers) xs.push_back(ledger.self_s[l]);
      emit(layer_metric(static_cast<Layer>(l)), median(xs), "s");
    }
    for (const auto& ledger : ledgers) {
      samples += ledger.samples;
      attributed += ledger.attributed;
    }
    emit("trace.coverage",
         samples > 0 ? static_cast<double>(attributed) /
                           static_cast<double>(samples)
                     : 0.0,
         "ratio");
    emit("trace.overhead_ratio",
         median_of(traced_rounds, &RoundResult::run_s) /
             median_of(timed_rounds, &RoundResult::run_s),
         "ratio");
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      spans.write_chrome_json(out);
      if (!out) failures.push_back("could not write " + options.trace_out);
    }
  }

  for (const auto& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";
  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": 0"
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
