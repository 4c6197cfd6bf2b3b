// The benchmark's own tracing: spans around its calls into liblattice and a
// CPU-time stack sampler that charges each sample to the innermost
// lattice::<module> frame. Both live in the benchmark, not in the library,
// so a traced run observes the program without changing a line of it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Spans recorded on the benchmark's main thread. Disabled spans cost one
/// branch; enabled ones are kept in memory and written at the end of the
/// run as Chrome trace_event JSON (loadable in Perfetto).
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(std::string name);
  void close(int index);

  void write_chrome_json(std::ostream& out) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  // index into spans_, -1 at top level
  };

  double now_us() const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), index_(log.open(std::move(name))) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Layers of the per-layer ledger, in report order.
enum class Layer : std::uint8_t {
  kSimKernel,
  kSimCalendar,
  kBoinc,
  kGrid,
  kNet,
  kCore,
  kPortal,
  kRf,
  kPhyloKernels,
  kPhylo,
  kFault,
  kUtil,
  kObs,
  kUnattributed,
};
inline constexpr std::size_t kLayerCount = 14;

/// Metric name of a layer's sampled self time ("sim.kernel_self_s", ...).
const char* layer_metric(Layer layer);

/// Layer of a demangled function name, or kUnattributed when it is not a
/// liblattice function. Exposed for the self-test.
Layer classify_symbol(const std::string& demangled);

/// Process-wide CPU-time stack sampler (ITIMER_PROF / SIGPROF). One
/// instance at a time; samples are stored raw by the signal handler and
/// symbolized by drain(). Self time is in CPU seconds, so a layer running
/// on two threads can exceed the wall time it spans.
class StackSampler {
 public:
  static constexpr int kIntervalUs = 2000;

  /// `executable` is the running program's file, whose symbol table names
  /// the sampled frames.
  explicit StackSampler(std::string executable);
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  void start();
  void stop();

  struct Ledger {
    std::array<double, kLayerCount> self_s{};
    std::uint64_t samples = 0;
    std::uint64_t attributed = 0;
  };
  /// Attributes every sample taken so far, scales the layer shares to the
  /// process CPU time spent while sampling, and clears the buffer.
  Ledger drain();

 private:
  std::string executable_;
  bool running_ = false;
  double cpu_at_start_ = 0.0;
  double cpu_seconds_ = 0.0;
};

}  // namespace perfbench
