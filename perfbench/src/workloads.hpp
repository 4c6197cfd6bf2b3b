// The four benchmark workloads. Each round builds its inputs from the run's
// seed, sets the system up, runs it, and checks the outputs; every round of
// a run repeats the same work, so a run's rounds can be compared exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"

namespace perfbench {

/// Instruments of a traced round. The workload starts the sampler before
/// set-up, stops it before its checks, and binds a metrics registry.
struct Tracing {
  SpanLog& spans;
  StackSampler& sampler;
};

struct RoundResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t operations = 0;

  // Simulated outputs: identical in every round of a run, traced or not.
  std::uint64_t events = 0;
  std::uint64_t completions = 0;
  double turnaround_mean_h = 0.0;
  double turnaround_p50_h = 0.0;
  double turnaround_p99_h = 0.0;
  double neg_log_likelihood = 0.0;
  /// Best -lnL over the generating tree's -lnL under the generating model,
  /// both on the round's own sites.
  double lnl_ratio_to_truth = 0.0;

  Failures failures;
  /// Per-layer readings of a traced round (counters, ratios, span timings).
  std::map<std::string, double> layer;

  // Real results the check self-test perturbs.
  std::optional<GridLedger> grid;
  std::optional<AdmissionLedger> admission;
  bool quorum_checked = false;
  bool search_checked = false;
  double starting_lnl = 0.0;
};

bool is_workload(const std::string& name);

/// Runs one round of `workload`; `tracing` is null for a timed round.
RoundResult run_round(const std::string& workload, std::uint64_t seed,
                      Tracing* tracing);

}  // namespace perfbench
