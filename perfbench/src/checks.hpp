// Output checks computed apart from the program. Each check returns the
// list of its failures (empty = pass), so a workload can report every
// broken invariant at once, and the self-test can show that a perturbed
// result makes each check fail.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/model.hpp"
#include "phylo/tree.hpp"

namespace lattice::core {
class LatticeSystem;
}

namespace perfbench {

using Failures = std::vector<std::string>;

/// One grid job as the ledger check sees it.
struct JobRecord {
  std::uint64_t id = 0;
  bool completed = false;
  double submit = 0.0;
  double start = 0.0;
  double finish = 0.0;
  double true_runtime = 0.0;
  /// Fastest machine speed the resource the job finished on can have.
  double speed_cap = 0.0;
};

struct GridLedger {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;
  std::vector<JobRecord> jobs;
};

/// Reads the job ledger and each resource's fastest machine out of a
/// drained system.
GridLedger read_grid_ledger(lattice::core::LatticeSystem& system);

/// submitted = completed + abandoned, nothing abandoned, every job
/// completed with finish >= start >= submit, and no job finishing faster
/// than its reference runtime on the fastest machine it could have used.
Failures check_grid_ledger(const GridLedger& ledger);

/// Portal admission ledger: every submission the benchmark made lands in
/// exactly one admission outcome, and the accepted batches' member jobs
/// are exactly the jobs the grid received.
struct AdmissionLedger {
  std::uint64_t submissions_made = 0;
  std::map<std::string, std::uint64_t> outcomes;  // outcome -> count
  std::uint64_t batch_member_jobs = 0;
  std::uint64_t jobs_received = 0;
};
Failures check_admission(const AdmissionLedger& ledger);

/// Quorum validation: no corrupted result may become canonical.
Failures check_no_corruption(std::uint64_t corrupted_canonical);

/// Log-likelihood of `tree` and `spec` over the raw alignment's sites by a
/// pruning routine of the benchmark's own: 4x4 transition matrices by
/// scaling-and-squaring Taylor exponentiation of Q, per-node log scaling.
/// Nucleotide models only. The discrete-gamma category rates come from
/// phylo::discrete_gamma_rates.
double recompute_log_likelihood(const lattice::phylo::Alignment& alignment,
                                const lattice::phylo::Tree& tree,
                                const lattice::phylo::ModelSpec& spec);

/// The reported best lnL matches the recomputation to `rel_tolerance` and
/// is not below the starting tree's lnL.
Failures check_search(double reported_best, double recomputed_best,
                      double starting_lnl, double rel_tolerance = 1e-8);

/// Feeds each check a deliberately perturbed copy of a real result and
/// returns a failure for every check that still passes (a check that can
/// never fail). Inputs that a workload does not produce are skipped.
struct SelfTestInputs {
  const GridLedger* grid = nullptr;
  const AdmissionLedger* admission = nullptr;
  bool corruption = false;
  bool search = false;
  double best_lnl = 0.0;
  double starting_lnl = 0.0;
};
Failures self_test(const SelfTestInputs& inputs);

}  // namespace perfbench
