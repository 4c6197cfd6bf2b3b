#include "core/metascheduler.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"

namespace lattice::core {

std::string_view scheduling_mode_name(SchedulingMode mode) {
  switch (mode) {
    case SchedulingMode::kRoundRobin: return "round-robin";
    case SchedulingMode::kLoadOnly: return "load-only";
    case SchedulingMode::kEstimateAware: return "estimate-aware";
    case SchedulingMode::kOracle: return "oracle";
  }
  return "?";
}

MetaScheduler::MetaScheduler(const grid::MdsDirectory& mds,
                             const SpeedCalibrator& speeds,
                             SchedulerPolicy policy)
    : mds_(mds), speeds_(speeds), policy_(policy) {
  set_observability(obs::MetricsRegistry::null());
}

void MetaScheduler::set_observability(obs::MetricsRegistry& metrics) {
  decisions_ = &metrics.counter("sched.decisions", "jobs",
                                "placement decisions made");
  route_stable_ = &metrics.counter(
      "sched.route_stable", "jobs", "placements onto stable resources");
  route_unstable_ =
      &metrics.counter("sched.route_unstable", "jobs",
                       "placements onto unstable (desktop/volunteer) "
                       "resources");
  no_eligible_ = &metrics.counter(
      "sched.no_eligible", "calls",
      "choose() calls that found no eligible online resource");
  candidates_scanned_ = &metrics.counter(
      "sched.match_candidates_scanned", "entries",
      "directory entries examined by indexed matchmaking (vs "
      "sched.match_eligible: the index's selectivity)");
  match_eligible_ = &metrics.counter(
      "sched.match_eligible", "entries",
      "directory entries that passed matchmaking and the online filter");
}

bool MetaScheduler::matches(const grid::GridJob& job,
                            const grid::ResourceInfo& info) {
  if (!grid::MdsDirectory::class_matches(job.requirements, info.platforms,
                                         info.software, info.mpi_capable)) {
    return false;
  }
  return job.requirements.min_memory_gb <= info.node_memory_gb;
}

std::optional<std::string> MetaScheduler::choose(const grid::GridJob& job) {
  // Round-robin needs the full eligible list (the cursor indexes into it),
  // and an eta stream is only valid when the directory's maintained rank
  // keys were built with this policy's load weight — otherwise fall back
  // to the merged-list path, which ranks with the policy weight directly.
  const std::optional<double> estimate = rank_estimate(job);
  const bool eta_ranked =
      policy_.mode != SchedulingMode::kLoadOnly && estimate.has_value();
  if (policy_.mode == SchedulingMode::kRoundRobin ||
      (eta_ranked && mds_.rank_load_weight() != policy_.load_weight)) {
    // Step 1+2 via the capability index: only candidate classes are
    // examined, and the counters make the selectivity observable.
    eligible_scratch_.clear();
    grid::MdsMatchStats stats;
    mds_.match_online(job.requirements, eligible_scratch_, &stats);
    candidates_scanned_->inc(stats.candidates_scanned);
    match_eligible_->inc(stats.eligible);
    return pick(job, eligible_scratch_);
  }

  // Ranked modes: stream candidates from the rank index in ascending
  // (rank key, name) order and take the first acceptable one — the
  // decision touches the rejected prefix plus one entry instead of the
  // whole eligible set. Decision-identical to choose_linear by the shared
  // rank keys and the (key, name) tie-break (tests/test_sched_index.cpp).
  const grid::RankOrder order =
      eta_ranked ? grid::RankOrder::kEta : grid::RankOrder::kLoad;
  grid::MdsMatchStats stats;
  const grid::MdsEntry* best = mds_.best_ranked(
      job.requirements, order,
      [&](const grid::MdsEntry& entry) {
        if (job.require_stable && !entry.info.stable) return false;
        if (estimate) {
          // Step-3 advisory stability cutoff (estimated wall hours on this
          // candidate, plus staging time at the policy's assumed link —
          // the identical formula pick() applies, keeping the streamed and
          // merged-list paths decision-identical).
          double wall_hours = *estimate / entry.speed / 3600.0;
          if (policy_.staging_mbps > 0.0) {
            wall_hours += (job.input_mb + job.output_mb) * 8.0 /
                          policy_.staging_mbps / 3600.0;
          }
          if (!entry.info.stable &&
              wall_hours > policy_.stability_cutoff_hours) {
            return false;
          }
        }
        return true;
      },
      &stats);
  candidates_scanned_->inc(stats.candidates_scanned);
  match_eligible_->inc(stats.eligible);
  if (best == nullptr && estimate) {
    // Stability fallthrough: nothing passed the advisory cutoff, so rank
    // the unrestricted (but still require_stable-filtered) set — placing
    // somewhere beats starving, matching the paper's best-effort behavior.
    grid::MdsMatchStats retry_stats;
    best = mds_.best_ranked(
        job.requirements, order,
        [&](const grid::MdsEntry& entry) {
          return !job.require_stable || entry.info.stable;
        },
        &retry_stats);
    candidates_scanned_->inc(retry_stats.candidates_scanned);
  }
  if (best == nullptr) {
    no_eligible_->inc();
    return std::nullopt;
  }
  decisions_->inc();
  (best->info.stable ? route_stable_ : route_unstable_)->inc();
  return best->info.name;
}

std::optional<std::string> MetaScheduler::choose_linear(
    const grid::GridJob& job) {
  // Reference implementation: full directory scan, monolithic predicate,
  // no capability index. Feeds the same scanned/eligible counters so the
  // two paths are comparable in benchmarks.
  eligible_scratch_.clear();
  grid::MdsMatchStats stats;
  mds_.match_online_linear(job.requirements, eligible_scratch_, &stats);
  candidates_scanned_->inc(stats.candidates_scanned);
  match_eligible_->inc(stats.eligible);
  return pick(job, eligible_scratch_);
}

bool MetaScheduler::same_inputs(const grid::GridJob& a,
                                const grid::GridJob& b) const {
  // Keep in step with choose() and rank_estimate(): a field they read but
  // this does not compare would let the pump skip a decision that differs
  // (tests/test_sched_index.cpp checks the implication).
  switch (policy_.mode) {
    case SchedulingMode::kRoundRobin:
      return false;
    case SchedulingMode::kOracle:
      if (a.true_reference_runtime != b.true_reference_runtime) return false;
      break;
    case SchedulingMode::kEstimateAware:
      if (a.estimated_reference_runtime != b.estimated_reference_runtime) {
        return false;
      }
      break;
    case SchedulingMode::kLoadOnly:
      break;
  }
  return a.user_id == b.user_id && a.require_stable == b.require_stable &&
         a.input_mb + a.output_mb == b.input_mb + b.output_mb &&
         a.requirements == b.requirements;
}

std::optional<std::string> MetaScheduler::pick(
    const grid::GridJob& job,
    const std::vector<const grid::MdsEntry*>& all_eligible) {
  // Demoted jobs (repeated unstable-resource failures) are restricted to
  // stable resources outright — a hard filter, unlike the estimate-driven
  // stability cutoff below, which is advisory and falls through.
  const std::vector<const grid::MdsEntry*>* eligible_ptr = &all_eligible;
  if (job.require_stable) {
    require_stable_scratch_.clear();
    for (const grid::MdsEntry* entry : all_eligible) {
      if (entry->info.stable) require_stable_scratch_.push_back(entry);
    }
    eligible_ptr = &require_stable_scratch_;
  }
  const std::vector<const grid::MdsEntry*>& eligible = *eligible_ptr;

  if (eligible.empty()) {
    no_eligible_->inc();
    return std::nullopt;
  }

  if (policy_.mode == SchedulingMode::kRoundRobin) {
    const grid::MdsEntry& pick_entry =
        *eligible[round_robin_next_++ % eligible.size()];
    decisions_->inc();
    (pick_entry.info.stable ? route_stable_ : route_unstable_)->inc();
    return pick_entry.info.name;
  }

  // The runtime estimate this mode is allowed to use (reference seconds).
  const std::optional<double> estimate = rank_estimate(job);

  // Step 3: stability filter, using the estimate scaled by each
  // candidate's speed. The speed comes from the MDS entry itself — the
  // calibration pass publishes it there (LatticeSystem::calibrate_speeds
  // → MdsDirectory::set_speed), so ranking reads only information-service
  // data and skips a per-candidate string-keyed calibrator lookup.
  const std::vector<const grid::MdsEntry*>* candidates = &eligible;
  if (estimate) {
    stable_scratch_.clear();
    for (const grid::MdsEntry* entry : eligible) {
      double wall_hours = *estimate / entry->speed / 3600.0;
      if (policy_.staging_mbps > 0.0) {
        wall_hours += (job.input_mb + job.output_mb) * 8.0 /
                      policy_.staging_mbps / 3600.0;
      }
      if (entry->info.stable ||
          wall_hours <= policy_.stability_cutoff_hours) {
        stable_scratch_.push_back(entry);
      }
    }
    if (!stable_scratch_.empty()) {
      candidates = &stable_scratch_;
    }
    // If nothing passes (only unstable resources online and the job is
    // long), fall through with the original list: placing somewhere beats
    // starving, matching the paper's best-effort behavior.
  }

  // Step 4: rank by expected completion time, using the same rank-key
  // functions the MDS rank index maintains (the estimate is a positive
  // per-decision constant, so dividing it out of the eta score changes no
  // argmin; rank_key_eta documents the formula). Candidates arrive in
  // name order and strict `<` keeps the first minimum, so the selection is
  // the (key, name) lexicographic minimum — exactly what the index's
  // best_ranked stream yields.
  const bool eta = policy_.mode != SchedulingMode::kLoadOnly &&
                   estimate.has_value();
  const grid::MdsEntry* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (const grid::MdsEntry* entry : *candidates) {
    const double score =
        eta ? grid::MdsDirectory::rank_key_eta(entry->info, entry->speed,
                                               policy_.load_weight)
            : grid::MdsDirectory::rank_key_load(entry->info);
    if (score < best_score) {
      best_score = score;
      best = entry;
    }
  }
  decisions_->inc();
  (best->info.stable ? route_stable_ : route_unstable_)->inc();
  return best->info.name;
}

std::optional<double> MetaScheduler::rank_estimate(
    const grid::GridJob& job) const {
  std::optional<double> estimate;
  if (policy_.mode == SchedulingMode::kOracle) {
    estimate = job.true_reference_runtime;
  } else if (policy_.mode == SchedulingMode::kEstimateAware) {
    estimate = job.estimated_reference_runtime;
  }
  // Fair-share inflation: a heavy user's jobs look longer, which tightens
  // the advisory stability cutoff against them. The factor depends only on
  // the job's user (not on any candidate), so the rank argmin — which
  // divides the estimate out — is untouched, and choose()/choose_linear()
  // remain decision-identical with the ledger bound.
  if (estimate && fair_share_ != nullptr &&
      policy_.fair_share_weight > 0.0 && job.user_id != 0) {
    const double usage_hours = fair_share_->usage(job.user_id) / 3600.0;
    estimate = *estimate * (1.0 + policy_.fair_share_weight * usage_hours);
  }
  return estimate;
}

}  // namespace lattice::core
