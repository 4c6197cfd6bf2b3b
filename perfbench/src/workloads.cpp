#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "boinc/server.hpp"
#include "core/cost_model.hpp"
#include "core/estimator.hpp"
#include "core/inventory.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "core/workload.hpp"
#include "fault/plan.hpp"
#include "net/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/island.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/parsimony.hpp"
#include "phylo/simulate.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

namespace {

namespace lc = lattice::core;
namespace lp = lattice::phylo;
namespace lu = lattice::util;

/// Independent stream `tag` of the run's seed (splitmix64 finalizer), so
/// every random input of a workload follows from --seed alone.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + (tag + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(const std::vector<double>& xs) { return lu::quantile(xs, 0.5); }

/// Runs `work` inside a span named `name` and returns its wall seconds.
template <typename Work>
double timed(SpanLog& spans, const char* name, Work&& work) {
  const int span = spans.open(name);
  const auto start = Clock::now();
  work();
  const double elapsed = seconds_since(start);
  spans.close(span);
  return elapsed;
}

// ---- grid workloads ------------------------------------------------------

enum class Grid { kVolunteer1m, kFlakyNet, kPortal };

struct Submission {
  double at = 0.0;  // simulated arrival time
  lc::SubmissionRequest request;
};

struct GridWorkload {
  lc::LatticeConfig config;
  std::vector<lc::ResourceSpec> inventory;
  lc::PortalConfig portal;
  std::vector<Submission> submissions;
  double horizon_s = 0.0;
};

/// Registered investigators each submitting one batch at the web
/// interface's 2000-replicate cap, all at t=0 (bench_grid_scale's shape).
std::vector<Submission> investigator_batches(int batches) {
  lp::GarliJob job;
  job.genthresh = 400;
  std::vector<Submission> out;
  for (int user = 0; user < batches; ++user) {
    Submission s;
    s.request.user_email =
        "investigator" + std::to_string(user) + "@umd.edu";
    s.request.user_id = lc::user_id_from_email(s.request.user_email);
    s.request.user_class = lc::UserClass::kRegistered;
    s.request.job = job;
    s.request.replicates = 2000;
    s.request.num_taxa = 45;
    s.request.num_patterns = 300;
    out.push_back(std::move(s));
  }
  return out;
}

lc::RetryPolicy recovery_policy() {
  // The recovery ladder of the fault_smoke scenario.
  lc::RetryPolicy retry;
  retry.backoff_base_seconds = 30.0;
  retry.backoff_cap_seconds = 1800.0;
  retry.backoff_jitter = 0.25;
  retry.demote_after_failures = 3;
  return retry;
}

/// The host-level faults of scenarios/fault_smoke.ini: bursty Weibull
/// churn, a flaky host class that corrupts and errors, and a lossy report
/// path. Its outage window names a resource outside the §IV inventory and
/// is not part of this workload.
lattice::fault::FaultPlan fault_smoke_host_faults() {
  lattice::fault::FaultPlan plan;
  plan.churn.on_scale = 0.5;
  plan.churn.weibull_shape = 0.7;
  plan.flaky_host_fraction = 0.25;
  plan.normal_hosts.corruption_probability = 0.01;
  plan.flaky_hosts.corruption_probability = 0.3;
  plan.flaky_hosts.compute_error_probability = 0.05;
  plan.report_path.drop_probability = 0.05;
  plan.report_path.delay_probability = 0.1;
  plan.report_path.delay_seconds = 1800.0;
  return plan;
}

/// GarliJob whose featurization is `f` (the portal trace carries features,
/// the portal takes a job).
lp::GarliJob job_for(const lc::GarliFeatures& f) {
  lp::GarliJob job;
  job.model.data_type = static_cast<lp::DataType>(f.data_type);
  job.model.rate_het = static_cast<lp::RateHet>(f.rate_het_model);
  job.model.n_rate_categories =
      static_cast<std::size_t>(std::max(1.0, f.num_rate_categories));
  if (job.model.data_type == lp::DataType::kNucleotide) {
    job.model.nuc_model =
        f.subst_model_params >= 5.0
            ? lp::NucModel::kGTR
            : (f.subst_model_params >= 1.0 ? lp::NucModel::kHKY85
                                           : lp::NucModel::kJC69);
  } else if (job.model.data_type == lp::DataType::kAminoAcid) {
    job.model.aa_model = f.subst_model_params >= 1.0
                             ? lp::AaModel::kChemClass
                             : lp::AaModel::kPoisson;
  }
  job.search_replicates = 1;
  job.genthresh = static_cast<std::size_t>(std::max(1.0, f.genthresh));
  if (f.has_starting_tree) job.starting_tree = "(t1,t2,(t3,t4));";
  return job;
}

GridWorkload make_grid_workload(Grid kind, std::uint64_t seed) {
  GridWorkload w;
  w.config.scheduler.mode = lc::SchedulingMode::kEstimateAware;
  w.config.seed = derive(seed, 1);
  lc::InventoryOptions inventory;
  inventory.seed = derive(seed, 2);
  switch (kind) {
    case Grid::kVolunteer1m: {
      inventory.boinc_hosts = 1000000;
      w.inventory = lc::lattice_inventory(inventory);
      w.submissions = investigator_batches(60);
      w.horizon_s = 120.0 * 86400.0;
      break;
    }
    case Grid::kFlakyNet: {
      w.config.max_attempts = 24;
      w.config.retry = recovery_policy();
      inventory.boinc_hosts = 200000;
      inventory.boinc_min_quorum = 2;
      inventory.boinc_target_nresults = 2;
      inventory.boinc_network = lattice::net::NetConfig::volunteer_default();
      w.inventory = lc::lattice_inventory(inventory);
      const auto plan = fault_smoke_host_faults();
      for (lc::ResourceSpec& spec : w.inventory) {
        if (auto* pool = std::get_if<lattice::boinc::BoincPoolConfig>(
                &spec.config)) {
          lattice::fault::apply_fault_plan(plan, *pool);
        }
      }
      w.submissions = investigator_batches(48);
      w.horizon_s = 120.0 * 86400.0;
      break;
    }
    case Grid::kPortal: {
      // bench_portal_scale's 10^6-user row.
      w.config.scheduler_period = 300.0;
      w.config.scheduler.fair_share_weight = 0.5;
      w.config.fair_share.order_queue = true;
      w.config.fair_share.backlog_per_slot = 4.0;
      inventory.boinc_hosts = 5000;
      w.inventory = lc::lattice_inventory(inventory);
      w.portal.quota_guest = {2, 100};
      w.portal.quota_registered = {10, 2000};
      w.portal.quota_power = {30, 10000};
      w.portal.shed_backlog_watermark = 50000;

      constexpr std::size_t kUsers = 1000000;
      constexpr double kBatchesPerDay = 600.0;
      lc::UserPopulationConfig pop;
      pop.guests.users = kUsers * 90 / 100;
      pop.registered.users = kUsers * 9 / 100;
      pop.power.users = kUsers - pop.guests.users - pop.registered.users;
      const auto rate = [&](double share, std::size_t users) {
        return share * kBatchesPerDay / static_cast<double>(users);
      };
      pop.guests = {pop.guests.users, rate(0.30, pop.guests.users), 1.4, 1};
      pop.registered = {pop.registered.users,
                        rate(0.50, pop.registered.users), 1.3, 4};
      pop.power = {pop.power.users, rate(0.20, pop.power.users), 1.8, 50};
      pop.max_replicates = 2000;
      pop.max_expected_hours = 4.0;
      const lc::UserPopulation population(pop);
      const lc::GarliCostModel model(w.config.cost_params);
      // The trace is drawn once, not from the seed: its Pareto tail and
      // the order the big batches arrive in move run time and p99
      // turnaround by tens of percent between draws, which would swamp
      // every bound. The seed drives the host pool and the sampled
      // runtimes instead.
      lu::Rng trace_rng(41);
      for (const lc::WorkloadEntry& entry :
           population.generate(1500, model, trace_rng)) {
        Submission s;
        s.at = entry.arrival_seconds;
        s.request.user_id = entry.user_id;
        s.request.user_class = entry.user_class;
        s.request.user_email =
            "user" + std::to_string(entry.user_id) + "@lattice.example";
        s.request.job = job_for(entry.features);
        s.request.replicates = entry.replicates;
        s.request.num_taxa = static_cast<std::size_t>(entry.features.num_taxa);
        s.request.num_patterns =
            static_cast<std::size_t>(entry.features.num_patterns);
        w.submissions.push_back(std::move(s));
      }
      w.horizon_s = 400.0 * 86400.0;
      break;
    }
  }
  return w;
}

RoundResult grid_round(Grid kind, std::uint64_t seed, Tracing* tracing) {
  SpanLog untraced;
  SpanLog& spans = tracing != nullptr ? tracing->spans : untraced;
  RoundResult r;
  const ScopedSpan round_span(spans, "round");
  const GridWorkload w = make_grid_workload(kind, seed);
  if (tracing != nullptr) tracing->sampler.start();

  // Set-up: inventory, speed calibration, estimator training (150-job
  // corpus, 300 trees, online retraining off).
  const auto setup_start = Clock::now();
  lc::LatticeSystem system(w.config);
  const double inventory_s = timed(spans, "core.build_inventory", [&] {
    lc::build_inventory(system, w.inventory);
  });
  const double calibrate_s = timed(spans, "core.calibrate_speeds",
                                   [&] { system.calibrate_speeds(); });
  lc::RuntimeEstimator::Config estimator;
  estimator.forest.n_trees = 300;
  estimator.retrain_every = 0;
  system.estimator() = lc::RuntimeEstimator(estimator);
  // The training matrix is fixed data (the paper's ~150 previously run
  // jobs), not drawn from the seed: a different corpus is a different
  // estimator, which reroutes whole batches between clusters and the pool.
  lu::Rng corpus_rng(4242);
  const auto corpus =
      lc::generate_corpus(150, system.cost_model(), corpus_rng);
  const double train_s = timed(spans, "rf.train",
                               [&] { system.estimator().train(corpus); });
  r.setup_s = seconds_since(setup_start);

  lc::Portal portal(system, w.portal);
  lattice::obs::MetricsRegistry registry;
  if (tracing != nullptr) {
    system.enable_observability(registry, lattice::obs::Tracer::null());
    portal.set_observability(registry);
  }

  // Run: the benchmark advances the clock to each arrival and calls
  // Portal::submit itself, then drains.
  const auto run_start = Clock::now();
  std::vector<double> submit_s;
  submit_s.reserve(w.submissions.size());
  double drain_s = 0.0;
  std::uint64_t accepted = 0;
  for (const Submission& s : w.submissions) {
    if (s.at > system.simulation().now()) {
      drain_s += timed(spans, "core.drain", [&] {
        system.simulation().at(s.at, [] {});
        system.run(s.at);
      });
    }
    lc::SubmitReceipt receipt;
    submit_s.push_back(timed(spans, "portal.submit",
                             [&] { receipt = portal.submit(s.request); }));
    if (receipt.accepted) ++accepted;
  }
  drain_s += timed(spans, "core.drain",
                   [&] { system.run_until_drained(w.horizon_s); });
  r.run_s = seconds_since(run_start);
  if (tracing != nullptr) tracing->sampler.stop();

  // Outputs and checks.
  const lc::LatticeMetrics& m = system.metrics();
  r.events = system.simulation().events_fired();
  r.completions = m.completed;
  r.operations = w.submissions.size() + m.submitted;
  // Turnaround of every grid job, submission to validated result. The
  // batch figures are per-layer readings: on the volunteer workloads each
  // batch ends with the slowest of its 2000 jobs, an extreme that swings
  // by a third between seeds.
  std::vector<double> job_h;
  system.for_each_job([&](const lattice::grid::GridJob& job) {
    job_h.push_back((job.finish_time - job.submit_time) / 3600.0);
  });
  r.turnaround_mean_h = m.mean_turnaround() / 3600.0;
  r.turnaround_p50_h = lu::quantile(job_h, 0.50);
  r.turnaround_p99_h = lu::quantile(job_h, 0.99);
  std::vector<double> batch_h;
  AdmissionLedger admission;
  admission.submissions_made = w.submissions.size();
  admission.jobs_received = m.submitted;
  for (const auto& [id, batch] : portal.batches()) {
    admission.batch_member_jobs += batch.job_ids.size();
    if (batch.done) {
      batch_h.push_back((batch.finished - batch.submitted) / 3600.0);
    }
  }
  if (batch_h.size() != portal.batches().size()) {
    r.failures.push_back(std::to_string(portal.batches().size() -
                                        batch_h.size()) +
                         " accepted batches never finished");
  }
  if (portal.batches().size() != accepted) {
    r.failures.push_back("portal recorded " +
                         std::to_string(portal.batches().size()) +
                         " batches for " + std::to_string(accepted) +
                         " accepted submissions");
  }
  if (kind != Grid::kPortal && accepted != w.submissions.size()) {
    r.failures.push_back("portal refused an investigator batch");
  }
  if (tracing != nullptr) {
    for (const char* outcome :
         {"portal.admit_accepted", "portal.admit_rejected",
          "portal.admit_quota_denied", "portal.shed_guest"}) {
      admission.outcomes[outcome] = registry.counter_total(outcome);
    }
  } else {
    admission.outcomes["accepted"] = accepted;
    admission.outcomes["refused"] = w.submissions.size() - accepted;
  }
  for (auto& f : check_admission(admission)) r.failures.push_back(f);
  r.admission = admission;
  r.grid = read_grid_ledger(system);
  for (auto& f : check_grid_ledger(*r.grid)) r.failures.push_back(f);
  if (kind == Grid::kFlakyNet) {
    const auto* pool = dynamic_cast<lattice::boinc::BoincServer*>(
        system.resource("lattice-boinc"));
    if (pool == nullptr) {
      r.failures.push_back("volunteer pool missing");
    } else {
      for (auto& f : check_no_corruption(pool->corrupted_validations())) {
        r.failures.push_back(f);
      }
    }
    r.quorum_checked = true;
  }

  if (tracing != nullptr) {
    auto& layer = r.layer;
    const auto count = [&](const char* name) {
      return static_cast<double>(registry.counter_total(name));
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    layer["core.build_inventory_s"] = inventory_s;
    layer["core.calibrate_speeds_s"] = calibrate_s;
    layer["rf.train_s"] = train_s;
    double submit_total = 0.0;
    for (const double s : submit_s) submit_total += s;
    layer["portal.submit_s"] = submit_total;
    layer["portal.submit_p50_us"] = lu::quantile(submit_s, 0.50) * 1e6;
    layer["portal.submit_p99_us"] = lu::quantile(submit_s, 0.99) * 1e6;
    layer["core.drain_s"] = drain_s;
    layer["sim.makespan_h"] = m.last_completion / 3600.0;
    layer["portal.batch_turnaround_p50_h"] = lu::quantile(batch_h, 0.50);
    layer["portal.batch_turnaround_p99_h"] = lu::quantile(batch_h, 0.99);
    layer["sim.events_fired"] = static_cast<double>(r.events);
    layer["sim.peak_pending"] =
        static_cast<double>(system.simulation().peak_pending());
    for (const char* name :
         {"sched.decisions", "sched.match_candidates_scanned",
          "sched.fair_share_reorders", "grid.attempts_started",
          "boinc.results_sent", "boinc.results_reissued",
          "boinc.workunits_validated", "net.transfers_started",
          "net.bytes_down", "net.bytes_up", "lattice.failed_attempts",
          "sched.retry_scheduled"}) {
      layer[name] = count(name);
    }
    layer["sched.placed_per_decision"] =
        ratio(count("grid.attempts_started"), count("sched.decisions"));
    layer["boinc.results_per_workunit"] =
        ratio(count("boinc.results_sent"), count("boinc.workunits_validated"));
  }
  return r;
}

// ---- garli_islands -------------------------------------------------------

constexpr std::size_t kTaxa = 48;
constexpr std::size_t kSites = 1500;
constexpr std::size_t kRounds = 40;
constexpr std::size_t kReplayRounds = 4;

lp::ModelSpec gtr_gamma4() {
  lp::ModelSpec spec;
  spec.nuc_model = lp::NucModel::kGTR;
  spec.rate_het = lp::RateHet::kGamma;
  spec.n_rate_categories = 4;
  return spec;
}

lp::IslandGaConfig island_config(std::uint64_t seed) {
  lp::IslandGaConfig config;
  config.n_islands = 4;
  config.migration_interval = 10;
  config.max_rounds = kRounds;
  config.island.population_size = 4;
  config.island.genthresh = 1u << 30;  // fixed rounds, never converged
  config.island.max_generations = 1u << 30;
  config.island.seed = seed;
  return config;
}

RoundResult garli_round(std::uint64_t seed, Tracing* tracing) {
  SpanLog untraced;
  SpanLog& spans = tracing != nullptr ? tracing->spans : untraced;
  RoundResult r;
  const ScopedSpan round_span(spans, "round");

  // The generating model differs from the search's GTR+G4 defaults, so the
  // search has model parameters to fit as well as a topology.
  lp::ModelSpec truth = gtr_gamma4();
  truth.gtr_rates = {1.2, 4.0, 0.7, 1.1, 3.6, 1.0};
  truth.base_frequencies = {0.32, 0.18, 0.22, 0.28};
  truth.gamma_alpha = 0.6;
  const lp::ModelSpec search_spec = gtr_gamma4();
  // One generating tree for every seed; the seed draws the sites from it,
  // the stepwise addition order and the GA's random stream. A new random
  // tree per seed would move lnL and the search's cost by far more than
  // a fresh sample of 1500 sites does.
  lu::Rng tree_rng(20110516);
  const lp::Tree truth_tree = lp::Tree::random(kTaxa, tree_rng, 0.1);
  lu::Rng rng(derive(seed, 11));
  lu::ThreadPool pool(2);
  if (tracing != nullptr) tracing->sampler.start();

  // Set-up: simulate the alignment from a known tree, compress it to
  // patterns, and build the stepwise-addition starting tree.
  const auto setup_start = Clock::now();
  std::unique_ptr<lp::Alignment> alignment;
  std::unique_ptr<lp::PatternizedAlignment> patterns;
  lp::Tree start;
  const double dataset_s = timed(spans, "phylo.dataset", [&] {
    alignment = std::make_unique<lp::Alignment>(lp::simulate_alignment(
        truth_tree, lp::SubstitutionModel(truth), kSites, rng));
    patterns = std::make_unique<lp::PatternizedAlignment>(*alignment);
    start = lp::stepwise_addition_tree(*patterns, rng);
  });
  r.setup_s = seconds_since(setup_start);

  // Run: a fixed number of island-GA rounds on the two-thread pool.
  const lp::IslandGaConfig config = island_config(derive(seed, 12));
  const auto run_start = Clock::now();
  lp::IslandGaSearch search(*patterns, search_spec, config, start);
  std::vector<double> round_s;
  double best_after_replay = 0.0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    bool advanced = false;
    round_s.push_back(timed(spans, "phylo.round",
                            [&] { advanced = search.round(&pool); }));
    if (!advanced) {
      r.failures.push_back("search stopped after " + std::to_string(k) +
                           " of " + std::to_string(kRounds) + " rounds");
      break;
    }
    if (k + 1 == kReplayRounds) best_after_replay = search.best().log_likelihood;
  }
  r.run_s = seconds_since(run_start);
  if (tracing != nullptr) tracing->sampler.stop();

  const lp::Individual& best = search.best();
  r.operations = kRounds;
  r.events = search.total_generations();
  r.completions = search.rounds();
  r.neg_log_likelihood = -best.log_likelihood;
  // The grid's modeled reference hours for this analysis (the cost surface
  // the grid workloads schedule by); see README.md.
  const lc::GarliCostModel cost;
  lp::GarliJob job;
  job.model = search_spec;
  r.turnaround_mean_h = cost.expected_runtime(lc::features_from_job(
                            job, kTaxa, patterns->n_patterns())) /
                        3600.0;
  r.turnaround_p50_h = r.turnaround_p99_h = r.turnaround_mean_h;

  lp::LikelihoodEngine engine(*patterns);
  timed(spans, "phylo.log_likelihood", [&] {
    r.starting_lnl =
        engine.log_likelihood(start, lp::SubstitutionModel(search_spec));
  });
  const double recomputed =
      recompute_log_likelihood(*alignment, best.tree, best.model);
  for (auto& f : check_search(best.log_likelihood, recomputed,
                              r.starting_lnl)) {
    r.failures.push_back(f);
  }
  r.search_checked = true;
  // The benchmark's own pruning scores the generating tree and model on the
  // same sites, so the ratio keeps the search's quality and drops most of
  // what a fresh sample of sites does to -lnL.
  r.lnl_ratio_to_truth =
      best.log_likelihood /
      recompute_log_likelihood(*alignment, truth_tree, truth);

  if (tracing != nullptr) {
    auto& layer = r.layer;
    layer["phylo.dataset_s"] = dataset_s;
    layer["phylo.round_p50_ms"] = median(round_s) * 1e3;
    double evaluations = 0.0;
    for (std::size_t i = 0; i < search.n_islands(); ++i) {
      evaluations +=
          static_cast<double>(search.island(i).likelihood_evaluations());
    }
    layer["phylo.evaluations"] = evaluations;

    // Serial replay of the first rounds: same search without the pool.
    lp::IslandGaSearch serial(*patterns, search_spec, config, start);
    std::vector<double> serial_s;
    for (std::size_t k = 0; k < kReplayRounds; ++k) {
      serial_s.push_back(timed(spans, "phylo.serial_round",
                               [&] { serial.round(nullptr); }));
    }
    if (serial.best().log_likelihood != best_after_replay) {
      r.failures.push_back("serial replay diverged from the pooled search");
    }
    const std::vector<double> first(round_s.begin(),
                                    round_s.begin() + kReplayRounds);
    layer["phylo.serial_round_p50_ms"] = median(serial_s) * 1e3;
    layer["phylo.parallel_speedup"] = median(serial_s) / median(first);

    // Likelihood probe: the GA's engines keep their reuse counters to
    // themselves, so score NNI and branch-length moves around the best
    // tree on an engine of the benchmark's own, with the GA's matrix cache.
    lp::LikelihoodEngine probe(*patterns);
    probe.enable_matrix_cache();
    const lp::SubstitutionModel model(best.model);
    lp::Tree tree = best.tree;
    for (const int node : tree.internal_edge_nodes()) {
      tree.nni(node, 0);
      timed(spans, "phylo.log_likelihood",
            [&] { probe.log_likelihood(tree, model); });
      tree.set_branch_length(node, tree.branch_length(node) * 1.1);
      timed(spans, "phylo.log_likelihood",
            [&] { probe.log_likelihood(tree, model); });
    }
    const auto share = [](std::uint64_t a, std::uint64_t b) {
      return a + b > 0 ? static_cast<double>(a) / static_cast<double>(a + b)
                       : 0.0;
    };
    layer["phylo.partials_reuse_ratio"] =
        share(probe.partials_reused(), probe.partials_recomputed());
    layer["phylo.matrix_cache_hit_ratio"] =
        share(probe.cache_hits(), probe.cache_misses());
  }
  return r;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "volunteer_1m" || name == "volunteer_flaky_net" ||
         name == "portal_1m_users" || name == "garli_islands";
}

RoundResult run_round(const std::string& workload, std::uint64_t seed,
                      Tracing* tracing) {
  if (workload == "volunteer_1m") {
    return grid_round(Grid::kVolunteer1m, seed, tracing);
  }
  if (workload == "volunteer_flaky_net") {
    return grid_round(Grid::kFlakyNet, seed, tracing);
  }
  if (workload == "portal_1m_users") {
    return grid_round(Grid::kPortal, seed, tracing);
  }
  return garli_round(seed, tracing);
}

}  // namespace perfbench
