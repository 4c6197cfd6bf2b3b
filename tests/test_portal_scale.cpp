// Multi-tenant portal at scale: admission quotas, guest load shedding,
// fair-share queue ordering, the user-population workload generator, the
// per-user trace columns, and twin-run determinism of a 10^4-user portal
// workload, plus the pump-pass invariants behind the fair-share run merge
// and the saturation and deferral memos (DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fmt.hpp"

namespace lattice::core {
namespace {

LatticeConfig scale_config() {
  LatticeConfig config;
  config.scheduler.mode = SchedulingMode::kEstimateAware;
  config.scheduler_period = 30.0;
  config.seed = 17;
  return config;
}

SubmissionRequest request_for(UserId user, UserClass user_class,
                              std::size_t replicates) {
  SubmissionRequest request;
  request.user_id = user;
  request.user_class = user_class;
  request.user_email = util::format("user{}@lattice.example", user);
  request.replicates = replicates;
  request.num_taxa = 40;
  request.num_patterns = 300;
  return request;
}

struct ScaleFixture {
  LatticeSystem system;
  Portal portal;

  explicit ScaleFixture(PortalConfig portal_config = {},
                        LatticeConfig config = scale_config())
      : system(config), portal(system, portal_config) {
    grid::BatchQueueResource::Config cluster;
    cluster.nodes = 16;
    cluster.cores_per_node = 4;
    system.add_cluster("hpc", cluster);
    system.calibrate_speeds();
  }
};

TEST(PortalAdmission, EnforcesConcurrentBatchAndReplicateQuotas) {
  PortalConfig config;
  config.quota_registered.max_concurrent_batches = 2;
  config.quota_registered.max_replicates_in_flight = 50;
  ScaleFixture fx{config};

  const auto a = fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  ASSERT_TRUE(a.accepted);
  const auto b = fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(fx.portal.active_batches(7), 2u);
  EXPECT_EQ(fx.portal.replicates_in_flight(7), 40u);

  // Third concurrent batch: over the batch quota (and 20 more replicates
  // would also breach the in-flight cap).
  const auto c = fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  EXPECT_FALSE(c.accepted);
  ASSERT_FALSE(c.problems.empty());

  // A different user is not affected by user 7's footprint.
  const auto other =
      fx.portal.submit(request_for(8, UserClass::kRegistered, 20));
  EXPECT_TRUE(other.accepted);

  // Quota capacity returns once the batches finish.
  fx.system.run_until_drained(400.0 * 86400.0);
  EXPECT_EQ(fx.portal.active_batches(7), 0u);
  EXPECT_EQ(fx.portal.replicates_in_flight(7), 0u);
  const auto later =
      fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  EXPECT_TRUE(later.accepted);
}

TEST(PortalAdmission, ReplicateQuotaCountsInFlightSum) {
  PortalConfig config;
  config.quota_power.max_replicates_in_flight = 100;
  ScaleFixture fx{config};

  ASSERT_TRUE(
      fx.portal.submit(request_for(3, UserClass::kPower, 80)).accepted);
  const auto over = fx.portal.submit(request_for(3, UserClass::kPower, 30));
  EXPECT_FALSE(over.accepted);
  const auto fits = fx.portal.submit(request_for(3, UserClass::kPower, 20));
  EXPECT_TRUE(fits.accepted);
}

TEST(PortalAdmission, ShedsGuestsAboveBacklogWatermark) {
  PortalConfig config;
  config.shed_backlog_watermark = 10;
  ScaleFixture fx{config};
  obs::MetricsRegistry metrics;
  fx.portal.set_observability(metrics);

  // Registered traffic fills the grid-level queue past the watermark
  // (nothing has been pumped yet, so every job is backlog).
  ASSERT_TRUE(fx.portal.submit(request_for(2, UserClass::kRegistered, 30))
                  .accepted);
  ASSERT_GE(fx.system.grid_backlog(), 10u);

  // Guests are shed; registered users still get in.
  const auto guest = fx.portal.submit(request_for(9, UserClass::kGuest, 2));
  EXPECT_FALSE(guest.accepted);
  ASSERT_FALSE(guest.problems.empty());
  EXPECT_NE(guest.problems[0].find("capacity"), std::string::npos);
  EXPECT_TRUE(fx.portal.submit(request_for(2, UserClass::kRegistered, 5))
                  .accepted);
  EXPECT_EQ(metrics.counter_total("portal.shed_guest"), 1u);

  // Once the backlog drains below the watermark guests are admitted again.
  fx.system.run_until_drained(400.0 * 86400.0);
  ASSERT_LT(fx.system.grid_backlog(), 10u);
  EXPECT_TRUE(
      fx.portal.submit(request_for(9, UserClass::kGuest, 2)).accepted);
  EXPECT_EQ(metrics.counter_total("portal.admit_accepted"), 3u);
  EXPECT_EQ(metrics.counter_total("portal.shed_guest"), 1u);
}

TEST(PortalAdmission, UnknownBatchIsDistinguishableFromRejected) {
  ScaleFixture fx;
  // A rejected submission never mints a batch id...
  const auto rejected =
      fx.portal.submit(request_for(4, UserClass::kRegistered, 5000));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_FALSE(rejected.problems.empty());
  // ...so querying a bogus id is a lookup miss, not a rejection echo.
  const BatchProgress bogus = fx.portal.progress(777);
  EXPECT_FALSE(bogus.found);
  EXPECT_EQ(bogus.grid_jobs, 0u);

  const auto accepted =
      fx.portal.submit(request_for(4, UserClass::kRegistered, 5));
  ASSERT_TRUE(accepted.accepted);
  const BatchProgress known = fx.portal.progress(accepted.batch_id);
  EXPECT_TRUE(known.found);
  EXPECT_EQ(known.grid_jobs, accepted.grid_jobs);
}

TEST(FairShare, LateLightUserOvertakesFloodWhenOrderingIsOn) {
  // User 1 floods the portal at t=0; user 2 submits one small batch an
  // hour later. Under FIFO the late batch drains behind the flood; with
  // fair-share queue ordering the flooder's decayed usage pushes their
  // backlog behind the light user's jobs.
  const auto turnaround_of_late_batch = [](bool order_queue) {
    LatticeConfig config = scale_config();
    config.fair_share.order_queue = order_queue;
    config.fair_share.backlog_per_slot = 1.0;
    ScaleFixture fx{PortalConfig{}, config};
    // Hours-long gamma searches so the flood actually piles up a queue.
    phylo::GarliJob heavy;
    heavy.model.rate_het = phylo::RateHet::kGamma;
    for (int batch = 0; batch < 12; ++batch) {
      SubmissionRequest flood = request_for(1, UserClass::kPower, 40);
      flood.job = heavy;
      flood.num_taxa = 200;
      flood.num_patterns = 900;
      EXPECT_TRUE(fx.portal.submit(flood).accepted)
          << "flood batch " << batch;
    }
    std::uint64_t late_id = 0;
    fx.system.simulation().at(3600.0, [&fx, &late_id, heavy] {
      SubmissionRequest late = request_for(2, UserClass::kRegistered, 4);
      late.job = heavy;
      late.num_taxa = 200;
      late.num_patterns = 900;
      const auto receipt = fx.portal.submit(late);
      ASSERT_TRUE(receipt.accepted);
      late_id = receipt.batch_id;
    });
    fx.system.run_until_drained(400.0 * 86400.0);
    const BatchRecord* record = fx.portal.batch(late_id);
    EXPECT_NE(record, nullptr);
    if (record == nullptr) return 0.0;
    EXPECT_TRUE(record->done);
    return record->finished - record->submitted;
  };

  const double fifo = turnaround_of_late_batch(false);
  const double fair = turnaround_of_late_batch(true);
  EXPECT_LT(fair, fifo * 0.5)
      << "fair-share ordering should cut the late batch's turnaround "
      << "(fifo " << fifo / 3600.0 << " h, fair " << fair / 3600.0 << " h)";
}

TEST(FairShare, KeyedQueueOrderMatchesStableSortOracle) {
  // The pump reads the decayed usage once per run of same-user jobs and
  // merges the ascending runs of (usage, id) keys. The oracle is the
  // comparator that order replaced: a std::stable_sort over the queue
  // that re-reads the ledger on every comparison. A one-slot FIFO cluster with no backpressure takes the
  // whole queue on the first pass, so start times spell out the pump's
  // order.
  util::Rng rng(53);
  for (int trial = 0; trial < 40; ++trial) {
    LatticeConfig config;
    config.scheduler_period = 60.0;
    config.seed = 100 + static_cast<std::uint64_t>(trial);
    config.fair_share.order_queue = true;
    config.fair_share.half_life_seconds = trial % 2 == 0 ? 3600.0 : 0.0;
    LatticeSystem system(config);
    grid::BatchQueueResource::Config lone;
    lone.nodes = 1;
    lone.cores_per_node = 1;
    system.add_cluster("lone", lone);
    system.calibrate_speeds();

    // Charged users 1-8 draw from four amounts, so distinct users tie;
    // users 0 (never charged) and 1000-1003 (never seen) all read 0.
    const double amounts[] = {500.0, 500.0, 1200.0, 7200.0};
    for (UserId user = 1; user <= 8; ++user) {
      system.fair_share().charge(user, amounts[rng.below(4)]);
    }
    const std::size_t n = 2 + rng.below(60);
    std::vector<std::uint64_t> queue;
    std::map<std::uint64_t, UserId> user_of;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t pick = rng.below(13);
      const UserId user = pick < 9 ? pick : 1000 + (pick - 9);
      const std::uint64_t id =
          system.submit_job_with_runtime(GarliFeatures{}, 100.0, {}, 0, {},
                                         user);
      queue.push_back(id);
      user_of[id] = user;
    }

    // The pump settles the ledger to its first firing before it sorts.
    system.fair_share().settle(config.scheduler_period);
    const FairShareLedger& ledger = system.fair_share();
    std::stable_sort(queue.begin(), queue.end(),
                     [&](std::uint64_t a, std::uint64_t b) {
                       const double usage_a = ledger.usage(user_of.at(a));
                       const double usage_b = ledger.usage(user_of.at(b));
                       if (usage_a != usage_b) return usage_a < usage_b;
                       return a < b;
                     });

    system.run_until_drained(86400.0 * 30.0);
    std::vector<std::uint64_t> started(queue);
    std::sort(started.begin(), started.end(),
              [&system](std::uint64_t a, std::uint64_t b) {
                return system.job(a)->start_time < system.job(b)->start_time;
              });
    ASSERT_EQ(system.metrics().completed, n) << "trial " << trial;
    EXPECT_EQ(started, queue) << "trial " << trial << ", " << n << " jobs";
  }

  // Queues shaped like the ones later passes see: the previous pass's
  // order (runs of same-user batches), re-ranked by new charges, with
  // retries re-entering mid-run and new arrivals behind. The same
  // comparator is the oracle; FairShareQueueOrder reorders the queue.
  FairShareQueueOrder order;
  int merged_three_or_more_runs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    FairShareLedger ledger{FairShareConfig{}};
    const double amounts[] = {500.0, 500.0, 1200.0, 7200.0};
    for (UserId user = 1; user <= 8; ++user) {
      ledger.charge(user, amounts[rng.below(4)]);
    }
    std::deque<grid::GridJob> jobs;  // stable addresses, ids in creation order
    const auto add_batch = [&](std::deque<grid::GridJob*>& to) {
      const std::uint64_t pick = rng.below(13);
      const UserId user = pick < 9 ? pick : 1000 + (pick - 9);
      const std::size_t size = 1 + rng.below(8);
      for (std::size_t i = 0; i < size; ++i) {
        grid::GridJob& job = jobs.emplace_back();
        job.id = jobs.size();
        job.user_id = user;
        to.push_back(&job);
      }
    };
    const auto oracle = [&ledger](std::deque<grid::GridJob*> queue) {
      std::stable_sort(queue.begin(), queue.end(),
                       [&](const grid::GridJob* a, const grid::GridJob* b) {
                         const double usage_a = ledger.usage(a->user_id);
                         const double usage_b = ledger.usage(b->user_id);
                         if (usage_a != usage_b) return usage_a < usage_b;
                         return a->id < b->id;
                       });
      return queue;
    };

    // The last pass's drain order, then charges that re-rank some users.
    std::deque<grid::GridJob*> queue;
    const std::size_t batches = 1 + rng.below(12);
    for (std::size_t b = 0; b < batches; ++b) add_batch(queue);
    queue = oracle(queue);
    for (int charge = 0, charges = static_cast<int>(rng.below(4));
         charge < charges; ++charge) {
      ledger.charge(1 + rng.below(8), amounts[rng.below(4)]);
    }
    // Retries: jobs leave the queue and come back behind younger ids.
    for (int retry = 0, retries = static_cast<int>(rng.below(4));
         retry < retries && !queue.empty(); ++retry) {
      const auto from = queue.begin() +
                        static_cast<std::ptrdiff_t>(rng.below(queue.size()));
      grid::GridJob* job = *from;
      queue.erase(from);
      queue.insert(queue.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(queue.size() + 1)),
                   job);
    }
    // New arrivals.
    for (std::size_t b = 0, arrivals = rng.below(4); b < arrivals; ++b) {
      add_batch(queue);
    }
    const std::deque<grid::GridJob*> expected = oracle(queue);
    const std::size_t runs = order.apply(queue, ledger);
    EXPECT_GE(runs, 1u);
    EXPECT_LE(runs, queue.size());
    if (runs >= 3) ++merged_three_or_more_runs;
    EXPECT_EQ(queue, expected) << "shaped trial " << trial;

    // A queue already in order is one run and stays as it is.
    EXPECT_EQ(order.apply(queue, ledger), 1u);
    EXPECT_EQ(queue, expected);
  }
  EXPECT_GT(merged_three_or_more_runs, 10);

  // All singletons: strictly descending keys, tied usage across users
  // broken by id, so every job starts its own run.
  FairShareLedger ledger{FairShareConfig{}};
  std::deque<grid::GridJob> jobs;
  std::deque<grid::GridJob*> queue;
  for (UserId user = 1; user <= 20; ++user) {
    // Users 20, 19, ... 1 get usage 10 * ((user + 1) / 2): pairs tie.
    ledger.charge(user, 10.0 * static_cast<double>((user + 1) / 2));
  }
  for (UserId user = 20; user >= 1; --user) {
    for (int copy = 0; copy < 2; ++copy) {
      grid::GridJob& job = jobs.emplace_back();
      job.user_id = user;
      job.id = 1000 - jobs.size();  // descending ids within a tie
      queue.push_back(&job);
    }
  }
  std::deque<grid::GridJob*> expected(queue.rbegin(), queue.rend());
  EXPECT_EQ(order.apply(queue, ledger), queue.size());
  EXPECT_EQ(queue, expected);
}

TEST(FairShare, SaturationMemoIsDroppedWhenAHookCancelsMidPass) {
  // One pump pass: "busy" fills to its one-job-per-slot cap, a job routed
  // to "down" (in outage) bounces and, with max_attempts = 0, is abandoned
  // on the spot; the terminal hook then cancels the job queued on "busy".
  // The next job routed to "busy" must see the freed room, as it would if
  // the pass had re-read the resource instead of remembering it full.
  LatticeConfig config;
  config.scheduler_period = 60.0;
  config.fair_share.backlog_per_slot = 1.0;
  config.max_attempts = 0;
  LatticeSystem system(config);
  grid::BatchQueueResource::Config busy;
  busy.nodes = 1;
  busy.cores_per_node = 1;
  busy.software = {"x"};
  system.add_cluster("busy", busy);
  grid::BatchQueueResource::Config down = busy;
  down.software = {"y"};
  system.add_cluster("down", down);
  system.calibrate_speeds();
  system.resource("down")->set_outage(true);

  grid::JobRequirements on_busy;
  on_busy.software = {"x"};
  grid::JobRequirements on_down;
  on_down.software = {"y"};
  const auto submit = [&system](const grid::JobRequirements& where) {
    return system.submit_job_with_runtime(GarliFeatures{}, 1000.0, where);
  };
  const std::uint64_t running = submit(on_busy);
  const std::uint64_t queued = submit(on_busy);
  const std::uint64_t deferred = submit(on_busy);
  const std::uint64_t bounced = submit(on_down);
  const std::uint64_t after_cancel = submit(on_busy);
  system.set_job_terminal_hook(
      [&system, bounced, queued](const grid::GridJob& job, bool) {
        if (job.id == bounced) system.cancel_job(queued);
      });

  system.run(config.scheduler_period + 1.0);
  EXPECT_EQ(system.job(running)->state, grid::JobState::kRunning);
  EXPECT_EQ(system.job(queued)->state, grid::JobState::kCancelled);
  EXPECT_EQ(system.job(deferred)->state, grid::JobState::kPending);
  EXPECT_EQ(system.job(bounced)->state, grid::JobState::kFailed);
  EXPECT_EQ(system.job(after_cancel)->state, grid::JobState::kQueued);
  EXPECT_EQ(system.job(after_cancel)->resource, "busy");
}

TEST(FairShare, DeferralMemoIsDroppedWhenADispatchChargesTheUser) {
  // One pump pass, oracle mode, every job from user 1. Two jobs fill the
  // fast desktop "pool" to its cap, so job `a` is deferred there. Job `b`
  // goes elsewhere, and its dispatch charges user 1 enough that the
  // inflated estimate of `c` — a copy of `a` — no longer passes the pool's
  // stability cutoff: `c` must be placed on "hpc", not deferred like `a`.
  LatticeConfig config;
  config.scheduler.mode = SchedulingMode::kOracle;
  config.scheduler.fair_share_weight = 0.1;
  config.scheduler_period = 60.0;
  config.fair_share.backlog_per_slot = 1.0;
  LatticeSystem system(config);
  grid::CondorPool::Config pool;
  pool.machines = 1;
  pool.mean_speed = 4.0;
  pool.speed_sigma = 0.0;
  pool.mean_idle_hours = 1e6;
  pool.software = {"x"};
  system.add_condor_pool("pool", pool);
  grid::BatchQueueResource::Config hpc;
  hpc.nodes = 1;
  hpc.cores_per_node = 1;
  hpc.node_speed = 0.5;
  hpc.software = {"x"};
  system.add_cluster("hpc", hpc);
  grid::BatchQueueResource::Config side = hpc;
  side.software = {"y"};
  system.add_cluster("side", side);
  system.calibrate_speeds();

  grid::JobRequirements on_x;
  on_x.software = {"x"};
  grid::JobRequirements on_y;
  on_y.software = {"y"};
  const auto submit = [&system](const grid::JobRequirements& where,
                                double hours) {
    return system.submit_job_with_runtime(GarliFeatures{}, hours * 3600.0,
                                          where, 0, {}, 1);
  };
  const std::uint64_t first = submit(on_x, 8.0);
  const std::uint64_t second = submit(on_x, 8.0);
  const std::uint64_t a = submit(on_x, 8.0);
  const std::uint64_t b = submit(on_y, 100.0);
  const std::uint64_t c = submit(on_x, 8.0);

  system.run(config.scheduler_period + 1.0);
  EXPECT_EQ(system.job(first)->resource, "pool");
  EXPECT_EQ(system.job(second)->resource, "pool");
  EXPECT_EQ(system.job(a)->state, grid::JobState::kPending);
  EXPECT_EQ(system.job(b)->resource, "side");
  EXPECT_NE(system.job(c)->state, grid::JobState::kPending);
  EXPECT_EQ(system.job(c)->resource, "hpc");
}

TEST(Pump, HookThatEmptiesThePendingQueueEndsThePass) {
  // The pass sizes itself from the queue length at its start. Here the
  // first job bounces off a cluster in outage, is abandoned (max_attempts
  // 0), and its terminal hook cancels the only other pending job: the
  // pass must stop on the empty queue instead of reading past it.
  LatticeConfig config;
  config.scheduler_period = 60.0;
  config.max_attempts = 0;
  LatticeSystem system(config);
  system.add_cluster("down", grid::BatchQueueResource::Config{});
  system.calibrate_speeds();
  system.resource("down")->set_outage(true);
  const std::uint64_t bounced =
      system.submit_job_with_runtime(GarliFeatures{}, 1000.0);
  const std::uint64_t sibling =
      system.submit_job_with_runtime(GarliFeatures{}, 1000.0);
  system.set_job_terminal_hook(
      [&system, bounced, sibling](const grid::GridJob& job, bool) {
        if (job.id == bounced) system.cancel_job(sibling);
      });
  system.run(config.scheduler_period + 1.0);
  EXPECT_EQ(system.job(bounced)->state, grid::JobState::kFailed);
  EXPECT_EQ(system.job(sibling)->state, grid::JobState::kCancelled);
  EXPECT_EQ(system.pending_jobs(), 0u);
}

// What one pump-identity run leaves behind: the event count, the terminal
// tallies, and an FNV-1a digest of every job's (resource, start, finish).
struct PumpGolden {
  std::uint64_t events_fired = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t digest = 0;
};

PumpGolden run_pump_identity_scenario(
    obs::MetricsRegistry* metrics = nullptr) {
  LatticeConfig config;
  config.scheduler.mode = SchedulingMode::kEstimateAware;
  config.scheduler.fair_share_weight = 0.5;
  config.scheduler_period = 60.0;
  config.seed = 23;
  config.fair_share.order_queue = true;
  config.fair_share.backlog_per_slot = 1.0;
  config.fair_share.half_life_seconds = 2.0 * 3600.0;
  config.retry.backoff_base_seconds = 30.0;
  config.retry.backoff_cap_seconds = 600.0;
  LatticeSystem system(config);
  if (metrics != nullptr) {
    system.enable_observability(*metrics, obs::Tracer::null());
  }

  grid::BatchQueueResource::Config hpc;
  hpc.nodes = 4;
  hpc.cores_per_node = 2;
  system.add_cluster("hpc", hpc);
  grid::BatchQueueResource::Config mpp;
  mpp.nodes = 2;
  mpp.cores_per_node = 4;
  mpp.node_speed = 1.5;
  system.add_cluster("mpp", mpp);
  grid::CondorPool::Config condor;
  condor.machines = 12;
  system.add_condor_pool("condor", condor);
  system.calibrate_speeds();

  GarliCostModel model;
  util::Rng corpus_rng(31);
  RuntimeEstimator::Config estimator_config;
  estimator_config.forest.n_trees = 40;
  estimator_config.retrain_every = 0;
  system.estimator() = RuntimeEstimator(estimator_config);
  system.estimator().train(generate_corpus(60, model, corpus_rng));

  // "mpp" goes down for three hours: the scheduler does not know, so every
  // dispatch there bounces synchronously inside the pump pass and comes
  // back through the retry backoff.
  system.simulation().at(1800.0, [&system] {
    system.resource("mpp")->set_outage(true);
  });
  system.simulation().at(4.0 * 3600.0, [&system] {
    system.resource("mpp")->set_outage(false);
  });
  // A completion of every seventh job cancels its successor, wherever
  // that sibling is (pending, backing off, queued or running).
  std::uint64_t cancelled = 0;
  system.set_job_terminal_hook(
      [&system, &cancelled](const grid::GridJob& job, bool completed) {
        if (!completed) return;
        if (job.id % 7 == 0 && system.cancel_job(job.id + 1)) ++cancelled;
      });

  // Four waves of 30 jobs from users 0-4 (user 0 is never charged); user
  // 9 first appears in the last wave. Features repeat within a wave.
  for (int wave = 0; wave < 6; ++wave) {
    system.simulation().at(wave * 1200.0, [&system, wave] {
      for (int i = 0; i < 40; ++i) {
        GarliFeatures features;
        features.num_taxa = 60.0 + 20.0 * (i % 3);
        features.num_patterns = 400.0 + 200.0 * (i % 4);
        features.genthresh = 400.0;
        const UserId user =
            (wave == 5 && i % 6 == 0) ? 9 : static_cast<UserId>(i % 5);
        system.submit_garli_job(features, {}, 0, {}, user);
      }
    });
  }
  system.run(1.0);
  system.run_until_drained(30.0 * 86400.0);

  PumpGolden golden;
  golden.events_fired = system.simulation().events_fired();
  golden.completed = system.metrics().completed;
  golden.cancelled = cancelled;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  system.for_each_job([&mix](const grid::GridJob& job) {
    mix(job.id);
    for (const char c : job.resource) mix(static_cast<unsigned char>(c));
    mix(std::bit_cast<std::uint64_t>(job.start_time));
    mix(std::bit_cast<std::uint64_t>(job.finish_time));
    mix(static_cast<std::uint64_t>(job.state));
  });
  golden.digest = hash;
  return golden;
}

TEST(FairShare, PumpIdentityGoldenUnderOutageBounceAndHookCancel) {
  // Recorded from the pump that ordered its queue with a std::stable_sort
  // over job ids and re-read the ledger per comparison; the run merge,
  // the pointer queue and the saturation and deferral memos must
  // reproduce it exactly.
  const PumpGolden golden = run_pump_identity_scenario();
  EXPECT_EQ(golden.events_fired, 37592u);
  EXPECT_EQ(golden.completed, 224u);
  EXPECT_EQ(golden.cancelled, 16u);
  EXPECT_EQ(golden.digest, 0x53779eee13e3872eULL);
}

TEST(FairShare, DeferralMemoReplacesOnlyRepeatedDecisions) {
  // Every job a pass looks at either gets a choose() call (counted in
  // sched.decisions or sched.no_eligible) or is deferred on the memo
  // (sched.deferred_repeats). The pump without the memo called choose()
  // for every job: 57329 decisions and 0 no_eligible on this scenario,
  // recorded from that pump. The three counters must add up to it.
  obs::MetricsRegistry metrics;
  const PumpGolden golden = run_pump_identity_scenario(&metrics);
  EXPECT_EQ(golden.events_fired, 37592u);
  EXPECT_EQ(golden.digest, 0x53779eee13e3872eULL);
  const std::uint64_t decisions = metrics.counter_total("sched.decisions");
  const std::uint64_t no_eligible = metrics.counter_total("sched.no_eligible");
  const std::uint64_t repeats = metrics.counter_total("sched.deferred_repeats");
  EXPECT_GT(repeats, 0u);
  EXPECT_EQ(decisions + no_eligible + repeats, 57329u)
      << decisions << " decisions, " << no_eligible << " no_eligible, "
      << repeats << " repeats";
}

TEST(UserPopulation, PartitionsIdsAndRespectsReplicateCap) {
  UserPopulationConfig config;
  config.guests = {9000, 0.01, 1.05, 1};
  config.registered = {900, 0.2, 1.3, 5};
  config.power = {100, 2.0, 1.6, 200};
  config.max_replicates = 2000;
  UserPopulation population(config);
  EXPECT_EQ(population.total_users(), 10000u);
  EXPECT_EQ(population.class_of(1), UserClass::kGuest);
  EXPECT_EQ(population.class_of(9000), UserClass::kGuest);
  EXPECT_EQ(population.class_of(9001), UserClass::kRegistered);
  EXPECT_EQ(population.class_of(9900), UserClass::kRegistered);
  EXPECT_EQ(population.class_of(9901), UserClass::kPower);

  GarliCostModel model;
  util::Rng rng(5);
  const auto trace = population.generate(400, model, rng);
  ASSERT_EQ(trace.size(), 400u);
  bool saw_capped = false;
  double last_arrival = 0.0;
  for (const WorkloadEntry& entry : trace) {
    ASSERT_GE(entry.user_id, 1u);
    ASSERT_LE(entry.user_id, 10000u);
    EXPECT_EQ(entry.user_class, population.class_of(entry.user_id));
    ASSERT_GE(entry.replicates, 1u);
    ASSERT_LE(entry.replicates, 2000u);
    if (entry.replicates == 2000u) saw_capped = true;
    EXPECT_GT(entry.arrival_seconds, last_arrival);
    last_arrival = entry.arrival_seconds;
  }
  // The heavy tail must actually reach the web cap now and then.
  EXPECT_TRUE(saw_capped);
}

TEST(UserPopulation, CsvRoundTripsUserColumns) {
  UserPopulation population;
  GarliCostModel model;
  util::Rng rng(6);
  const auto trace = population.generate(60, model, rng);
  const std::string csv = workload_to_csv(trace);
  const auto parsed = workload_from_csv(csv);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed[i].arrival_seconds, trace[i].arrival_seconds);
    EXPECT_EQ(parsed[i].user_id, trace[i].user_id);
    EXPECT_EQ(parsed[i].user_class, trace[i].user_class);
    EXPECT_EQ(parsed[i].replicates, trace[i].replicates);
    EXPECT_EQ(parsed[i].features.num_taxa, trace[i].features.num_taxa);
  }
  // Round trip is exact, so re-serializing reproduces the bytes.
  EXPECT_EQ(workload_to_csv(parsed), csv);
}

TEST(UserPopulation, ParsesPrePortalTracesWithoutUserColumns) {
  const std::string legacy =
      "arrival_seconds,num_taxa,num_patterns,data_type,rate_het_model,"
      "num_rate_categories,subst_model_params,search_reps,genthresh,"
      "has_starting_tree,true_reference_runtime\n"
      "120.5,50,400,0,1,4,1,2,200,0,3600\n";
  const auto parsed = workload_from_csv(legacy);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].user_id, 0u);
  EXPECT_EQ(parsed[0].replicates, 0u);  // plain grid-level trace row
}

TEST(PortalScale, TwinRunsOfATenThousandUserWorkloadAreBitIdentical) {
  UserPopulationConfig pop_config;
  pop_config.guests = {9000, 0.02, 1.2, 1};
  pop_config.registered = {900, 0.3, 1.4, 2};
  pop_config.power = {100, 1.5, 1.8, 8};
  pop_config.max_replicates = 30;
  pop_config.max_expected_hours = 8.0;

  struct RunResult {
    std::string workload_csv;
    std::uint64_t completed = 0;
    std::uint64_t accepted = 0;
    std::uint64_t quota_denied = 0;
    std::uint64_t shed = 0;
    double last_completion = 0.0;
    double total_turnaround = 0.0;
  };
  const auto run_once = [&pop_config]() {
    PortalConfig portal_config;
    portal_config.quota_guest = {2, 50};
    portal_config.quota_registered = {8, 400};
    portal_config.quota_power = {16, 2000};
    portal_config.shed_backlog_watermark = 2000;
    LatticeConfig config = scale_config();
    config.scheduler_period = 300.0;
    config.fair_share.order_queue = true;
    config.fair_share.backlog_per_slot = 2.0;
    config.scheduler.fair_share_weight = 0.5;
    ScaleFixture fx{portal_config, config};
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    fx.system.enable_observability(metrics, tracer);
    fx.portal.set_observability(metrics);

    UserPopulation population(pop_config);
    GarliCostModel model;
    util::Rng rng(29);
    const auto trace = population.generate(100, model, rng);
    submit_portal_workload(fx.portal, trace);
    // Arrivals are scheduled events: run past the last arrival so every
    // submission fires, then drain what was admitted.
    fx.system.run(trace.back().arrival_seconds + 1.0);
    fx.system.run_until_drained(600.0 * 86400.0);

    RunResult result;
    result.workload_csv = workload_to_csv(trace);
    result.completed = fx.system.metrics().completed;
    result.accepted = metrics.counter_total("portal.admit_accepted");
    result.quota_denied = metrics.counter_total("portal.admit_quota_denied");
    result.shed = metrics.counter_total("portal.shed_guest");
    result.last_completion = fx.system.metrics().last_completion;
    result.total_turnaround = fx.system.metrics().total_turnaround_seconds;
    return result;
  };

  const RunResult first = run_once();
  const RunResult second = run_once();
  EXPECT_EQ(first.workload_csv, second.workload_csv);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.quota_denied, second.quota_denied);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.last_completion, second.last_completion);
  EXPECT_EQ(first.total_turnaround, second.total_turnaround);
  EXPECT_GT(first.completed, 0u);
  EXPECT_GT(first.accepted, 0u);
}

}  // namespace
}  // namespace lattice::core
