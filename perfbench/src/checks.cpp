#include "checks.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "boinc/server.hpp"
#include "core/lattice.hpp"
#include "grid/resource.hpp"
#include "trace.hpp"

namespace perfbench {

namespace lp = lattice::phylo;

namespace {

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

/// Largest standard normal deviate util::Rng::normal can return: Box-Muller
/// with u1 >= 2^-53 bounds |z| by sqrt(-2 ln 2^-53). A lognormal host
/// speed drawn through it is therefore bounded too.
double max_normal_deviate() { return std::sqrt(2.0 * 53.0 * std::log(2.0)); }

double fastest_machine(lattice::grid::LocalResource& resource) {
  if (auto* cluster =
          dynamic_cast<lattice::grid::BatchQueueResource*>(&resource)) {
    return cluster->config().node_speed;
  }
  if (auto* condor = dynamic_cast<lattice::grid::CondorPool*>(&resource)) {
    const auto speeds = condor->machine_speeds();
    return speeds.empty() ? 0.0
                          : *std::max_element(speeds.begin(), speeds.end());
  }
  if (auto* boinc = dynamic_cast<lattice::boinc::BoincServer*>(&resource)) {
    // Volunteer host speeds are private to the server; bound them by the
    // pool's lognormal and the generator's largest deviate.
    const double sigma = boinc->config().speed_sigma;
    return boinc->config().mean_speed *
           std::exp(-0.5 * sigma * sigma + sigma * max_normal_deviate());
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

GridLedger read_grid_ledger(lattice::core::LatticeSystem& system) {
  std::map<std::string, double> caps;
  for (const std::string& name : system.resource_names()) {
    caps[name] = fastest_machine(*system.resource(name));
  }
  GridLedger ledger;
  const auto& metrics = system.metrics();
  ledger.submitted = metrics.submitted;
  ledger.completed = metrics.completed;
  ledger.abandoned = metrics.abandoned;
  system.for_each_job([&](const lattice::grid::GridJob& job) {
    JobRecord record;
    record.id = job.id;
    record.completed = job.state == lattice::grid::JobState::kCompleted;
    record.submit = job.submit_time;
    record.start = job.start_time;
    record.finish = job.finish_time;
    record.true_runtime = job.true_reference_runtime;
    const auto cap = caps.find(job.resource);
    record.speed_cap = cap == caps.end() ? 0.0 : cap->second;
    ledger.jobs.push_back(record);
  });
  return ledger;
}

Failures check_grid_ledger(const GridLedger& ledger) {
  Failures failures;
  if (ledger.submitted != ledger.completed + ledger.abandoned) {
    failures.push_back(cat("ledger: submitted ", ledger.submitted,
                           " != completed ", ledger.completed,
                           " + abandoned ", ledger.abandoned));
  }
  if (ledger.abandoned != 0) {
    failures.push_back(cat("ledger: ", ledger.abandoned, " jobs abandoned"));
  }
  if (ledger.jobs.size() != ledger.submitted) {
    failures.push_back(cat("ledger: ", ledger.jobs.size(),
                           " job records for ", ledger.submitted,
                           " submissions"));
  }
  std::size_t reported = 0;
  for (const JobRecord& job : ledger.jobs) {
    std::string problem;
    if (!job.completed) {
      problem = "did not complete";
    } else if (!(job.finish >= job.start && job.start >= job.submit)) {
      problem = cat("times out of order: submit ", job.submit, " start ",
                    job.start, " finish ", job.finish);
    } else if (!(job.speed_cap > 0.0) ||
               job.finish - job.submit <
                   job.true_runtime / job.speed_cap * (1.0 - 1e-12)) {
      problem = cat("finished in ", job.finish - job.submit,
                    " s, faster than reference runtime ", job.true_runtime,
                    " s on the fastest machine (speed ", job.speed_cap, ")");
    }
    if (!problem.empty() && reported++ < 5) {
      failures.push_back(cat("job ", job.id, ": ", problem));
    }
  }
  if (reported > 5) {
    failures.push_back(cat("ledger: ", reported - 5, " more bad jobs"));
  }
  return failures;
}

Failures check_admission(const AdmissionLedger& ledger) {
  Failures failures;
  std::uint64_t outcomes = 0;
  for (const auto& [name, count] : ledger.outcomes) outcomes += count;
  if (outcomes != ledger.submissions_made) {
    failures.push_back(cat("admission: outcomes sum to ", outcomes, " for ",
                           ledger.submissions_made, " submissions"));
  }
  if (ledger.batch_member_jobs != ledger.jobs_received) {
    failures.push_back(cat("admission: batches hold ",
                           ledger.batch_member_jobs, " jobs, grid received ",
                           ledger.jobs_received));
  }
  return failures;
}

Failures check_no_corruption(std::uint64_t corrupted_canonical) {
  if (corrupted_canonical == 0) return {};
  return {cat("validation: ", corrupted_canonical,
              " corrupted results became canonical under quorum 2")};
}

// ---- independent likelihood --------------------------------------------

namespace {

using Mat4 = std::array<double, 16>;

Mat4 multiply(const Mat4& a, const Mat4& b) {
  Mat4 c{};
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      const double aik = a[i * 4 + k];
      for (int j = 0; j < 4; ++j) c[i * 4 + j] += aik * b[k * 4 + j];
    }
  }
  return c;
}

/// exp(A) by scaling and squaring: halve A until its norm is below 1/2,
/// sum the Taylor series to machine precision, square back.
Mat4 expm(Mat4 a) {
  double norm = 0.0;
  for (int i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int j = 0; j < 4; ++j) row += std::abs(a[i * 4 + j]);
    norm = std::max(norm, row);
  }
  int squarings = 0;
  while (norm > 0.5) {
    norm *= 0.5;
    ++squarings;
  }
  const double scale = std::ldexp(1.0, -squarings);
  for (double& v : a) v *= scale;
  Mat4 result{};
  Mat4 term{};
  for (int i = 0; i < 4; ++i) result[i * 5] = term[i * 5] = 1.0;
  for (int k = 1; k < 30; ++k) {
    term = multiply(term, a);
    double largest = 0.0;
    for (double& v : term) {
      v /= k;
      largest = std::max(largest, std::abs(v));
    }
    for (int i = 0; i < 16; ++i) result[i] += term[i];
    if (largest < 1e-18) break;
  }
  for (int s = 0; s < squarings; ++s) result = multiply(result, result);
  return result;
}

struct NucModel {
  Mat4 q{};
  std::array<double, 4> pi{};
  std::vector<std::pair<double, double>> categories;  // (rate, weight)
};

NucModel build_model(const lp::ModelSpec& spec) {
  if (spec.data_type != lp::DataType::kNucleotide) {
    throw std::invalid_argument("recompute: nucleotide models only");
  }
  NucModel model;
  std::array<double, 6> ex{1, 1, 1, 1, 1, 1};  // AC AG AT CG CT GT
  model.pi = {0.25, 0.25, 0.25, 0.25};
  switch (spec.nuc_model) {
    case lp::NucModel::kJC69:
      break;
    case lp::NucModel::kK80:
      ex[1] = ex[4] = spec.kappa;
      break;
    case lp::NucModel::kHKY85:
      ex[1] = ex[4] = spec.kappa;
      model.pi = spec.base_frequencies;
      break;
    case lp::NucModel::kGTR:
      ex = spec.gtr_rates;
      model.pi = spec.base_frequencies;
      break;
  }
  const int pair[4][4] = {{-1, 0, 1, 2}, {0, -1, 3, 4}, {1, 3, -1, 5},
                          {2, 4, 5, -1}};
  double mean_rate = 0.0;
  for (int i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      model.q[i * 4 + j] = ex[pair[i][j]] * model.pi[j];
      row += model.q[i * 4 + j];
    }
    model.q[i * 5] = -row;
    mean_rate += model.pi[i] * row;
  }
  for (double& v : model.q) v /= mean_rate;

  const bool invariant = spec.rate_het == lp::RateHet::kGammaInvariant;
  const double pinv = invariant ? spec.proportion_invariant : 0.0;
  if (spec.rate_het == lp::RateHet::kNone) {
    model.categories.emplace_back(1.0, 1.0);
  } else {
    if (invariant && pinv > 0.0) model.categories.emplace_back(0.0, pinv);
    const auto rates =
        lp::discrete_gamma_rates(spec.gamma_alpha, spec.n_rate_categories);
    for (const double rate : rates) {
      model.categories.emplace_back(
          rate / (1.0 - pinv),
          (1.0 - pinv) / static_cast<double>(rates.size()));
    }
  }
  return model;
}

}  // namespace

double recompute_log_likelihood(const lp::Alignment& alignment,
                                const lp::Tree& tree,
                                const lp::ModelSpec& spec) {
  const NucModel model = build_model(spec);
  const std::size_t n_nodes = tree.n_nodes();
  const std::size_t n_cat = model.categories.size();
  if (tree.n_leaves() != alignment.n_taxa()) {
    throw std::invalid_argument("recompute: tree and alignment disagree");
  }
  // P(t * rate) for every (node, category); the root's entry is unused.
  std::vector<Mat4> p(n_nodes * n_cat);
  for (std::size_t node = 0; node < n_nodes; ++node) {
    if (static_cast<int>(node) == tree.root()) continue;
    const double length = tree.branch_length(static_cast<int>(node));
    for (std::size_t c = 0; c < n_cat; ++c) {
      Mat4 a = model.q;
      for (double& v : a) v *= length * model.categories[c].first;
      p[node * n_cat + c] = expm(a);
    }
  }
  std::vector<std::array<double, 4>> partial(n_nodes);
  std::vector<double> log_scale(n_nodes);
  double total = 0.0;
  std::vector<double> cat_log(n_cat);
  for (std::size_t site = 0; site < alignment.n_sites(); ++site) {
    for (std::size_t c = 0; c < n_cat; ++c) {
      for (const int node : tree.postorder()) {
        auto& out = partial[static_cast<std::size_t>(node)];
        if (tree.is_leaf(node)) {
          const lp::State s =
              alignment.state(static_cast<std::size_t>(node), site);
          for (int x = 0; x < 4; ++x) {
            out[x] = (s == lp::kMissing || s == x) ? 1.0 : 0.0;
          }
          log_scale[static_cast<std::size_t>(node)] = 0.0;
          continue;
        }
        const auto& n = tree.node(node);
        double largest = 0.0;
        for (int x = 0; x < 4; ++x) {
          double product = 1.0;
          for (const int child : {n.left, n.right}) {
            const Mat4& pc = p[static_cast<std::size_t>(child) * n_cat + c];
            const auto& lc = partial[static_cast<std::size_t>(child)];
            double sum = 0.0;
            for (int y = 0; y < 4; ++y) sum += pc[x * 4 + y] * lc[y];
            product *= sum;
          }
          out[x] = product;
          largest = std::max(largest, product);
        }
        double scale = log_scale[static_cast<std::size_t>(n.left)] +
                       log_scale[static_cast<std::size_t>(n.right)];
        if (largest > 0.0) {
          for (double& v : out) v /= largest;
          scale += std::log(largest);
        }
        log_scale[static_cast<std::size_t>(node)] = scale;
      }
      const auto root = static_cast<std::size_t>(tree.root());
      double site_l = 0.0;
      for (int x = 0; x < 4; ++x) site_l += model.pi[x] * partial[root][x];
      cat_log[c] = std::log(model.categories[c].second * site_l) +
                   log_scale[root];
    }
    const double peak = *std::max_element(cat_log.begin(), cat_log.end());
    double sum = 0.0;
    for (const double v : cat_log) sum += std::exp(v - peak);
    total += peak + std::log(sum);
  }
  return total;
}

Failures check_search(double reported_best, double recomputed_best,
                      double starting_lnl, double rel_tolerance) {
  Failures failures;
  const double gap = std::abs(reported_best - recomputed_best);
  if (!(gap <= rel_tolerance * std::abs(recomputed_best))) {
    failures.push_back(cat("search: reported best lnL ", reported_best,
                           " but the returned tree and model give ",
                           recomputed_best));
  }
  if (!(reported_best >= starting_lnl)) {
    failures.push_back(cat("search: best lnL ", reported_best,
                           " below the starting tree's ", starting_lnl));
  }
  return failures;
}

// ---- self-test -----------------------------------------------------------

Failures self_test(const SelfTestInputs& in) {
  Failures failures;
  const auto expect_fail = [&](const char* what, const Failures& result) {
    if (result.empty()) {
      failures.push_back(cat("self-test: check passed a perturbed result (",
                             what, ")"));
    }
  };
  if (in.grid != nullptr && !in.grid->jobs.empty()) {
    GridLedger off = *in.grid;
    off.submitted += 1;
    expect_fail("ledger off by one", check_grid_ledger(off));
    GridLedger lost = *in.grid;
    lost.completed -= 1;
    lost.abandoned += 1;
    expect_fail("abandoned job", check_grid_ledger(lost));
    GridLedger early = *in.grid;
    std::swap(early.jobs.front().start, early.jobs.front().finish);
    early.jobs.front().start += 1.0;
    expect_fail("job finishing before it started", check_grid_ledger(early));
    GridLedger fast = *in.grid;
    JobRecord& job = fast.jobs.back();
    job.finish = job.submit + 0.5 * job.true_runtime / job.speed_cap;
    job.start = job.submit;
    expect_fail("job beating the fastest machine", check_grid_ledger(fast));
  }
  if (in.admission != nullptr) {
    AdmissionLedger extra = *in.admission;
    extra.outcomes["accepted"] += 1;
    expect_fail("admission outcome counted twice", check_admission(extra));
    AdmissionLedger members = *in.admission;
    members.batch_member_jobs -= 1;
    expect_fail("batch member jobs off by one", check_admission(members));
  }
  if (in.corruption) {
    expect_fail("corrupted canonical result", check_no_corruption(1));
  }
  if (in.search) {
    const double shift = 1e-6 * std::abs(in.best_lnl);
    expect_fail("shifted lnL",
                check_search(in.best_lnl + shift, in.best_lnl,
                             in.starting_lnl));
    expect_fail("best below start",
                check_search(in.best_lnl, in.best_lnl, in.best_lnl + 1.0));
  }
  // The layer ledger's attribution: argument types and template
  // arguments must not claim a frame for liblattice.
  const std::pair<const char*, Layer> symbols[] = {
      {"lattice::sim::Simulation::run(double)", Layer::kSimKernel},
      {"void lattice::sim::ShardedCalendar::advance<lattice::boinc::X>(double)",
       Layer::kSimCalendar},
      {"lattice::core::Portal::submit(lattice::core::SubmissionRequest const&)",
       Layer::kPortal},
      {"lattice::phylo::kernels::(anonymous namespace)::apply(double*)",
       Layer::kPhyloKernels},
      {"perfbench::run(lattice::core::LatticeSystem&)", Layer::kUnattributed},
      {"std::vector<lattice::grid::GridJob, std::allocator<lattice::grid::"
       "GridJob> >::push_back(lattice::grid::GridJob const&)",
       Layer::kUnattributed},
  };
  for (const auto& [symbol, layer] : symbols) {
    if (classify_symbol(symbol) != layer) {
      failures.push_back(cat("self-test: misattributed frame ", symbol));
    }
  }
  return failures;
}

}  // namespace perfbench
