#include "core/estimator.hpp"

#include <cmath>

namespace lattice::core {

RuntimeEstimator::RuntimeEstimator(Config config)
    : config_(std::move(config)) {}

void RuntimeEstimator::train(const std::vector<TrainingExample>& corpus,
                             util::ThreadPool* pool) {
  corpus_ = corpus;
  rebuild(pool);
}

void RuntimeEstimator::rebuild(util::ThreadPool* pool) {
  if (corpus_.size() < 2) return;
  dataset_ = corpus_to_dataset(corpus_, config_.log_space);
  forest_.fit(*dataset_, config_.forest, pool);
  observations_since_train_ = 0;
  memo_features_.clear();
}

std::optional<double> RuntimeEstimator::predict(
    const GarliFeatures& features) const {
  if (!forest_.trained()) return std::nullopt;
  std::vector<double> row = to_feature_vector(features);
  if (row != memo_features_) {
    const double raw = forest_.predict(row);
    memo_prediction_ = config_.log_space ? std::exp(raw) : raw;
    memo_features_ = std::move(row);
  }
  return memo_prediction_;
}

void RuntimeEstimator::observe(const GarliFeatures& features, double runtime,
                               util::ThreadPool* pool) {
  corpus_.push_back(TrainingExample{features, runtime});
  ++observations_since_train_;
  if (config_.retrain_every != 0 &&
      observations_since_train_ >= config_.retrain_every) {
    rebuild(pool);
  }
}

double RuntimeEstimator::variance_explained() const {
  if (!forest_.trained()) return 0.0;
  return forest_.variance_explained();
}

std::vector<rf::ImportanceEntry> RuntimeEstimator::importance(
    util::Rng& rng, std::size_t repeats) const {
  return forest_.importance(rng, repeats);
}

}  // namespace lattice::core
