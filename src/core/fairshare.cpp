#include "core/fairshare.hpp"

#include <algorithm>
#include <cmath>

#include "grid/job.hpp"

namespace lattice::core {

double FairShareLedger::decayed(const Entry& entry) const {
  if (config_.half_life_seconds <= 0.0) return entry.value;
  const double age = now_ - entry.as_of;
  if (age <= 0.0) return entry.value;
  return entry.value *
         std::exp2(-age / config_.half_life_seconds);
}

std::size_t FairShareQueueOrder::apply(std::deque<grid::GridJob*>& queue,
                                      const FairShareLedger& ledger) {
  const auto key_less = [](const Key& a, const Key& b) {
    if (a.usage != b.usage) return a.usage < b.usage;
    return a.id < b.id;
  };
  keys_.clear();
  runs_.clear();
  const grid::GridJob* previous = nullptr;
  double usage = 0.0;
  for (grid::GridJob* job : queue) {
    if (previous == nullptr || job->user_id != previous->user_id) {
      usage = ledger.usage(job->user_id);
    }
    previous = job;
    const Key key{usage, job->id, job};
    if (keys_.empty() || key_less(key, keys_.back())) {
      runs_.push_back(keys_.size());
    }
    keys_.push_back(key);
  }
  const std::size_t found = runs_.size();
  if (found <= 1) return found;

  // Natural merge sort, bottom-up: each round merges runs 2i and 2i + 1
  // into merged_ (an odd last run is copied over) and halves the count.
  runs_.push_back(keys_.size());
  merged_.resize(keys_.size());
  while (runs_.size() > 2) {
    const std::size_t runs = runs_.size() - 1;
    const auto at = [this](std::size_t run) {
      return keys_.begin() + static_cast<std::ptrdiff_t>(runs_[run]);
    };
    for (std::size_t r = 0; r < runs; r += 2) {
      const auto out =
          merged_.begin() + static_cast<std::ptrdiff_t>(runs_[r]);
      if (r + 1 == runs) {
        std::copy(at(r), at(r + 1), out);
      } else {
        std::merge(at(r), at(r + 1), at(r + 1), at(r + 2), out, key_less);
      }
      runs_[r / 2] = runs_[r];  // r / 2 <= r: only consumed slots move
    }
    runs_[(runs + 1) / 2] = keys_.size();
    runs_.resize((runs + 1) / 2 + 1);
    keys_.swap(merged_);
  }
  std::transform(keys_.begin(), keys_.end(), queue.begin(),
                 [](const Key& key) { return key.job; });
  return found;
}

}  // namespace lattice::core
