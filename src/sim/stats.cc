#include "src/sim/stats.h"

#include <cmath>

namespace pegasus::sim {

void Summary::Add(double v) {
  samples_.push_back(v);
  sum_ += v;
  sorted_ = false;
}

double Summary::min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double m = mean();
  double acc = 0.0;
  for (double v : samples_) {
    acc += (v - m) * (v - m);
  }
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

void Summary::EnsureSorted() const {
  if (!sorted_) {
    sorted_samples_ = samples_;
    std::sort(sorted_samples_.begin(), sorted_samples_.end());
    sorted_ = true;
  }
}

double Summary::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto n = sorted_samples_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank > 0) {
    --rank;
  }
  if (rank >= n) {
    rank = n - 1;
  }
  return sorted_samples_[rank];
}

}  // namespace pegasus::sim
