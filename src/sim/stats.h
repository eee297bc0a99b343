// Measurement primitives used by tests and benchmark harnesses.
#ifndef PEGASUS_SRC_SIM_STATS_H_
#define PEGASUS_SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace pegasus::sim {

// Accumulates scalar samples and reports summary statistics. Stores all
// samples so exact quantiles are available; simulation runs are small enough
// that this is the right trade-off.
class Summary {
 public:
  void Add(double v);

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  double sum() const { return sum_; }
  double min() const;
  double max() const;
  double mean() const;
  // Population standard deviation; 0 for fewer than two samples.
  double stddev() const;
  // Exact quantile by nearest-rank, q in [0, 1]. Returns 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
  mutable bool sorted_ = true;
  mutable std::vector<double> sorted_samples_;

  void EnsureSorted() const;
};

// Fixed-bucket histogram over [lo, hi) with `buckets` equal-width bins plus
// underflow/overflow bins. Used for latency and jitter distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);

  void Add(double v);

  int64_t count() const { return count_; }
  int64_t bucket_count(int i) const { return counts_[static_cast<size_t>(i)]; }
  int buckets() const { return static_cast<int>(counts_.size()); }
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }
  double bucket_lo(int i) const;
  double bucket_hi(int i) const;

  // Renders a compact ASCII sketch, one line per non-empty bucket.
  std::string ToString(const std::string& unit) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  int64_t count_ = 0;
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_STATS_H_
