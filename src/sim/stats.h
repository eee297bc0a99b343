// Measurement primitives used by tests and benchmark harnesses.
#ifndef PEGASUS_SRC_SIM_STATS_H_
#define PEGASUS_SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
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

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_STATS_H_
