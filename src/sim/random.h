// Deterministic random-number generation for simulations.
//
// Every stochastic component (workload generators, jitter models, file
// lifetime distributions) draws from an Rng seeded explicitly, so that every
// experiment is reproducible bit-for-bit from its seed.
#ifndef PEGASUS_SRC_SIM_RANDOM_H_
#define PEGASUS_SRC_SIM_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pegasus::sim {

// xoshiro256** generator seeded via SplitMix64. Small, fast, and good enough
// for queueing/workload simulation; not for cryptography.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. Inline so
  // that a constant power-of-two span folds to a compare and a mask.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    // Unsigned arithmetic gives the signed form's values wherever that is
    // defined, and no overflow for spans beyond INT64_MAX (the full range
    // wraps to 0).
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (span == 0) {  // full 64-bit range
      return static_cast<int64_t>(Next());
    }
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    uint64_t r;
    do {
      r = Next();
    } while (r >= limit);
    return static_cast<int64_t>(static_cast<uint64_t>(lo) + r % span);
  }

  // Uniform double in [0, 1).
  double UniformDouble();

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  // Bounded Pareto sample in [lo, hi] with shape alpha. Used to model file
  // lifetimes and sizes (heavy-tailed, as in the Baker et al. traces).
  double BoundedPareto(double alpha, double lo, double hi);

  // Zipf-distributed rank in [0, n) with skew theta in (0, 1). Used to model
  // file access popularity.
  int64_t Zipf(int64_t n, double theta);

  // Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  // Zipf cache: recomputing the harmonic normaliser is O(n), so cache per (n, theta).
  int64_t zipf_n_ = 0;
  double zipf_theta_ = 0.0;
  double zipf_norm_ = 0.0;
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_RANDOM_H_
