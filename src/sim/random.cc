#include "src/sim/random.h"

#include <cmath>

namespace pegasus::sim {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

double Rng::UniformDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return UniformDouble() < p;
}

double Rng::Exponential(double mean) {
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::BoundedPareto(double alpha, double lo, double hi) {
  const double u = UniformDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

int64_t Rng::Zipf(int64_t n, double theta) {
  if (n != zipf_n_ || theta != zipf_theta_) {
    zipf_n_ = n;
    zipf_theta_ = theta;
    zipf_norm_ = 0.0;
    for (int64_t i = 1; i <= n; ++i) {
      zipf_norm_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
  }
  double target = UniformDouble() * zipf_norm_;
  double sum = 0.0;
  for (int64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
    if (sum >= target) {
      return i - 1;
    }
  }
  return n - 1;
}

}  // namespace pegasus::sim
