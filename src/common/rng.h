// Deterministic, fast PRNG (xoshiro256**) used by workload generators
// and simulations. Benchmarks must be reproducible run-to-run, so all
// randomness flows through explicitly seeded instances of this class.
#pragma once

#include <cmath>
#include <cstdint>

namespace labstor {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 to expand the seed into the full state.
    for (auto& word : state_) {
      seed += 0x9E3779B97F4A7C15ULL;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  // Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Exponentially distributed with the given mean (for inter-arrival
  // times in open-loop workloads).
  double Exponential(double mean) {
    double u = NextDouble();
    if (u <= 0.0) u = 1e-12;
    return -mean * std::log(u);
  }

  // Bounded Zipf-like selector used to model skewed file popularity in
  // the webserver/webproxy Filebench mixes. Uses the rejection-free
  // approximation of Gray et al. ("Quickly generating billion-record
  // synthetic databases"); theta in (0, 1).
  uint64_t Zipf(uint64_t n, double theta) {
    if (n <= 1) return 0;
    if (n != zipf_.n || theta != zipf_.theta) {
      // zeta(n) takes up to 1,024 pow() calls: compute it and the
      // constants that follow from it once per (n, theta), not per
      // draw. Same expressions, so the draws are unchanged.
      zipf_.n = n;
      zipf_.theta = theta;
      zipf_.zetan = ZetaApprox(n, theta);
      zipf_.alpha = 1.0 / (1.0 - theta);
      zipf_.eta = (1.0 - std::pow(2.0 / static_cast<double>(n),
                                  1.0 - theta)) /
                  (1.0 - ZetaApprox(2, theta) / zipf_.zetan);
      zipf_.rank1_bound = 1.0 + std::pow(0.5, theta);
    }
    const double eta = zipf_.eta;
    const double u = NextDouble();
    const double uz = u * zipf_.zetan;
    if (uz < 1.0) return 0;
    if (uz < zipf_.rank1_bound) return 1;
    const auto rank = static_cast<uint64_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, zipf_.alpha));
    return rank >= n ? n - 1 : rank;
  }

 private:
  struct ZipfConstants {
    uint64_t n = 0;  // 0: nothing cached yet
    double theta = 0.0;
    double zetan = 0.0;
    double alpha = 0.0;
    double eta = 0.0;
    double rank1_bound = 0.0;  // u * zetan below this draws rank 1
  };

  static double ZetaApprox(uint64_t n, double theta) {
    // Sample the harmonic sum; exact for small n, approximated by the
    // integral for large n. Popularity skew does not need digit-exact
    // zeta values.
    if (n <= 1024) {
      double sum = 0.0;
      for (uint64_t i = 1; i <= n; ++i) sum += std::pow(1.0 / static_cast<double>(i), theta);
      return sum;
    }
    double sum = 0.0;
    for (uint64_t i = 1; i <= 1024; ++i) sum += std::pow(1.0 / static_cast<double>(i), theta);
    // Integral tail from 1024 to n of x^-theta dx.
    sum += (std::pow(static_cast<double>(n), 1.0 - theta) -
            std::pow(1024.0, 1.0 - theta)) /
           (1.0 - theta);
    return sum;
  }

  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  ZipfConstants zipf_;
};

}  // namespace labstor
