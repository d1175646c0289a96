#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace labstor {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / kSamples, 10.0, 0.2);
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(17);
  constexpr uint64_t kN = 1000;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.Zipf(kN, 0.9);
    ASSERT_LT(v, kN);
    ++counts[v];
  }
  // Rank 0 must dominate the median rank heavily.
  EXPECT_GT(counts[0], 10 * counts[kN / 2] + 1);
}

TEST(RngTest, ZipfDegenerateN1) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Zipf(1, 0.9), 0u);
}

// Zipf as it was before Rng cached zeta(n): every constant recomputed
// on every draw from the same uniform variate.
double ReferenceZeta(uint64_t n, double theta) {
  if (n <= 1024) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) sum += std::pow(1.0 / static_cast<double>(i), theta);
    return sum;
  }
  double sum = 0.0;
  for (uint64_t i = 1; i <= 1024; ++i) sum += std::pow(1.0 / static_cast<double>(i), theta);
  sum += (std::pow(static_cast<double>(n), 1.0 - theta) -
          std::pow(1024.0, 1.0 - theta)) /
         (1.0 - theta);
  return sum;
}

uint64_t ReferenceZipf(Rng& rng, uint64_t n, double theta) {
  if (n <= 1) return 0;
  const double zetan = ReferenceZeta(n, theta);
  const double alpha = 1.0 / (1.0 - theta);
  const double eta = (1.0 - std::pow(2.0 / static_cast<double>(n),
                                     1.0 - theta)) /
                     (1.0 - ReferenceZeta(2, theta) / zetan);
  const double u = rng.NextDouble();
  const double uz = u * zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta)) return 1;
  const auto rank = static_cast<uint64_t>(
      static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
  return rank >= n ? n - 1 : rank;
}

TEST(RngTest, ZipfMatchesUncachedFormula) {
  // Both zeta branches (n <= 1024 exact, larger n with the integral
  // tail), and (n, theta) changing between runs so the cached
  // constants are replaced, including a change of theta alone.
  const std::vector<std::pair<uint64_t, double>> params = {
      {2, 0.5},      {26, 0.9},     {1000, 0.99},     {1000, 0.9},
      {1024, 0.8},   {1025, 0.8},   {100000, 0.99},   {1ull << 20, 0.6},
      {1, 0.9},      {26, 0.9}};
  Rng cached(42);
  Rng reference(42);
  for (int round = 0; round < 2; ++round) {
    for (const auto& [n, theta] : params) {
      for (int i = 0; i < 500; ++i) {
        ASSERT_EQ(cached.Zipf(n, theta), ReferenceZipf(reference, n, theta))
            << "draw " << i << " of Zipf(" << n << ", " << theta << ")";
      }
    }
  }
  // The streams stayed in step.
  EXPECT_EQ(cached.Next(), reference.Next());
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

}  // namespace
}  // namespace labstor
