#include "colorbars/util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace colorbars::util {
namespace {

TEST(Splitmix64, ProducesKnownSequence) {
  // Reference values for seed 0 from the splitmix64 reference
  // implementation.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64_next(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64_next(state), 0x06c45d188009454fULL);
}

TEST(Xoshiro256, IsDeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro256, UniformStaysInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro256, UniformMeanIsCentered) {
  Xoshiro256 rng(11);
  double total = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) total += rng.uniform();
  EXPECT_NEAR(total / kSamples, 0.5, 0.01);
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro256, BelowCoversAllValues) {
  Xoshiro256 rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, BelowOneAlwaysZero) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, NormalHasExpectedMoments) {
  Xoshiro256 rng(23);
  constexpr int kSamples = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double variance = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(variance, 1.0, 0.03);
}

TEST(Xoshiro256, FillNormalMatchesSuccessiveNormalCalls) {
  // The render's noise draws go through fill_normal; the frozen golden
  // captures need it to be exactly the normal() sequence, bit for bit,
  // and to leave the generator (cached half-pair included) where those
  // calls would.
  std::vector<double> batch;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool cached : {false, true}) {
      for (std::size_t n = 0; n <= 300; ++n) {
        Xoshiro256 batched(seed * 1000003 + n);
        Xoshiro256 reference(seed * 1000003 + n);
        if (cached) {
          // One normal() leaves the second half of its pair cached.
          (void)batched.normal();
          (void)reference.normal();
        }
        batch.assign(n, 0.0);
        batched.fill_normal(batch);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
                    std::bit_cast<std::uint64_t>(reference.normal()))
              << "seed " << seed << " cached " << cached << " n " << n << " i " << i;
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.normal()),
                  std::bit_cast<std::uint64_t>(reference.normal()))
            << "seed " << seed << " cached " << cached << " n " << n;
        ASSERT_EQ(batched(), reference())
            << "seed " << seed << " cached " << cached << " n " << n;
      }
    }
  }
}

TEST(Xoshiro256, NormalWithParametersShiftsAndScales) {
  Xoshiro256 rng(29);
  constexpr int kSamples = 100000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kSamples, 10.0, 0.05);
}

TEST(Xoshiro256, ChanceMatchesProbability) {
  Xoshiro256 rng(31);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

}  // namespace
}  // namespace colorbars::util
