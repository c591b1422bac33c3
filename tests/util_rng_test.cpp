#include "colorbars/util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "colorbars/simd/simd.hpp"

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

  // Sizes around 2L pairs for every block length L of the lane accept
  // loop, up to a render batch, through the dispatched accept loop and
  // finish on every backend.
  std::vector<std::size_t> sizes;
  for (const std::size_t length : simd::kPolarAcceptBlocks) {
    for (std::size_t n = 4 * length - 2; n <= 4 * length + 2; ++n) sizes.push_back(n);
  }
  const simd::Backend saved = simd::active_backend();
  std::vector<double> expected;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool cached : {false, true}) {
      for (const std::size_t n : sizes) {
        Xoshiro256 reference(seed * 1000003 + n);
        if (cached) (void)reference.normal();
        Xoshiro256 start = reference;
        expected.resize(n);
        for (double& value : expected) value = reference.normal();
        for (const simd::Backend backend : {simd::Backend::kScalar, simd::Backend::kSse42,
                                            simd::Backend::kAvx2, simd::Backend::kNeon}) {
          if (!simd::set_backend(backend)) continue;
          Xoshiro256 batched = start;
          batch.assign(n, 0.0);
          batched.fill_normal(batch, simd::polar_finish, simd::polar_accept);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
                      std::bit_cast<std::uint64_t>(expected[i]))
                << simd::backend_name(backend) << " seed " << seed << " cached " << cached
                << " n " << n << " i " << i;
          }
          Xoshiro256 after = reference;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.normal()),
                    std::bit_cast<std::uint64_t>(after.normal()))
              << simd::backend_name(backend) << " seed " << seed << " cached " << cached
              << " n " << n;
          ASSERT_EQ(batched(), after())
              << simd::backend_name(backend) << " seed " << seed << " cached " << cached
              << " n " << n;
        }
      }
    }
  }
  simd::set_backend(saved);
}

/// The states start, M·start, ..., M²⁵⁵·start XORed at the set bits of
/// c: start advanced by n steps when c = xⁿ mod P.
std::array<std::uint64_t, 4> apply_polynomial(std::array<std::uint64_t, 4> start,
                                              const Xoshiro256::Gf2Poly& c) {
  std::array<std::uint64_t, 4> sum = {0, 0, 0, 0};
  for (std::size_t i = 0; i < 256; ++i) {
    if (((c[i / 64] >> (i % 64)) & 1) != 0) {
      for (std::size_t word = 0; word < 4; ++word) sum[word] ^= start[word];
    }
    (void)Xoshiro256::next(start.data());
  }
  return sum;
}

TEST(Xoshiro256, JumpPolynomialsAdvanceByTheirLength) {
  // Each lane start of the lane accept loop, x^(k·L) mod P applied to a
  // state, is that state k·L scalar steps on, for every block length L,
  // k = 1..3, from several states; and jump_polynomial(n) for n < 256 is
  // x^n itself.
  Xoshiro256 seeds(0x1a9e);
  for (int trial = 0; trial < 6; ++trial) {
    const std::array<std::uint64_t, 4> start = {seeds(), seeds(), seeds(), seeds()};
    for (const std::size_t length : simd::kPolarAcceptBlocks) {
      for (std::size_t k = 1; k <= 3; ++k) {
        std::array<std::uint64_t, 4> stepped = start;
        for (std::size_t step = 0; step < k * length; ++step) {
          (void)Xoshiro256::next(stepped.data());
        }
        EXPECT_EQ(apply_polynomial(start, Xoshiro256::jump_polynomial(k * length)), stepped)
            << "trial " << trial << " L " << length << " k " << k;
      }
    }
  }
  for (const std::uint64_t n : {0u, 1u, 63u, 64u, 200u, 255u}) {
    Xoshiro256::Gf2Poly monomial = {0, 0, 0, 0};
    monomial[n / 64] = std::uint64_t{1} << (n % 64);
    EXPECT_EQ(Xoshiro256::jump_polynomial(n), monomial) << "n " << n;
  }
}

/// a·b mod P over GF(2).
Xoshiro256::Gf2Poly multiply_mod_p(const Xoshiro256::Gf2Poly& a, const Xoshiro256::Gf2Poly& b) {
  Xoshiro256::Gf2Poly product = {0, 0, 0, 0};
  for (int i = 255; i >= 0; --i) {
    // product = product·x mod P, then add a where b has x^i.
    const std::uint64_t overflow = product[3] >> 63;
    for (std::size_t word = 3; word > 0; --word) {
      product[word] = (product[word] << 1) | (product[word - 1] >> 63);
    }
    product[0] <<= 1;
    for (std::size_t word = 0; word < 4; ++word) {
      product[word] ^= Xoshiro256::kStatePolynomial[word] & (0 - overflow);
      product[word] ^= a[word] & (0 - ((b[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1));
    }
  }
  return product;
}

TEST(Xoshiro256, StatePolynomialGivesThePublishedJumps) {
  // x^(2^128) mod P and x^(2^192) mod P, by repeated squaring, are the
  // JUMP and LONG_JUMP words of the reference xoshiro256 jump() and
  // long_jump(), so a wrong digit of P fails here.
  Xoshiro256::Gf2Poly power = {2, 0, 0, 0};  // x
  for (int squaring = 0; squaring < 128; ++squaring) power = multiply_mod_p(power, power);
  EXPECT_EQ(power, (Xoshiro256::Gf2Poly{0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                         0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL}));
  for (int squaring = 128; squaring < 192; ++squaring) power = multiply_mod_p(power, power);
  EXPECT_EQ(power, (Xoshiro256::Gf2Poly{0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                                         0x77710069854ee241ULL, 0x39109bb02acbe635ULL}));
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
