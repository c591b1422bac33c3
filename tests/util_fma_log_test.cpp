// util::fma_log is the render's noise logarithm. These tests pin its
// bits on any host, so a changed constant or a reordered step fails
// here even where the 8-bit golden captures would not see it: a few
// values as literals, then one FNV-1a digest over 2^20 polar s and
// every table edge of the accept loop's range.

#include "colorbars/util/fma_log.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "colorbars/util/rng.hpp"

namespace colorbars::util {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(FmaLog, ReturnsGlibcValuesOnBothPaths) {
  // glibc 2.36's log returns these bits on an FMA host.
  EXPECT_EQ(bits(fma_log(0.5)), bits(-0x1.62e42fefa39efp-1));
  EXPECT_EQ(bits(fma_log(0.25)), bits(-0x1.62e42fefa39efp+0));
  EXPECT_EQ(bits(fma_log(0x1p-104)), bits(-0x1.205966f2b4f12p+6));
  EXPECT_EQ(bits(fma_log(0x1.6p-1)), bits(-0x1.7fafa3bd8151cp-2));  // first table edge
  EXPECT_EQ(bits(fma_log(0x1.999999999999ap-4)), bits(-0x1.26bb1bbb55515p+1));
  EXPECT_EQ(bits(fma_log(0x1.eb851eb851eb8p-1)), bits(-0x1.4e69ed6d80eb3p-5));  // near 1
  EXPECT_EQ(bits(fma_log(1.0)), bits(0.0));
}

TEST(FmaLog, DigestOverPolarInputsAndTableEdgesIsFrozen) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::uint64_t count = 0;
  const auto add = [&](double x) {
    const std::uint64_t value = bits(fma_log(x));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
    ++count;
  };
  // 2^20 accepted polar s, drawn as the accept loop draws them.
  Xoshiro256 rng(0x106);
  for (int accepted = 0; accepted < (1 << 20);) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s < 1.0 && s != 0.0) {
      add(s);
      ++accepted;
    }
  }
  // Every table-subinterval edge ±1 ulp in [2^-104, 1), both bounds of
  // the near-1 path ±1 ulp, and the extremes.
  const auto add_bits = [&](std::uint64_t edge) {
    for (const std::uint64_t b : {edge - 1, edge, edge + 1}) {
      const double x = std::bit_cast<double>(b);
      if (x >= 0x1p-104 && x < 1.0) add(x);
    }
  };
  for (int k = -104; k <= 0; ++k) {
    for (std::uint64_t edge = 0; edge < (1u << FmaLogData::kTableBits); ++edge) {
      add_bits(kFmaLogOff + (static_cast<std::uint64_t>(k) << 52) +
               (edge << (52 - FmaLogData::kTableBits)));
    }
  }
  add_bits(kFmaLogNearOneLo);
  add_bits(kFmaLogNearOneHi);
  add(0x1p-104);
  add(0x1.fffffffffffffp-1);
  // glibc's own log gives this digest over these inputs too.
  EXPECT_EQ(count, 1088517u);
  EXPECT_EQ(hash, 0xcaeba96e88a73ec1ULL) << "digest 0x" << std::hex << hash;
}

}  // namespace
}  // namespace colorbars::util
