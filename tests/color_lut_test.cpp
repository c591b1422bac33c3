#include "colorbars/color/lut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "colorbars/util/rng.hpp"

namespace colorbars::color {
namespace {

Lab exact_rgb8_to_lab(const Rgb8& pixel) {
  const Vec3 encoded = from_rgb8(pixel);
  return xyz_to_lab(linear_srgb_to_xyz(srgb_decode(encoded)));
}

TEST(SrgbDecodeTable, MatchesExactDecodeForAll256Codes) {
  const auto& table = srgb_decode_table();
  for (int v = 0; v < 256; ++v) {
    EXPECT_DOUBLE_EQ(table[static_cast<std::size_t>(v)], srgb_decode(v / 255.0));
  }
  EXPECT_DOUBLE_EQ(table[0], 0.0);
  EXPECT_DOUBLE_EQ(table[255], 1.0);
}

TEST(SrgbDecodeTable, LinearOfRgb8MatchesScalarChain) {
  const Rgb8 pixel{200, 17, 96};
  const Vec3 fast = linear_of_rgb8(pixel);
  const Vec3 exact = srgb_decode(from_rgb8(pixel));
  EXPECT_DOUBLE_EQ(fast.x, exact.x);
  EXPECT_DOUBLE_EQ(fast.y, exact.y);
  EXPECT_DOUBLE_EQ(fast.z, exact.z);
}

TEST(LabFFast, InterpolatesWithinTightTolerance) {
  // Dense sweep including the 216/24389 knee where curvature peaks.
  for (int i = 0; i <= 100000; ++i) {
    const double t = i / 100000.0;
    const double exact = t > 216.0 / 24389.0
                             ? std::cbrt(t)
                             : (24389.0 / 27.0 * t + 16.0) / 116.0;
    ASSERT_NEAR(lab_f_fast(t), exact, 1e-5) << "t=" << t;
  }
  // Out-of-range inputs fall back to the exact evaluation.
  EXPECT_DOUBLE_EQ(lab_f_fast(1.5), std::cbrt(1.5));
  EXPECT_DOUBLE_EQ(lab_f_fast(-0.01), (24389.0 / 27.0 * -0.01 + 16.0) / 116.0);
  // NaN is outside [0, 1] too: it takes the exact path and comes back
  // NaN, never a table index.
  EXPECT_TRUE(std::isnan(lab_f_fast(std::numeric_limits<double>::quiet_NaN())));
}

TEST(Rgb8ToLabFast, AgreesWithExactChainWithinQuantizationTolerance) {
  // The fast path must sit far below the 8-bit quantization noise floor
  // (one code step moves Lab by ~0.1-0.5) and the ΔE=2.3 JND.
  util::Xoshiro256 rng(0x1ab);
  double max_error = 0.0;
  auto check = [&](const Rgb8& pixel) {
    const Lab fast = rgb8_to_lab_fast(pixel);
    const Lab exact = exact_rgb8_to_lab(pixel);
    max_error = std::max({max_error, std::abs(fast.L - exact.L),
                          std::abs(fast.a - exact.a), std::abs(fast.b - exact.b)});
  };
  // Full gray axis (exercises every decode-table entry) ...
  for (int v = 0; v < 256; ++v) {
    const auto code = static_cast<std::uint8_t>(v);
    check({code, code, code});
  }
  // ... plus a broad random sample of the cube.
  for (int i = 0; i < 20000; ++i) {
    check({static_cast<std::uint8_t>(rng.below(256)),
           static_cast<std::uint8_t>(rng.below(256)),
           static_cast<std::uint8_t>(rng.below(256))});
  }
  EXPECT_LT(max_error, 0.01);
}

TEST(QuantizeSrgb, MatchesEncodeChainExactly) {
  // The fused quantizer must be *bit-identical* to the reference chain
  // (the camera's output bytes feed every statistical experiment).
  auto reference = [](double v) {
    const Vec3 encoded = srgb_encode(Vec3{v, v, v});
    return to_rgb8(encoded).r;
  };
  // Dense uniform sweep plus out-of-range values...
  for (int i = -100; i <= 110000; ++i) {
    const double v = i / 100000.0;
    ASSERT_EQ(quantize_srgb_channel(v), reference(v)) << "v=" << v;
  }
  // ... and values right at every decision boundary: the exact code for
  // each 8-bit level and its neighbors must classify identically.
  for (int code = 0; code < 256; ++code) {
    const double level = srgb_decode(code / 255.0);
    for (const double v : {std::nextafter(level, 0.0), level, std::nextafter(level, 1.0)}) {
      ASSERT_EQ(quantize_srgb_channel(v), reference(v)) << "code=" << code << " v=" << v;
    }
  }
  // Random probes across the full range.
  util::Xoshiro256 rng(0x5e7);
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.uniform(-0.1, 1.1);
    ASSERT_EQ(quantize_srgb_channel(v), reference(v)) << "v=" << v;
  }
  const Rgb8 fused = quantize_srgb({0.5, 0.01, 0.99});
  const Rgb8 chained = to_rgb8(srgb_encode(Vec3{0.5, 0.01, 0.99}));
  EXPECT_EQ(fused.r, chained.r);
  EXPECT_EQ(fused.g, chained.g);
  EXPECT_EQ(fused.b, chained.b);
}

TEST(QuantizeSrgb, SingleCompareAndRowMatchTheEncodeChainAtEveryDecisionBoundary) {
  // The quantizer resolves each lookup with one compare against the
  // boundary above its bucket's floor; probe exactly where that compare
  // flips — on, and one ulp either side of, each of the 255 decision
  // boundaries of the pow-based reference chain — plus both ends and a
  // random sweep.
  auto reference = [](double v) { return to_rgb8(srgb_encode(Vec3{v, v, v})).r; };
  std::vector<double> probes = {0.0, -0.0, 1.0, -1.0, 2.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  for (int code = 0; code < 255; ++code) {
    double lo = 0.0;
    double hi = 1.0;
    for (;;) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      (reference(mid) >= code + 1 ? hi : lo) = mid;
    }
    ASSERT_EQ(reference(std::nextafter(hi, 0.0)), code);
    ASSERT_EQ(reference(hi), code + 1);
    probes.insert(probes.end(), {std::nextafter(hi, 0.0), hi, std::nextafter(hi, 1.0)});
  }
  util::Xoshiro256 rng(0x9a7);
  for (int i = 0; i < 100000; ++i) probes.push_back(rng.uniform(-0.1, 1.1));

  for (const double v : probes) {
    ASSERT_EQ(quantize_srgb_channel(v), reference(v)) << "v=" << v;
  }
  // The row form, with each probe visiting every channel position.
  std::vector<Vec3> linear;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    linear.push_back({probes[i], probes[(i + 1) % probes.size()],
                      probes[(i + 2) % probes.size()]});
  }
  std::vector<Rgb8> row(linear.size());
  quantize_srgb_row(linear, row);
  for (std::size_t i = 0; i < linear.size(); ++i) {
    ASSERT_EQ(row[i].r, quantize_srgb_channel(linear[i].x)) << "pixel " << i;
    ASSERT_EQ(row[i].g, quantize_srgb_channel(linear[i].y)) << "pixel " << i;
    ASSERT_EQ(row[i].b, quantize_srgb_channel(linear[i].z)) << "pixel " << i;
    ASSERT_EQ(row[i], quantize_srgb(linear[i])) << "pixel " << i;
  }
}

TEST(QuantizeSrgb, NanMapsToCodeZero) {
  // A NaN sample (e.g. the noise sigma of an impossible sensor profile)
  // must not index outside the bucket table.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(quantize_srgb_channel(nan), 0);
  EXPECT_EQ(quantize_srgb(Vec3{nan, 0.5, nan}), (Rgb8{0, quantize_srgb_channel(0.5), 0}));
  const std::vector<Vec3> linear = {{nan, nan, nan}, {1.0, nan, 0.0}};
  std::vector<Rgb8> row(linear.size());
  quantize_srgb_row(linear, row);
  EXPECT_EQ(row[0], (Rgb8{0, 0, 0}));
  EXPECT_EQ(row[1], (Rgb8{255, 0, 0}));
}

TEST(Rgb8ToLabFast, PrimariesLandOnKnownLabRegions) {
  const Lab red = rgb8_to_lab_fast({255, 0, 0});
  EXPECT_GT(red.a, 50.0);  // strongly red
  const Lab blue = rgb8_to_lab_fast({0, 0, 255});
  EXPECT_LT(blue.b, -50.0);  // strongly blue
  const Lab white = rgb8_to_lab_fast({255, 255, 255});
  EXPECT_NEAR(white.L, 100.0, 0.1);
  EXPECT_NEAR(white.a, 0.0, 0.5);
  EXPECT_NEAR(white.b, 0.0, 0.5);
}

}  // namespace
}  // namespace colorbars::color
