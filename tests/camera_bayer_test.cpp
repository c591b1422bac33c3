#include "colorbars/camera/bayer.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "colorbars/color/lut.hpp"
#include "colorbars/simd/simd.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::camera {
namespace {

TEST(BayerChannel, RggbPatternLayout) {
  EXPECT_EQ(bayer_channel(0, 0), BayerChannel::kRed);
  EXPECT_EQ(bayer_channel(0, 1), BayerChannel::kGreen);
  EXPECT_EQ(bayer_channel(1, 0), BayerChannel::kGreen);
  EXPECT_EQ(bayer_channel(1, 1), BayerChannel::kBlue);
  EXPECT_EQ(bayer_channel(2, 2), BayerChannel::kRed);
}

TEST(BayerChannel, GreenIsHalfOfAllSites) {
  // The paper's Fig. 5a: Bayer uses twice as many green filters.
  int green = 0;
  constexpr int kSize = 100;
  for (int r = 0; r < kSize; ++r) {
    for (int c = 0; c < kSize; ++c) {
      green += bayer_channel(r, c) == BayerChannel::kGreen ? 1 : 0;
    }
  }
  EXPECT_EQ(green, kSize * kSize / 2);
}

TEST(Mosaic, SamplesOwnChannel) {
  FloatImage rgb(2, 2);
  rgb.at(0, 0) = {1, 2, 3};
  rgb.at(0, 1) = {4, 5, 6};
  rgb.at(1, 0) = {7, 8, 9};
  rgb.at(1, 1) = {10, 11, 12};
  const auto raw = mosaic(rgb);
  EXPECT_DOUBLE_EQ(raw[0], 1);   // R at (0,0)
  EXPECT_DOUBLE_EQ(raw[1], 5);   // G at (0,1)
  EXPECT_DOUBLE_EQ(raw[2], 8);   // G at (1,0)
  EXPECT_DOUBLE_EQ(raw[3], 12);  // B at (1,1)
}

TEST(Demosaic, RejectsSizeMismatch) {
  const std::vector<double> raw(5, 0.0);
  EXPECT_THROW((void)demosaic(raw, 2, 2), std::invalid_argument);
}

TEST(Demosaic, UniformImageIsExactlyRecovered) {
  // A flat field survives mosaic + demosaic exactly (bilinear
  // interpolation of a constant is the constant).
  FloatImage rgb(16, 16);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) rgb.at(r, c) = {0.4, 0.6, 0.2};
  }
  const FloatImage restored = demosaic(mosaic(rgb), 16, 16);
  for (int r = 1; r < 15; ++r) {
    for (int c = 1; c < 15; ++c) {
      EXPECT_NEAR(restored.at(r, c).x, 0.4, 1e-12);
      EXPECT_NEAR(restored.at(r, c).y, 0.6, 1e-12);
      EXPECT_NEAR(restored.at(r, c).z, 0.2, 1e-12);
    }
  }
}

TEST(Demosaic, OwnChannelIsPreserved) {
  util::Xoshiro256 rng(200);
  FloatImage rgb(8, 8);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      rgb.at(r, c) = {rng.uniform(), rng.uniform(), rng.uniform()};
    }
  }
  const auto raw = mosaic(rgb);
  const FloatImage restored = demosaic(raw, 8, 8);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      const double own = raw[static_cast<std::size_t>(r) * 8 + static_cast<std::size_t>(c)];
      switch (bayer_channel(r, c)) {
        case BayerChannel::kRed: EXPECT_DOUBLE_EQ(restored.at(r, c).x, own); break;
        case BayerChannel::kGreen: EXPECT_DOUBLE_EQ(restored.at(r, c).y, own); break;
        case BayerChannel::kBlue: EXPECT_DOUBLE_EQ(restored.at(r, c).z, own); break;
      }
    }
  }
}

TEST(Demosaic, HorizontalBandEdgeBleedsAcrossOneRow) {
  // The demosaic mixes neighbor rows: a hard red->green boundary creates
  // intermediate pixels. This inter-row mixing is one of the physical
  // ISI sources the receiver must tolerate.
  FloatImage rgb(16, 8);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 8; ++c) {
      rgb.at(r, c) = r < 8 ? util::Vec3{1, 0, 0} : util::Vec3{0, 1, 0};
    }
  }
  const FloatImage restored = demosaic(mosaic(rgb), 16, 8);
  // Deep inside each region the color is pure.
  EXPECT_NEAR(restored.at(3, 4).x, 1.0, 1e-12);
  EXPECT_NEAR(restored.at(3, 4).y, 0.0, 1e-12);
  EXPECT_NEAR(restored.at(12, 4).y, 1.0, 1e-12);
  // At the boundary rows the interpolation mixes the two.
  bool mixing_seen = false;
  for (int c = 0; c < 8; ++c) {
    const util::Vec3& pixel = restored.at(7, c);
    if (pixel.x > 0.01 && pixel.y > 0.01) mixing_seen = true;
  }
  EXPECT_TRUE(mixing_seen);
}

TEST(Demosaic, FusedQuantizeMatchesQuantizedDemosaic) {
  // The render demosaics a few rows at a time and quantizes straight
  // into the frame; it must reproduce quantize_srgb(demosaic(raw)) byte
  // for byte. Odd and even row counts, windows cut short at the bottom,
  // and border-only images (1-3 rows or columns) on every backend.
  const std::pair<int, int> shapes[] = {
      {1, 1},  {1, 5},   {2, 2},  {2, 7},  {3, 1},  {3, 2},   {3, 3},   {5, 2},
      {4, 9},  {9, 4},   {10, 3}, {10, 6}, {11, 64}, {17, 33}, {18, 8}, {33, 65},
      {96, 33}, {2448, 64}};
  util::Xoshiro256 rng(0xf05e);
  util::CaptureArena arena;
  Frame frame;
  const simd::Backend saved = simd::active_backend();
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kSse42, simd::Backend::kAvx2,
        simd::Backend::kNeon}) {
    if (!simd::backend_supported(backend)) continue;
    ASSERT_TRUE(simd::set_backend(backend));
    for (const auto& [rows, columns] : shapes) {
      std::vector<double> raw(static_cast<std::size_t>(rows) * columns);
      for (double& value : raw) value = rng.uniform();
      const FloatImage reference = demosaic(raw, rows, columns);
      arena.reset();
      demosaic_quantize_into(raw, rows, columns, frame, arena);
      ASSERT_EQ(frame.rows, rows);
      ASSERT_EQ(frame.columns, columns);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < columns; ++c) {
          ASSERT_EQ(frame.at(r, c), color::quantize_srgb(reference.at(r, c)))
              << rows << "x" << columns << " at (" << r << ", " << c << ") on "
              << simd::backend_name(backend);
        }
      }
    }
  }
  ASSERT_TRUE(simd::set_backend(saved));
  const std::vector<double> short_raw(5, 0.0);
  EXPECT_THROW(demosaic_quantize_into(short_raw, 2, 2, frame, arena),
               std::invalid_argument);
}

TEST(FloatImage, BoundsChecking) {
  FloatImage image(4, 4);
  EXPECT_THROW((void)image.at(4, 0), std::out_of_range);
  EXPECT_THROW((void)image.at(0, -1), std::out_of_range);
  EXPECT_THROW(FloatImage(0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace colorbars::camera
