#include "colorbars/camera/bayer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

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

/// Raw values where the render actually lives: runs of the exact 0.0
/// and 1.0 its clamp produces in dark and saturated bands, -0.0 and
/// NaN, each quantizer decision boundary and one ulp either side, and
/// uniform noise.
std::vector<double> edge_case_raw(util::Xoshiro256& rng, std::size_t count) {
  std::vector<double> boundaries;
  double previous = 0.0;
  for (const double boundary : color::srgb_quant_tables().bucket_boundary) {
    if (std::isinf(boundary) || boundary == previous) continue;
    previous = boundary;
    boundaries.insert(boundaries.end(), {std::nextafter(boundary, 0.0), boundary,
                                         std::nextafter(boundary, 1.0)});
  }
  std::vector<double> raw;
  raw.reserve(count);
  while (raw.size() < count) {
    const std::size_t run = 1 + rng.below(9);
    double value = 0.0;
    switch (rng.below(6)) {
      case 0: value = 0.0; break;
      case 1: value = 1.0; break;
      case 2: value = rng.chance(0.5) ? -0.0 : std::numeric_limits<double>::quiet_NaN(); break;
      case 3: value = boundaries[rng.below(boundaries.size())]; break;
      default: value = rng.uniform(); break;
    }
    for (std::size_t i = 0; i < run && raw.size() < count; ++i) {
      // Boundary runs vary value by value; the rest hold it.
      raw.push_back(i > 0 && rng.chance(0.3) ? boundaries[rng.below(boundaries.size())]
                                              : value);
    }
  }
  return raw;
}

TEST(Demosaic, FusedQuantizeMatchesQuantizedDemosaic) {
  // The render demosaics each row straight to codes, from the raw row
  // and its two neighbours; it must reproduce
  // quantize_srgb(demosaic(raw)) byte for byte on every backend. Every
  // width from 1 to 67 (both edge-column parities, the fixed-neighbour
  // edges at widths under 4, every vector tail), row counts from a
  // single border row up past the render's eight-row noise batch, fed
  // the values the render's clamp produces plus -0.0, NaN and the
  // quantizer's decision boundaries; then a full Nexus 5 frame.
  std::vector<std::pair<int, int>> shapes;
  for (int columns = 1; columns <= 67; ++columns) {
    for (const int rows : {1, 2, 3, 4, 5, 8, 9, 10, 17}) shapes.emplace_back(rows, columns);
  }
  shapes.emplace_back(2448, 64);
  util::Xoshiro256 rng(0xf05e);
  Frame frame;
  const simd::Backend saved = simd::active_backend();
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kSse42, simd::Backend::kAvx2,
        simd::Backend::kNeon}) {
    if (!simd::backend_supported(backend)) continue;
    ASSERT_TRUE(simd::set_backend(backend));
    for (const auto& [rows, columns] : shapes) {
      const std::vector<double> raw =
          edge_case_raw(rng, static_cast<std::size_t>(rows) * static_cast<std::size_t>(columns));
      const FloatImage reference = demosaic(raw, rows, columns);
      demosaic_quantize_into(raw, rows, columns, frame);
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
  EXPECT_THROW(demosaic_quantize_into(short_raw, 2, 2, frame), std::invalid_argument);
}

TEST(FloatImage, BoundsChecking) {
  FloatImage image(4, 4);
  EXPECT_THROW((void)image.at(4, 0), std::out_of_range);
  EXPECT_THROW((void)image.at(0, -1), std::out_of_range);
  EXPECT_THROW(FloatImage(0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace colorbars::camera
