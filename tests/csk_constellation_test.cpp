#include "colorbars/csk/constellation.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <set>

#include "colorbars/util/rng.hpp"

namespace colorbars::csk {
namespace {

class AllOrders : public ::testing::TestWithParam<CskOrder> {};

TEST_P(AllOrders, HasCorrectSymbolCount) {
  const Constellation constellation(GetParam());
  EXPECT_EQ(constellation.size(), symbol_count(GetParam()));
}

TEST_P(AllOrders, BitsMatchLog2OfOrder) {
  const Constellation constellation(GetParam());
  EXPECT_EQ(1 << constellation.bits(), constellation.size());
}

TEST_P(AllOrders, AllPointsInsideGamut) {
  const Constellation constellation(GetParam());
  for (const auto& point : constellation.points()) {
    EXPECT_TRUE(constellation.gamut().contains(point, 1e-9));
  }
}

TEST_P(AllOrders, PointsAreDistinct) {
  const Constellation constellation(GetParam());
  for (int i = 0; i < constellation.size(); ++i) {
    for (int j = i + 1; j < constellation.size(); ++j) {
      EXPECT_GT(color::xy_distance(constellation.point(i), constellation.point(j)), 1e-3)
          << "points " << i << "," << j;
    }
  }
}

TEST_P(AllOrders, NearestRecoversEveryExactPoint) {
  const Constellation constellation(GetParam());
  for (int i = 0; i < constellation.size(); ++i) {
    EXPECT_EQ(constellation.nearest(constellation.point(i)), i);
  }
}

TEST_P(AllOrders, NearestRecoversPerturbedPoints) {
  const Constellation constellation(GetParam());
  const double margin = constellation.min_pairwise_distance() / 2.5;
  util::Xoshiro256 rng(static_cast<std::uint64_t>(constellation.size()));
  for (int i = 0; i < constellation.size(); ++i) {
    for (int trial = 0; trial < 10; ++trial) {
      const double angle = rng.uniform(0.0, 6.28318);
      const color::Chromaticity perturbed{
          constellation.point(i).x + margin * std::cos(angle),
          constellation.point(i).y + margin * std::sin(angle)};
      EXPECT_EQ(constellation.nearest(perturbed), i);
    }
  }
}

TEST_P(AllOrders, ContainsGamutVertices) {
  // Every order keeps the three primaries as symbols (maximum-saturation
  // points always belong to a max-min packing).
  const Constellation constellation(GetParam());
  const auto& gamut = constellation.gamut();
  for (const auto& vertex : {gamut.red(), gamut.green(), gamut.blue()}) {
    bool found = false;
    for (const auto& point : constellation.points()) {
      if (color::xy_distance(point, vertex) < 1e-9) found = true;
    }
    EXPECT_TRUE(found);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, AllOrders,
                         ::testing::Values(CskOrder::kCsk4, CskOrder::kCsk8,
                                           CskOrder::kCsk16, CskOrder::kCsk32),
                         [](const auto& info) {
                           return "Csk" + std::to_string(static_cast<int>(info.param));
                         });

TEST(Constellation, OrderParsesFromItsSymbolCountAndNamesItself) {
  const char* names[] = {"CSK4", "CSK8", "CSK16", "CSK32", "CSK64"};
  ASSERT_EQ(all_orders().size(), std::size(names));
  for (std::size_t i = 0; i < all_orders().size(); ++i) {
    const CskOrder order = all_orders()[i];
    EXPECT_EQ(order_from_int(symbol_count(order)), order);
    EXPECT_STREQ(order_name(order), names[i]);
  }
  for (const int bad : {0, 3, 128, -4}) EXPECT_EQ(order_from_int(bad), std::nullopt) << bad;
}

TEST(Constellation, MinDistanceShrinksWithOrder) {
  double previous = 1e9;
  for (const CskOrder order : all_orders()) {
    const Constellation constellation(order);
    const double distance = constellation.min_pairwise_distance();
    EXPECT_LT(distance, previous) << "order " << static_cast<int>(order);
    previous = distance;
  }
}

TEST(Constellation, Csk4IsVerticesPlusCentroid) {
  const Constellation constellation(CskOrder::kCsk4);
  const auto& gamut = constellation.gamut();
  EXPECT_NEAR(color::xy_distance(constellation.point(3), gamut.centroid()), 0.0, 1e-9);
}

TEST(Constellation, BitsPerSymbolValues) {
  EXPECT_EQ(bits_per_symbol(CskOrder::kCsk4), 2);
  EXPECT_EQ(bits_per_symbol(CskOrder::kCsk8), 3);
  EXPECT_EQ(bits_per_symbol(CskOrder::kCsk16), 4);
  EXPECT_EQ(bits_per_symbol(CskOrder::kCsk32), 5);
}

TEST(MaxminPacking, ProducesRequestedCount) {
  const auto points = maxmin_packing(color::default_led_gamut(), 12);
  EXPECT_EQ(points.size(), 12u);
}

TEST(MaxminPacking, IsDeterministic) {
  const auto a = maxmin_packing(color::default_led_gamut(), 16);
  const auto b = maxmin_packing(color::default_led_gamut(), 16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(MaxminPacking, MinDistanceDecreasesMonotonically) {
  // Adding points can only shrink (or keep) the minimum pairwise gap.
  const auto& gamut = color::default_led_gamut();
  double previous = 1e9;
  for (const int count : {4, 8, 16, 32, 64}) {
    const auto points = maxmin_packing(gamut, count);
    double min_distance = 1e9;
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = i + 1; j < points.size(); ++j) {
        min_distance = std::min(min_distance, color::xy_distance(points[i], points[j]));
      }
    }
    EXPECT_LE(min_distance, previous + 1e-12);
    previous = min_distance;
  }
}

TEST(MaxminPacking, RejectsBadArguments) {
  EXPECT_THROW((void)maxmin_packing(color::default_led_gamut(), 2), std::invalid_argument);
  EXPECT_THROW((void)maxmin_packing(color::default_led_gamut(), 8, 1),
               std::invalid_argument);
}

TEST(MaxminPacking, PackingBeatsNaiveGridAtMinDistance) {
  // Quality check: the 32-point packing should be clearly better spread
  // than random placement. Compare against the expected random min gap.
  const auto points = maxmin_packing(color::default_led_gamut(), 32);
  double min_distance = 1e9;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      min_distance = std::min(min_distance, color::xy_distance(points[i], points[j]));
    }
  }
  EXPECT_GT(min_distance, 0.05);
}

}  // namespace
}  // namespace colorbars::csk
