#include <gtest/gtest.h>

#include "colorbars/eq/engine.hpp"
#include "colorbars/rx/calibration_store.hpp"

namespace colorbars::rx {
namespace {

SlotObservation observation(double a, double b, double lightness, util::Vec3 rgb = {}) {
  SlotObservation obs;
  obs.chroma = {a, b};
  obs.lightness = lightness;
  obs.rgb = rgb;
  return obs;
}

ReferenceColor reference(double a, double b, double lightness = 60.0,
                         util::Vec3 rgb = {}) {
  return {{a, b}, lightness, rgb};
}

/// The receiver's decision for one observation: the default engine.
int decide(const CalibrationStore& store, const SlotObservation& obs, double* margin) {
  const std::optional<SlotObservation> window[] = {obs};
  return eq::make_engine(eq::EngineConfig{})->decide(store, window, 0, margin);
}

TEST(MatchingSpace, CielabAbIgnoresLightnessAndRgb) {
  const CalibrationStore store(4, MatchingSpace::kCielabAB);
  const double d = store.distance(observation(10, 0, 99, {1, 1, 1}),
                                  reference(13, 4, 5, {0, 0, 0}));
  EXPECT_DOUBLE_EQ(d, 5.0);
}

TEST(MatchingSpace, Cielab94UsesLightness) {
  const CalibrationStore store(4, MatchingSpace::kCielab94);
  const double same_l = store.distance(observation(10, 0, 50), reference(10, 0, 50));
  const double diff_l = store.distance(observation(10, 0, 90), reference(10, 0, 50));
  EXPECT_DOUBLE_EQ(same_l, 0.0);
  EXPECT_GT(diff_l, 30.0);
}

TEST(MatchingSpace, RgbUsesOnlyRgb) {
  const CalibrationStore store(4, MatchingSpace::kRgb);
  const double d = store.distance(observation(99, 99, 99, {0.5, 0.5, 0.5}),
                                  reference(0, 0, 0, {0.5, 0.5, 0.5}));
  EXPECT_DOUBLE_EQ(d, 0.0);
  const double far = store.distance(observation(0, 0, 0, {1.0, 0.5, 0.5}),
                                    reference(0, 0, 0, {0.5, 0.5, 0.5}));
  EXPECT_GT(far, 10.0);
}

TEST(MatchingSpace, ClassificationWinnerDependsOnSpace) {
  // Two references: one close in chroma but far in RGB, one vice versa.
  const SlotObservation obs = observation(10, 10, 50, {0.8, 0.2, 0.2});
  const std::vector<std::optional<ReferenceColor>> refs{
      reference(11, 11, 50, {0.1, 0.9, 0.9}),  // chroma-near, RGB-far
      reference(40, 40, 50, {0.8, 0.2, 0.2}),  // chroma-far, RGB-near
  };

  CalibrationStore lab_store(2, MatchingSpace::kCielabAB);
  lab_store.absorb_calibration_partial(refs);
  EXPECT_EQ(decide(lab_store, obs, nullptr), 0);

  CalibrationStore rgb_store(2, MatchingSpace::kRgb);
  rgb_store.absorb_calibration_partial(refs);
  EXPECT_EQ(decide(rgb_store, obs, nullptr), 1);
}

TEST(MatchingSpace, EmptyStoreDecidesSymbolZeroWithoutMargin) {
  // With no reference learned (a run whose calibration never arrived),
  // both the CIELab fast path and the per-reference path decide symbol 0
  // and report no margin.
  for (const MatchingSpace space : {MatchingSpace::kCielabAB, MatchingSpace::kRgb}) {
    const CalibrationStore store(8, space);
    double margin = 0.0;
    EXPECT_EQ(decide(store, observation(10, 10, 50, {0.8, 0.2, 0.2}), &margin), 0);
    EXPECT_EQ(margin, -1.0);
  }
}

TEST(MatchingSpace, PartialAbsorbBlendsAllChannels) {
  CalibrationStore store(2);
  std::vector<std::optional<ReferenceColor>> first(2);
  first[0] = reference(10, 20, 30, {0.2, 0.4, 0.6});
  store.absorb_calibration_partial(first);
  std::vector<std::optional<ReferenceColor>> second(2);
  second[0] = reference(20, 40, 50, {0.4, 0.6, 0.8});
  store.absorb_calibration_partial(second);

  const auto blended = store.reference_color(0);
  ASSERT_TRUE(blended.has_value());
  EXPECT_DOUBLE_EQ(blended->chroma.a, 15.0);
  EXPECT_DOUBLE_EQ(blended->chroma.b, 30.0);
  EXPECT_DOUBLE_EQ(blended->lightness, 40.0);
  EXPECT_DOUBLE_EQ(blended->rgb.x, 0.3);
}

}  // namespace
}  // namespace colorbars::rx
