#include "colorbars/rx/calibration_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

#include "colorbars/eq/engine.hpp"

namespace colorbars::rx {
namespace {

SlotObservation observation(double a, double b, double lightness) {
  SlotObservation obs;
  obs.chroma = {a, b};
  obs.lightness = lightness;
  return obs;
}

/// Absorbs one fully observed calibration packet of chroma references.
void absorb(CalibrationStore& store, std::initializer_list<color::ChromaAB> chromas) {
  std::vector<std::optional<ReferenceColor>> colors;
  for (const color::ChromaAB& chroma : chromas) colors.push_back(ReferenceColor{chroma, 0.0, {}});
  store.absorb_calibration_partial(colors);
}

TEST(CalibrationStore, RejectsInvalidSymbolCount) {
  EXPECT_THROW(CalibrationStore(0), std::invalid_argument);
}

TEST(CalibrationStore, StartsUncalibrated) {
  const CalibrationStore store(8);
  EXPECT_FALSE(store.calibrated());
  EXPECT_FALSE(store.reference(0).has_value());
}

TEST(CalibrationStore, AbsorbRejectsWrongColorCount) {
  CalibrationStore store(8);
  EXPECT_THROW(absorb(store, {{1, 1}}), std::invalid_argument);
}

TEST(CalibrationStore, AbsorbMakesReferencesAvailable) {
  CalibrationStore store(4);
  absorb(store, {{50, 0}, {-40, 30}, {0, -60}, {1, 2}});
  EXPECT_TRUE(store.calibrated());
  ASSERT_TRUE(store.reference(2).has_value());
  EXPECT_DOUBLE_EQ(store.reference(2)->b, -60.0);
  EXPECT_FALSE(store.reference(4).has_value());
  EXPECT_FALSE(store.reference(-1).has_value());
}

TEST(CalibrationStore, OffDetectionUsesLightness) {
  const CalibrationStore store(8);
  EXPECT_TRUE(store.is_off(observation(0, 0, 5)));
  EXPECT_FALSE(store.is_off(observation(0, 0, 60)));
}

TEST(CalibrationStore, DimButChromaticIsNotOff) {
  // A deep blue band is dim but strongly chromatic: must not be OFF.
  const CalibrationStore store(8);
  EXPECT_FALSE(store.is_off(observation(30, -70, 12)));
}

TEST(CalibrationStore, ClassifiesNearestReference) {
  // The receiver's decision: the default engine picks the nearest
  // learned reference, and its margin is the runner-up's distance minus
  // the winner's.
  CalibrationStore store(4);
  absorb(store, {{50, 0}, {-40, 30}, {0, -60}, {1, 2}});
  const std::optional<SlotObservation> window[] = {observation(45, 5, 60)};
  double margin = 0.0;
  EXPECT_EQ(eq::make_engine(eq::EngineConfig{})->decide(store, window, 0, &margin), 0);
  EXPECT_NEAR(margin, std::hypot(44.0, 3.0) - std::hypot(5.0, 5.0), 1e-9);
}

}  // namespace
}  // namespace colorbars::rx
