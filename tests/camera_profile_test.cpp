#include "colorbars/camera/profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "colorbars/camera/camera.hpp"

namespace colorbars::camera {
namespace {

TEST(Profiles, Nexus5MatchesTable1) {
  const SensorProfile profile = nexus5_profile();
  EXPECT_EQ(profile.name, "Nexus 5");
  EXPECT_EQ(profile.rows, 2448);
  EXPECT_DOUBLE_EQ(profile.fps, 30.0);
  EXPECT_DOUBLE_EQ(profile.inter_frame_loss_ratio, 0.2312);
}

TEST(Profiles, Iphone5sMatchesTable1) {
  const SensorProfile profile = iphone5s_profile();
  EXPECT_EQ(profile.name, "iPhone 5S");
  EXPECT_EQ(profile.rows, 1080);
  EXPECT_DOUBLE_EQ(profile.fps, 30.0);
  EXPECT_DOUBLE_EQ(profile.inter_frame_loss_ratio, 0.3727);
}

TEST(Profiles, IphoneLosesMoreThanNexus) {
  // The paper's central device asymmetry.
  EXPECT_GT(iphone5s_profile().inter_frame_loss_ratio,
            nexus5_profile().inter_frame_loss_ratio);
}

TEST(Profiles, NexusHasNoisierColorPath) {
  // Nexus 5 is modeled with stronger CFA crosstalk and noise, the cause
  // of its higher SER in Fig. 9.
  EXPECT_GT(nexus5_profile().read_noise, iphone5s_profile().read_noise);
  EXPECT_LT(nexus5_profile().well_capacity, iphone5s_profile().well_capacity);
}

TEST(Profiles, TimingDecomposesFramePeriod) {
  for (const SensorProfile& profile :
       {nexus5_profile(), iphone5s_profile(), ideal_profile()}) {
    EXPECT_NEAR(profile.readout_duration_s() + profile.gap_duration_s(),
                profile.frame_period_s(), 1e-12)
        << profile.name;
    EXPECT_NEAR(profile.row_time_s() * profile.rows, profile.readout_duration_s(), 1e-12);
  }
}

TEST(Profiles, BuiltInProfilesValidate) {
  for (const SensorProfile& profile :
       {nexus5_profile(), iphone5s_profile(), ideal_profile(), SensorProfile{}}) {
    EXPECT_NO_THROW(profile.validate()) << profile.name;
  }
}

TEST(Profiles, ValidateRejectsImpossibleProfiles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_invalid = [](auto mutate, const char* what) {
    SensorProfile profile = nexus5_profile();
    mutate(profile);
    EXPECT_THROW(profile.validate(), std::invalid_argument) << what;
    // The camera refuses it too, instead of rendering NaN noise.
    EXPECT_THROW((void)RollingShutterCamera(profile), std::invalid_argument) << what;
  };
  expect_invalid([](SensorProfile& p) { p.well_capacity = -1.0; }, "negative well");
  expect_invalid([](SensorProfile& p) { p.well_capacity = 0.0; }, "zero well");
  expect_invalid([](SensorProfile& p) { p.sensitivity = 0.0; }, "zero sensitivity");
  expect_invalid([](SensorProfile& p) { p.read_noise = -0.001; }, "negative read noise");
  expect_invalid([](SensorProfile& p) { p.rows = 0; }, "zero rows");
  expect_invalid([](SensorProfile& p) { p.columns = -3; }, "negative columns");
  expect_invalid([](SensorProfile& p) { p.fps = 0.0; }, "zero fps");
  expect_invalid([](SensorProfile& p) { p.inter_frame_loss_ratio = 1.0; }, "loss 1");
  expect_invalid([](SensorProfile& p) { p.inter_frame_loss_ratio = -0.1; }, "loss < 0");
  expect_invalid([](SensorProfile& p) { p.min_iso = 6400.0; }, "min iso > max iso");
  expect_invalid([](SensorProfile& p) { p.min_iso = 0.0; }, "zero min iso");
  expect_invalid([](SensorProfile& p) { p.min_exposure_s = 0.1; }, "min exposure > max");
  expect_invalid([](SensorProfile& p) { p.min_exposure_s = 0.0; }, "zero min exposure");
  expect_invalid([nan](SensorProfile& p) { p.fps = nan; }, "NaN fps");
  expect_invalid([nan](SensorProfile& p) { p.max_iso = nan; }, "NaN max iso");
  expect_invalid([inf](SensorProfile& p) { p.max_exposure_s = inf; }, "infinite exposure");
  expect_invalid([nan](SensorProfile& p) { p.vignette_strength = nan; }, "NaN vignette");
  expect_invalid([inf](SensorProfile& p) { p.xyz_to_sensor_rgb.rows[1][2] = inf; },
                 "infinite response");
}

TEST(Profiles, BandRowsMatchesHandComputation) {
  const SensorProfile nexus = nexus5_profile();
  // Readout = (1 - 0.2312)/30 = 25.63 ms over 2448 rows -> 10.47 us/row;
  // at 1000 sym/s a band is ~95.5 rows.
  EXPECT_NEAR(nexus.row_time_s() * 1e6, 10.47, 0.01);
  EXPECT_NEAR(nexus.band_rows(1000), 95.5, 0.5);
  EXPECT_NEAR(nexus.band_rows(4000), 23.9, 0.2);
}

TEST(Profiles, BandRowsShrinkWithSymbolRate) {
  // Fig. 3c: higher symbol frequency -> narrower bands.
  const SensorProfile profile = iphone5s_profile();
  EXPECT_GT(profile.band_rows(1000), profile.band_rows(3000));
  EXPECT_NEAR(profile.band_rows(1000) / profile.band_rows(3000), 3.0, 1e-9);
}

TEST(Profiles, ColorResponsesDifferAcrossDevices) {
  // Fig. 6a's premise: the two devices map XYZ to sensor RGB differently.
  const auto nexus = nexus5_profile().xyz_to_sensor_rgb;
  const auto iphone = iphone5s_profile().xyz_to_sensor_rgb;
  double difference = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      difference += std::abs(nexus(r, c) - iphone(r, c));
    }
  }
  EXPECT_GT(difference, 0.1);
}

TEST(Profiles, IdealProfileHasNoVignetting) {
  EXPECT_DOUBLE_EQ(ideal_profile().vignette_strength, 0.0);
}

}  // namespace
}  // namespace colorbars::camera
