// Compile-level test: the umbrella header must pull in the whole public
// API without conflicts, and the headline types must be usable from it
// alone.

#include "colorbars/colorbars.hpp"

#include <gtest/gtest.h>

namespace colorbars {
namespace {

TEST(UmbrellaHeader, ExposesTheWholePublicSurface) {
  // One touchpoint per module.
  util::Xoshiro256 rng(1);
  (void)rng();
  const color::Lab lab = color::xyz_to_lab(color::d65_white_xyz());
  EXPECT_NEAR(lab.L, 100.0, 1e-9);
  EXPECT_EQ((gf::GF256(3) * gf::GF256(3)).value(), 5);  // 3*3 = x^2+... in GF(2^8)
  const rs::ReedSolomon code(10, 6);
  EXPECT_EQ(code.max_errors(), 2);
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  EXPECT_EQ(constellation.size(), 8);
  const led::TriLed led;
  EXPECT_TRUE(led.supports_rate(2000));
  EXPECT_EQ(protocol::delimiter_sequence().size(), 3u);
  const flicker::BlochObserver observer;
  EXPECT_GT(observer.config().critical_duration_s, 0.0);
  EXPECT_EQ(camera::nexus5_profile().rows, 2448);
  EXPECT_TRUE(simd::backend_supported(simd::active_backend()));
  util::CaptureArena arena;
  EXPECT_EQ(arena.allocate<double>(4).size(), 4u);
  EXPECT_GT(rx::kOffLightness, 0.0);
  const baseline::FskConfig fsk;
  EXPECT_EQ(fsk.bits_per_symbol(), 3);
  EXPECT_EQ(pd::default_pd_array().size(), 3u);
  EXPECT_NO_THROW(pd::PdConfig{}.validate());
  EXPECT_STREQ(eq::engine_name(eq::EngineKind::kLinearMmse), "mmse");
  EXPECT_NE(eq::make_engine(eq::EngineConfig{}), nullptr);
  core::LinkConfig link;
  EXPECT_EQ(link.frontend, frontend::FrontendKind::kCamera);
  EXPECT_EQ(link.engine.kind, eq::EngineKind::kNearestReference);
  EXPECT_EQ(link.transmitter_config().format.order, link.order);
  const adapt::LinkQuality quality;
  EXPECT_FALSE(quality.margin_valid);
  const scene::SceneSpec scene_spec;
  EXPECT_TRUE(scene_spec.luminaires.empty());
}

}  // namespace
}  // namespace colorbars
