#include "colorbars/scene/simulator.hpp"

#include <gtest/gtest.h>

#include "colorbars/csk/constellation.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/protocol/symbols.hpp"

namespace colorbars::scene {
namespace {

/// ideal_profile widened to 64 columns so several strips fit with dark
/// gaps between them.
camera::SensorProfile wide_profile() {
  camera::SensorProfile profile = camera::ideal_profile();
  profile.columns = 64;
  return profile;
}

camera::SensorRegion strip(int left, int width, const camera::SensorProfile& profile) {
  camera::SensorRegion region;
  region.top = 0;
  region.left = left;
  region.height = profile.rows;
  region.width = width;
  return region;
}

TEST(Scene, SpecValidationRejectsBadScenes) {
  const camera::SensorProfile profile = wide_profile();
  SceneSpec empty;
  EXPECT_THROW(empty.validate(profile), std::invalid_argument);

  SceneSpec outside;
  outside.luminaires.push_back({strip(56, 16, profile), {}});  // past column 64
  EXPECT_THROW(outside.validate(profile), std::invalid_argument);

  SceneSpec overlapping;
  overlapping.luminaires.push_back({strip(8, 16, profile), {}});
  overlapping.luminaires.push_back({strip(20, 16, profile), {}});  // shares columns
  EXPECT_THROW(overlapping.validate(profile), std::invalid_argument);

  SceneSpec good;
  good.luminaires.push_back({strip(8, 16, profile), {}});
  good.luminaires.push_back({strip(40, 16, profile), {}});
  EXPECT_NO_THROW(good.validate(profile));
}

TEST(Scene, CompositorPlacesLuminairesAndKeepsSurroundDark) {
  const camera::SensorProfile profile = wide_profile();
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::TriLed led;
  const std::vector<protocol::ChannelSymbol> symbols(200, protocol::ChannelSymbol::white());
  const led::EmissionTrace trace =
      led.emit(protocol::drives_of(symbols, constellation), 2000.0);

  camera::RollingShutterCamera camera(profile, {}, 0x5ce2);
  const channel::OpticalChannel optics_a;
  const channel::OpticalChannel optics_b;
  std::vector<camera::RegionEmitter> emitters;
  emitters.push_back({&trace, &optics_a, strip(8, 16, profile)});
  emitters.push_back({&trace, &optics_b, strip(40, 16, profile)});

  SceneFrameRenderer renderer(camera, std::move(emitters), trace.duration());
  EXPECT_GT(renderer.plan().frame_count(), 0);

  camera::Frame frame;
  camera::RenderScratch scratch;
  renderer.render(0, frame, scratch);
  ASSERT_EQ(frame.rows, profile.rows);
  ASSERT_EQ(frame.columns, profile.columns);

  auto mean_level = [&](int column_begin, int column_end) {
    double sum = 0.0;
    long long count = 0;
    for (int r = 0; r < frame.rows; ++r) {
      for (int c = column_begin; c < column_end; ++c) {
        const color::Rgb8& p = frame.at(r, c);
        sum += p.r + p.g + p.b;
        ++count;
      }
    }
    return sum / static_cast<double>(count);
  };
  const double lit_a = mean_level(9, 23);
  const double lit_b = mean_level(41, 55);
  const double gap = mean_level(26, 38);
  EXPECT_GT(lit_a, 120.0);
  EXPECT_GT(lit_b, 120.0);
  // The gap carries only sensor noise (gamma encoding lifts near-black
  // pixels well off zero) — what matters is the contrast to the strips.
  EXPECT_LT(gap, 70.0);
  EXPECT_GT(lit_a, 2.0 * gap);
  EXPECT_GT(lit_b, 2.0 * gap);
}

TEST(Scene, CompositorRejectsBadEmitters) {
  const camera::SensorProfile profile = wide_profile();
  camera::RollingShutterCamera camera(profile, {}, 1);
  camera::Frame frame;
  camera::RenderScratch scratch;
  util::Xoshiro256 rng(7);

  const channel::OpticalChannel optics;
  const led::TriLed led;
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::EmissionTrace trace = led.emit(
      protocol::drives_of({protocol::ChannelSymbol::white()}, constellation), 1000.0);

  const std::vector<camera::RegionEmitter> null_trace{{nullptr, &optics, strip(0, 8, profile)}};
  EXPECT_THROW(camera.render_scene_frame_into(null_trace, 0.0, 0, rng, frame, scratch),
               std::invalid_argument);
  const std::vector<camera::RegionEmitter> outside{
      {&trace, &optics, strip(60, 16, profile)}};
  EXPECT_THROW(camera.render_scene_frame_into(outside, 0.0, 0, rng, frame, scratch),
               std::invalid_argument);
}

SceneConfig two_luminaire_config() {
  SceneConfig config;
  config.link.order = csk::CskOrder::kCsk8;
  config.link.symbol_rate_hz = 2000.0;
  config.link.profile = wide_profile();
  config.link.seed = 0x5ce2e2e;
  config.scene.luminaires.push_back({strip(8, 16, config.link.profile), {}});
  config.scene.luminaires.push_back({strip(40, 16, config.link.profile), {}});
  return config;
}

TEST(Scene, TwoLuminaireSceneDecodesBothStreams) {
  SceneSimulator simulator(two_luminaire_config());
  const SceneRunResult result = simulator.run_goodput(1.0);

  EXPECT_GT(result.frames, 20);
  EXPECT_GE(result.lanes_opened, 2);
  ASSERT_EQ(result.luminaires.size(), 2u);
  for (const LuminaireOutcome& outcome : result.luminaires) {
    EXPECT_GE(outcome.lane_id, 0) << "luminaire " << outcome.luminaire << " never tracked";
    EXPECT_GT(outcome.packets_ok, 0) << "luminaire " << outcome.luminaire;
    EXPECT_GT(outcome.recovered_bytes, 0u) << "luminaire " << outcome.luminaire;
    EXPECT_GT(outcome.sent_bytes, 0u);
  }
  // Lanes attributed to the right placements: each outcome's tracked
  // rectangle overlaps its own placement's columns.
  const SceneConfig& config = simulator.config();
  for (std::size_t i = 0; i < result.luminaires.size(); ++i) {
    EXPECT_GT(result.luminaires[i].region.column_overlap(
                  config.scene.luminaires[i].region),
              0);
  }
  EXPECT_EQ(result.recovered_bytes,
            result.luminaires[0].recovered_bytes + result.luminaires[1].recovered_bytes);
  EXPECT_GT(result.goodput_bps(), 0.0);
}

TEST(Scene, SimulatorValidatesSceneAtConstruction) {
  SceneConfig config = two_luminaire_config();
  config.scene.luminaires[1].region.left = 12;  // overlap with luminaire 0
  EXPECT_THROW(SceneSimulator{config}, std::invalid_argument);
}

TEST(Scene, ReceiverKeepsRetiredLanePackets) {
  // A lane whose track retires must keep its decoded packets in lanes().
  SceneReceiverConfig config;
  SceneReceiver receiver(config);
  EXPECT_EQ(receiver.lanes().size(), 0u);
  receiver.on_stream_end();  // no lanes: must be a harmless no-op
}

}  // namespace
}  // namespace colorbars::scene
