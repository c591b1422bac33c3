// The channel subsystem's contracts:
//  - the identity (default) ChannelSpec reproduces the pre-refactor
//    capture_video output byte for byte, at 1, 2 and 8 threads (golden
//    hashes frozen from the pre-channel build via tools/golden_capture);
//  - radiance stages (attenuation, occlusion, ambient/flicker) are pure
//    functions of time and spec;
//  - frame stages compose through the pipeline in canonical order with
//    counter-derived per-frame randomness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/channel.hpp"
#include "colorbars/channel/stages.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/csk/modulation.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/pipeline/buffer_pool.hpp"
#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/protocol/symbols.hpp"
#include "colorbars/runtime/seed.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/simd/simd.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars {
namespace {

// ---------------------------------------------------------------------------
// Golden byte-equality: identity channel vs the pre-refactor camera.

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

led::EmissionTrace golden_trace() {
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::TriLed led;
  util::Xoshiro256 rng(0x901d);
  std::vector<protocol::ChannelSymbol> slots;
  for (int i = 0; i < 500; ++i) {
    slots.push_back(protocol::ChannelSymbol::data(static_cast<int>(rng.below(8))));
  }
  return led.emit(protocol::drives_of(slots, constellation), 2000.0);
}

std::uint64_t capture_hash(const camera::SensorProfile& profile,
                           const led::EmissionTrace& trace) {
  camera::RollingShutterCamera camera(profile, channel::OpticalChannel{}, 0x901d);
  const auto frames = camera.capture_video(trace, 0.004);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& frame : frames) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(frame.frame_index));
    hash = fnv1a(hash, static_cast<std::uint64_t>(frame.start_time_s * 1e12));
    hash = fnv1a(hash, static_cast<std::uint64_t>(frame.exposure_s * 1e12));
    hash = fnv1a(hash, static_cast<std::uint64_t>(frame.iso * 1e3));
    for (const auto& pixel : frame.pixels) {
      hash = fnv1a(hash, static_cast<std::uint64_t>(pixel.r) |
                             (static_cast<std::uint64_t>(pixel.g) << 8) |
                             (static_cast<std::uint64_t>(pixel.b) << 16));
    }
  }
  return hash;
}

TEST(Channel, IdentityChannelReproducesPreRefactorCapturesAtAllThreadCounts) {
  // Frozen from the pre-channel build (commit before this refactor) by
  // tools/golden_capture.cpp: hashes of every frame's timing, exposure
  // and pixel bytes for a 0.25 s CSK8 capture on each device profile.
  struct Golden {
    camera::SensorProfile profile;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {camera::nexus5_profile(), 0x6e375ae069668e59ULL},
      {camera::iphone5s_profile(), 0x38a99c4aee6fc3faULL},
      {camera::ideal_profile(), 0xe6aaf81a7a6e01daULL},
  };
  const led::EmissionTrace trace = golden_trace();
  for (const unsigned threads : {1u, 2u, 8u}) {
    runtime::ThreadPool::set_shared_thread_count(threads);
    for (const Golden& golden : goldens) {
      EXPECT_EQ(capture_hash(golden.profile, trace), golden.hash)
          << golden.profile.name << " diverged from the pre-refactor capture at "
          << threads << " threads";
    }
  }
}

TEST(Channel, GoldenHashesHoldOnEverySimdBackend) {
  // The dispatched kernels promise byte-identity with the scalar
  // reference, so the frozen pre-refactor hashes must reproduce no
  // matter which backend the capture path runs on — including the
  // scalar fallback a COLORBARS_SIMD=OFF build is pinned to.
  struct Golden {
    camera::SensorProfile profile;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {camera::nexus5_profile(), 0x6e375ae069668e59ULL},
      {camera::iphone5s_profile(), 0x38a99c4aee6fc3faULL},
      {camera::ideal_profile(), 0xe6aaf81a7a6e01daULL},
  };
  const led::EmissionTrace trace = golden_trace();
  const simd::Backend saved = simd::active_backend();
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kSse42, simd::Backend::kAvx2,
        simd::Backend::kNeon}) {
    if (!simd::backend_supported(backend)) continue;
    ASSERT_TRUE(simd::set_backend(backend));
    for (const Golden& golden : goldens) {
      EXPECT_EQ(capture_hash(golden.profile, trace), golden.hash)
          << golden.profile.name << " diverged on the " << simd::backend_name(backend)
          << " backend";
    }
  }
  ASSERT_TRUE(simd::set_backend(saved));
}

std::uint64_t frames_hash(const std::vector<camera::Frame>& frames) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const camera::Frame& frame : frames) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(frame.exposure_s * 1e12));
    for (const color::Rgb8& pixel : frame.pixels) {
      hash = fnv1a(hash, static_cast<std::uint64_t>(pixel.r) |
                             (static_cast<std::uint64_t>(pixel.g) << 8) |
                             (static_cast<std::uint64_t>(pixel.b) << 16));
    }
  }
  return hash;
}

TEST(Channel, ClassicAndSceneRendersMatchOnEveryBackendAtOneAndEightThreads) {
  // Both renders stream rows from the noise draw to codes through the
  // dispatched demosaic→code kernel, with frames fanned out over the
  // shared pool. The classic capture must hit its golden hash on every
  // backend at 1 and 8 threads. A two-emitter scene frame set — emitter
  // edges at both column parities, an odd sensor width, and dark
  // surround rows whose raw values clamp to exact zeros — must give the
  // same bytes on every backend at both thread counts.
  const led::EmissionTrace trace = golden_trace();
  camera::SensorProfile scene_profile = camera::nexus5_profile();
  scene_profile.rows = 480;
  scene_profile.columns = 67;
  const channel::OpticalChannel optics;
  camera::SensorRegion left{40, 7, 300, 20};
  camera::SensorRegion right{120, 34, 360, 25};
  const camera::RegionEmitter emitters[] = {{&trace, &optics, left}, {&trace, &optics, right}};
  const auto scene_hash = [&] {
    camera::RollingShutterCamera camera(scene_profile, channel::OpticalChannel{}, 0x5ce);
    const camera::CapturePlan plan = camera.plan_capture_span(0.2);
    std::vector<camera::Frame> frames(plan.start_times.size());
    runtime::parallel_for(0, static_cast<std::int64_t>(frames.size()), 1,
                          [&](std::int64_t lo, std::int64_t hi) {
                            camera::RenderScratch scratch;
                            for (std::int64_t i = lo; i < hi; ++i) {
                              camera.render_planned_scene_frame(
                                  emitters, plan, static_cast<int>(i),
                                  frames[static_cast<std::size_t>(i)], scratch);
                            }
                          });
    return frames_hash(frames);
  };

  const simd::Backend saved = simd::active_backend();
  ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
  runtime::ThreadPool::set_shared_thread_count(1);
  const std::uint64_t scene_reference = scene_hash();
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kSse42, simd::Backend::kAvx2,
        simd::Backend::kNeon}) {
    if (!simd::backend_supported(backend)) continue;
    ASSERT_TRUE(simd::set_backend(backend));
    for (const unsigned threads : {1u, 8u}) {
      runtime::ThreadPool::set_shared_thread_count(threads);
      EXPECT_EQ(capture_hash(camera::nexus5_profile(), trace), 0x6e375ae069668e59ULL)
          << "classic render diverged on " << simd::backend_name(backend) << " at "
          << threads << " threads";
      EXPECT_EQ(scene_hash(), scene_reference)
          << "scene render diverged on " << simd::backend_name(backend) << " at " << threads
          << " threads";
    }
  }
  runtime::ThreadPool::set_shared_thread_count(0);
  ASSERT_TRUE(simd::set_backend(saved));
}

// ---------------------------------------------------------------------------
// Spec validation (satellite: mirror ExposureSettings::validate).

TEST(Channel, ValidateAcceptsDefaultSpec) {
  EXPECT_NO_THROW(channel::ChannelSpec{}.validate());
}

TEST(Channel, ValidateRejectsOutOfRangeParameters) {
  const auto expect_invalid = [](auto mutate) {
    channel::ChannelSpec spec;
    mutate(spec);
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    // Construction paths validate too: the optical channel, the camera
    // taking it, and the link simulator all refuse the spec.
    EXPECT_THROW((void)channel::OpticalChannel(spec), std::invalid_argument);
    core::LinkConfig config;
    config.channel = spec;
    EXPECT_THROW((void)core::LinkSimulator(config), std::invalid_argument);
  };
  expect_invalid([](auto& s) { s.distance.distance_m = 0.0; });
  expect_invalid([](auto& s) { s.distance.distance_m = -0.5; });
  expect_invalid([](auto& s) { s.distance.reference_distance_m = 0.0; });
  expect_invalid([](auto& s) { s.ambient.level = -0.001; });
  expect_invalid([](auto& s) { s.ambient.chromaticity.y = 0.0; });
  expect_invalid([](auto& s) { s.flicker.frequency_hz = -100.0; });
  expect_invalid([](auto& s) { s.flicker.modulation_depth = 1.0; });
  expect_invalid([](auto& s) { s.flicker.modulation_depth = -0.1; });
  expect_invalid([](auto& s) { s.flicker.phase_rad = std::nan(""); });
  expect_invalid([](auto& s) { s.occlusion.rate_hz = -1.0; });
  expect_invalid([](auto& s) {
    s.occlusion.rate_hz = 1.0;
    s.occlusion.mean_duration_s = 0.0;
  });
  expect_invalid([](auto& s) { s.occlusion.transmission = 1.5; });
  expect_invalid([](auto& s) { s.frame.drop_probability = 1.0; });
  expect_invalid([](auto& s) { s.frame.drop_probability = -0.2; });
  expect_invalid([](auto& s) { s.frame.gain_wobble_sigma = 0.7; });
  expect_invalid([](auto& s) { s.distance.distance_m = std::nan(""); });
}

// ---------------------------------------------------------------------------
// Radiance-domain stages.

TEST(Channel, DistanceAttenuationIsInverseSquare) {
  channel::ChannelSpec spec;
  EXPECT_EQ(channel::OpticalChannel(spec).attenuation_gain(), 1.0);  // exact

  spec.distance.distance_m = 0.06;  // 2x the 3 cm reference
  EXPECT_DOUBLE_EQ(channel::OpticalChannel(spec).attenuation_gain(), 0.25);

  spec.distance.distance_m = 0.5;
  spec.distance.reference_distance_m = 0.25;  // larger emitter
  EXPECT_DOUBLE_EQ(channel::OpticalChannel(spec).attenuation_gain(), 0.25);

  // Without occlusion, signal_gain is the attenuation for any window.
  const channel::OpticalChannel optics(spec);
  EXPECT_EQ(optics.signal_gain(0.0, 0.001), optics.attenuation_gain());
}

TEST(Channel, OcclusionBurstsGateTheSignalDeterministically) {
  channel::ChannelSpec spec;
  spec.occlusion.rate_hz = 4.0;
  spec.occlusion.mean_duration_s = 0.05;
  spec.occlusion.transmission = 0.0;
  const channel::OpticalChannel optics(spec, 42);

  // Long-window mean ≈ 1 - duty cycle (rate * mean duration = 0.2).
  const double long_mean = optics.occlusion_gain(0.0, 50.0);
  EXPECT_GT(long_mean, 0.65);
  EXPECT_LT(long_mean, 0.95);

  // Fine windows actually hit bursts: the minimum gain over row-sized
  // windows is well below 1 and some windows are untouched.
  double lowest = 1.0;
  double highest = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double t = i * 1e-3;
    const double g = optics.occlusion_gain(t, t + 1e-3);
    lowest = std::min(lowest, g);
    highest = std::max(highest, g);
  }
  EXPECT_LT(lowest, 0.5);
  EXPECT_EQ(highest, 1.0);

  // Pure function of (seed, time): a second instance agrees everywhere,
  // a different seed disagrees somewhere.
  const channel::OpticalChannel twin(spec, 42);
  const channel::OpticalChannel other(spec, 43);
  bool seed_matters = false;
  for (int i = 0; i < 1000; ++i) {
    const double t = i * 5e-3;
    ASSERT_EQ(optics.occlusion_gain(t, t + 1e-3), twin.occlusion_gain(t, t + 1e-3));
    seed_matters |=
        optics.occlusion_gain(t, t + 1e-3) != other.occlusion_gain(t, t + 1e-3);
  }
  EXPECT_TRUE(seed_matters);

  // Partial transmission bounds the gain from below.
  spec.occlusion.transmission = 0.3;
  const channel::OpticalChannel translucent(spec, 42);
  for (int i = 0; i < 1000; ++i) {
    const double t = i * 5e-3;
    EXPECT_GE(translucent.occlusion_gain(t, t + 1e-3), 0.3);
  }
}

TEST(Channel, AmbientIlluminantIsConfigurable) {
  channel::ChannelSpec spec;
  spec.ambient.chromaticity = {0.44757, 0.40745};  // illuminant A
  spec.ambient.level = 0.02;
  const channel::OpticalChannel optics(spec);
  EXPECT_TRUE(optics.ambient_is_constant());
  const util::Vec3 expected =
      color::xyy_to_xyz(spec.ambient.chromaticity, spec.ambient.level);
  EXPECT_EQ(optics.constant_ambient_xyz().x, expected.x);
  EXPECT_EQ(optics.constant_ambient_xyz().y, expected.y);
  EXPECT_EQ(optics.constant_ambient_xyz().z, expected.z);
  // The windowed query matches the constant when no flicker is set.
  EXPECT_EQ(optics.ambient_xyz(0.1, 0.2).y, expected.y);
}

TEST(Channel, AmbientFlickerAveragesExactlyOverTheExposureWindow) {
  channel::ChannelSpec spec;
  spec.flicker.frequency_hz = 100.0;  // 50 Hz mains ripple
  spec.flicker.modulation_depth = 0.5;
  const channel::OpticalChannel optics(spec);
  EXPECT_FALSE(optics.ambient_is_constant());

  const double base = optics.constant_ambient_xyz().y;
  // A window spanning exactly one ripple period integrates to the base.
  EXPECT_NEAR(optics.ambient_xyz(0.0, 0.01).y, base, base * 1e-9);
  EXPECT_NEAR(optics.ambient_xyz(0.123, 0.133).y, base, base * 1e-9);
  // A quarter-period window starting at the crest reads above base; the
  // opposite phase reads below. depth < 1 keeps both positive.
  const double crest = optics.ambient_xyz(0.0, 0.0025).y;
  const double trough = optics.ambient_xyz(0.005, 0.0075).y;
  EXPECT_GT(crest, base * 1.2);
  EXPECT_LT(trough, base * 0.8);
  EXPECT_GT(trough, 0.0);
}

TEST(Channel, NonIdentityChannelChangesTheCapture) {
  const led::TriLed led;
  led::EmissionTrace trace;
  trace.append(0.1, led.radiance(csk::white_drive()));

  // A short manual exposure keeps the white LED well below saturation,
  // so channel differences survive into the 8-bit pixels.
  const auto frame_with = [&](const channel::ChannelSpec& spec) {
    camera::RollingShutterCamera camera(camera::ideal_profile(),
                                        channel::OpticalChannel(spec, 7), 11);
    camera.set_manual_exposure({1.0 / 50000.0, 100.0});
    return camera.capture_frame(trace, 0.05);
  };

  const camera::Frame identity = frame_with({});
  channel::ChannelSpec far;
  far.distance.distance_m = 0.12;
  channel::ChannelSpec lit;
  lit.ambient.level = 0.2;
  channel::ChannelSpec flickering;
  flickering.ambient.level = 0.2;
  flickering.flicker.frequency_hz = 120.0;
  flickering.flicker.modulation_depth = 0.8;

  EXPECT_NE(identity.pixels, frame_with(far).pixels);
  EXPECT_NE(identity.pixels, frame_with(lit).pixels);
  EXPECT_NE(frame_with(lit).pixels, frame_with(flickering).pixels);
  // Same spec, same seeds: bitwise repeatable.
  EXPECT_EQ(frame_with(far).pixels, frame_with(far).pixels);
}

// ---------------------------------------------------------------------------
// Frame-domain stages and their composition through the pipeline.

TEST(ChannelStages, FrameDropIsSeededPerFrameIndex) {
  camera::Frame frame;
  channel::FrameDropStage stage(0.5, 0xd70b);
  std::vector<bool> kept;
  for (int i = 0; i < 1000; ++i) {
    frame.frame_index = i;
    kept.push_back(stage.process(frame));
  }
  const long long dropped = stage.dropped();
  EXPECT_GT(dropped, 350);
  EXPECT_LT(dropped, 650);

  // A fresh stage with the same seed makes the identical decisions, in
  // any evaluation order — the draw is a pure function of frame_index.
  channel::FrameDropStage replay(0.5, 0xd70b);
  for (int i = 999; i >= 0; --i) {
    frame.frame_index = i;
    EXPECT_EQ(replay.process(frame), kept[static_cast<std::size_t>(i)]) << i;
  }
  EXPECT_THROW((void)channel::FrameDropStage(1.0, 1), std::invalid_argument);
}

TEST(ChannelStages, GainWobbleScalesPixelsByThePerFrameGain) {
  channel::GainWobbleStage stage(0.3, 0xa0b1);
  bool some_gain_off_unity = false;
  for (int i = 0; i < 16; ++i) {
    const double gain = stage.gain_for(i);
    EXPECT_GE(gain, 0.5);
    EXPECT_LE(gain, 1.5);
    some_gain_off_unity |= gain != 1.0;

    camera::Frame frame;
    frame.resize(2, 2);
    frame.frame_index = i;
    for (auto& pixel : frame.pixels) pixel = {10, 100, 200};
    ASSERT_TRUE(stage.process(frame));
    for (const auto& pixel : frame.pixels) {
      EXPECT_EQ(pixel.g, static_cast<std::uint8_t>(std::clamp(
                             static_cast<double>(std::lround(100.0 * gain)), 0.0, 255.0)));
    }
  }
  EXPECT_TRUE(some_gain_off_unity);
  EXPECT_THROW((void)channel::GainWobbleStage(-0.1, 1), std::invalid_argument);
}

TEST(ChannelStages, StageChainIsEmptyForIdentitySpec) {
  const channel::StageChain chain(channel::ChannelSpec{}, 99);
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.stages().size(), 0u);
}

TEST(ChannelStages, ChainComposesDropBeforeWobbleThroughThePipeline) {
  const led::TriLed led;
  led::EmissionTrace trace;
  trace.append(0.5, led.radiance(csk::white_drive()));

  channel::ChannelSpec spec;
  spec.frame.drop_probability = 0.4;
  spec.frame.gain_wobble_sigma = 0.25;
  const std::uint64_t chain_seed = 0xc0ffee;

  // Path A: the chain, applied to the streamed frames by
  // pipeline::apply_stages; the survivors are copied in arrival order.
  camera::RollingShutterCamera streamed(camera::ideal_profile(),
                                        channel::OpticalChannel{}, 0xcab);
  pipeline::BufferPool pool;
  pipeline::FrameSource source(streamed, trace, pool, {});
  const channel::StageChain chain(spec, chain_seed);
  ASSERT_EQ(chain.stages().size(), 2u);
  std::vector<camera::Frame> survivors;
  long long dropped = 0;
  while (camera::Frame* frame = source.next()) {
    if (pipeline::apply_stages(chain.stages(), *frame)) {
      survivors.push_back(*frame);
    } else {
      ++dropped;
    }
  }

  // Path B: the same stages applied by hand, in canonical order (drop
  // decides first; a dropped frame is never wobbled), to the
  // byte-identical materialized capture.
  camera::RollingShutterCamera buffered(camera::ideal_profile(),
                                        channel::OpticalChannel{}, 0xcab);
  std::vector<camera::Frame> expected = buffered.capture_video(trace);
  const std::size_t total = expected.size();
  channel::FrameDropStage drop(spec.frame.drop_probability,
                               runtime::derive_stream_seed(chain_seed, 1));
  channel::GainWobbleStage wobble(spec.frame.gain_wobble_sigma,
                                  runtime::derive_stream_seed(chain_seed, 2));
  std::erase_if(expected, [&](camera::Frame& frame) {
    if (!drop.process(frame)) return true;
    EXPECT_TRUE(wobble.process(frame));
    return false;
  });

  ASSERT_GT(total, 0u);
  ASSERT_LT(survivors.size(), total) << "expected some drops at p=0.4";
  ASSERT_EQ(survivors.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(survivors[i].frame_index, expected[i].frame_index);
    EXPECT_EQ(survivors[i].pixels, expected[i].pixels) << "frame " << i;
  }
  EXPECT_EQ(dropped, static_cast<long long>(total - expected.size()));
}

}  // namespace
}  // namespace colorbars
