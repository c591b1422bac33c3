// Decode fingerprints of the three transmit -> receive loops. The golden
// capture hashes freeze rendered bytes and SvcWire.EncodingIsFrozen
// freezes wire bytes; these freeze what the receivers make of a capture:
// the svc trial rows of one small SER, throughput and goodput point, one
// short closed-loop adaptive run over a frame-dropping channel, and one
// two-luminaire scene run behind a frame-drop stage. A refactor of the
// capture or decode path that changes any decoded byte, packet count or
// frame count moves one of the hashes.
//
// The constants are checked in; a change that moves one on purpose
// re-freezes it and says why.

#include <cstdint>
#include <string_view>

#include <gtest/gtest.h>

#include "colorbars/adapt/simulator.hpp"
#include "colorbars/camera/profile.hpp"
#include "colorbars/scene/simulator.hpp"
#include "colorbars/svc/sweep.hpp"
#include "colorbars/svc/wire.hpp"

namespace colorbars {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, long long value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// svc::run_job_trials rows of one SER, one throughput and one goodput
/// point (the goodput point drops frames), each job's rows encoded as
/// the worker sends them.
std::uint64_t trial_rows_hash() {
  core::LinkConfig link;
  link.order = csk::CskOrder::kCsk8;
  link.symbol_rate_hz = 2000.0;
  link.seed = 0xf1a9e5;

  svc::SweepSpec spec;
  spec.trials_per_job = 0;
  svc::SweepPoint ser;
  ser.config = link;
  ser.kind = svc::TrialKind::kSer;
  ser.trials = 2;
  ser.symbols_per_trial = 600;
  svc::SweepPoint throughput;
  throughput.config = link;
  throughput.kind = svc::TrialKind::kThroughput;
  throughput.duration_s = 0.3;
  svc::SweepPoint goodput;
  goodput.config = link;
  goodput.config.channel.frame.drop_probability = 0.1;
  goodput.kind = svc::TrialKind::kGoodput;
  goodput.trials = 2;
  goodput.duration_s = 0.5;
  spec.points = {ser, throughput, goodput};

  std::uint64_t hash = kFnvOffset;
  for (const svc::JobRequest& job : svc::make_jobs(spec)) {
    svc::JobResultMessage message;
    message.id = job.id;
    message.trials_kind = job.kind;
    message.trials = svc::run_job_trials(job);
    hash = fnv1a(hash, svc::encode_job_result(message));
  }
  return hash;
}

/// One short adaptive run: a clean leg, then a farther leg whose frame
/// stage drops frames, so the run switches rungs and the interval
/// samples carry drop counts.
std::uint64_t adaptive_run_hash() {
  adapt::TrajectorySegment near;
  near.name = "near";
  near.duration_s = 1.4;
  near.channel.distance.distance_m = 0.08;
  near.channel.distance.reference_distance_m = 0.08;
  adapt::TrajectorySegment far = near;
  far.name = "far, dropping frames";
  far.duration_s = 2.2;
  far.channel.distance.distance_m = 0.13;
  far.channel.frame.drop_probability = 0.2;
  adapt::Trajectory trajectory;
  trajectory.segments = {near, far};

  adapt::AdaptiveLinkConfig config;
  config.profile = camera::ideal_profile();
  config.feedback.delay_intervals = 0;
  adapt::AdaptiveLinkSimulator simulator(config, trajectory);
  const adapt::AdaptiveRunResult result = simulator.run();

  std::uint64_t hash = fnv1a(kFnvOffset, svc::adaptive_result_to_json(result).dump());
  long long dropped = 0;
  for (const adapt::IntervalRecord& interval : result.intervals) {
    hash = fnv1a(hash, interval.sample.frames_streamed);
    hash = fnv1a(hash, interval.sample.frames_dropped);
    dropped += interval.sample.frames_dropped;
  }
  // The hash covers what it claims to: a rung switch, dropped frames
  // and decoded bytes.
  EXPECT_GT(result.epochs, 1);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(result.recovered_bytes, 0);
  return hash;
}

/// One two-luminaire scene run behind a frame-drop stage: every
/// luminaire outcome, the lanes opened and the frames decoded.
std::uint64_t scene_run_hash() {
  scene::SceneConfig config;
  config.link.order = csk::CskOrder::kCsk8;
  config.link.symbol_rate_hz = 2000.0;
  config.link.profile = camera::ideal_profile();
  config.link.profile.columns = 64;
  config.link.channel.frame.drop_probability = 0.15;
  config.link.seed = 0x5ce2f1a9;
  camera::SensorRegion left;
  left.left = 8;
  left.width = 16;
  left.height = config.link.profile.rows;
  camera::SensorRegion right = left;
  right.left = 40;
  config.scene.luminaires.push_back({left, {}});
  config.scene.luminaires.push_back({right, {}});

  scene::SceneSimulator simulator(config);
  const scene::SceneRunResult result = simulator.run_goodput(0.6);
  for (const scene::LuminaireOutcome& outcome : result.luminaires) {
    EXPECT_GT(outcome.recovered_bytes, 0u) << "luminaire " << outcome.luminaire;
  }

  std::uint64_t hash = fnv1a(kFnvOffset, static_cast<long long>(result.lanes_opened));
  hash = fnv1a(hash, static_cast<long long>(result.frames));
  for (const scene::LuminaireOutcome& outcome : result.luminaires) {
    for (const long long field :
         {static_cast<long long>(outcome.luminaire), static_cast<long long>(outcome.lane_id),
          static_cast<long long>(outcome.region.top),
          static_cast<long long>(outcome.region.left),
          static_cast<long long>(outcome.region.height),
          static_cast<long long>(outcome.region.width), outcome.packets, outcome.packets_ok,
          static_cast<long long>(outcome.sent_bytes),
          static_cast<long long>(outcome.recovered_bytes)}) {
      hash = fnv1a(hash, field);
    }
  }
  return hash;
}

TEST(DecodeFingerprint, ThreeLoopsMatchTheirFrozenHashes) {
  EXPECT_EQ(trial_rows_hash(), 0x056d5586e8382592ULL) << "svc trial rows";
  EXPECT_EQ(adaptive_run_hash(), 0x98ec3127907bd1a0ULL) << "adaptive run";
  EXPECT_EQ(scene_run_hash(), 0xb60c3752462acd79ULL) << "scene run";
}

}  // namespace
}  // namespace colorbars
