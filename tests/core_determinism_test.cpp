// The determinism-by-seed-derivation contract: every parallelized
// simulation path (video capture, batch Monte-Carlo trials) must
// produce byte-identical results at any thread count, because each
// frame/trial draws its randomness from a counter-derived stream rather
// than a shared sequential RNG.

#include <gtest/gtest.h>

#include "colorbars/adapt/simulator.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/csk/modulation.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/rx/streaming.hpp"
#include "colorbars/scene/simulator.hpp"
#include "colorbars/svc/service.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars {
namespace {

/// Runs `body` once per thread count and checks all results compare
/// equal to the single-threaded reference.
template <typename Body>
void expect_same_at_all_thread_counts(Body body) {
  runtime::ThreadPool::set_shared_thread_count(1);
  const auto reference = body();
  for (unsigned threads : {2u, 8u}) {
    runtime::ThreadPool::set_shared_thread_count(threads);
    EXPECT_TRUE(reference == body()) << "diverged at " << threads << " threads";
  }
  runtime::ThreadPool::set_shared_thread_count(0);
}

led::EmissionTrace random_symbol_trace(double symbol_rate_hz, int symbols) {
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::TriLed led;
  util::Xoshiro256 rng(0xdece);
  std::vector<protocol::ChannelSymbol> slots;
  for (int i = 0; i < symbols; ++i) {
    slots.push_back(protocol::ChannelSymbol::data(static_cast<int>(rng.below(8))));
  }
  return led.emit(protocol::drives_of(slots, constellation), symbol_rate_hz);
}

TEST(Determinism, CaptureVideoIsByteIdenticalAcrossThreadCounts) {
  const led::EmissionTrace trace = random_symbol_trace(2000.0, 700);  // ~0.35 s
  auto capture = [&] {
    camera::RollingShutterCamera camera(camera::nexus5_profile(), {}, 0x5eed);
    std::vector<camera::Frame> frames = camera.capture_video(trace, 0.003);
    // Flatten to the raw pixel bytes plus timing for an exact compare.
    std::vector<std::uint8_t> bytes;
    for (const camera::Frame& frame : frames) {
      for (const color::Rgb8& p : frame.pixels) {
        bytes.push_back(p.r);
        bytes.push_back(p.g);
        bytes.push_back(p.b);
      }
      EXPECT_GT(frame.exposure_s, 0.0);
    }
    return bytes;
  };
  expect_same_at_all_thread_counts(capture);
}

TEST(Determinism, CaptureVideoDiffersPerSeedButReproducesPerSeed) {
  const led::EmissionTrace trace = random_symbol_trace(2000.0, 300);
  auto pixels_with_seed = [&](std::uint64_t seed) {
    camera::RollingShutterCamera camera(camera::ideal_profile(), {}, seed);
    const auto frames = camera.capture_video(trace);
    return frames.front().pixels;
  };
  EXPECT_EQ(pixels_with_seed(7), pixels_with_seed(7));
  EXPECT_NE(pixels_with_seed(7), pixels_with_seed(8));
}

core::LinkConfig small_link() {
  core::LinkConfig config;
  config.order = csk::CskOrder::kCsk8;
  config.symbol_rate_hz = 2000.0;
  config.profile = camera::ideal_profile();
  config.seed = 0xba7c4;
  return config;
}

TEST(Determinism, SerTrialsIdenticalAcrossThreadCounts) {
  auto run = [] {
    core::LinkSimulator sim(small_link());
    const core::SerBatchResult batch = sim.run_ser_trials(3, 400);
    std::vector<long long> flat;
    for (const core::SerResult& trial : batch.trials) {
      flat.push_back(trial.symbols_sent);
      flat.push_back(trial.symbols_observed);
      flat.push_back(trial.symbol_errors);
    }
    flat.push_back(static_cast<long long>(batch.ser.mean * 1e15));
    return flat;
  };
  expect_same_at_all_thread_counts(run);
}

TEST(Determinism, ThroughputTrialsIdenticalAcrossThreadCounts) {
  // Raw-throughput trials run only through the grid executor: one point,
  // its three trials as three jobs on the in-process pool.
  auto run = [] {
    svc::SweepSpec spec;
    svc::SweepPoint point;
    point.config = small_link();
    point.kind = svc::TrialKind::kThroughput;
    point.trials = 3;
    point.duration_s = 0.4;
    spec.points.push_back(point);
    svc::ServiceConfig in_process;
    in_process.workers = 0;
    const svc::PointResult result = svc::run_sweep(spec, in_process).front();
    std::vector<long long> flat;
    for (const svc::TrialResult& trial : result.trials) {
      flat.push_back(trial.throughput.data_slots_sent);
      flat.push_back(trial.throughput.data_slots_observed);
    }
    flat.push_back(static_cast<long long>(result.primary.mean * 1e9));
    return flat;
  };
  expect_same_at_all_thread_counts(run);
}

TEST(Determinism, GoodputTrialsIdenticalAcrossThreadCounts) {
  auto run = [] {
    core::LinkSimulator sim(small_link());
    const core::GoodputBatchResult batch = sim.run_goodput_trials(2, 0.5);
    std::vector<long long> flat;
    for (const core::LinkRunResult& trial : batch.trials) {
      flat.push_back(static_cast<long long>(trial.recovered_bytes));
      flat.push_back(static_cast<long long>(trial.payload_bytes));
    }
    flat.push_back(static_cast<long long>(batch.goodput_bps.mean * 1e9));
    return flat;
  };
  expect_same_at_all_thread_counts(run);
}

/// Flattens a ReceiverReport for exact comparison. slots_scanned is
/// excluded by design: it counts parse-loop work, and the incremental
/// streamed parse re-scans deferred head positions, so it may exceed the
/// batch value while every decoded artifact is identical (DESIGN.md,
/// "pipeline subsystem").
std::vector<long long> flatten_report(const rx::ReceiverReport& report) {
  std::vector<long long> flat;
  flat.push_back(static_cast<long long>(report.packets.size()));
  for (const rx::PacketRecord& packet : report.packets) {
    flat.push_back(static_cast<long long>(packet.kind));
    flat.push_back(packet.ok ? 1 : 0);
    flat.push_back(static_cast<long long>(packet.failure));
    flat.push_back(packet.start_slot);
    flat.push_back(packet.epoch);
    flat.push_back(packet.corrected_errors);
    flat.push_back(packet.corrected_erasures);
    flat.push_back(packet.erased_slots);
    for (std::uint8_t byte : packet.payload) flat.push_back(byte);
  }
  for (std::uint8_t byte : report.payload) flat.push_back(byte);
  flat.push_back(report.slots_observed);
  flat.push_back(report.slot_span);
  flat.push_back(report.calibration_packets);
  flat.push_back(report.data_packets_ok);
  flat.push_back(report.data_packets_failed);
  flat.push_back(static_cast<long long>(report.decision_margin_sum * 1e6));
  flat.push_back(report.decision_margin_count);
  return flat;
}

TEST(Determinism, StreamedPipelineMatchesBufferedCaptureAcrossThreadCounts) {
  const core::LinkConfig link = small_link();
  const tx::Transmitter transmitter(link.transmitter_config());
  util::Xoshiro256 rng(0x9a9);
  std::vector<std::uint8_t> payload(600);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
  const tx::Transmission transmission = transmitter.transmit(payload);
  const double start_offset = 0.002;

  // Streamed path: FrameSource prefetch ring -> StreamingReceiver, frame
  // by frame, O(lookahead) frames resident.
  auto streamed = [&] {
    camera::RollingShutterCamera camera(link.profile, channel::OpticalChannel(link.channel), 0xfee1);
    pipeline::BufferPool pool;
    pipeline::SourceConfig config;
    config.lookahead = 5;
    config.start_offset_s = start_offset;
    pipeline::FrameSource source(camera, transmission.trace, pool, config);
    rx::StreamingReceiver receiver(link.receiver_config());
    while (const camera::Frame* frame = source.next()) {
      receiver.push_frame(*frame);
      (void)receiver.poll();
    }
    receiver.on_stream_end();
    return flatten_report(receiver.report());
  };
  // Buffered path: the retained capture_video + batch Receiver::process.
  auto buffered = [&] {
    camera::RollingShutterCamera camera(link.profile, channel::OpticalChannel(link.channel), 0xfee1);
    const std::vector<camera::Frame> frames =
        camera.capture_video(transmission.trace, start_offset);
    rx::Receiver receiver(link.receiver_config());
    return flatten_report(receiver.process(frames));
  };

  runtime::ThreadPool::set_shared_thread_count(1);
  const std::vector<long long> reference = streamed();
  EXPECT_EQ(reference, buffered()) << "streamed != buffered at 1 thread";
  for (unsigned threads : {2u, 8u}) {
    runtime::ThreadPool::set_shared_thread_count(threads);
    EXPECT_EQ(reference, streamed()) << "streamed diverged at " << threads;
    EXPECT_EQ(reference, buffered()) << "buffered diverged at " << threads;
  }
  runtime::ThreadPool::set_shared_thread_count(0);
}

TEST(Determinism, ImpairedChannelIdenticalAcrossThreadCounts) {
  // Every stochastic channel stage at once — distance attenuation,
  // flickering ambient, occlusion bursts, frame drops, gain wobble —
  // must still be a pure function of (seed, time/frame counter), so the
  // full link run is byte-identical at any thread count.
  auto run = [] {
    core::LinkConfig config = small_link();
    config.channel.distance.distance_m = 0.05;
    config.channel.ambient.level = 0.02;
    config.channel.flicker.frequency_hz = 100.0;
    config.channel.flicker.modulation_depth = 0.4;
    config.channel.occlusion.rate_hz = 3.0;
    config.channel.occlusion.mean_duration_s = 0.02;
    config.channel.frame.drop_probability = 0.1;
    config.channel.frame.gain_wobble_sigma = 0.1;
    core::LinkSimulator sim(config);
    const core::SerResult ser = sim.run_ser(600);
    std::vector<std::uint8_t> bytes(200);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    const core::LinkRunResult payload = sim.run_payload(bytes);
    std::vector<long long> flat{ser.symbols_sent, ser.symbols_observed,
                                ser.symbol_errors,
                                static_cast<long long>(payload.recovered_bytes)};
    for (std::uint8_t byte : payload.report.payload) flat.push_back(byte);
    return flat;
  };
  expect_same_at_all_thread_counts(run);
}

TEST(Determinism, PhotodiodeLinkIdenticalAcrossThreadCounts) {
  // The pd frontend's prefetch ring fans block rendering across the
  // pool; block noise derives from (seed, block index), so a whole
  // photodiode link run — through every radiance-domain channel stage —
  // must be byte-identical at any thread count.
  auto run = [] {
    core::LinkConfig config = small_link();
    config.frontend = frontend::FrontendKind::kPhotodiode;
    config.channel.distance.distance_m = 0.05;
    config.channel.ambient.level = 0.02;
    config.channel.flicker.frequency_hz = 100.0;
    config.channel.flicker.modulation_depth = 0.4;
    config.channel.occlusion.rate_hz = 3.0;
    config.channel.occlusion.mean_duration_s = 0.02;
    core::LinkSimulator sim(config);
    const core::SerResult ser = sim.run_ser(600);
    std::vector<std::uint8_t> bytes(200);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 17 + 3);
    }
    const core::LinkRunResult payload = sim.run_payload(bytes);
    std::vector<long long> flat{ser.symbols_sent, ser.symbols_observed,
                                ser.symbol_errors,
                                static_cast<long long>(payload.recovered_bytes)};
    for (std::uint8_t byte : payload.report.payload) flat.push_back(byte);
    return flat;
  };
  expect_same_at_all_thread_counts(run);
}

TEST(Determinism, AdaptiveRunIdenticalAcrossThreadCounts) {
  // The closed control loop is sequential; only frame rendering fans
  // out. A whole adaptive run — rung switches, feedback delivery, epoch
  // flushes, attribution — must therefore be byte-identical at any
  // thread count.
  auto run = [] {
    adapt::Trajectory trajectory;
    adapt::TrajectorySegment near;
    near.name = "near";
    near.duration_s = 1.0;
    near.channel.distance.distance_m = 0.08;
    near.channel.distance.reference_distance_m = 0.08;
    adapt::TrajectorySegment far = near;
    far.name = "far";
    far.duration_s = 1.4;
    far.channel.distance.distance_m = 0.13;
    trajectory.segments = {near, far};

    adapt::AdaptiveLinkConfig config;
    config.profile = camera::ideal_profile();
    config.feedback.delay_intervals = 1;
    config.feedback.loss_probability = 0.3;  // exercise the loss stream too
    adapt::AdaptiveLinkSimulator simulator(config, trajectory);
    const adapt::AdaptiveRunResult result = simulator.run();

    std::vector<long long> flat;
    flat.push_back(result.recovered_bytes);
    flat.push_back(result.payload_bytes);
    flat.push_back(static_cast<long long>(result.total_time_s * 1e9));
    flat.push_back(result.epochs);
    flat.push_back(result.upshifts);
    flat.push_back(result.downshifts);
    flat.push_back(result.commands_sent);
    flat.push_back(result.commands_lost);
    flat.push_back(result.final_rung);
    for (const adapt::IntervalRecord& record : result.intervals) {
      flat.push_back(record.epoch);
      flat.push_back(record.rung);
      flat.push_back(record.recovered_bytes);
      flat.push_back(record.packets_ok);
      flat.push_back(record.packets_failed);
      flat.push_back(record.header_losses);
      flat.push_back(record.corrected_symbols);
      flat.push_back(static_cast<long long>(record.sample.margin_sum * 1e6));
      flat.push_back(record.desired_rung);
      flat.push_back(record.command_sent ? 1 : 0);
      flat.push_back(record.command_lost ? 1 : 0);
    }
    return flat;
  };
  expect_same_at_all_thread_counts(run);
}

TEST(Determinism, MultiLedSceneDecodeIdenticalAcrossThreadCounts) {
  // The scene path fans out twice — frame rendering per row and decode
  // per ROI lane — and both must stay pure functions of (seed, index):
  // a whole multi-luminaire run is byte-identical at any thread count.
  auto run = [] {
    scene::SceneConfig config;
    config.link.order = csk::CskOrder::kCsk8;
    config.link.symbol_rate_hz = 2000.0;
    config.link.profile = camera::ideal_profile();
    config.link.profile.columns = 64;
    config.link.seed = 0x5ce2ba7;
    camera::SensorRegion left;
    left.left = 8;
    left.width = 16;
    left.height = config.link.profile.rows;
    camera::SensorRegion right = left;
    right.left = 40;
    config.scene.luminaires.push_back({left, {}});
    config.scene.luminaires.push_back({right, {}});

    scene::SceneSimulator sim(config);
    const scene::SceneRunResult result = sim.run_goodput(0.5);
    std::vector<long long> flat{static_cast<long long>(result.lanes_opened),
                                static_cast<long long>(result.frames),
                                static_cast<long long>(result.recovered_bytes),
                                static_cast<long long>(result.sent_bytes)};
    for (const scene::LuminaireOutcome& outcome : result.luminaires) {
      flat.push_back(outcome.lane_id);
      flat.push_back(outcome.region.left);
      flat.push_back(outcome.region.width);
      flat.push_back(outcome.region.top);
      flat.push_back(outcome.region.height);
      flat.push_back(outcome.packets);
      flat.push_back(outcome.packets_ok);
      flat.push_back(static_cast<long long>(outcome.recovered_bytes));
    }
    return flat;
  };
  expect_same_at_all_thread_counts(run);
}

TEST(BatchTrials, StatsAggregateTrials) {
  core::LinkSimulator sim(small_link());
  const core::SerBatchResult batch = sim.run_ser_trials(3, 300);
  ASSERT_EQ(batch.trials.size(), 3u);
  EXPECT_EQ(batch.ser.trials, 3);
  double sum = 0.0;
  for (const core::SerResult& trial : batch.trials) sum += trial.ser();
  EXPECT_NEAR(batch.ser.mean, sum / 3.0, 1e-12);
  EXPECT_GE(batch.ser.stddev, 0.0);
  // Trials use distinct derived seeds — observed symbol counts should
  // not be all identical (different gap phases).
  EXPECT_GT(batch.trials[0].symbols_observed, 0);
}

TEST(BatchTrials, ZeroTrialsIsEmpty) {
  core::LinkSimulator sim(small_link());
  const core::SerBatchResult batch = sim.run_ser_trials(0, 100);
  EXPECT_TRUE(batch.trials.empty());
  EXPECT_EQ(batch.ser.trials, 0);
  EXPECT_EQ(batch.ser.mean, 0.0);
}

TEST(LinkConfigCode, MemoTracksFieldEdits) {
  core::LinkConfig config = small_link();
  const rs::CodeParameters first = config.code();
  EXPECT_EQ(first.n, config.code().n);  // same inputs, same code
  config.symbol_rate_hz = 4000.0;
  const rs::CodeParameters second = config.code();
  EXPECT_NE(first.n, second.n);  // the edit is seen
  const rs::CodeParameters reference = core::derive_link_code(
      config.order, config.symbol_rate_hz, config.profile.fps,
      config.profile.inter_frame_loss_ratio, config.illumination_ratio);
  EXPECT_EQ(second.n, reference.n);
  EXPECT_EQ(second.k, reference.k);
}

}  // namespace
}  // namespace colorbars
