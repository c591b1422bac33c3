#include "colorbars/rx/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "colorbars/camera/camera.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::rx {
namespace {

struct StreamFixture {
  explicit StreamFixture(std::size_t payload_bytes = 120,
                         camera::SensorProfile profile = camera::ideal_profile()) {
    const rs::CodeParameters code = core::derive_link_code(
        csk::CskOrder::kCsk8, 2000.0, profile.fps, profile.inter_frame_loss_ratio, 0.8);
    tx_config.format.order = csk::CskOrder::kCsk8;
    tx_config.symbol_rate_hz = 2000.0;
    tx_config.rs_n = code.n;
    tx_config.rs_k = code.k;
    rx_config.format = tx_config.format;
    rx_config.symbol_rate_hz = 2000.0;
    rx_config.frame_rate_hz = profile.fps;
    rx_config.rs_n = code.n;
    rx_config.rs_k = code.k;

    util::Xoshiro256 rng(404);
    payload.resize(payload_bytes);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));

    const tx::Transmitter transmitter(tx_config);
    transmission = transmitter.transmit(payload);
    camera::RollingShutterCamera camera(profile, {}, 777);
    frames = camera.capture_video(transmission.trace);
  }

  tx::TransmitterConfig tx_config;
  ReceiverConfig rx_config;
  std::vector<std::uint8_t> payload;
  tx::Transmission transmission;
  std::vector<camera::Frame> frames;
};

/// Streams every frame through `streaming`, polling after each, and
/// returns all reported records (including the finish() tail).
std::vector<PacketRecord> stream_all(StreamingReceiver& streaming,
                                     const std::vector<camera::Frame>& frames) {
  std::vector<PacketRecord> streamed;
  for (const camera::Frame& frame : frames) {
    streaming.push_frame(frame);
    const auto fresh = streaming.poll();
    streamed.insert(streamed.end(), fresh.begin(), fresh.end());
  }
  const auto tail = streaming.finish();
  streamed.insert(streamed.end(), tail.begin(), tail.end());
  return streamed;
}

void expect_records_identical(const std::vector<PacketRecord>& streamed,
                              const std::vector<PacketRecord>& batch) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].start_slot, batch[i].start_slot) << "record " << i;
    EXPECT_EQ(streamed[i].kind, batch[i].kind) << "record " << i;
    EXPECT_EQ(streamed[i].ok, batch[i].ok) << "record " << i;
    EXPECT_EQ(streamed[i].failure, batch[i].failure) << "record " << i;
    EXPECT_EQ(streamed[i].payload, batch[i].payload) << "record " << i;
    EXPECT_EQ(streamed[i].erased_slots, batch[i].erased_slots) << "record " << i;
    EXPECT_EQ(streamed[i].corrected_errors, batch[i].corrected_errors) << "record " << i;
    EXPECT_EQ(streamed[i].corrected_erasures, batch[i].corrected_erasures)
        << "record " << i;
  }
}

TEST(StreamingReceiver, EmptyStreamYieldsNothing) {
  StreamFixture fixture;
  StreamingReceiver streaming(fixture.rx_config);
  EXPECT_TRUE(streaming.poll().empty());
  EXPECT_TRUE(streaming.finish().empty());
  EXPECT_EQ(streaming.frames_ingested(), 0);
}

TEST(StreamingReceiver, MatchesBatchReceiverPacketForPacket) {
  StreamFixture fixture;

  Receiver batch(fixture.rx_config);
  const ReceiverReport batch_report = batch.process(fixture.frames);

  StreamingReceiver streaming(fixture.rx_config);
  const auto streamed = stream_all(streaming, fixture.frames);

  expect_records_identical(streamed, batch_report.packets);
  EXPECT_EQ(streaming.payload(), batch_report.payload);
}

TEST(StreamingReceiver, ReportsPacketsOnlyOnce) {
  StreamFixture fixture;
  StreamingReceiver streaming(fixture.rx_config);
  std::vector<long long> starts;
  for (const camera::Frame& frame : fixture.frames) {
    streaming.push_frame(frame);
    // Poll twice per frame — the second poll must be empty.
    for (const auto& record : streaming.poll()) starts.push_back(record.start_slot);
    EXPECT_TRUE(streaming.poll().empty());
  }
  for (const auto& record : streaming.finish()) starts.push_back(record.start_slot);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GT(starts[i], starts[i - 1]);  // strictly increasing = no dupes
  }
}

TEST(StreamingReceiver, PacketsArriveIncrementally) {
  // At least one packet must be reported before the final frame — the
  // whole point of the streaming API.
  StreamFixture fixture;
  StreamingReceiver streaming(fixture.rx_config);
  bool early_packet = false;
  for (std::size_t i = 0; i + 1 < fixture.frames.size(); ++i) {
    streaming.push_frame(fixture.frames[i]);
    if (!streaming.poll().empty()) early_packet = true;
  }
  EXPECT_TRUE(early_packet);
}

TEST(StreamingReceiver, FinishIsIdempotent) {
  StreamFixture fixture;
  StreamingReceiver streaming(fixture.rx_config);
  for (const camera::Frame& frame : fixture.frames) streaming.push_frame(frame);
  (void)streaming.finish();
  EXPECT_TRUE(streaming.finish().empty());
}

TEST(StreamingReceiver, HoldbackTracksConfiguredFrameRate) {
  // Regression for the hardcoded 30 fps holdback: one frame period of
  // slots must follow the configured camera rate, not a constant.
  for (const double fps : {24.0, 30.0, 60.0}) {
    ReceiverConfig config;
    config.symbol_rate_hz = 2000.0;
    config.frame_rate_hz = fps;
    StreamingReceiver streaming(config);
    const long long period = std::llround(2000.0 / fps);
    EXPECT_EQ(streaming.holdback_slots(), period + 4) << "fps " << fps;
    EXPECT_EQ(streaming.tail_keep_slots(), period) << "fps " << fps;
  }
}

TEST(StreamingReceiver, MatchesBatchAtTwentyFourFps) {
  // Regression: with the old 30 fps holdback a 24 fps camera's frame
  // period exceeds the holdback, so gap-straddling packets used to be
  // reported truncated before their tail arrived.
  camera::SensorProfile profile = camera::ideal_profile();
  profile.fps = 24.0;
  StreamFixture fixture(200, profile);

  Receiver batch(fixture.rx_config);
  const ReceiverReport batch_report = batch.process(fixture.frames);

  StreamingReceiver streaming(fixture.rx_config);
  const auto streamed = stream_all(streaming, fixture.frames);

  expect_records_identical(streamed, batch_report.packets);
  EXPECT_EQ(streaming.payload(), batch_report.payload);
  EXPECT_GT(streaming.payload().size(), 0u);
}

TEST(StreamingReceiver, MatchesBatchAtSixtyFps) {
  camera::SensorProfile profile = camera::ideal_profile();
  profile.fps = 60.0;
  StreamFixture fixture(200, profile);

  Receiver batch(fixture.rx_config);
  const ReceiverReport batch_report = batch.process(fixture.frames);

  StreamingReceiver streaming(fixture.rx_config);
  const auto streamed = stream_all(streaming, fixture.frames);

  expect_records_identical(streamed, batch_report.packets);
  EXPECT_EQ(streaming.payload(), batch_report.payload);
}

TEST(StreamingReceiver, WindowStaysBoundedAndEvicts) {
  // A multi-second capture: the retained window must be bounded by the
  // holdback/tail constants, not by the capture length, while eviction
  // across the inter-frame gaps keeps the decode byte-identical.
  StreamFixture fixture(1200);

  Receiver batch(fixture.rx_config);
  const ReceiverReport batch_report = batch.process(fixture.frames);

  StreamingReceiver streaming(fixture.rx_config);
  const auto streamed = stream_all(streaming, fixture.frames);
  expect_records_identical(streamed, batch_report.packets);
  EXPECT_EQ(streaming.payload(), batch_report.payload);

  const StreamingStats& stats = streaming.stats();
  EXPECT_GT(stats.slots_evicted, 0);
  // Bound: holdback + tail + one packet span + one frame of growth, with
  // slack. Six frame periods is comfortably above that and far below
  // the ~4000-slot capture.
  const long long period = streaming.tail_keep_slots();
  EXPECT_LE(stats.peak_window_slots, 6 * period + 64)
      << "window grew with capture length";
  EXPECT_GT(stats.slots_ingested, 2 * stats.peak_window_slots)
      << "capture too short to exercise eviction";
}

TEST(StreamingReceiver, PeakWindowIndependentOfCaptureLength) {
  StreamFixture short_fixture(400);
  StreamFixture long_fixture(1600);

  StreamingReceiver short_stream(short_fixture.rx_config);
  (void)stream_all(short_stream, short_fixture.frames);
  StreamingReceiver long_stream(long_fixture.rx_config);
  (void)stream_all(long_stream, long_fixture.frames);

  ASSERT_GT(long_fixture.frames.size(), 2 * short_fixture.frames.size());
  // 4x the data must not even double the retained peak (steady state is
  // reached within the short capture already).
  EXPECT_LE(long_stream.stats().peak_window_slots,
            2 * short_stream.stats().peak_window_slots);
}

TEST(StreamingReceiver, ScanWorkIsLinearNotQuadratic) {
  // Total scan positions across all drains must stay close to the slot
  // span of the capture: the old implementation re-parsed the full
  // timeline on every poll, making this quadratic in frame count.
  StreamFixture fixture(1200);
  StreamingReceiver streaming(fixture.rx_config);
  (void)stream_all(streaming, fixture.frames);

  const StreamingStats& stats = streaming.stats();
  const long long span = streaming.stats().slots_ingested;
  EXPECT_GT(stats.drains, 10);
  // Each slot position is visited at most once by the resumable parse,
  // plus a bounded re-visit of deferred packet starts per drain.
  EXPECT_LE(stats.slots_scanned, 2 * span + stats.drains * 128)
      << "scan work not linear in capture length";
}

}  // namespace
}  // namespace colorbars::rx
