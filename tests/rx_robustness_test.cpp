// Failure-injection tests: the receiver must degrade gracefully — never
// crash, never mis-credit — when fed corrupted, truncated or adversarial
// slot timelines and frames.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/rx/receiver.hpp"
#include "colorbars/rx/roi_tracker.hpp"
#include "colorbars/rx/streaming.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::rx {
namespace {

ReceiverConfig small_rx_config() {
  ReceiverConfig config;
  config.format.order = csk::CskOrder::kCsk8;
  config.symbol_rate_hz = 2000.0;
  config.rs_n = 16;
  config.rs_k = 9;
  return config;
}

TEST(Robustness, RandomTimelinesNeverCrashOrYieldPackets) {
  util::Xoshiro256 rng(31337);
  Receiver receiver(small_rx_config());
  for (int trial = 0; trial < 30; ++trial) {
    SlotTimeline timeline;
    timeline.base_slot = static_cast<long long>(rng.below(1000));
    timeline.slots.resize(200 + rng.below(400));
    for (auto& cell : timeline.slots) {
      if (rng.chance(0.3)) continue;  // missing slot
      SlotObservation observation;
      observation.chroma = {rng.uniform(-90, 90), rng.uniform(-90, 90)};
      observation.lightness = rng.uniform(0, 100);
      observation.rgb = {rng.uniform(), rng.uniform(), rng.uniform()};
      cell = observation;
    }
    const ReceiverReport report = receiver.parse(timeline);
    // Whatever it finds, a decoded packet must pass RS validation — and
    // random noise must (with overwhelming probability) never produce one.
    EXPECT_EQ(report.data_packets_ok, 0) << "trial " << trial;
  }
}

TEST(Robustness, AllDarkTimelineYieldsNothing) {
  Receiver receiver(small_rx_config());
  SlotTimeline timeline;
  timeline.slots.resize(500);
  for (auto& cell : timeline.slots) {
    SlotObservation observation;
    observation.lightness = 2.0;
    cell = observation;
  }
  const ReceiverReport report = receiver.parse(timeline);
  EXPECT_EQ(report.data_packets_ok, 0);
  EXPECT_EQ(report.calibration_packets, 0);
}

TEST(Robustness, AllWhiteTimelineYieldsNothing) {
  Receiver receiver(small_rx_config());
  SlotTimeline timeline;
  timeline.slots.resize(500);
  for (auto& cell : timeline.slots) {
    SlotObservation observation;
    observation.lightness = 70.0;
    observation.chroma = {2.0, 4.0};
    cell = observation;
  }
  const ReceiverReport report = receiver.parse(timeline);
  EXPECT_TRUE(report.packets.empty());
}

TEST(Robustness, CorruptedFramePixelsDegradeGracefully) {
  // Flip random pixels of every frame; decode must not crash and every
  // packet it does credit must be genuine (RS-validated).
  const camera::SensorProfile profile = camera::ideal_profile();
  const rs::CodeParameters code = core::derive_link_code(
      csk::CskOrder::kCsk8, 2000.0, profile.fps, profile.inter_frame_loss_ratio, 0.8);
  tx::TransmitterConfig tx_config;
  tx_config.format.order = csk::CskOrder::kCsk8;
  tx_config.symbol_rate_hz = 2000.0;
  tx_config.rs_n = code.n;
  tx_config.rs_k = code.k;
  const tx::Transmitter transmitter(tx_config);
  util::Xoshiro256 rng(606);
  std::vector<std::uint8_t> payload(60);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
  const tx::Transmission transmission = transmitter.transmit(payload);

  camera::RollingShutterCamera camera(profile, {}, 9);
  auto frames = camera.capture_video(transmission.trace);
  for (auto& frame : frames) {
    for (int i = 0; i < 500; ++i) {
      const auto index = rng.below(frame.pixels.size());
      frame.pixels[index] = {static_cast<std::uint8_t>(rng.below(256)),
                             static_cast<std::uint8_t>(rng.below(256)),
                             static_cast<std::uint8_t>(rng.below(256))};
    }
  }

  ReceiverConfig rx_config;
  rx_config.format = tx_config.format;
  rx_config.symbol_rate_hz = 2000.0;
  rx_config.rs_n = code.n;
  rx_config.rs_k = code.k;
  Receiver receiver(rx_config);
  const ReceiverReport report = receiver.process(frames);
  for (const PacketRecord& record : report.packets) {
    if (record.kind != protocol::PacketKind::kData || !record.ok) continue;
    bool genuine = false;
    for (const auto& truth : transmission.packet_messages) {
      if (record.payload == truth) genuine = true;
    }
    EXPECT_TRUE(genuine);
  }
}

TEST(Robustness, DroppedFramesOnlyCostTheirPackets) {
  const camera::SensorProfile profile = camera::ideal_profile();
  const rs::CodeParameters code = core::derive_link_code(
      csk::CskOrder::kCsk8, 2000.0, profile.fps, profile.inter_frame_loss_ratio, 0.8);
  tx::TransmitterConfig tx_config;
  tx_config.format.order = csk::CskOrder::kCsk8;
  tx_config.symbol_rate_hz = 2000.0;
  tx_config.rs_n = code.n;
  tx_config.rs_k = code.k;
  const tx::Transmitter transmitter(tx_config);
  const tx::Transmission transmission =
      transmitter.transmit(std::vector<std::uint8_t>(180, 0x3c));

  camera::RollingShutterCamera camera(profile, {}, 11);
  const auto frames = camera.capture_video(transmission.trace);
  // Drop every 4th frame (Android pipelines drop frames under load).
  std::vector<camera::Frame> degraded;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i % 4 != 3) degraded.push_back(frames[i]);
  }

  ReceiverConfig rx_config;
  rx_config.format = tx_config.format;
  rx_config.symbol_rate_hz = 2000.0;
  rx_config.rs_n = code.n;
  rx_config.rs_k = code.k;
  Receiver full_receiver(rx_config);
  Receiver degraded_receiver(rx_config);
  const int full = full_receiver.process(frames).data_packets_ok;
  const int dropped = degraded_receiver.process(degraded).data_packets_ok;
  EXPECT_GT(dropped, 0);
  EXPECT_LE(dropped, full);
}

TEST(Robustness, MismatchedSymbolRateDecodesNothing) {
  // Receiver configured for the wrong symbol rate must not "decode"
  // anything (RS validation backstop).
  const camera::SensorProfile profile = camera::ideal_profile();
  tx::TransmitterConfig tx_config;
  tx_config.format.order = csk::CskOrder::kCsk8;
  tx_config.symbol_rate_hz = 2000.0;
  tx_config.rs_n = 16;
  tx_config.rs_k = 9;
  const tx::Transmitter transmitter(tx_config);
  const tx::Transmission transmission =
      transmitter.transmit(std::vector<std::uint8_t>(45, 0x99));
  camera::RollingShutterCamera camera(profile, {}, 13);
  const auto frames = camera.capture_video(transmission.trace);

  ReceiverConfig rx_config = small_rx_config();
  rx_config.symbol_rate_hz = 3000.0;  // wrong
  Receiver receiver(rx_config);
  const ReceiverReport report = receiver.process(frames);
  EXPECT_EQ(report.data_packets_ok, 0);
}

/// A uniform rows x columns frame of one grey level with a sane row
/// clock: 4 rows per symbol at 2 kHz.
camera::Frame uniform_frame(int rows, int columns, std::uint8_t level) {
  camera::Frame frame;
  frame.resize(rows, columns);
  for (color::Rgb8& pixel : frame.pixels) pixel = {level, level, level};
  frame.row_time_s = 1.0 / (2000.0 * 4.0);
  frame.exposure_s = 1e-4;
  return frame;
}

TEST(Robustness, FrameWhosePixelsDoNotMatchItsShapeIsRejected) {
  // A 64 x 8 frame holding 10 pixels: the row kernels would read 502
  // pixels past the buffer.
  camera::Frame frame = uniform_frame(64, 8, 128);
  frame.pixels.resize(10);
  StreamingReceiver streaming(small_rx_config());
  EXPECT_THROW(streaming.push_frame(frame), std::invalid_argument);
  EXPECT_THROW((void)reduce_to_scanlines(frame), std::invalid_argument);
  EXPECT_THROW((void)reduce_to_scanlines(frame, 2, 6), std::invalid_argument);
  util::CaptureArena arena;
  EXPECT_THROW((void)reduce_to_scanlines(frame, 0, 8, arena), std::invalid_argument);
  EXPECT_THROW((void)extract_slots(frame, 2000.0), std::invalid_argument);
  Receiver receiver(small_rx_config());
  EXPECT_THROW((void)receiver.process(std::span<const camera::Frame>(&frame, 1)),
               std::invalid_argument);
  EXPECT_THROW((void)RoiTracker::detect(frame, {}), std::invalid_argument);
  // A negative shape is malformed too, even with a matching product.
  camera::Frame negative;
  negative.rows = -2;
  negative.columns = -3;
  negative.pixels.resize(6);
  EXPECT_THROW((void)reduce_to_scanlines(negative), std::invalid_argument);
}

TEST(Robustness, HostileFrameTimingYieldsNoSlots) {
  const camera::Frame sane = uniform_frame(64, 8, 128);
  ASSERT_FALSE(extract_slots(sane, 2000.0).empty());

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto expect_no_slots = [&](auto mutate, const char* what, double rate) {
    camera::Frame frame = sane;
    mutate(frame);
    EXPECT_TRUE(extract_slots(frame, rate).empty()) << what;
    StreamingReceiver streaming(small_rx_config());
    streaming.push_frame(frame);
    EXPECT_EQ(streaming.stats().slots_ingested, 0) << what;
  };
  // One scanline lasting 1e6 s at 4 kHz would map each band onto
  // billions of slots.
  expect_no_slots([](camera::Frame& f) { f.row_time_s = 1e6; }, "row time 1e6 s", 4000.0);
  // Just past one symbol per scanline.
  expect_no_slots([](camera::Frame& f) { f.row_time_s = 1.0 / 1999.0; }, "row time > symbol",
                  2000.0);
  for (const double bad : {kNan, kInf, -kInf}) {
    expect_no_slots([bad](camera::Frame& f) { f.start_time_s = bad; }, "start time", 2000.0);
    expect_no_slots([bad](camera::Frame& f) { f.row_time_s = bad; }, "row time", 2000.0);
    expect_no_slots([bad](camera::Frame& f) { f.exposure_s = bad; }, "exposure", 2000.0);
  }
  expect_no_slots([](camera::Frame& f) { f.row_time_s = 0.0; }, "zero row time", 2000.0);
  expect_no_slots([](camera::Frame& f) { f.row_time_s = -1e-4; }, "negative row time",
                  2000.0);
  expect_no_slots([](camera::Frame& f) { f.exposure_s = -1e-4; }, "negative exposure",
                  2000.0);

  // Two well-formed frames 10^5 s apart: the slots between them would be
  // 2 x 10^8 cells at 2 kHz. Whichever frame comes first is kept and the
  // other is dropped, offline and streaming.
  const std::size_t frame_slots = extract_slots(sane, 2000.0).size();
  camera::Frame late = sane;
  late.start_time_s = 1e5;
  for (const bool late_first : {false, true}) {
    const std::vector<camera::Frame> frames =
        late_first ? std::vector<camera::Frame>{late, sane}
                   : std::vector<camera::Frame>{sane, late};
    const SlotTimeline timeline = Receiver(small_rx_config()).collect(frames);
    EXPECT_EQ(timeline.slots.size(), frame_slots) << "late first: " << late_first;
    EXPECT_EQ(timeline.observed_count(), frame_slots) << "late first: " << late_first;
    StreamingReceiver streaming(small_rx_config());
    for (const camera::Frame& frame : frames) streaming.push_frame(frame);
    EXPECT_EQ(streaming.stats().slots_ingested, static_cast<long long>(frame_slots))
        << "late first: " << late_first;
    EXPECT_EQ(streaming.stats().peak_window_slots, static_cast<long long>(frame_slots))
        << "late first: " << late_first;
  }
}

TEST(Robustness, ReceiversBridgeGapsUpToTheLimitOnly) {
  // Observations at 0, kMaxSlotGap (a bridgeable hole) and then one slot
  // past the limit from the last kept slot, which is dropped; extreme
  // slot numbers are dropped without overflow.
  constexpr long long kNear = kMaxSlotGap;
  constexpr long long kFar = 2 * kMaxSlotGap + 1;
  const std::vector<SlotObservation> observations = {
      {0, {}, 50.0, {}},
      {kNear, {}, 50.0, {}},
      {kFar, {}, 50.0, {}},
      {std::numeric_limits<long long>::max(), {}, 50.0, {}},
      {std::numeric_limits<long long>::min(), {}, 50.0, {}},
  };
  const SlotTimeline timeline = assemble_timeline(observations);
  EXPECT_EQ(timeline.base_slot, 0);
  EXPECT_EQ(timeline.slots.size(), static_cast<std::size_t>(kNear + 1));
  EXPECT_EQ(timeline.observed_count(), 2u);

  StreamingReceiver streaming(small_rx_config());
  streaming.push_observations(observations);
  EXPECT_EQ(streaming.stats().slots_ingested, 2);
  EXPECT_EQ(streaming.stats().peak_window_slots, kNear + 1);

  // Below the first kept slot, the offline timeline bridges the same
  // distance backward.
  const std::vector<SlotObservation> backward = {
      {0, {}, 50.0, {}}, {-kNear, {}, 50.0, {}}, {-kFar, {}, 50.0, {}}};
  const SlotTimeline back = assemble_timeline(backward);
  EXPECT_EQ(back.base_slot, -kNear);
  EXPECT_EQ(back.observed_count(), 2u);
}

TEST(Robustness, TinyFramesDecodeWithoutFault) {
  // Every shape of 1-9 rows and 1-9 columns, saturated and mid-grey,
  // through the offline and the streaming receiver.
  for (int rows = 1; rows <= 9; ++rows) {
    for (int columns = 1; columns <= 9; ++columns) {
      for (const std::uint8_t level : {std::uint8_t{255}, std::uint8_t{128}}) {
        const camera::Frame frame = uniform_frame(rows, columns, level);
        Receiver receiver(small_rx_config());
        const ReceiverReport report =
            receiver.process(std::span<const camera::Frame>(&frame, 1));
        EXPECT_EQ(report.data_packets_ok, 0) << rows << "x" << columns;
        StreamingReceiver streaming(small_rx_config());
        streaming.push_frame(frame);
        EXPECT_TRUE(streaming.poll().empty()) << rows << "x" << columns;
        (void)streaming.finish();
      }
    }
  }
}

}  // namespace
}  // namespace colorbars::rx
