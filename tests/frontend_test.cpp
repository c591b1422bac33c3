// The receiver frontend seam: a SlotObservationSource must feed the
// streaming back half exactly the observation stream its offline path
// produces, and the two shipped frontends (rolling-shutter camera,
// photodiode array) must agree byte-for-byte on every payload they both
// recover from the same emission.

#include "colorbars/frontend/frontend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "colorbars/core/link.hpp"
#include "colorbars/pd/frontend.hpp"
#include "colorbars/runtime/seed.hpp"
#include "colorbars/rx/streaming.hpp"
#include "colorbars/tx/transmitter.hpp"

namespace colorbars {
namespace {

core::LinkConfig small_link() {
  core::LinkConfig config;
  config.order = csk::CskOrder::kCsk8;
  config.symbol_rate_hz = 2000.0;
  config.profile = camera::ideal_profile();
  config.seed = 0xf20f7;
  return config;
}

/// Exact-compare flattening (slots_scanned excluded by design: the
/// incremental parse re-scans deferred head positions).
std::vector<long long> flatten_report(const rx::ReceiverReport& report) {
  std::vector<long long> flat;
  flat.push_back(static_cast<long long>(report.packets.size()));
  for (const rx::PacketRecord& packet : report.packets) {
    flat.push_back(static_cast<long long>(packet.kind));
    flat.push_back(packet.ok ? 1 : 0);
    flat.push_back(static_cast<long long>(packet.failure));
    flat.push_back(packet.start_slot);
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
  return flat;
}

TEST(Frontend, CameraFrontendDecodesByteIdenticallyToDirectCapture) {
  // The seam's byte-identity pin: CameraFrontend blocks pushed through
  // push_observations must decode exactly as capture_video frames
  // through the batch receiver, given the same capture seed.
  const core::LinkConfig link = small_link();
  const tx::Transmitter transmitter(link.transmitter_config());
  std::vector<std::uint8_t> payload(400);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const tx::Transmission transmission = transmitter.transmit(payload);
  const std::uint64_t capture_seed = 0xcafe5eed;
  const double start_offset = 0.002;

  // Reference: the offline capture + batch decode, seeded exactly as
  // the frontend seeds itself (kOpticalSeedStream for the channel,
  // the capture seed itself for sensor noise).
  camera::RollingShutterCamera camera(
      link.profile,
      channel::OpticalChannel(link.channel, runtime::derive_stream_seed(
                                                capture_seed,
                                                frontend::kOpticalSeedStream)),
      capture_seed);
  const std::vector<camera::Frame> frames =
      camera.capture_video(transmission.trace, start_offset);
  rx::Receiver batch(link.receiver_config());
  const std::vector<long long> reference = flatten_report(batch.process(frames));

  // Seam path: CameraFrontend -> push_observations -> streaming drain.
  frontend::CameraFrontendConfig config;
  config.profile = link.profile;
  config.channel = link.channel;
  config.symbol_rate_hz = link.symbol_rate_hz;
  config.extractor = link.receiver_config().extractor;
  config.source.start_offset_s = start_offset;
  frontend::CameraFrontend source(config, transmission.trace, capture_seed);
  rx::StreamingReceiver receiver(link.receiver_config());
  frontend::run_frontend(source, receiver);
  receiver.on_stream_end();

  EXPECT_EQ(flatten_report(receiver.report()), reference);
  // One block per delivered frame.
  EXPECT_EQ(receiver.frames_ingested(), source.frames_delivered());
  EXPECT_EQ(source.frames_delivered(), static_cast<long long>(frames.size()));
  EXPECT_GT(receiver.stats().slots_ingested, 0);
  EXPECT_EQ(source.frames_dropped(), 0);  // identity channel drops nothing
}

TEST(Frontend, CollectTimelineMatchesStreamedObservationCount) {
  const core::LinkConfig link = small_link();
  const tx::Transmitter transmitter(link.transmitter_config());
  const std::vector<std::uint8_t> payload(120, 0x5a);
  const tx::Transmission transmission = transmitter.transmit(payload);

  frontend::CameraFrontendConfig config;
  config.profile = link.profile;
  config.symbol_rate_hz = link.symbol_rate_hz;
  config.extractor = link.receiver_config().extractor;

  frontend::CameraFrontend streamed(config, transmission.trace, 0xabc);
  rx::StreamingReceiver receiver(link.receiver_config());
  frontend::run_frontend(streamed, receiver);
  receiver.on_stream_end();

  frontend::CameraFrontend for_timeline(config, transmission.trace, 0xabc);
  const rx::SlotTimeline timeline = frontend::collect_timeline(for_timeline);
  const auto observed = static_cast<long long>(timeline.observed_count());
  // Distinct observed slots can be fewer than raw observations (two
  // bands of adjacent frames may land in one slot), never more.
  EXPECT_GT(observed, 0);
  EXPECT_LE(observed, receiver.stats().slots_ingested);
  EXPECT_EQ(receiver.report().slots_observed, observed);
}

TEST(Frontend, CameraAndPdRecoverIdenticalPayloadBytesFromOneEmission) {
  // The cross-frontend validation the seam exists for: one transmission,
  // decoded by both sensors under one LinkConfig. The photodiode sees
  // every slot (no inter-frame gap) and must recover the whole payload;
  // every data packet the camera recovers must exist in the pd decode at
  // the same start slot with identical bytes.
  std::vector<std::uint8_t> payload(500);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  core::LinkConfig config = small_link();
  core::LinkSimulator camera_link(config);
  const core::LinkRunResult camera_run = camera_link.run_payload(payload);

  core::LinkConfig pd_config = config;
  pd_config.frontend = frontend::FrontendKind::kPhotodiode;
  core::LinkSimulator pd_link(pd_config);
  const core::LinkRunResult pd_run = pd_link.run_payload(payload);

  // The pd frontend misses nothing, so the full payload comes back
  // (the tail packet may carry padding past the payload length).
  ASSERT_GE(pd_run.report.payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), pd_run.report.payload.begin()));
  EXPECT_GE(pd_run.recovered_bytes, payload.size());

  // The camera loses packets whose headers fall in the inter-frame gap,
  // but everything it does recover must match the pd decode byte for
  // byte.
  int camera_data_packets = 0;
  for (const rx::PacketRecord& camera_packet : camera_run.report.packets) {
    if (!camera_packet.ok || camera_packet.kind != protocol::PacketKind::kData) continue;
    ++camera_data_packets;
    bool found = false;
    for (const rx::PacketRecord& pd_packet : pd_run.report.packets) {
      if (pd_packet.start_slot != camera_packet.start_slot) continue;
      found = true;
      EXPECT_TRUE(pd_packet.ok);
      EXPECT_EQ(pd_packet.payload, camera_packet.payload)
          << "frontends disagree at slot " << camera_packet.start_slot;
      break;
    }
    EXPECT_TRUE(found) << "camera packet at slot " << camera_packet.start_slot
                       << " missing from the pd decode";
  }
  EXPECT_GT(camera_data_packets, 0);
}

TEST(Frontend, PhotodiodeObservesEverySlotTheCameraGapDrops) {
  // Same SER measurement on both frontends: the camera's inter-frame
  // gap loses ~25% of slots on the ideal profile; the photodiode has no
  // gap, so it observes all of them with no errors at close range.
  core::LinkConfig config = small_link();
  core::LinkSimulator camera_link(config);
  const core::SerResult camera_ser = camera_link.run_ser(1500);

  config.frontend = frontend::FrontendKind::kPhotodiode;
  core::LinkSimulator pd_link(config);
  const core::SerResult pd_ser = pd_link.run_ser(1500);

  EXPECT_EQ(pd_ser.symbols_observed, pd_ser.symbols_sent);
  EXPECT_DOUBLE_EQ(pd_ser.inter_frame_loss_ratio, 0.0);
  EXPECT_EQ(pd_ser.symbol_errors, 0);
  EXPECT_LT(camera_ser.symbols_observed, camera_ser.symbols_sent);
  EXPECT_GT(camera_ser.inter_frame_loss_ratio, 0.1);
}

TEST(Frontend, SeedStreamsArePinned) {
  // The sub-stream constants are part of the byte-identity contract
  // with the frozen golden hashes — changing them silently would
  // invalidate every pre-seam capture. Keep them pinned.
  EXPECT_EQ(frontend::kOpticalSeedStream, 0x0cc10ca1u);
  EXPECT_EQ(frontend::kFrameStageSeedStream, 0x57a9e5u);
  EXPECT_EQ(frontend::kPdNoiseSeedStream, 0x50d10deu);
}

}  // namespace
}  // namespace colorbars
