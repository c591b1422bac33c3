#pragma once

// The receiver frontend seam: everything between the optical channel
// and the slot-domain back half (CalibrationStore / classifier /
// packetizer / RS) is a SlotObservationSource — a sensor plus its
// matched reduction that yields per-slot color observations in stream
// order. Two frontends implement it today:
//
//  * CameraFrontend — the paper's rolling-shutter path
//    (plan_capture → frame pipeline → reduce_to_scanlines →
//    band_extractor → extract_slots), byte-identical to the
//    pre-seam LinkSimulator wiring: same capture plan walk, same
//    counter-derived per-frame RNG streams, same arena-backed frame
//    reduction, one observation block per surviving frame.
//  * pd::PdFrontend — the photodiode/solar-cell sampler (no frame
//    raster at all; see colorbars/pd/frontend.hpp).
//
// Seed discipline: a frontend is constructed from one capture seed
// (LinkSimulator draws it as the first rng_() of the run;
// AdaptiveLinkSimulator derives one per control interval). The
// sub-streams every frontend derives from it are pinned here so the
// camera path reproduces the pre-seam captures byte for byte and the pd
// path sees the *same* optical-channel randomness (occlusion bursts)
// as a camera pointed at the same luminaire.

#include <cstdint>
#include <memory>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/stages.hpp"
#include "colorbars/pipeline/buffer_pool.hpp"
#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/rx/receiver.hpp"
#include "colorbars/rx/streaming.hpp"

namespace colorbars::frontend {

/// Which sensor decodes the emission (core::LinkConfig::frontend).
enum class FrontendKind {
  kCamera,      ///< rolling-shutter camera (the paper's receiver)
  kPhotodiode,  ///< filtered photodiode array (Solar-CSK style)
};

/// Sub-stream indices of the stochastic stages every frontend derives
/// from its capture seed. kOpticalSeedStream / kFrameStageSeedStream
/// carry the exact values the pre-seam LinkSimulator used, so
/// identity-channel camera runs reproduce the old results byte for
/// byte; both frontends derive the optical channel from the same
/// stream, so camera and pd observe identical occlusion bursts.
inline constexpr std::uint64_t kOpticalSeedStream = 0x0cc10ca1;
inline constexpr std::uint64_t kFrameStageSeedStream = 0x57a9e5;
/// Photodiode sampler noise (unused by the camera path).
inline constexpr std::uint64_t kPdNoiseSeedStream = 0x50d10de;

/// A sensor frontend: yields the capture's slot observations in stream
/// order, one block per sensor delivery unit (a camera frame, a sample
/// block). Observations within and across blocks arrive in the order
/// the matching batch reduction would produce them, so feeding blocks
/// into rx::StreamingReceiver::push_observations decodes byte-identically
/// to the frontend's offline path.
class SlotObservationSource {
 public:
  virtual ~SlotObservationSource() = default;

  /// Fills `out` with the next block's observations (clearing it
  /// first). Returns false at end of stream — `out` is then left empty
  /// and the source has flushed any internally held tail. A true return
  /// with an empty `out` is a delivered block that contained no usable
  /// observations (e.g. a frame fully inside the inter-frame gap);
  /// callers must keep pulling.
  virtual bool next_block(std::vector<rx::SlotObservation>& out) = 0;
};

/// Camera frontend configuration — the capture-side subset of
/// core::LinkConfig, so the frontend library stays independent of core.
struct CameraFrontendConfig {
  camera::SensorProfile profile{};
  channel::ChannelSpec channel{};
  double symbol_rate_hz = 2000.0;
  rx::ExtractorConfig extractor{};
  /// The prefetch ring (lookahead: peak resident frames), the capture's
  /// start offset into the trace (capture_video semantics), and the
  /// stream clock its frames are re-stamped onto (the adaptive run's
  /// control intervals, spliced onto one epoch).
  pipeline::SourceConfig source{};
};

/// The rolling-shutter path behind the seam, and the one capture route
/// from a single-LED emission to its receiver: owns the camera (seeded
/// exactly as the pre-seam make_camera), the channel's frame-domain
/// stage chain, the pooled prefetch ring and the per-stream reduction
/// arena. Each next_block pulls one frame through the stages
/// (internally skipping dropped frames) and reduces it to slot
/// observations with the arena-backed extract_slots — the observation
/// stream StreamingReceiver::push_frame would extract from the same
/// frame.
class CameraFrontend final : public SlotObservationSource {
 public:
  /// `trace` must outlive the frontend. Construction performs the
  /// camera's plan_capture timing walk, exactly as the pre-seam
  /// CameraTraceRenderer construction did.
  CameraFrontend(const CameraFrontendConfig& config, const led::EmissionTrace& trace,
                 std::uint64_t capture_seed);
  /// A temporary trace would dangle after this full-expression.
  CameraFrontend(const CameraFrontendConfig&, led::EmissionTrace&&, std::uint64_t) =
      delete;

  CameraFrontend(const CameraFrontend&) = delete;
  CameraFrontend& operator=(const CameraFrontend&) = delete;

  bool next_block(std::vector<rx::SlotObservation>& out) override;

  /// Frames a channel stage rejected so far.
  [[nodiscard]] long long frames_dropped() const noexcept { return frames_dropped_; }
  /// Frames delivered to next_block so far.
  [[nodiscard]] long long frames_delivered() const noexcept { return frames_delivered_; }
  [[nodiscard]] const camera::RollingShutterCamera& camera() const noexcept {
    return camera_;
  }

 private:
  double symbol_rate_hz_;
  rx::ExtractorConfig extractor_;
  camera::RollingShutterCamera camera_;
  channel::StageChain stages_;
  pipeline::BufferPool pool_;
  pipeline::CameraTraceRenderer renderer_;
  pipeline::FrameSource source_;
  util::CaptureArena arena_;
  long long frames_dropped_ = 0;
  long long frames_delivered_ = 0;
};

/// Drives a frontend to completion into a streaming receiver: every
/// block is pushed (ingest + incremental drain). The stream is left
/// open, so the caller decides where it ends: LinkSimulator calls
/// on_stream_end() after one capture, the adaptive run flushes only at
/// epoch ends. For a camera frontend this decodes byte-identically to
/// push_frame + poll on the same frames.
void run_frontend(SlotObservationSource& source, rx::StreamingReceiver& receiver);

/// Collects every observation the frontend yields and assembles the
/// full slot timeline — the seam-side replacement for the experiment
/// paths (SER, raw throughput) that index the timeline directly instead
/// of decoding packets.
[[nodiscard]] rx::SlotTimeline collect_timeline(SlotObservationSource& source);

}  // namespace colorbars::frontend
