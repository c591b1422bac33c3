#pragma once

// The scene-level receiver: an rx::RoiTracker localizes luminaires in
// each streamed frame, and every live track's column slice feeds its
// own rx::StreamingReceiver — one independent decode lane per
// luminaire, fanned out per frame over the runtime thread pool. Lane
// creation and aggregation are in track-ID order, so results are
// byte-identical at every thread count.

#include <memory>
#include <vector>

#include "colorbars/rx/roi_tracker.hpp"
#include "colorbars/rx/streaming.hpp"

namespace colorbars::scene {

/// SceneReceiver tuning.
struct SceneReceiverConfig {
  /// Decode configuration shared by every lane (the scene's luminaires
  /// transmit with the same modulation/coding).
  rx::ReceiverConfig receiver{};
  rx::RoiTrackerConfig tracker{};
  /// Columns shaved off each side of a tracked ROI before decoding —
  /// edge columns mix the luminaire with the dark surround through
  /// demosaic bleed. Ignored when the ROI is too narrow to afford it.
  int column_margin = 1;
};

/// One tracked luminaire's decode lane. The receiver accumulates its
/// per-ROI PacketRecord stream (rx::ReceiverReport).
struct RoiDecodeLane {
  int roi_id = -1;
  camera::SensorRegion region;  ///< latest tracked rectangle
  int frames_fed = 0;
  std::unique_ptr<rx::StreamingReceiver> receiver;
};

class SceneReceiver {
 public:
  explicit SceneReceiver(SceneReceiverConfig config);

  /// Tracks the frame, opens lanes for newly seen luminaires, and feeds
  /// every live lane its column slice (in parallel — lanes are
  /// independent).
  void consume(const camera::Frame& frame);
  /// Flushes every lane with end-of-stream semantics.
  void on_stream_end();

  /// All lanes ever opened, in track-ID order (lanes whose track
  /// retired keep their decoded packets).
  [[nodiscard]] const std::vector<RoiDecodeLane>& lanes() const noexcept { return lanes_; }
  [[nodiscard]] const rx::RoiTracker& tracker() const noexcept { return tracker_; }
  [[nodiscard]] const SceneReceiverConfig& config() const noexcept { return config_; }
  [[nodiscard]] int frames_consumed() const noexcept { return frames_consumed_; }

 private:
  SceneReceiverConfig config_;
  rx::RoiTracker tracker_;
  std::vector<RoiDecodeLane> lanes_;
  int frames_consumed_ = 0;
};

}  // namespace colorbars::scene
