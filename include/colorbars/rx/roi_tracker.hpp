#pragma once

// Receiver-side luminaire localization for multi-LED scenes. A
// ColorBars luminaire images as a column strip whose rows flicker
// through the constellation colors, so detection is chroma-variance
// blob finding on a downsampled grid: cells whose row-wise chroma
// varies (data bands cycling underneath) AND whose mean lightness says
// "lit" are active; vertical stripes of active cells merge into
// rectangular ROIs. Track IDs persist across frames by column overlap,
// so each luminaire keeps feeding the same per-ROI decoder even as
// auto-exposure or motion nudges its rectangle.

#include <vector>

#include "colorbars/camera/image.hpp"

namespace colorbars::rx {

/// Detection/association tuning.
struct RoiTrackerConfig {
  /// Grid cell height in pixel rows. Tall enough to span several symbol
  /// bands, so a cell sees the chroma cycling that marks a data strip.
  int cell_rows = 24;
  /// Grid cell width in pixel columns.
  int cell_columns = 4;
  /// Minimum cell mean lightness (CIELAB L) to count as lit.
  double min_lightness = 18.0;
  /// Minimum row-wise chroma standard deviation (sqrt of var(a)+var(b))
  /// within a cell — the "data bands flicker here" signal. A bright but
  /// chroma-static background patch stays below it.
  double min_chroma_sigma = 4.0;
  /// Fraction of a grid column's cells that must be active for the
  /// column to join a blob.
  double min_active_fraction = 0.35;
  /// Detected regions narrower than this many pixel columns are
  /// discarded as noise.
  int min_region_columns = 2;
  /// A track unseen for more than this many consecutive frames retires.
  int retire_after_frames = 5;
};

/// One persistent luminaire track.
struct TrackedRoi {
  int id = 0;
  camera::SensorRegion region;  ///< latest detected rectangle
  int frames_seen = 0;          ///< frames with a matching detection
  int frames_since_seen = 0;    ///< 0 when the latest frame matched
};

/// Detects luminaire ROIs per frame and carries track identity across
/// frames. Deterministic: detection scans the grid left to right, new
/// IDs are assigned in that order, and the track list stays sorted by
/// ID.
class RoiTracker {
 public:
  /// Throws std::invalid_argument on non-positive cell sizes, a
  /// non-positive retire horizon or an active fraction outside (0, 1].
  explicit RoiTracker(RoiTrackerConfig config = {});

  /// Pure detection pass over one frame (exposed for tests): the
  /// rectangles of every chroma-variance blob, left to right. An empty
  /// frame yields no detections. Throws std::invalid_argument on a
  /// config the constructor would refuse, or on a frame whose pixel
  /// buffer does not match its shape (camera::check_frame_shape).
  [[nodiscard]] static std::vector<camera::SensorRegion> detect(
      const camera::Frame& frame, const RoiTrackerConfig& config);

  /// Detects, associates with existing tracks by column overlap,
  /// retires stale tracks, and returns the live track list.
  const std::vector<TrackedRoi>& update(const camera::Frame& frame);

  [[nodiscard]] const std::vector<TrackedRoi>& tracks() const noexcept { return tracks_; }
  [[nodiscard]] const RoiTrackerConfig& config() const noexcept { return config_; }
  /// Total tracks ever opened (IDs are never reused).
  [[nodiscard]] int tracks_opened() const noexcept { return next_id_; }

 private:
  RoiTrackerConfig config_;
  std::vector<TrackedRoi> tracks_;
  int next_id_ = 0;
};

}  // namespace colorbars::rx
