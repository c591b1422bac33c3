#include "colorbars/rx/roi_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/simd/simd.hpp"

namespace colorbars::rx {

namespace {

void validate(const RoiTrackerConfig& config) {
  if (config.cell_rows <= 0 || config.cell_columns <= 0 ||
      config.retire_after_frames <= 0 || !(config.min_active_fraction > 0.0) ||
      !(config.min_active_fraction <= 1.0)) {
    throw std::invalid_argument("RoiTracker: invalid config");
  }
}

/// Row-level Lab means per grid column: the downsampled plane detection
/// works on. Laid out row-major, rows x grid_columns.
struct RowMeans {
  std::vector<double> l;
  std::vector<double> a;
  std::vector<double> b;
};

RowMeans reduce_rows(const camera::Frame& frame, int cell_columns, int grid_columns) {
  RowMeans means;
  const std::size_t size =
      static_cast<std::size_t>(frame.rows) * static_cast<std::size_t>(grid_columns);
  means.l.resize(size);
  means.a.resize(size);
  means.b.resize(size);
  // Rows are independent; fan out like reduce_to_scanlines. Output is
  // per (row, grid column), hence deterministic at any thread count.
  // Each cell's sums come from the scanline reduction's kernel: the
  // fast Lab chain, added in pixel order from 0.0.
  runtime::parallel_for(0, frame.rows, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      for (int g = 0; g < grid_columns; ++g) {
        const int begin = g * cell_columns;
        const int end = std::min(begin + cell_columns, frame.columns);
        simd::RowSums sums;
        simd::row_lab_rgb_sums(&frame.at(static_cast<int>(r), begin), end - begin, sums);
        const double inv = 1.0 / (end - begin);
        const std::size_t index =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(grid_columns) +
            static_cast<std::size_t>(g);
        means.l[index] = sums.l * inv;
        means.a[index] = sums.a * inv;
        means.b[index] = sums.b * inv;
      }
    }
  });
  return means;
}

}  // namespace

RoiTracker::RoiTracker(RoiTrackerConfig config) : config_(config) { validate(config_); }

std::vector<camera::SensorRegion> RoiTracker::detect(const camera::Frame& frame,
                                                     const RoiTrackerConfig& config) {
  validate(config);
  camera::check_frame_shape(frame);
  std::vector<camera::SensorRegion> regions;
  if (frame.rows <= 0 || frame.columns <= 0) return regions;

  // Rounded up without forming n + cell - 1, which overflows int for a
  // cell size near INT_MAX.
  const int grid_columns = 1 + (frame.columns - 1) / config.cell_columns;
  const int grid_rows = 1 + (frame.rows - 1) / config.cell_rows;
  const RowMeans means = reduce_rows(frame, config.cell_columns, grid_columns);

  // Cell activity: lit AND chroma-flickering. The lightness gate drops
  // dark surround noise; the chroma-sigma gate drops bright static
  // patches (only data bands cycle the cell's chroma row to row).
  std::vector<char> active(static_cast<std::size_t>(grid_rows) *
                           static_cast<std::size_t>(grid_columns));
  for (int gr = 0; gr < grid_rows; ++gr) {
    const int row_begin = gr * config.cell_rows;
    const int row_end = std::min(row_begin + config.cell_rows, frame.rows);
    const int count = row_end - row_begin;
    for (int g = 0; g < grid_columns; ++g) {
      double sum_l = 0.0;
      double sum_a = 0.0;
      double sum_b = 0.0;
      double sum_a2 = 0.0;
      double sum_b2 = 0.0;
      for (int r = row_begin; r < row_end; ++r) {
        const std::size_t index =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(grid_columns) +
            static_cast<std::size_t>(g);
        sum_l += means.l[index];
        sum_a += means.a[index];
        sum_b += means.b[index];
        sum_a2 += means.a[index] * means.a[index];
        sum_b2 += means.b[index] * means.b[index];
      }
      const double inv = 1.0 / count;
      const double mean_l = sum_l * inv;
      const double var_a = std::max(sum_a2 * inv - (sum_a * inv) * (sum_a * inv), 0.0);
      const double var_b = std::max(sum_b2 * inv - (sum_b * inv) * (sum_b * inv), 0.0);
      const double chroma_sigma = std::sqrt(var_a + var_b);
      active[static_cast<std::size_t>(gr) * static_cast<std::size_t>(grid_columns) +
             static_cast<std::size_t>(g)] =
          mean_l >= config.min_lightness && chroma_sigma >= config.min_chroma_sigma;
    }
  }

  // Column profile: a grid column joins a blob when enough of its cells
  // are active (a rolling-shutter luminaire strip lights most of its
  // column; OFF bands punch holes, hence a fraction, not all).
  std::vector<char> column_active(static_cast<std::size_t>(grid_columns));
  for (int g = 0; g < grid_columns; ++g) {
    int count = 0;
    for (int gr = 0; gr < grid_rows; ++gr) {
      count += active[static_cast<std::size_t>(gr) * static_cast<std::size_t>(grid_columns) +
                      static_cast<std::size_t>(g)];
    }
    column_active[static_cast<std::size_t>(g)] =
        static_cast<double>(count) >= config.min_active_fraction * grid_rows;
  }

  // Merge runs of active grid columns into rectangles; the row extent
  // is the span of the run's active cells, expanded to cell bounds.
  for (int g = 0; g < grid_columns;) {
    if (!column_active[static_cast<std::size_t>(g)]) {
      ++g;
      continue;
    }
    int run_end = g;
    while (run_end < grid_columns && column_active[static_cast<std::size_t>(run_end)]) {
      ++run_end;
    }
    int first_row = grid_rows;
    int last_row = -1;
    for (int gr = 0; gr < grid_rows; ++gr) {
      for (int gc = g; gc < run_end; ++gc) {
        if (active[static_cast<std::size_t>(gr) * static_cast<std::size_t>(grid_columns) +
                   static_cast<std::size_t>(gc)]) {
          first_row = std::min(first_row, gr);
          last_row = std::max(last_row, gr);
        }
      }
    }
    camera::SensorRegion region;
    region.left = g * config.cell_columns;
    region.width = std::min(run_end * config.cell_columns, frame.columns) - region.left;
    region.top = first_row * config.cell_rows;
    region.height = std::min((last_row + 1) * config.cell_rows, frame.rows) - region.top;
    if (region.width >= config.min_region_columns && !region.empty()) {
      regions.push_back(region);
    }
    g = run_end;
  }
  return regions;
}

const std::vector<TrackedRoi>& RoiTracker::update(const camera::Frame& frame) {
  const std::vector<camera::SensorRegion> detections = detect(frame, config_);

  // Greedy association, detections left to right: each detection claims
  // the unclaimed track with the largest column overlap. Deterministic
  // — no scores are tied unless the geometry is identical, and then the
  // lower track ID wins.
  std::vector<char> track_claimed(tracks_.size());
  std::vector<int> detection_track(detections.size(), -1);
  for (std::size_t d = 0; d < detections.size(); ++d) {
    int best = -1;
    int best_overlap = 0;
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
      if (track_claimed[t]) continue;
      const int overlap = detections[d].column_overlap(tracks_[t].region);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = static_cast<int>(t);
      }
    }
    if (best >= 0) {
      track_claimed[static_cast<std::size_t>(best)] = 1;
      detection_track[d] = best;
    }
  }

  for (TrackedRoi& track : tracks_) ++track.frames_since_seen;
  for (std::size_t d = 0; d < detections.size(); ++d) {
    if (detection_track[d] >= 0) {
      TrackedRoi& track = tracks_[static_cast<std::size_t>(detection_track[d])];
      track.region = detections[d];
      track.frames_since_seen = 0;
      ++track.frames_seen;
    } else {
      TrackedRoi track;
      track.id = next_id_++;
      track.region = detections[d];
      track.frames_seen = 1;
      tracks_.push_back(track);
    }
  }

  std::erase_if(tracks_, [&](const TrackedRoi& track) {
    return track.frames_since_seen > config_.retire_after_frames;
  });
  // New tracks appended in detection order keep the list ID-sorted
  // already; retirement preserves order, so no re-sort is needed.
  return tracks_;
}

}  // namespace colorbars::rx
