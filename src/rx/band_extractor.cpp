#include "colorbars/rx/band_extractor.hpp"

#include <algorithm>
#include <cmath>

#include "colorbars/color/lut.hpp"
#include "colorbars/color/srgb.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/simd/simd.hpp"

namespace colorbars::rx {

std::vector<ScanlineColor> reduce_to_scanlines(const camera::Frame& frame) {
  return reduce_to_scanlines(frame, 0, frame.columns);
}

namespace {

/// Shared reduction core: fills scanlines[r] for every frame row. The
/// caller guarantees 0 <= begin < end <= frame.columns and
/// scanlines.size() == frame.rows.
void reduce_rows_into(const camera::Frame& frame, int begin, int end,
                      std::span<ScanlineColor> scanlines) {
  const double inv = 1.0 / (end - begin);
  // Per-pixel Rgb8 -> Lab goes through the dispatched SIMD kernel over
  // the table-driven fast path (exact 256-entry decode, interpolated
  // CIE f) — the std::pow/cbrt chain was the hottest receiver cost.
  // Rows are independent, so they fan out over the runtime pool; output
  // is per-row, hence deterministic at any thread count.
  runtime::parallel_for(0, frame.rows, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      simd::RowSums sums;
      simd::row_lab_rgb_sums(&frame.at(static_cast<int>(r), begin), end - begin, sums);
      scanlines[static_cast<std::size_t>(r)] = {{sums.a * inv, sums.b * inv},
                                                sums.l * inv,
                                                util::Vec3{sums.r, sums.g, sums.bb} * inv};
    }
  });
}

}  // namespace

std::vector<ScanlineColor> reduce_to_scanlines(const camera::Frame& frame,
                                               int column_begin, int column_end) {
  camera::check_frame_shape(frame);
  const int begin = std::max(column_begin, 0);
  const int end = std::min(column_end, frame.columns);
  std::vector<ScanlineColor> scanlines;
  // Nothing to average: a zero-column frame or an ROI that clamps to an
  // empty range. Dividing by the width would seed NaN into every
  // downstream band decision, so return no scanlines instead.
  if (begin >= end || frame.rows <= 0) return scanlines;
  scanlines.resize(static_cast<std::size_t>(frame.rows));
  reduce_rows_into(frame, begin, end, scanlines);
  return scanlines;
}

std::span<const ScanlineColor> reduce_to_scanlines(const camera::Frame& frame,
                                                   int column_begin, int column_end,
                                                   util::CaptureArena& arena) {
  camera::check_frame_shape(frame);
  arena.reset();
  const int begin = std::max(column_begin, 0);
  const int end = std::min(column_end, frame.columns);
  if (begin >= end || frame.rows <= 0) return {};
  const std::span<ScanlineColor> scanlines =
      arena.allocate<ScanlineColor>(static_cast<std::size_t>(frame.rows));
  reduce_rows_into(frame, begin, end, scanlines);
  return scanlines;
}

std::vector<Band> segment_bands(const camera::Frame& frame,
                                std::span<const ScanlineColor> scanlines,
                                const ExtractorConfig& config) {
  std::vector<Band> bands;
  if (scanlines.empty()) return bands;

  // Effective sample time of row r: its readout instant minus half the
  // exposure window (the centroid of the light it integrated).
  auto row_time = [&](int r) {
    return frame.start_time_s + (r + 1) * frame.row_time_s - 0.5 * frame.exposure_s;
  };

  Band current;
  current.start_row = 0;
  current.row_count = 1;
  current.chroma = scanlines[0].chroma;
  current.lightness = scanlines[0].lightness;
  current.rgb = scanlines[0].rgb;

  auto flush = [&]() {
    if (current.row_count < config.min_band_rows) return;
    // Re-measure the band's color from its interior rows only: the rows
    // near a band boundary integrate light from both neighboring symbols
    // (exposure blur plus demosaic bleed), and including them skews the
    // band mean — which would contaminate both calibration references
    // and data matching.
    if (current.row_count >= 8) {
      const int trim = current.row_count / 4;
      const int first = current.start_row + trim;
      const int last = current.start_row + current.row_count - trim;
      double sum_a = 0.0;
      double sum_b = 0.0;
      double sum_l = 0.0;
      util::Vec3 sum_rgb;
      for (int r = first; r < last; ++r) {
        const ScanlineColor& line = scanlines[static_cast<std::size_t>(r)];
        sum_a += line.chroma.a;
        sum_b += line.chroma.b;
        sum_l += line.lightness;
        sum_rgb += line.rgb;
      }
      const double inv = 1.0 / (last - first);
      current.chroma = {sum_a * inv, sum_b * inv};
      current.lightness = sum_l * inv;
      current.rgb = sum_rgb * inv;
    }
    current.start_time_s = row_time(current.start_row);
    current.end_time_s = row_time(current.start_row + current.row_count);
    bands.push_back(current);
  };

  for (std::size_t r = 1; r < scanlines.size(); ++r) {
    const ScanlineColor& line = scanlines[r];
    const double chroma_jump = color::delta_e_ab(line.chroma, current.chroma);
    const double lightness_jump = std::abs(line.lightness - current.lightness);
    if (chroma_jump > config.split_delta_e || lightness_jump > config.split_delta_l) {
      flush();
      current.start_row = static_cast<int>(r);
      current.row_count = 1;
      current.chroma = line.chroma;
      current.lightness = line.lightness;
      current.rgb = line.rgb;
    } else {
      // Incremental running mean keeps the band's color robust against
      // per-row noise without a second pass.
      const double weight = 1.0 / (current.row_count + 1);
      current.chroma.a += (line.chroma.a - current.chroma.a) * weight;
      current.chroma.b += (line.chroma.b - current.chroma.b) * weight;
      current.lightness += (line.lightness - current.lightness) * weight;
      current.rgb += (line.rgb - current.rgb) * weight;
      ++current.row_count;
    }
  }
  flush();
  return bands;
}

std::vector<SlotObservation> bands_to_slots(const std::vector<Band>& bands,
                                            double symbol_rate_hz) {
  std::vector<SlotObservation> slots;
  // A zero/negative (or NaN) rate would map every band onto infinite
  // slot indices via llround below — reject quietly, like
  // estimate_symbol_rate does for its degenerate scan ranges.
  if (!(symbol_rate_hz > 0.0)) return slots;
  const double duration = 1.0 / symbol_rate_hz;
  for (const Band& band : bands) {
    // A slot belongs to the band if the band covers the slot's midpoint:
    // first covered slot is round(start/d), one-past-last is round(end/d).
    const auto first = static_cast<long long>(std::llround(band.start_time_s / duration));
    const auto last = static_cast<long long>(std::llround(band.end_time_s / duration));
    for (long long slot = first; slot < last; ++slot) {
      slots.push_back({slot, band.chroma, band.lightness, band.rgb});
    }
  }
  return slots;
}

namespace {

/// True when the frame's row clock can be mapped onto slots of
/// `symbol_rate_hz`: finite times, a non-negative exposure, a positive
/// row time, and no scanline longer than a symbol. Past that last bound
/// each band would claim more slots than the frame has rows, up to
/// billions for a hostile row time.
bool slot_timing_valid(const camera::Frame& frame, double symbol_rate_hz) {
  return std::isfinite(frame.start_time_s) && std::isfinite(frame.exposure_s) &&
         frame.exposure_s >= 0.0 && std::isfinite(frame.row_time_s) &&
         frame.row_time_s > 0.0 && symbol_rate_hz > 0.0 &&
         frame.row_time_s * symbol_rate_hz <= 1.0;
}

}  // namespace

std::vector<SlotObservation> extract_slots(const camera::Frame& frame,
                                           double symbol_rate_hz,
                                           const ExtractorConfig& config) {
  return extract_slots(frame, symbol_rate_hz, 0, frame.columns, config);
}

std::vector<SlotObservation> extract_slots(const camera::Frame& frame,
                                           double symbol_rate_hz, int column_begin,
                                           int column_end, const ExtractorConfig& config) {
  const std::vector<ScanlineColor> scanlines =
      reduce_to_scanlines(frame, column_begin, column_end);
  if (!slot_timing_valid(frame, symbol_rate_hz)) return {};
  const std::vector<Band> bands = segment_bands(frame, scanlines, config);
  return bands_to_slots(bands, symbol_rate_hz);
}

std::vector<SlotObservation> extract_slots(const camera::Frame& frame,
                                           double symbol_rate_hz, int column_begin,
                                           int column_end, util::CaptureArena& arena,
                                           const ExtractorConfig& config) {
  const std::span<const ScanlineColor> scanlines =
      reduce_to_scanlines(frame, column_begin, column_end, arena);
  if (!slot_timing_valid(frame, symbol_rate_hz)) return {};
  const std::vector<Band> bands = segment_bands(frame, scanlines, config);
  return bands_to_slots(bands, symbol_rate_hz);
}

}  // namespace colorbars::rx
