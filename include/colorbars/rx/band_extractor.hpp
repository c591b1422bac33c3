#pragma once

// Receiver front end (paper §7, Steps 1-2): converts a captured frame to
// CIELab, collapses it to one mean color per scanline (removing the
// lightness dimension to suppress the non-uniform brightness of Fig. 8a),
// segments the scanlines into color bands, and maps each band onto the
// global symbol-slot timeline using the camera's own row timing.

#include <span>
#include <vector>

#include "colorbars/camera/image.hpp"
#include "colorbars/color/lab.hpp"
#include "colorbars/util/arena.hpp"

namespace colorbars::rx {

/// Mean color of one scanline after column averaging.
struct ScanlineColor {
  color::ChromaAB chroma;  ///< mean (a, b)
  double lightness = 0.0;  ///< mean L (kept separately for OFF detection)
  util::Vec3 rgb;          ///< mean gamma-encoded sRGB (for RGB-space matching)
};

/// A maximal run of scanlines with consistent color.
struct Band {
  int start_row = 0;
  int row_count = 0;
  color::ChromaAB chroma;  ///< mean chroma over the band
  double lightness = 0.0;  ///< mean lightness over the band
  util::Vec3 rgb;          ///< mean gamma-encoded sRGB over the band
  /// Effective sample time of the band's first/last row (seconds on the
  /// stream timeline, exposure-midpoint corrected).
  double start_time_s = 0.0;
  double end_time_s = 0.0;
};

/// What the receiver measured in one symbol slot of the global timeline.
struct SlotObservation {
  long long slot = 0;  ///< global slot index (time / symbol duration)
  color::ChromaAB chroma;
  double lightness = 0.0;
  util::Vec3 rgb;
};

/// Band-segmentation tuning.
struct ExtractorConfig {
  /// Chroma ΔE at which a scanline is considered to start a new band.
  double split_delta_e = 6.0;
  /// Lightness jump that also splits a band (OFF <-> lit transitions).
  double split_delta_l = 18.0;
  /// Bands narrower than this many rows are discarded as transition
  /// artifacts (the paper's empirical 10-pixel minimum, §4).
  int min_band_rows = 5;
};

/// Column-averages every scanline into Lab components. Every overload
/// throws std::invalid_argument on a frame whose pixel buffer does not
/// hold rows x columns pixels (camera::check_frame_shape).
[[nodiscard]] std::vector<ScanlineColor> reduce_to_scanlines(const camera::Frame& frame);

/// ROI-scoped variant: averages only columns
/// [column_begin, column_end) ∩ [0, frame.columns) of each scanline —
/// the decode slice of one tracked luminaire. Returns no scanlines when
/// the clamped range (or the frame itself) is empty.
[[nodiscard]] std::vector<ScanlineColor> reduce_to_scanlines(const camera::Frame& frame,
                                                             int column_begin,
                                                             int column_end);

/// Arena-backed variant: resets `arena` (per-frame lifetime) and writes
/// the scanlines into 64-byte-aligned storage carved from it. The
/// returned span is valid until the arena's next reset — i.e. until the
/// next frame through the same owner.
[[nodiscard]] std::span<const ScanlineColor> reduce_to_scanlines(
    const camera::Frame& frame, int column_begin, int column_end,
    util::CaptureArena& arena);

/// Segments scanline colors into bands and attaches stream-time extents.
/// Takes a span so callers can pass pooled/arena-backed scanline storage
/// without materializing a std::vector.
[[nodiscard]] std::vector<Band> segment_bands(const camera::Frame& frame,
                                              std::span<const ScanlineColor> scanlines,
                                              const ExtractorConfig& config = {});

/// Projects bands onto the symbol-slot timeline: each band contributes
/// one observation per slot whose majority is covered by the band.
/// Slots not covered by any band in any frame remain unobserved — they
/// are exactly the inter-frame-gap losses.
[[nodiscard]] std::vector<SlotObservation> bands_to_slots(const std::vector<Band>& bands,
                                                          double symbol_rate_hz);

/// Convenience: full front-end for one frame. Every overload reduces
/// first (so a malformed frame throws as above), then returns no slots
/// when the frame's timing cannot be slot-mapped: a non-finite start or
/// exposure time, a negative exposure, a row time that is not finite
/// and positive, a non-positive symbol rate, or a scanline longer than
/// one symbol (row_time_s * symbol_rate_hz > 1).
[[nodiscard]] std::vector<SlotObservation> extract_slots(const camera::Frame& frame,
                                                         double symbol_rate_hz,
                                                         const ExtractorConfig& config = {});

/// ROI-scoped front-end: reduce only [column_begin, column_end), then
/// segment and slot-map as usual (band timing comes from the frame's
/// row clock, which is column-independent).
[[nodiscard]] std::vector<SlotObservation> extract_slots(const camera::Frame& frame,
                                                         double symbol_rate_hz,
                                                         int column_begin, int column_end,
                                                         const ExtractorConfig& config = {});

/// Arena-backed front-end: scanline scratch comes from `arena` instead
/// of a per-call vector (rx::StreamingReceiver threads its per-stream
/// arena through here, so a long capture's reduction scratch is one
/// recycled allocation).
[[nodiscard]] std::vector<SlotObservation> extract_slots(const camera::Frame& frame,
                                                         double symbol_rate_hz,
                                                         int column_begin, int column_end,
                                                         util::CaptureArena& arena,
                                                         const ExtractorConfig& config = {});

}  // namespace colorbars::rx
