#pragma once

// Bayer color-filter-array simulation (paper §6.1, Fig. 5a). Each
// photodiode sees only one color channel through its filter; the ISP
// reconstructs full RGB by demosaicing. Mosaic + demosaic is a real
// source of inter-row color mixing (a demosaiced pixel borrows values
// from neighbor scanlines), which matters at narrow band widths.

#include <span>
#include <vector>

#include "colorbars/camera/image.hpp"
#include "colorbars/color/srgb.hpp"

namespace colorbars::camera {

/// Which channel a Bayer site at (row, column) samples, for the RGGB
/// arrangement: even rows alternate R,G; odd rows alternate G,B.
enum class BayerChannel { kRed, kGreen, kBlue };

[[nodiscard]] constexpr BayerChannel bayer_channel(int row, int column) noexcept {
  const bool even_row = (row % 2) == 0;
  const bool even_col = (column % 2) == 0;
  if (even_row) return even_col ? BayerChannel::kRed : BayerChannel::kGreen;
  return even_col ? BayerChannel::kGreen : BayerChannel::kBlue;
}

/// Samples a full-RGB image through the RGGB mosaic: output(r,c) is the
/// scalar response of the site's own channel.
[[nodiscard]] std::vector<double> mosaic(const FloatImage& rgb);

/// Bilinear demosaic of an RGGB mosaic back to full RGB.
/// `rows`/`columns` must match the mosaic's dimensions.
[[nodiscard]] FloatImage demosaic(const std::vector<double>& raw, int rows, int columns);

/// demosaic into a caller-provided image (resized in place), so pooled
/// scratch buffers can be recycled across frames without reallocating.
void demosaic_into(const std::vector<double>& raw, int rows, int columns,
                   FloatImage& out);

/// One frame row demosaiced straight to 8-bit sRGB codes:
/// out[c] == color::quantize_srgb(demosaic(raw, rows, columns).at(row, c))
/// for every column, byte for byte. `mid` holds the row's raw values
/// and `up` / `down` its neighbours', null for the frame's top / bottom
/// row; so a render needs only the three raw rows around the one it
/// encodes. Interior rows take simd::demosaic_code_row; the top and
/// bottom rows take the generic bounds-checked path.
void demosaic_quantize_row(const double* up, const double* mid, const double* down, int row,
                           int columns, color::Rgb8* out);

/// demosaic_quantize_row over every row of a full raw plane, into
/// `out` (resized in place; metadata untouched).
void demosaic_quantize_into(std::span<const double> raw, int rows, int columns,
                            Frame& out);

}  // namespace colorbars::camera
