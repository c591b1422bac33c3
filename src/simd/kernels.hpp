#pragma once

// Internal plumbing of colorbars::simd: the per-backend kernel tables
// the dispatcher selects between, the color LUTs laid out for the Lab
// row reduction, and the scalar reference loops every backend reuses as
// prologue/epilogue.
//
// The scalar helpers are defined in an anonymous namespace on purpose:
// each backend TU is compiled with its own ISA flags, and internal
// linkage guarantees the linker can never substitute (say) the
// AVX2-compiled copy of an epilogue into the scalar backend that a
// non-AVX CPU runs. The duplication is a few hundred bytes per TU.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "colorbars/color/lut.hpp"
#include "colorbars/simd/simd.hpp"

namespace colorbars::simd::detail {

struct KernelTable {
  void (*demosaic_code_row)(const double* up, const double* mid, const double* down,
                            int columns, bool even_row, color::Rgb8* out);
  void (*row_lab_rgb_sums)(const color::Rgb8* pixels, int count, RowSums& sums);
  void (*vignette_signal_span)(const double* col2, int column_begin, int column_end,
                               double row2, double strength, double value_even,
                               double value_odd, double* out_row);
  void (*shot_sigma_row)(const double* signal, int count, double iso_gain,
                         double well_capacity, double* out);
  void (*delta_e_ab_many)(const double* ref_a, const double* ref_b, int count,
                          double a, double b, double* out);
  void (*polar_finish)(double* pairs, std::size_t count);
  void (*polar_accept)(std::uint64_t* state, double* pairs, std::size_t count);
};

extern const KernelTable kScalarKernels;
#if defined(COLORBARS_SIMD_X86)
extern const KernelTable kSse42Kernels;
extern const KernelTable kAvx2Kernels;
#endif
#if defined(COLORBARS_SIMD_NEON)
extern const KernelTable kNeonKernels;
#endif

/// The color LUTs in the layout the Lab row reduction reads. Beside
/// the chain's own f() samples they store three values the per-pixel
/// chain would otherwise recompute, each exact (DESIGN.md §5):
///
///  - rows: one 32-byte row per (channel, code), {X/Xn, Y/Yn, Z/Zn
///    contribution times kLabFScale, code/255.0}. A pixel's three rows
///    added lane-wise in the chain's (red + green) + blue order give its
///    white-normalized XYZ times kLabFScale in lanes 0-2, bit for bit:
///    scaling by a power of two is exact and commutes with rounding (no
///    contribution is subnormal). So the sum is already the lab_f table
///    coordinate the chain computes as t * 4096, and no per-pixel
///    multiply is left. Lane 3 of each row is the exact from_rgb8 value
///    of that channel (from_rgb8's own division).
///  - lab_f_slope: lab_f[i + 1] - lab_f[i], the chain's own difference,
///    so a lerp is lab_f[i] + slope * fraction. The top sample's slope
///    is 0, so a lerp at t = 1 returns that sample exactly, as
///    lab_f_fast's explicit branch does.
///  - white_lab: the Lab of pure white, (L, a, b, 0). Every other code
///    keeps all three sums in [0, 1] (pinned by
///    Simd.Rgb8LabChainMatchesScalarExhaustively), so pure white, whose
///    X sum is 1.0000000000000002, is the one pixel that takes
///    lab_f_fast's exact cube root. The kernels test the codes and add
///    this precomputed rgb8_to_lab_fast result instead.
struct LabLut {
  static constexpr double kLabFScale = color::kLabFTableSamples - 1;
  alignas(64) double rows[3][256][4];
  /// color::lab_f_table_values(), read in place: the samples the chain
  /// interpolates, not a copy.
  const double* lab_f;
  alignas(64) double lab_f_slope[color::kLabFTableSamples];
  alignas(32) double white_lab[4];
};

const LabLut& lab_lut() noexcept;

namespace {

/// The bilinear demosaic of pixels [c_begin, c_end) of an interior row,
/// 0 < c_begin and c_end < columns, from the raw row and its two
/// neighbours: verbatim the reconstruction the render has always run
/// (same accumulation order, same divisions). Each pixel's (red, green,
/// blue) goes to sink(c, red, green, blue).
template <typename Sink>
void demosaic_segment(const double* up, const double* mid, const double* down,
                      bool even_row, int c_begin, int c_end, Sink&& sink) {
  for (int c = c_begin; c < c_end; ++c) {
    const double own = mid[c];
    const bool even_col = (c % 2) == 0;
    if (even_row && even_col) {  // red site
      double green = up[c];
      green += mid[c - 1];
      green += mid[c + 1];
      green += down[c];
      double blue = up[c - 1];
      blue += up[c + 1];
      blue += down[c - 1];
      blue += down[c + 1];
      sink(c, own, green / 4, blue / 4);
    } else if (!even_row && !even_col) {  // blue site
      double red = up[c - 1];
      red += up[c + 1];
      red += down[c - 1];
      red += down[c + 1];
      double green = up[c];
      green += mid[c - 1];
      green += mid[c + 1];
      green += down[c];
      sink(c, red / 4, green / 4, own);
    } else if (even_row) {  // green site between reds horizontally
      double red = mid[c - 1];
      red += mid[c + 1];
      double blue = up[c];
      blue += down[c];
      sink(c, red / 2, own, blue / 2);
    } else {  // green site between reds vertically
      double red = up[c];
      red += down[c];
      double blue = mid[c - 1];
      blue += mid[c + 1];
      sink(c, red / 2, own, blue / 2);
    }
  }
}

/// Column c = 0 or columns - 1 of an interior row. Only the neighbours
/// inside the image count, and each mean is the bounds-checked
/// camera::demosaic_pixel's arithmetic: a sum from 0.0 over its offset
/// table's order (row above, own row, row below), divided by the
/// count. `n` is the one horizontal neighbour column, or -1 at width 1.
/// The four sites, with v = (0 + up[c] + down[c]) / 2:
///   red   (even row, even c): own, (0 + up[c] + mid[n] + down[c]) / 3,
///                             (0 + up[n] + down[n]) / 2
///   green (even row, odd c):  0 + mid[n], own, v
///   green (odd row, even c):  v, own, 0 + mid[n]
///   blue  (odd row, odd c):   (0 + up[n] + down[n]) / 2,
///                             (0 + up[c] + mid[n] + down[c]) / 3, own
/// At width 1 (n = -1, c = 0) a red site's green is v and its blue 0,
/// and a green site's blue is 0.
[[maybe_unused]] inline void demosaic_edge_pixel(const double* up, const double* mid,
                                                 const double* down, int c, int n,
                                                 bool even_row, double rgb[3]) {
  const double own = mid[c];
  const double vertical = (0.0 + up[c] + down[c]) / 2;
  const bool even_col = (c % 2) == 0;
  if (n < 0) {
    rgb[0] = even_row ? own : vertical;
    rgb[1] = even_row ? vertical : own;
    rgb[2] = 0.0;
  } else if (even_row && even_col) {
    rgb[0] = own;
    rgb[1] = (0.0 + up[c] + mid[n] + down[c]) / 3;
    rgb[2] = (0.0 + up[n] + down[n]) / 2;
  } else if (even_row) {
    rgb[0] = 0.0 + mid[n];
    rgb[1] = own;
    rgb[2] = vertical;
  } else if (even_col) {
    rgb[0] = vertical;
    rgb[1] = own;
    rgb[2] = 0.0 + mid[n];
  } else {
    rgb[0] = (0.0 + up[n] + down[n]) / 2;
    rgb[1] = (0.0 + up[c] + mid[n] + down[c]) / 3;
    rgb[2] = own;
  }
}

/// color::quantize_srgb_channel, verbatim: the branch-free clamp to
/// [0, 1] (NaN and -0.0 to +0.0; maxsd and minsd are the std:: pair
/// with these operand orders, see lut.cpp) and the two-load bucket
/// lookup (color::SrgbQuantTables).
[[maybe_unused]] inline std::uint8_t srgb_code(const color::SrgbQuantTables& tables,
                                               double linear) {
#if defined(__SSE2__)
  const __m128d low = _mm_max_sd(_mm_set_sd(linear), _mm_setzero_pd());
  const double x = _mm_cvtsd_f64(_mm_min_sd(low, _mm_set_sd(1.0)));
#else
  const double x = std::min(std::max(0.0, linear), 1.0);
#endif
  const auto bucket =
      static_cast<std::size_t>(static_cast<int>(x * color::SrgbQuantTables::kBuckets));
  return static_cast<std::uint8_t>(tables.bucket_floor[bucket] +
                                   (tables.bucket_boundary[bucket] <= x ? 1 : 0));
}

/// Scalar reference of the code kernel over interior columns
/// [c_begin, c_end): demosaic_segment, each channel quantized.
[[maybe_unused]] void demosaic_code_segment(const double* up, const double* mid,
                                            const double* down, bool even_row, int c_begin,
                                            int c_end, color::Rgb8* out) {
  const color::SrgbQuantTables& tables = color::srgb_quant_tables();
  demosaic_segment(up, mid, down, even_row, c_begin, c_end,
                   [&](int c, double red, double green, double blue) {
                     color::Rgb8& pixel = out[c];
                     pixel.r = srgb_code(tables, red);
                     pixel.g = srgb_code(tables, green);
                     pixel.b = srgb_code(tables, blue);
                   });
}

/// Columns 0 and columns - 1 of an interior row, quantized; every
/// backend runs this for its edges.
[[maybe_unused]] void demosaic_code_edges(const double* up, const double* mid,
                                          const double* down, int columns, bool even_row,
                                          color::Rgb8* out) {
  const color::SrgbQuantTables& tables = color::srgb_quant_tables();
  const auto encode = [&](int c, int n) {
    double rgb[3];
    demosaic_edge_pixel(up, mid, down, c, n, even_row, rgb);
    out[c] = {srgb_code(tables, rgb[0]), srgb_code(tables, rgb[1]),
              srgb_code(tables, rgb[2])};
  };
  encode(0, columns > 1 ? 1 : -1);
  if (columns > 1) encode(columns - 1, columns - 2);
}

/// True for pure white, the one pixel whose Lab the row reduction
/// takes from LabLut::white_lab (see LabLut).
[[maybe_unused]] inline bool is_pure_white(const color::Rgb8& pixel) {
  return (pixel.r & pixel.g & pixel.b) == 255;
}

/// color::lab_f_fast(scaled / kLabFScale) for a component sum `scaled`
/// of a pixel other than pure white, which lies in [0, kLabFScale]:
/// the chain's index truncation, fraction and lerp, with the stored
/// slope (see LabLut).
[[maybe_unused]] inline double lab_f_lerp(double scaled, const double* values,
                                          const double* slopes) {
  const int index = static_cast<int>(scaled);
  return values[index] + slopes[index] * (scaled - index);
}

/// Scalar reference of the scanline reduction inner loop: per pixel,
/// rgb8_to_lab_fast and from_rgb8 read from the code rows, with the same
/// operations in the same order, pixels in order.
[[maybe_unused]] void row_lab_rgb_sums_segment(const color::Rgb8* pixels, int count,
                                               RowSums& sums) {
  const LabLut& lut = lab_lut();
  const double* values = lut.lab_f;
  const double* slopes = lut.lab_f_slope;
  // Local accumulators: sums may alias the table for all the compiler
  // knows, which would force a store and reload per pixel.
  RowSums acc = sums;
  for (int i = 0; i < count; ++i) {
    const color::Rgb8 pixel = pixels[i];
    const double* red = lut.rows[0][pixel.r];
    const double* green = lut.rows[1][pixel.g];
    const double* blue = lut.rows[2][pixel.b];
    if (is_pure_white(pixel)) {
      acc.l += lut.white_lab[0];
      acc.a += lut.white_lab[1];
      acc.b += lut.white_lab[2];
    } else {
      const double fx = lab_f_lerp(red[0] + green[0] + blue[0], values, slopes);
      const double fy = lab_f_lerp(red[1] + green[1] + blue[1], values, slopes);
      const double fz = lab_f_lerp(red[2] + green[2] + blue[2], values, slopes);
      acc.l += 116.0 * fy - 16.0;
      acc.a += 500.0 * (fx - fy);
      acc.b += 200.0 * (fy - fz);
    }
    acc.r += red[3];
    acc.g += green[3];
    acc.bb += blue[3];
  }
  sums = acc;
}

/// Scalar reference of the vignette row fill — verbatim
/// vignette_gain(r, c) followed by signal *= gain.
[[maybe_unused]] void vignette_signal_segment(const double* col2, int c_begin, int c_end,
                                              double row2, double strength,
                                              double value_even, double value_odd,
                                              double* out_row) {
  for (int c = c_begin; c < c_end; ++c) {
    double signal = (c % 2) == 0 ? value_even : value_odd;
    if (strength > 0.0) {
      const double radial2 = 0.5 * (row2 + col2[c]);
      signal *= std::max(1.0 - strength * radial2, 0.0);
    }
    out_row[c] = signal;
  }
}

/// Scalar reference of the shot-noise sigma — verbatim the
/// mosaic_and_encode expression.
[[maybe_unused]] void shot_sigma_segment(const double* signal, int count, double iso_gain,
                                         double well_capacity, double* out) {
  for (int i = 0; i < count; ++i) {
    out[i] = std::sqrt(std::max(signal[i], 0.0) * iso_gain / well_capacity);
  }
}

/// Scalar reference of the chroma-plane ΔE fan-out — verbatim
/// color::delta_e_ab against each reference.
[[maybe_unused]] void delta_e_ab_segment(const double* ref_a, const double* ref_b,
                                         int count, double a, double b, double* out) {
  for (int i = 0; i < count; ++i) {
    const double da = a - ref_a[i];
    const double db = b - ref_b[i];
    out[i] = std::sqrt(da * da + db * db);
  }
}

}  // namespace

}  // namespace colorbars::simd::detail
