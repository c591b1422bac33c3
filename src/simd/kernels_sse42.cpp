// SSE4.2 backend: 2 double lanes per step for the demosaic and the
// pointwise kernels (vignette, shot sigma, ΔE). Compiled with -msse4.2
// only — the same no-FMA byte-identity argument as the AVX2 TU applies.
// Structure mirrors kernels_avx2.cpp at half width; see that file for
// the reasoning behind each operation order. The Lab row reduction runs
// the scalar segment here, as on NEON: at two lanes a vector kernel is
// bound by table loads and shuffles, and measured no faster than the
// scalar segment on the 32-byte code rows (DESIGN.md §5).

#include <immintrin.h>

#include "kernels.hpp"

namespace colorbars::simd::detail {

namespace {

void demosaic_interior_sse42(const double* raw, int rows, int columns,
                             double* rgb_out) {
  // Multiplying by 0.25 / 0.5 is bit-identical to the reference's
  // division by 4.0 / 2.0 (power-of-two reciprocals are exact) and
  // avoids the non-pipelined divider.
  if (rows <= 2 || columns <= 2) return;
  const __m128d quarter = _mm_set1_pd(0.25);
  const __m128d half = _mm_set1_pd(0.5);
  for (int r = 1; r + 1 < rows; ++r) {
    const double* up =
        raw + static_cast<std::size_t>(r - 1) * static_cast<std::size_t>(columns);
    const double* mid = up + columns;
    const double* down = mid + columns;
    const bool even_row = (r % 2) == 0;
    double* out_row = rgb_out + static_cast<std::size_t>(r) *
                                    static_cast<std::size_t>(columns) * 3;
    int c = 1;
    for (; c + 1 <= columns - 2; c += 2) {
      const __m128d up_l = _mm_loadu_pd(up + c - 1);
      const __m128d up_m = _mm_loadu_pd(up + c);
      const __m128d up_r = _mm_loadu_pd(up + c + 1);
      const __m128d mid_l = _mm_loadu_pd(mid + c - 1);
      const __m128d own = _mm_loadu_pd(mid + c);
      const __m128d mid_r = _mm_loadu_pd(mid + c + 1);
      const __m128d down_l = _mm_loadu_pd(down + c - 1);
      const __m128d down_m = _mm_loadu_pd(down + c);
      const __m128d down_r = _mm_loadu_pd(down + c + 1);

      const __m128d g4 = _mm_mul_pd(
          _mm_add_pd(_mm_add_pd(_mm_add_pd(up_m, mid_l), mid_r), down_m), quarter);
      const __m128d diag4 = _mm_mul_pd(
          _mm_add_pd(_mm_add_pd(_mm_add_pd(up_l, up_r), down_l), down_r), quarter);
      const __m128d horiz2 = _mm_mul_pd(_mm_add_pd(mid_l, mid_r), half);
      const __m128d vert2 = _mm_mul_pd(_mm_add_pd(up_m, down_m), half);

      // c starts odd and steps by 2: lane 0 odd column, lane 1 even.
      __m128d x, y, z;
      if (even_row) {
        x = _mm_blend_pd(horiz2, own, 0b10);
        y = _mm_blend_pd(own, g4, 0b10);
        z = _mm_blend_pd(vert2, diag4, 0b10);
      } else {
        x = _mm_blend_pd(diag4, vert2, 0b10);
        y = _mm_blend_pd(g4, own, 0b10);
        z = _mm_blend_pd(own, horiz2, 0b10);
      }

      double* out = out_row + static_cast<std::size_t>(c) * 3;
      _mm_storeu_pd(out, _mm_unpacklo_pd(x, y));          // x0 y0
      _mm_storeu_pd(out + 2, _mm_shuffle_pd(z, x, 0b10)); // z0 x1
      _mm_storeu_pd(out + 4, _mm_unpackhi_pd(y, z));      // y1 z1
    }
    if (c < columns - 1) demosaic_row_segment(raw, columns, r, c, columns - 1, rgb_out);
  }
}

void row_lab_rgb_sums_sse42(const color::Rgb8* pixels, int count, RowSums& sums) {
  row_lab_rgb_sums_segment(pixels, count, sums);
}

void vignette_signal_sse42(const double* col2, int column_begin, int column_end,
                           double row2, double strength, double value_even,
                           double value_odd, double* out_row) {
  const __m128d vals = (column_begin % 2) == 0 ? _mm_set_pd(value_odd, value_even)
                                               : _mm_set_pd(value_even, value_odd);
  int c = column_begin;
  if (strength > 0.0) {
    const __m128d r2 = _mm_set1_pd(row2);
    const __m128d half = _mm_set1_pd(0.5);
    const __m128d s = _mm_set1_pd(strength);
    const __m128d one = _mm_set1_pd(1.0);
    const __m128d zero = _mm_setzero_pd();
    for (; c + 1 < column_end; c += 2) {
      const __m128d radial2 = _mm_mul_pd(half, _mm_add_pd(r2, _mm_loadu_pd(col2 + c)));
      const __m128d gain = _mm_max_pd(_mm_sub_pd(one, _mm_mul_pd(s, radial2)), zero);
      _mm_storeu_pd(out_row + c, _mm_mul_pd(vals, gain));
    }
  } else {
    for (; c + 1 < column_end; c += 2) _mm_storeu_pd(out_row + c, vals);
  }
  vignette_signal_segment(col2, c, column_end, row2, strength, value_even, value_odd,
                          out_row);
}

void shot_sigma_sse42(const double* signal, int count, double iso_gain,
                      double well_capacity, double* out) {
  const __m128d zero = _mm_setzero_pd();
  const __m128d gain = _mm_set1_pd(iso_gain);
  const __m128d well = _mm_set1_pd(well_capacity);
  int i = 0;
  for (; i + 1 < count; i += 2) {
    const __m128d s = _mm_max_pd(_mm_loadu_pd(signal + i), zero);
    _mm_storeu_pd(out + i, _mm_sqrt_pd(_mm_div_pd(_mm_mul_pd(s, gain), well)));
  }
  shot_sigma_segment(signal + i, count - i, iso_gain, well_capacity, out + i);
}

void delta_e_ab_sse42(const double* ref_a, const double* ref_b, int count, double a,
                      double b, double* out) {
  const __m128d av = _mm_set1_pd(a);
  const __m128d bv = _mm_set1_pd(b);
  int i = 0;
  for (; i + 1 < count; i += 2) {
    const __m128d da = _mm_sub_pd(av, _mm_loadu_pd(ref_a + i));
    const __m128d db = _mm_sub_pd(bv, _mm_loadu_pd(ref_b + i));
    _mm_storeu_pd(out + i,
                  _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(da, da), _mm_mul_pd(db, db))));
  }
  delta_e_ab_segment(ref_a + i, ref_b + i, count - i, a, b, out + i);
}

}  // namespace

const KernelTable kSse42Kernels = {
    demosaic_interior_sse42, row_lab_rgb_sums_sse42, vignette_signal_sse42,
    shot_sigma_sse42,        delta_e_ab_sse42,
};

}  // namespace colorbars::simd::detail
