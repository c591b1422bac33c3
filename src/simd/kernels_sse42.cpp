// SSE4.2 backend: 2 double lanes per step for the pointwise kernels
// (vignette, shot sigma, ΔE). Compiled with -msse4.2 only — the same
// no-FMA byte-identity argument as the AVX2 TU applies. Structure
// mirrors kernels_avx2.cpp at half width; see that file for the
// reasoning behind each operation order. The demosaic→code row, the Lab
// row reduction and the polar finish run the scalar segments here, as
// on NEON: a two-lane Lab kernel measured no faster than the scalar
// segment (DESIGN.md §5), the demosaic→code row is bound by its
// per-channel table reads, and the finish by libm's log.

#include <immintrin.h>

#include "colorbars/util/rng.hpp"
#include "kernels.hpp"

namespace colorbars::simd::detail {

namespace {

void demosaic_code_row_sse42(const double* up, const double* mid, const double* down,
                             int columns, bool even_row, color::Rgb8* out) {
  demosaic_code_edges(up, mid, down, columns, even_row, out);
  demosaic_code_segment(up, mid, down, even_row, 1, columns - 1, out);
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
    demosaic_code_row_sse42, row_lab_rgb_sums_sse42, vignette_signal_sse42,
    shot_sigma_sse42,        delta_e_ab_sse42,       util::Xoshiro256::polar_finish,
    util::Xoshiro256::polar_accept,
};

}  // namespace colorbars::simd::detail
