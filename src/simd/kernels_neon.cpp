// NEON (AArch64) backend: 2 double lanes for the pointwise kernels
// (vignette, shot sigma, ΔE). The table-bound demosaic→code and Lab
// reduction kernels and the polar finish stay on the scalar reference
// here — NEON has no double-precision gather, the scalar LUT chains are
// already load-bound, and nothing has timed a NEON build on silicon —
// so this backend's table routes them to the scalar segments. Compiled
// only when the build targets AArch64 (COLORBARS_SIMD_NEON);
// byte-identity follows the same no-FMA, same-operation-order argument
// as the x86 backends (vmul/vadd are the separately-rounded
// instructions, vfma is never emitted from these intrinsics).

#if defined(COLORBARS_SIMD_NEON)

#include <arm_neon.h>

#include "colorbars/util/rng.hpp"
#include "kernels.hpp"

namespace colorbars::simd::detail {

namespace {

void demosaic_code_row_neon(const double* up, const double* mid, const double* down,
                            int columns, bool even_row, color::Rgb8* out) {
  demosaic_code_edges(up, mid, down, columns, even_row, out);
  demosaic_code_segment(up, mid, down, even_row, 1, columns - 1, out);
}

void row_lab_rgb_sums_neon(const color::Rgb8* pixels, int count, RowSums& sums) {
  row_lab_rgb_sums_segment(pixels, count, sums);
}

void vignette_signal_neon(const double* col2, int column_begin, int column_end,
                          double row2, double strength, double value_even,
                          double value_odd, double* out_row) {
  const float64x2_t vals = (column_begin % 2) == 0
                               ? float64x2_t{value_even, value_odd}
                               : float64x2_t{value_odd, value_even};
  int c = column_begin;
  if (strength > 0.0) {
    const float64x2_t r2 = vdupq_n_f64(row2);
    const float64x2_t half = vdupq_n_f64(0.5);
    const float64x2_t s = vdupq_n_f64(strength);
    const float64x2_t one = vdupq_n_f64(1.0);
    const float64x2_t zero = vdupq_n_f64(0.0);
    for (; c + 1 < column_end; c += 2) {
      const float64x2_t radial2 = vmulq_f64(half, vaddq_f64(r2, vld1q_f64(col2 + c)));
      const float64x2_t gain = vmaxq_f64(vsubq_f64(one, vmulq_f64(s, radial2)), zero);
      vst1q_f64(out_row + c, vmulq_f64(vals, gain));
    }
  } else {
    for (; c + 1 < column_end; c += 2) vst1q_f64(out_row + c, vals);
  }
  vignette_signal_segment(col2, c, column_end, row2, strength, value_even, value_odd,
                          out_row);
}

void shot_sigma_neon(const double* signal, int count, double iso_gain,
                     double well_capacity, double* out) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t gain = vdupq_n_f64(iso_gain);
  const float64x2_t well = vdupq_n_f64(well_capacity);
  int i = 0;
  for (; i + 1 < count; i += 2) {
    const float64x2_t s = vmaxq_f64(vld1q_f64(signal + i), zero);
    vst1q_f64(out + i, vsqrtq_f64(vdivq_f64(vmulq_f64(s, gain), well)));
  }
  shot_sigma_segment(signal + i, count - i, iso_gain, well_capacity, out + i);
}

void delta_e_ab_neon(const double* ref_a, const double* ref_b, int count, double a,
                     double b, double* out) {
  const float64x2_t av = vdupq_n_f64(a);
  const float64x2_t bv = vdupq_n_f64(b);
  int i = 0;
  for (; i + 1 < count; i += 2) {
    const float64x2_t da = vsubq_f64(av, vld1q_f64(ref_a + i));
    const float64x2_t db = vsubq_f64(bv, vld1q_f64(ref_b + i));
    vst1q_f64(out + i,
              vsqrtq_f64(vaddq_f64(vmulq_f64(da, da), vmulq_f64(db, db))));
  }
  delta_e_ab_segment(ref_a + i, ref_b + i, count - i, a, b, out + i);
}

}  // namespace

const KernelTable kNeonKernels = {
    demosaic_code_row_neon, row_lab_rgb_sums_neon, vignette_signal_neon,
    shot_sigma_neon,        delta_e_ab_neon,       util::Xoshiro256::polar_finish,
    util::Xoshiro256::polar_accept,
};

}  // namespace colorbars::simd::detail

#endif  // COLORBARS_SIMD_NEON
