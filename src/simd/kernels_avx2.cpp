// AVX2 backend: 4 double lanes per step. Compiled with -mavx2 but
// WITHOUT -mfma — byte-identity with the scalar reference depends on
// a*b+c staying a rounded multiply followed by a rounded add, and the
// compiler cannot contract what the ISA it was given cannot encode.
// Every kernel mirrors the scalar reference's per-element operation
// order exactly. In the pointwise maps a lane is a pixel, and they fall
// back to the scalar segment helpers for the sub-width head/tail of any
// range, so odd widths and unaligned column starts are handled without
// masked or aligned loads. In the Lab row reduction a lane is one
// component of one pixel, so it has no tail at all.

#include <immintrin.h>

#include "kernels.hpp"

namespace colorbars::simd::detail {

namespace {

void demosaic_interior_avx2(const double* raw, int rows, int columns, double* rgb_out) {
  // The reference divides by 4.0 and 2.0; multiplying by 0.25 / 0.5 is
  // bit-identical (power-of-two reciprocals are exact, and correctly
  // rounding the same real value gives the same double) and trades the
  // non-pipelined divider for one multiply per mean.
  if (rows <= 2 || columns <= 2) return;
  const __m256d quarter = _mm256_set1_pd(0.25);
  const __m256d half = _mm256_set1_pd(0.5);
  for (int r = 1; r + 1 < rows; ++r) {
    const double* up =
        raw + static_cast<std::size_t>(r - 1) * static_cast<std::size_t>(columns);
    const double* mid = up + columns;
    const double* down = mid + columns;
    const bool even_row = (r % 2) == 0;
    double* out_row = rgb_out + static_cast<std::size_t>(r) *
                                    static_cast<std::size_t>(columns) * 3;
    int c = 1;
    // Lane block [c, c+4) reads columns [c-1, c+4]; the last full block
    // ends at columns-2, so every load stays inside the row.
    for (; c + 3 <= columns - 2; c += 4) {
      const __m256d up_l = _mm256_loadu_pd(up + c - 1);
      const __m256d up_m = _mm256_loadu_pd(up + c);
      const __m256d up_r = _mm256_loadu_pd(up + c + 1);
      const __m256d mid_l = _mm256_loadu_pd(mid + c - 1);
      const __m256d own = _mm256_loadu_pd(mid + c);
      const __m256d mid_r = _mm256_loadu_pd(mid + c + 1);
      const __m256d down_l = _mm256_loadu_pd(down + c - 1);
      const __m256d down_m = _mm256_loadu_pd(down + c);
      const __m256d down_r = _mm256_loadu_pd(down + c + 1);

      // The four neighbor means of the scalar reference, with its exact
      // accumulation order: ((up + left) + right) + down for the plus
      // pattern, ((ul + ur) + dl) + dr for the diagonals.
      const __m256d g4 = _mm256_mul_pd(
          _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(up_m, mid_l), mid_r), down_m),
          quarter);
      const __m256d diag4 = _mm256_mul_pd(
          _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(up_l, up_r), down_l), down_r),
          quarter);
      const __m256d horiz2 = _mm256_mul_pd(_mm256_add_pd(mid_l, mid_r), half);
      const __m256d vert2 = _mm256_mul_pd(_mm256_add_pd(up_m, down_m), half);

      // c starts odd and steps by 4, so lanes 0,2 are odd columns and
      // lanes 1,3 even ones — blend mask 0b1010 picks the even-column
      // phase.
      __m256d x, y, z;
      if (even_row) {
        // even col: red site {own, g4, diag4}; odd col: green site
        // {horiz2, own, vert2}.
        x = _mm256_blend_pd(horiz2, own, 0b1010);
        y = _mm256_blend_pd(own, g4, 0b1010);
        z = _mm256_blend_pd(vert2, diag4, 0b1010);
      } else {
        // even col: green site {vert2, own, horiz2}; odd col: blue site
        // {diag4, g4, own}.
        x = _mm256_blend_pd(diag4, vert2, 0b1010);
        y = _mm256_blend_pd(g4, own, 0b1010);
        z = _mm256_blend_pd(own, horiz2, 0b1010);
      }

      // SoA -> AoS: in-lane interleaves, then six 128-bit half stores —
      // vextractf128-to-memory is a plain store uop, so this avoids the
      // three cross-lane permutes an all-256-bit store path needs.
      const __m256d xy_lo = _mm256_unpacklo_pd(x, y);      // x0 y0 | x2 y2
      const __m256d zx = _mm256_shuffle_pd(z, x, 0b1010);  // z0 x1 | z2 x3
      const __m256d yz = _mm256_shuffle_pd(y, z, 0b1111);  // y1 z1 | y3 z3
      double* out = out_row + static_cast<std::size_t>(c) * 3;
      _mm_storeu_pd(out, _mm256_castpd256_pd128(xy_lo));        // x0 y0
      _mm_storeu_pd(out + 2, _mm256_castpd256_pd128(zx));       // z0 x1
      _mm_storeu_pd(out + 4, _mm256_castpd256_pd128(yz));       // y1 z1
      _mm_storeu_pd(out + 6, _mm256_extractf128_pd(xy_lo, 1));  // x2 y2
      _mm_storeu_pd(out + 8, _mm256_extractf128_pd(zx, 1));     // z2 x3
      _mm_storeu_pd(out + 10, _mm256_extractf128_pd(yz, 1));    // y3 z3
    }
    if (c < columns - 1) demosaic_row_segment(raw, columns, r, c, columns - 1, rgb_out);
  }
}

void row_lab_rgb_sums_avx2(const color::Rgb8* pixels, int count, RowSums& sums) {
  const LabLut& lut = lab_lut();
  const double* values = lut.lab_f;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d factor = _mm256_set_pd(0.0, 200.0, 500.0, 116.0);
  const __m256d offset = _mm256_set_pd(0.0, 0.0, 0.0, 16.0);
  const __m256d white_lab = _mm256_load_pd(lut.white_lab);
  // acc_lab holds (L, a, b, -). acc_red/green/blue add up whole code
  // rows; only their lane 3, the encoded channel, is read back. Each
  // is one in-order chain per component, like the scalar loop's.
  __m256d acc_lab = _mm256_set_pd(0.0, sums.b, sums.a, sums.l);
  __m256d acc_red = _mm256_set_pd(sums.r, 0.0, 0.0, 0.0);
  __m256d acc_green = _mm256_set_pd(sums.g, 0.0, 0.0, 0.0);
  __m256d acc_blue = _mm256_set_pd(sums.bb, 0.0, 0.0, 0.0);
  for (int i = 0; i < count; ++i) {
    const color::Rgb8 pixel = pixels[i];
    const __m256d red = _mm256_load_pd(lut.rows[0][pixel.r]);
    const __m256d green = _mm256_load_pd(lut.rows[1][pixel.g]);
    const __m256d blue = _mm256_load_pd(lut.rows[2][pixel.b]);
    acc_red = _mm256_add_pd(acc_red, red);
    acc_green = _mm256_add_pd(acc_green, green);
    acc_blue = _mm256_add_pd(acc_blue, blue);
    if (is_pure_white(pixel)) {  // the exact-cbrt pixel, see LabLut
      acc_lab = _mm256_add_pd(acc_lab, white_lab);
      continue;
    }

    // Lanes 0-2: 4096 X/Xn, Y/Yn, Z/Zn in the scalar (red + green) +
    // blue order, each in [0, 4096] for every pixel but pure white.
    // Lane 3 sums three code/255 values, so its index is at most 3 and
    // its gathers stay in the tables; that lane is ignored from here on.
    const __m256d scaled = _mm256_add_pd(_mm256_add_pd(red, green), blue);
    const __m128i index = _mm256_cvttpd_epi32(scaled);
    const __m256d value = _mm256_i32gather_pd(values, index, 8);
    const __m256d slope = _mm256_i32gather_pd(lut.lab_f_slope, index, 8);
    const __m256d fraction = _mm256_sub_pd(scaled, _mm256_cvtepi32_pd(index));
    const __m256d f = _mm256_add_pd(value, _mm256_mul_pd(slope, fraction));

    // (L, a, b) = (116 fy - 16, 500 (fx - fy), 200 (fy - fz)) as
    // (116, 500, 200) * ((fy, fx, fy) - (0, fy, fz)) - (16, 0, 0): the
    // zero terms are exact, so every lane runs the scalar operations.
    const __m256d minuend = _mm256_permute4x64_pd(f, 0b11'01'00'01);  // fy fx fy -
    const __m256d subtrahend = _mm256_blend_pd(zero, f, 0b0110);      // 0  fy fz 0
    acc_lab = _mm256_add_pd(
        acc_lab,
        _mm256_sub_pd(_mm256_mul_pd(factor, _mm256_sub_pd(minuend, subtrahend)), offset));
  }
  alignas(32) double lab[4];
  alignas(32) double red[4];
  alignas(32) double green[4];
  alignas(32) double blue[4];
  _mm256_store_pd(lab, acc_lab);
  _mm256_store_pd(red, acc_red);
  _mm256_store_pd(green, acc_green);
  _mm256_store_pd(blue, acc_blue);
  sums.l = lab[0];
  sums.a = lab[1];
  sums.b = lab[2];
  sums.r = red[3];
  sums.g = green[3];
  sums.bb = blue[3];
}

void vignette_signal_avx2(const double* col2, int column_begin, int column_end,
                          double row2, double strength, double value_even,
                          double value_odd, double* out_row) {
  // c steps by 4, so the lane parity pattern is fixed by the parity of
  // the first vectorized column.
  const __m256d vals = (column_begin % 2) == 0
                           ? _mm256_set_pd(value_odd, value_even, value_odd, value_even)
                           : _mm256_set_pd(value_even, value_odd, value_even, value_odd);
  int c = column_begin;
  if (strength > 0.0) {
    const __m256d r2 = _mm256_set1_pd(row2);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d s = _mm256_set1_pd(strength);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d zero = _mm256_setzero_pd();
    for (; c + 3 < column_end; c += 4) {
      const __m256d radial2 = _mm256_mul_pd(half, _mm256_add_pd(r2, _mm256_loadu_pd(col2 + c)));
      const __m256d gain =
          _mm256_max_pd(_mm256_sub_pd(one, _mm256_mul_pd(s, radial2)), zero);
      _mm256_storeu_pd(out_row + c, _mm256_mul_pd(vals, gain));
    }
  } else {
    // vignette_gain short-circuits to 1.0; v * 1.0 == v bit-for-bit.
    for (; c + 3 < column_end; c += 4) _mm256_storeu_pd(out_row + c, vals);
  }
  vignette_signal_segment(col2, c, column_end, row2, strength, value_even, value_odd,
                          out_row);
}

void shot_sigma_avx2(const double* signal, int count, double iso_gain,
                     double well_capacity, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d gain = _mm256_set1_pd(iso_gain);
  const __m256d well = _mm256_set1_pd(well_capacity);
  int i = 0;
  for (; i + 3 < count; i += 4) {
    const __m256d s = _mm256_max_pd(_mm256_loadu_pd(signal + i), zero);
    _mm256_storeu_pd(out + i,
                     _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(s, gain), well)));
  }
  shot_sigma_segment(signal + i, count - i, iso_gain, well_capacity, out + i);
}

void delta_e_ab_avx2(const double* ref_a, const double* ref_b, int count, double a,
                     double b, double* out) {
  const __m256d av = _mm256_set1_pd(a);
  const __m256d bv = _mm256_set1_pd(b);
  int i = 0;
  for (; i + 3 < count; i += 4) {
    const __m256d da = _mm256_sub_pd(av, _mm256_loadu_pd(ref_a + i));
    const __m256d db = _mm256_sub_pd(bv, _mm256_loadu_pd(ref_b + i));
    _mm256_storeu_pd(
        out + i,
        _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(da, da), _mm256_mul_pd(db, db))));
  }
  delta_e_ab_segment(ref_a + i, ref_b + i, count - i, a, b, out + i);
}

}  // namespace

const KernelTable kAvx2Kernels = {
    demosaic_interior_avx2, row_lab_rgb_sums_avx2, vignette_signal_avx2,
    shot_sigma_avx2,        delta_e_ab_avx2,
};

}  // namespace colorbars::simd::detail
