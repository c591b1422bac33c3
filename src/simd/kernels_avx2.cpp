// AVX2 backend: 4 double lanes per step. Compiled with -mavx2 -mfma
// under the root build's -ffp-contract=off: byte-identity with the
// scalar reference depends on every a*b+c staying a rounded multiply
// followed by a rounded add, so the only fused steps are the explicit
// _mm256_fmadd_pd / _mm256_fnmadd_pd of the log, which replicate
// util::fma_log's std::fma calls. Every kernel mirrors the scalar
// reference's per-element operation order exactly. In the pointwise
// maps a lane is a pixel, and they fall back to the scalar segment
// helpers for the sub-width head/tail of any range, so odd widths and
// unaligned column starts are handled without masked or aligned loads.
// In the Lab row reduction a lane is one component of one pixel, so it
// has no tail at all. The demosaic→code row computes its means and the
// quantizer's clamp and bucket index in lanes, then reads the quantizer
// tables per channel; the polar finish runs four pairs in lanes,
// util::fma_log included, and calls no libm function. (The backend
// needs FMA, and there util::polar_log, the scalar reference's log, is
// util::fma_log.) The polar accept loop runs four generators, one per
// lane, over four consecutive blocks of the one stream, each started by
// a jump-ahead.

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>

#include "colorbars/util/fma_log.hpp"
#include "colorbars/util/rng.hpp"
#include "kernels.hpp"

namespace colorbars::simd::detail {

namespace {

void demosaic_code_row_avx2(const double* up, const double* mid, const double* down,
                            int columns, bool even_row, color::Rgb8* out) {
  demosaic_code_edges(up, mid, down, columns, even_row, out);
  const color::SrgbQuantTables& tables = color::srgb_quant_tables();
  // The reference divides by 4.0 and 2.0; multiplying by 0.25 / 0.5 is
  // bit-identical (power-of-two reciprocals are exact, and correctly
  // rounding the same real value gives the same double) and trades the
  // non-pipelined divider for one multiply per mean.
  const __m256d quarter = _mm256_set1_pd(0.25);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d buckets = _mm256_set1_pd(color::SrgbQuantTables::kBuckets);
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
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(up_m, mid_l), mid_r), down_m), quarter);
    const __m256d diag4 = _mm256_mul_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(up_l, up_r), down_l), down_r), quarter);
    const __m256d horiz2 = _mm256_mul_pd(_mm256_add_pd(mid_l, mid_r), half);
    const __m256d vert2 = _mm256_mul_pd(_mm256_add_pd(up_m, down_m), half);

    // c starts odd and steps by 4, so lanes 0,2 are odd columns and
    // lanes 1,3 even ones — blend mask 0b1010 picks the even-column
    // phase.
    __m256d red, green, blue;
    if (even_row) {
      // even col: red site {own, g4, diag4}; odd col: green site
      // {horiz2, own, vert2}.
      red = _mm256_blend_pd(horiz2, own, 0b1010);
      green = _mm256_blend_pd(own, g4, 0b1010);
      blue = _mm256_blend_pd(vert2, diag4, 0b1010);
    } else {
      // even col: green site {vert2, own, horiz2}; odd col: blue site
      // {diag4, g4, own}.
      red = _mm256_blend_pd(diag4, vert2, 0b1010);
      green = _mm256_blend_pd(g4, own, 0b1010);
      blue = _mm256_blend_pd(own, horiz2, 0b1010);
    }

    // srgb_code in lanes up to its table reads. maxpd returns its second
    // operand when either input is NaN or both are zeros, so NaN and
    // -0.0 clamp to +0.0 exactly as the scalar clamp does.
    alignas(32) double clamped[3][4];
    alignas(16) std::int32_t bucket[3][4];
    const auto clamp_and_index = [&](__m256d value, int k) {
      const __m256d x = _mm256_min_pd(_mm256_max_pd(value, zero), one);
      _mm256_store_pd(clamped[k], x);
      _mm_store_si128(reinterpret_cast<__m128i*>(bucket[k]),
                      _mm256_cvttpd_epi32(_mm256_mul_pd(x, buckets)));
    };
    clamp_and_index(red, 0);
    clamp_and_index(green, 1);
    clamp_and_index(blue, 2);
    // The two loads and the compare per channel stay scalar: gathers
    // measured no faster.
    const auto code = [&](int k, int lane) {
      const auto b = static_cast<std::size_t>(bucket[k][lane]);
      return static_cast<std::uint8_t>(tables.bucket_floor[b] +
                                       (tables.bucket_boundary[b] <= clamped[k][lane] ? 1 : 0));
    };
    const auto encode = [&](int lane) {
      color::Rgb8& pixel = out[c + lane];
      pixel.r = code(0, lane);
      pixel.g = code(1, lane);
      pixel.b = code(2, lane);
    };
    encode(0);
    encode(1);
    encode(2);
    encode(3);
  }
  demosaic_code_segment(up, mid, down, even_row, c, columns - 1, out);
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

// util::fma_log's near-1 path in lanes, step for step.
__m256d fma_log_near_one_avx2(__m256d x) {
  const double* b = util::kFmaLogData.poly1;
  const auto coefficient = [b](int i) { return _mm256_set1_pd(b[i]); };
  const __m256d split = _mm256_set1_pd(0x1p27);
  const __m256d r = _mm256_sub_pd(x, _mm256_set1_pd(1.0));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r3 = _mm256_mul_pd(r, r2);
  __m256d p = _mm256_fmadd_pd(
      r3, coefficient(10),
      _mm256_fmadd_pd(r2, coefficient(9), _mm256_fmadd_pd(r, coefficient(8), coefficient(7))));
  p = _mm256_fmadd_pd(
      p, r3,
      _mm256_fmadd_pd(r2, coefficient(6), _mm256_fmadd_pd(r, coefficient(5), coefficient(4))));
  p = _mm256_fmadd_pd(
      p, r3,
      _mm256_fmadd_pd(r2, coefficient(3), _mm256_fmadd_pd(r, coefficient(2), coefficient(1))));
  const __m256d rw = _mm256_fmadd_pd(r, split, r);
  const __m256d rhi = _mm256_fnmadd_pd(r, split, rw);  // fma(-r, 2^27, rw)
  const __m256d rlo = _mm256_sub_pd(r, rhi);
  const __m256d rhi2 = _mm256_mul_pd(rhi, rhi);
  const __m256d hi = _mm256_fmadd_pd(rhi2, coefficient(0), r);
  __m256d lo = _mm256_fmadd_pd(rhi2, coefficient(0), _mm256_sub_pd(r, hi));
  lo = _mm256_fmadd_pd(_mm256_mul_pd(coefficient(0), rlo), _mm256_add_pd(r, rhi), lo);
  return _mm256_add_pd(hi, _mm256_fmadd_pd(p, r3, lo));
}

// util::fma_log in four lanes, step for step, on its domain (positive,
// normal, finite x). AVX2 has no 64-bit arithmetic shift and no int64
// -> double conversion, but k = (int64)tmp >> 52 fits the high 32-bit
// half of tmp: shift the halves by 20 and convert the odd ones. Each
// lane's {1/c, log c} is one 16-byte load; two gathers made the finish
// 1.6-2x slower (EXPERIMENTS.md). At x == 1 the near-1 polynomial
// itself returns +0, the value fma_log's early return gives.
__m256d fma_log_avx2(__m256d x) {
  const util::FmaLogData& data = util::kFmaLogData;
  const __m256i ix = _mm256_castpd_si256(x);
  const __m256i tmp = _mm256_sub_epi64(
      ix, _mm256_set1_epi64x(static_cast<long long>(util::kFmaLogOff)));
  alignas(32) std::uint64_t index[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(index),
                     _mm256_and_si256(_mm256_srli_epi64(tmp, 52 - util::FmaLogData::kTableBits),
                                      _mm256_set1_epi64x((1 << util::FmaLogData::kTableBits) - 1)));
  const __m128i k = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      _mm256_srai_epi32(tmp, 20), _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7)));
  const __m256d kd = _mm256_cvtepi32_pd(k);
  const __m256d z = _mm256_castsi256_pd(_mm256_sub_epi64(
      ix, _mm256_and_si256(tmp, _mm256_set1_epi64x(static_cast<long long>(0xfff0000000000000)))));
  const auto entry = [&](int lane) { return _mm_load_pd(&data.table[index[lane]].invc); };
  const __m256d entries02 = _mm256_set_m128d(entry(2), entry(0));  // invc0 logc0 invc2 logc2
  const __m256d entries13 = _mm256_set_m128d(entry(3), entry(1));  // invc1 logc1 invc3 logc3
  const __m256d invc = _mm256_unpacklo_pd(entries02, entries13);
  const __m256d logc = _mm256_unpackhi_pd(entries02, entries13);

  const double* a = data.poly;
  const auto coefficient = [a](int i) { return _mm256_set1_pd(a[i]); };
  const __m256d w = _mm256_fmadd_pd(kd, _mm256_set1_pd(data.ln2hi), logc);
  const __m256d r = _mm256_fmadd_pd(z, invc, _mm256_set1_pd(-1.0));
  const __m256d hi = _mm256_add_pd(r, w);
  const __m256d lo = _mm256_fmadd_pd(kd, _mm256_set1_pd(data.ln2lo),
                                     _mm256_add_pd(_mm256_sub_pd(w, hi), r));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d p = _mm256_fmadd_pd(_mm256_fmadd_pd(r, coefficient(4), coefficient(3)), r2,
                                    _mm256_fmadd_pd(r, coefficient(2), coefficient(1)));
  const __m256d y = _mm256_add_pd(
      _mm256_fmadd_pd(_mm256_mul_pd(r, r2), p, _mm256_fmadd_pd(r2, coefficient(0), lo)), hi);

  // fma_log's unsigned test ix - lo < hi - lo holds exactly when
  // lo <= x < hi as doubles: both are false for negative x and NaN, and
  // non-negative doubles order like their bits.
  const __m256d near_mask = _mm256_and_pd(
      _mm256_cmp_pd(x, _mm256_set1_pd(std::bit_cast<double>(util::kFmaLogNearOneLo)),
                    _CMP_GE_OQ),
      _mm256_cmp_pd(x, _mm256_set1_pd(std::bit_cast<double>(util::kFmaLogNearOneHi)),
                    _CMP_LT_OQ));
  if (_mm256_movemask_pd(near_mask) == 0) return y;
  return _mm256_blendv_pd(y, fma_log_near_one_avx2(x), near_mask);
}

void polar_finish_avx2(double* pairs, std::size_t count) {
  // Four pairs per step, with normal()'s operation order: s, log(s),
  // the quotient, the square root and the two products all run in
  // lanes. The tail takes the scalar reference.
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    double* p = pairs + 2 * k;
    const __m256d lo = _mm256_loadu_pd(p);         // u0 v0 u1 v1
    const __m256d hi = _mm256_loadu_pd(p + 4);     // u2 v2 u3 v3
    const __m256d u = _mm256_unpacklo_pd(lo, hi);  // u0 u2 u1 u3
    const __m256d v = _mm256_unpackhi_pd(lo, hi);  // v0 v2 v1 v3
    const __m256d s = _mm256_add_pd(_mm256_mul_pd(u, u), _mm256_mul_pd(v, v));
    const __m256d factor =
        _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(minus_two, fma_log_avx2(s)), s));
    const __m256d u_out = _mm256_mul_pd(u, factor);
    const __m256d v_out = _mm256_mul_pd(v, factor);
    _mm256_storeu_pd(p, _mm256_unpacklo_pd(u_out, v_out));      // u0 v0 u1 v1
    _mm256_storeu_pd(p + 4, _mm256_unpackhi_pd(u_out, v_out));  // u2 v2 u3 v3
  }
  util::Xoshiro256::polar_finish(pairs + 2 * k, count - k);
}

// Four xoshiro256** generators, one per lane: word w of lane k's state
// is lane k of s<w>.
struct LaneGenerators {
  __m256i s0, s1, s2, s3;
};

template <int k>
__m256i rotl_lanes(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// util::Xoshiro256::next in lanes. AVX2 has no 64-bit multiply, so x·5
// and x·9 are x + (x << 2) and x + (x << 3), the same values mod 2^64.
// Forced inline: called out of line, the accept loop keeps the state in
// memory and runs at half speed.
[[gnu::always_inline]] inline __m256i next_lanes(LaneGenerators& g) {
  const __m256i times5 = _mm256_add_epi64(g.s1, _mm256_slli_epi64(g.s1, 2));
  const __m256i rotated = rotl_lanes<7>(times5);
  const __m256i result = _mm256_add_epi64(rotated, _mm256_slli_epi64(rotated, 3));
  const __m256i t = _mm256_slli_epi64(g.s1, 17);
  g.s2 = _mm256_xor_si256(g.s2, g.s0);
  g.s3 = _mm256_xor_si256(g.s3, g.s1);
  g.s1 = _mm256_xor_si256(g.s1, g.s2);
  g.s0 = _mm256_xor_si256(g.s0, g.s3);
  g.s2 = _mm256_xor_si256(g.s2, t);
  g.s3 = rotl_lanes<45>(g.s3);
  return result;
}

// uniform(-1.0, 1.0) of output r in lanes, with the scalar expressions
// and order: -1.0 + 2.0 * (double(r >> 11) * 2^-53). AVX2 has no
// u64 -> double conversion, but x = r >> 11 < 2^53 converts exactly
// from its 32-bit halves: setting an exponent above each half gives
// 2^84 + hi·2^32 and 2^52 + lo, and (2^84 + hi·2^32 - (2^84 + 2^52)) +
// (2^52 + lo) is x with no rounding in either step.
[[gnu::always_inline]] inline __m256d uniform_pm1_lanes(__m256i r) {
  const __m256i x = _mm256_srli_epi64(r, 11);
  const __m256d high = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(x, 32), _mm256_set1_epi64x(0x4530000000000000)));
  const __m256d low = _mm256_castsi256_pd(
      _mm256_blend_epi32(x, _mm256_set1_epi64x(0x4330000000000000), 0b10101010));
  const __m256d value =
      _mm256_add_pd(_mm256_sub_pd(high, _mm256_set1_pd(0x1.00000001p84)), low);
  return _mm256_add_pd(
      _mm256_set1_pd(-1.0),
      _mm256_mul_pd(_mm256_set1_pd(2.0), _mm256_mul_pd(value, _mm256_set1_pd(0x1.0p-53))));
}

using util::Xoshiro256;

constexpr std::size_t kBlockCount = std::size(kPolarAcceptBlocks);

// x^(k·L) mod P for lanes k = 1..3 of each block length L, derived at
// compile time.
constexpr auto kLaneJumps = [] {
  std::array<std::array<Xoshiro256::Gf2Poly, 3>, kBlockCount> jumps{};
  for (std::size_t block = 0; block < kBlockCount; ++block) {
    for (std::size_t k = 1; k <= 3; ++k) {
      jumps[block][k - 1] = Xoshiro256::jump_polynomial(k * kPolarAcceptBlocks[block]);
    }
  }
  return jumps;
}();

// One chunk of block length L: lane k draws the L/2 candidates of the
// k-th block of L outputs from `state`, keeping its accepted pairs from
// pair k·L/2 of `pairs` on, and the lanes are then concatenated in
// stream order. The caller wants at least 2L pairs, so every candidate
// may be accepted. Leaves `state` 4L outputs on, where lane 3 stopped,
// and returns the number of pairs accepted.
std::size_t accept_chunk(std::uint64_t* state, double* pairs, std::size_t length,
                         const std::array<Xoshiro256::Gf2Poly, 3>& jumps) {
  // Lane k starts at the XOR of the states state + i at the set bits i
  // of x^(k·L) mod P. Each state is stored as one vector and all 256
  // before the first load: four scalar stores per state take four
  // times as long, and a vector load right behind them stalls on store
  // forwarding.
  __m256i walk[256];
  std::uint64_t words[4] = {state[0], state[1], state[2], state[3]};
  for (__m256i& entry : walk) {
    entry = _mm256_set_epi64x(static_cast<long long>(words[3]), static_cast<long long>(words[2]),
                              static_cast<long long>(words[1]), static_cast<long long>(words[0]));
    (void)Xoshiro256::next(words);
  }
  __m256i start[4];
  start[0] = walk[0];
  for (std::size_t k = 1; k < 4; ++k) {
    __m256i sum = _mm256_setzero_si256();
    for (std::size_t word = 0; word < 4; ++word) {
      for (std::uint64_t bits = jumps[k - 1][word]; bits != 0; bits &= bits - 1) {
        const auto i = 64 * word + static_cast<std::size_t>(std::countr_zero(bits));
        sum = _mm256_xor_si256(sum, walk[i]);
      }
    }
    start[k] = sum;
  }
  // start[k] holds lane k's four words; transpose to one vector per word.
  const __m256i lanes01_even = _mm256_unpacklo_epi64(start[0], start[1]);  // a0 b0 a2 b2
  const __m256i lanes01_odd = _mm256_unpackhi_epi64(start[0], start[1]);   // a1 b1 a3 b3
  const __m256i lanes23_even = _mm256_unpacklo_epi64(start[2], start[3]);  // c0 d0 c2 d2
  const __m256i lanes23_odd = _mm256_unpackhi_epi64(start[2], start[3]);   // c1 d1 c3 d3
  LaneGenerators g = {
      _mm256_permute2x128_si256(lanes01_even, lanes23_even, 0x20),
      _mm256_permute2x128_si256(lanes01_odd, lanes23_odd, 0x20),
      _mm256_permute2x128_si256(lanes01_even, lanes23_even, 0x31),
      _mm256_permute2x128_si256(lanes01_odd, lanes23_odd, 0x31),
  };

  // The reference loop's compaction per lane: each candidate is stored
  // at its lane's next free slot, which advances only on acceptance.
  const std::size_t candidates = length / 2;
  double* out0 = pairs;
  double* out1 = pairs + 2 * candidates;
  double* out2 = pairs + 4 * candidates;
  double* out3 = pairs + 6 * candidates;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t i = 0; i < candidates; ++i) {
    const __m256d u = uniform_pm1_lanes(next_lanes(g));
    const __m256d v = uniform_pm1_lanes(next_lanes(g));
    const __m256d s = _mm256_add_pd(_mm256_mul_pd(u, u), _mm256_mul_pd(v, v));
    const int accepted = _mm256_movemask_pd(_mm256_and_pd(
        _mm256_cmp_pd(s, one, _CMP_LT_OQ), _mm256_cmp_pd(s, zero, _CMP_NEQ_UQ)));
    const __m256d pairs02 = _mm256_unpacklo_pd(u, v);  // u0 v0 u2 v2
    const __m256d pairs13 = _mm256_unpackhi_pd(u, v);  // u1 v1 u3 v3
    _mm_storeu_pd(out0, _mm256_castpd256_pd128(pairs02));
    _mm_storeu_pd(out1, _mm256_castpd256_pd128(pairs13));
    _mm_storeu_pd(out2, _mm256_extractf128_pd(pairs02, 1));
    _mm_storeu_pd(out3, _mm256_extractf128_pd(pairs13, 1));
    // Lane k advances by 2 · bit k of the mask.
    out0 += (accepted << 1) & 2;
    out1 += accepted & 2;
    out2 += (accepted >> 1) & 2;
    out3 += (accepted >> 2) & 2;
  }
  state[0] = static_cast<std::uint64_t>(_mm256_extract_epi64(g.s0, 3));
  state[1] = static_cast<std::uint64_t>(_mm256_extract_epi64(g.s1, 3));
  state[2] = static_cast<std::uint64_t>(_mm256_extract_epi64(g.s2, 3));
  state[3] = static_cast<std::uint64_t>(_mm256_extract_epi64(g.s3, 3));
  const double* const ends[4] = {out0, out1, out2, out3};
  double* end = out0;
  for (std::size_t k = 1; k < 4; ++k) {
    const double* first = pairs + 2 * k * candidates;
    const auto values = static_cast<std::size_t>(ends[k] - first);
    std::memmove(end, first, values * sizeof(double));
    end += values;
  }
  return static_cast<std::size_t>(end - pairs) / 2;
}

void polar_accept_avx2(std::uint64_t* state, double* pairs, std::size_t count) {
  // Largest blocks first; the reference loop draws what they leave.
  std::size_t accepted = 0;
  for (std::size_t block = 0; block < kBlockCount; ++block) {
    const std::size_t length = kPolarAcceptBlocks[block];
    while (count - accepted >= 2 * length) {
      accepted += accept_chunk(state, pairs + 2 * accepted, length, kLaneJumps[block]);
    }
  }
  Xoshiro256::polar_accept(state, pairs + 2 * accepted, count - accepted);
}

}  // namespace

const KernelTable kAvx2Kernels = {
    demosaic_code_row_avx2, row_lab_rgb_sums_avx2, vignette_signal_avx2,
    shot_sigma_avx2,        delta_e_ab_avx2,       polar_finish_avx2,
    polar_accept_avx2,
};

}  // namespace colorbars::simd::detail
