#pragma once

// Table-driven fast path for the receiver's per-pixel color chain
// (Rgb8 -> sRGB decode -> XYZ -> CIELab). The chain dominates
// `reduce_to_scanlines`, which runs over every pixel of every frame:
//
//  - sRGB decode of an 8-bit channel has only 256 possible inputs, so a
//    256-entry table replaces the std::pow in srgb_decode *exactly*.
//  - The matrix multiply and the D65 white normalization fold into three
//    256-entry Vec3 tables (one per channel): X/Xn,Y/Yn,Z/Zn of a pixel
//    is the sum of its three channel contributions.
//  - The CIE f() cube-root transfer is evaluated from a dense linearly
//    interpolated table. f is C1 everywhere on [0, 1] (the linear toe
//    matches value and slope at the 216/24389 knee), so interpolation
//    error is bounded by the curvature: < 1e-5 in f, well under the
//    8-bit quantization floor of the inputs.
//
// The fast chain agrees with the exact chain to within ~1e-3 Lab units
// (verified by color_lut_test), two orders of magnitude below the
// ΔE ≈ 2.3 just-noticeable-difference the receiver classifies against.

#include <array>
#include <cstdint>
#include <span>

#include "colorbars/color/lab.hpp"
#include "colorbars/color/srgb.hpp"

namespace colorbars::color {

/// Exact linear value of each 8-bit sRGB code (srgb_decode(v / 255)).
[[nodiscard]] const std::array<double, 256>& srgb_decode_table() noexcept;

/// Number of samples of the interpolated CIE f() table (4096 intervals
/// over [0, 1], endpoints included).
inline constexpr int kLabFTableSamples = 4097;

/// The raw f() sample table behind lab_f_fast, exposed so the SIMD
/// backends can gather from the exact same values the scalar chain
/// interpolates (byte-identity requires sharing the table, not
/// rebuilding it).
[[nodiscard]] const std::array<double, kLabFTableSamples>& lab_f_table_values() noexcept;

/// The per-channel pixel -> white-normalized-XYZ contribution tables
/// behind rgb8_to_lab_fast: contributions[channel][code] is the XYZ/Wn
/// contribution of an 8-bit channel value. Exposed for the same
/// byte-identity reason as lab_f_table_values.
[[nodiscard]] const std::array<std::array<Vec3, 256>, 3>&
rgb8_lab_contributions() noexcept;

/// Exact linear RGB of an 8-bit pixel via the decode table.
[[nodiscard]] Vec3 linear_of_rgb8(const Rgb8& pixel) noexcept;

/// CIE Lab f() transfer via the interpolated table (inputs outside
/// [0, 1], NaN included, fall back to the exact evaluation).
[[nodiscard]] double lab_f_fast(double t) noexcept;

/// Fast Rgb8 -> Lab: decode + matrix + white normalization from tables,
/// f() interpolated. Agrees with
/// xyz_to_lab(linear_srgb_to_xyz(srgb_decode(from_rgb8(p)))) to within
/// the tolerance documented above.
[[nodiscard]] Lab rgb8_to_lab_fast(const Rgb8& pixel) noexcept;

/// The lookup tables behind quantize_srgb_channel, exposed so the SIMD
/// demosaic kernels quantize from the exact same entries (the same
/// byte-identity reason as lab_f_table_values). Bucket k covers linear
/// inputs [k / kBuckets, (k + 1) / kBuckets); the last bucket holds 1.0
/// alone. bucket_floor[k] is the code of k / kBuckets, and
/// bucket_boundary[k] the smallest input whose code is one higher (+inf
/// in the buckets whose floor is 255). No bucket holds a second
/// boundary, so an input x clamped to [0, 1], NaN to 0, has the code
///   bucket_floor[k] + (bucket_boundary[k] <= x ? 1 : 0),
/// k = int(x * kBuckets): two loads indexed by k alone, one compare.
struct SrgbQuantTables {
  static constexpr int kBuckets = 4096;
  alignas(64) std::array<double, kBuckets + 1> bucket_boundary{};
  std::array<std::uint8_t, kBuckets + 1> bucket_floor{};
};

[[nodiscard]] const SrgbQuantTables& srgb_quant_tables() noexcept;

/// Fused sRGB encode + 8-bit quantization of one linear channel.
/// Returns *exactly* to_rgb8(srgb_encode(...)) for every input — the 255
/// code-decision boundaries are located once by bisecting the exact
/// encode chain, so the hot path needs no std::pow at all: a clamp, a
/// bucket lookup and a single compare, with no branch. NaN maps to
/// code 0.
[[nodiscard]] std::uint8_t quantize_srgb_channel(double linear) noexcept;

/// Fused encode + quantization of a linear RGB pixel; bit-identical to
/// to_rgb8(srgb_encode(linear)).
[[nodiscard]] Rgb8 quantize_srgb(const Vec3& linear) noexcept;

/// quantize_srgb over a row: out[i] = quantize_srgb(linear[i]) for i
/// below min(linear.size(), out.size()).
void quantize_srgb_row(std::span<const Vec3> linear, std::span<Rgb8> out) noexcept;

}  // namespace colorbars::color
