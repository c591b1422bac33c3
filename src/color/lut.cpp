#include "colorbars/color/lut.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "colorbars/color/cie.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace colorbars::color {

namespace {

constexpr double kEpsilon = 216.0 / 24389.0;  // (6/29)^3
constexpr double kKappa = 24389.0 / 27.0;     // (29/3)^3

double lab_f_exact(double t) noexcept {
  if (t > kEpsilon) return std::cbrt(t);
  return (kKappa * t + 16.0) / 116.0;
}

// f() samples over [0, 1]. 4096 intervals keep the interpolation error
// below 5e-6 even at the knee, where the curvature is largest.
constexpr int kLabFSamples = kLabFTableSamples;

struct LabFTable {
  std::array<double, kLabFSamples> values{};
  LabFTable() {
    for (int i = 0; i < kLabFSamples; ++i) {
      values[static_cast<std::size_t>(i)] =
          lab_f_exact(static_cast<double>(i) / (kLabFSamples - 1));
    }
  }
};

const LabFTable& lab_f_table() noexcept {
  static const LabFTable table;
  return table;
}

// Per-channel pixel -> white-normalized XYZ contribution tables:
// channel_xyz[c][v] = decode(v) * (column c of sRGB->XYZ) / D65 white.
struct ChannelTables {
  std::array<std::array<Vec3, 256>, 3> contributions{};
  ChannelTables() {
    const Mat3& m = srgb_to_xyz_matrix();
    const XYZ white = d65_white_xyz();
    const std::array<double, 256>& decode = srgb_decode_table();
    for (int channel = 0; channel < 3; ++channel) {
      const auto c = static_cast<std::size_t>(channel);
      const Vec3 column{m(0, c) / white.x, m(1, c) / white.y, m(2, c) / white.z};
      for (int v = 0; v < 256; ++v) {
        contributions[c][static_cast<std::size_t>(v)] =
            column * decode[static_cast<std::size_t>(v)];
      }
    }
  }
};

const ChannelTables& channel_tables() noexcept {
  static const ChannelTables tables;
  return tables;
}

/// The reference scalar chain quantize_srgb_channel must reproduce:
/// clamp -> gamma encode -> clamp -> round to the nearest 8-bit code.
std::uint8_t reference_srgb_code(double linear) noexcept {
  const double encoded = std::clamp(srgb_encode(std::clamp(linear, 0.0, 1.0)), 0.0, 1.0);
  return static_cast<std::uint8_t>(std::lround(encoded * 255.0));
}

// The per-bucket quantizer tables (lut.hpp). The code boundaries are
// found by bisection: boundaries[c] is the smallest double whose
// reference code is >= c+1 (the encode chain is monotone), and
// boundaries[255] is a +inf sentinel. Each bucket then stores its floor
// code and the boundary just above it, so a lookup reads two entries
// indexed by the bucket alone instead of a floor and then the boundary
// that floor names. The encode slope never exceeds 12.92, so there are
// at most 12.92 * 255 ~ 3295 codes per unit — fewer than the 4096
// buckets — and each bucket holds at most one boundary above its floor:
// one compare finishes every lookup. This function checks that
// invariant, so a table change that breaks it terminates the program at
// the first lookup instead of silently misquantizing.
SrgbQuantTables build_quant_tables() {
  constexpr int kBuckets = SrgbQuantTables::kBuckets;
  std::array<double, 256> boundaries{};
  for (int code = 0; code < 255; ++code) {
    double lo = 0.0;   // reference code 0 <= code
    double hi = 1.0;   // reference code 255 >= code+1
    for (;;) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      if (reference_srgb_code(mid) >= code + 1) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    boundaries[static_cast<std::size_t>(code)] = hi;
  }
  boundaries[255] = std::numeric_limits<double>::infinity();
  SrgbQuantTables tables;
  for (int k = 0; k <= kBuckets; ++k) {
    const double x = static_cast<double>(k) / kBuckets;
    const auto below = std::upper_bound(boundaries.begin(), boundaries.end() - 1, x);
    const auto floor = static_cast<std::size_t>(below - boundaries.begin());
    tables.bucket_floor[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(floor);
    tables.bucket_boundary[static_cast<std::size_t>(k)] = boundaries[floor];
    // Bucket k covers [k/4096, (k+1)/4096): the boundary after the
    // stored one must lie at or past its end.
    if (k < kBuckets && floor + 1 < 255 &&
        boundaries[floor + 1] < static_cast<double>(k + 1) / kBuckets) {
      throw std::logic_error("SrgbQuantTables: a bucket holds two code boundaries");
    }
  }
  return tables;
}

/// linear clamped to [0, 1], with NaN and every non-positive input
/// (-0.0 included) at +0.0: std::min(std::max(0.0, linear), 1.0), bit
/// for bit, without a branch. Compilers keep that pair as two
/// compare-and-branch pairs on x86, and a rendered frame puts several
/// percent of its channels exactly on a clamp. maxsd returns its second
/// operand when either input is NaN or both are zeros, and minsd
/// likewise, so with the operands in this order they are exactly the
/// std:: pair. SSE2 is baseline on x86-64; other targets compile the
/// portable pair.
inline double clamp_unit(double linear) noexcept {
#if defined(__SSE2__)
  const __m128d low = _mm_max_sd(_mm_set_sd(linear), _mm_setzero_pd());
  return _mm_cvtsd_f64(_mm_min_sd(low, _mm_set_sd(1.0)));
#else
  return std::min(std::max(0.0, linear), 1.0);
#endif
}

/// The branch-free lookup (SrgbQuantTables). The clamp keeps x * 4096
/// in [0, 4096], so the bucket index never leaves the tables. The
/// index converts through int, one instruction on x86-64 where a
/// size_t conversion needs a range branch.
inline std::uint8_t quantize_code(const SrgbQuantTables& tables, double linear) noexcept {
  const double x = clamp_unit(linear);
  const auto bucket = static_cast<std::size_t>(static_cast<int>(x * SrgbQuantTables::kBuckets));
  return static_cast<std::uint8_t>(tables.bucket_floor[bucket] +
                                   (tables.bucket_boundary[bucket] <= x ? 1 : 0));
}

}  // namespace

const SrgbQuantTables& srgb_quant_tables() noexcept {
  static const SrgbQuantTables tables = build_quant_tables();
  return tables;
}

const std::array<double, kLabFTableSamples>& lab_f_table_values() noexcept {
  return lab_f_table().values;
}

const std::array<std::array<Vec3, 256>, 3>& rgb8_lab_contributions() noexcept {
  return channel_tables().contributions;
}

const std::array<double, 256>& srgb_decode_table() noexcept {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> t{};
    for (int v = 0; v < 256; ++v) {
      t[static_cast<std::size_t>(v)] = srgb_decode(v / 255.0);
    }
    return t;
  }();
  return table;
}

Vec3 linear_of_rgb8(const Rgb8& pixel) noexcept {
  const std::array<double, 256>& table = srgb_decode_table();
  return {table[pixel.r], table[pixel.g], table[pixel.b]};
}

double lab_f_fast(double t) noexcept {
  // Written so NaN fails it too: NaN takes the exact path (and returns
  // NaN) instead of converting to an out-of-table index.
  if (!(t >= 0.0 && t <= 1.0)) return lab_f_exact(t);
  const double scaled = t * (kLabFSamples - 1);
  const int index = static_cast<int>(scaled);
  if (index >= kLabFSamples - 1) return lab_f_table().values[kLabFSamples - 1];
  const double fraction = scaled - index;
  const std::array<double, kLabFSamples>& values = lab_f_table().values;
  const auto i = static_cast<std::size_t>(index);
  return values[i] + (values[i + 1] - values[i]) * fraction;
}

Lab rgb8_to_lab_fast(const Rgb8& pixel) noexcept {
  const ChannelTables& tables = channel_tables();
  // White-normalized XYZ as the sum of the three channel contributions.
  const Vec3 ratio = tables.contributions[0][pixel.r] +
                     tables.contributions[1][pixel.g] +
                     tables.contributions[2][pixel.b];
  const double fx = lab_f_fast(ratio.x);
  const double fy = lab_f_fast(ratio.y);
  const double fz = lab_f_fast(ratio.z);
  return {116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)};
}

std::uint8_t quantize_srgb_channel(double linear) noexcept {
  return quantize_code(srgb_quant_tables(), linear);
}

Rgb8 quantize_srgb(const Vec3& linear) noexcept {
  const SrgbQuantTables& tables = srgb_quant_tables();
  return {quantize_code(tables, linear.x), quantize_code(tables, linear.y),
          quantize_code(tables, linear.z)};
}

void quantize_srgb_row(std::span<const Vec3> linear, std::span<Rgb8> out) noexcept {
  const SrgbQuantTables& tables = srgb_quant_tables();
  const std::size_t count = std::min(linear.size(), out.size());
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = {quantize_code(tables, linear[i].x), quantize_code(tables, linear[i].y),
              quantize_code(tables, linear[i].z)};
  }
}

}  // namespace colorbars::color
