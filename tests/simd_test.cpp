// The simd kernel layer's contract is byte-identity: every compiled
// backend must reproduce the scalar reference bit for bit on every
// input it can see — including misaligned ROI starts, odd widths and
// vector-width remainders — so that runtime dispatch can never change a
// capture, a golden hash, or a decode. These tests prove it per kernel
// (exhaustively for the Rgb8→Lab chain, with every misalignment offset
// 0–31 for the row kernels, randomized frames for the rest), plus the
// capture-arena plumbing that rides on the layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <span>
#include <random>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/camera/profile.hpp"
#include "colorbars/color/lut.hpp"
#include "colorbars/color/srgb.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/protocol/symbols.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/simd/simd.hpp"
#include "colorbars/util/arena.hpp"
#include "colorbars/util/fma_log.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars {
namespace {

/// Restores the dispatched backend when a test scope ends.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_backend()) {}
  ~BackendGuard() { simd::set_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  simd::Backend saved_;
};

/// Every non-scalar backend this binary can actually run.
std::vector<simd::Backend> vector_backends() {
  std::vector<simd::Backend> backends;
  for (const simd::Backend backend :
       {simd::Backend::kSse42, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::backend_supported(backend)) backends.push_back(backend);
  }
  return backends;
}

template <typename T>
bool bit_equal(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.

TEST(Simd, BackendProbeAndDispatchControls) {
  BackendGuard guard;
  EXPECT_TRUE(simd::backend_compiled(simd::Backend::kScalar));
  EXPECT_TRUE(simd::backend_supported(simd::Backend::kScalar));
  EXPECT_TRUE(simd::backend_supported(simd::active_backend()));

  EXPECT_TRUE(simd::set_backend(simd::Backend::kScalar));
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);

  for (const simd::Backend backend : vector_backends()) {
    EXPECT_TRUE(simd::set_backend(backend));
    EXPECT_EQ(simd::active_backend(), backend);
    EXPECT_STRNE(simd::backend_name(backend), simd::backend_name(simd::Backend::kScalar));
  }

  // An uncompiled backend is refused and leaves dispatch untouched.
  for (const simd::Backend backend :
       {simd::Backend::kSse42, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::backend_compiled(backend)) continue;
    const simd::Backend before = simd::active_backend();
    EXPECT_FALSE(simd::set_backend(backend));
    EXPECT_EQ(simd::active_backend(), before);
  }
}

// ---------------------------------------------------------------------------
// Kernel byte-identity vs the scalar reference.

TEST(Simd, Rgb8LabChainMatchesScalarExhaustively) {
  // Every (r, g, b) in 256^3, swept as 65536 rows of 256 pixels (b
  // varies within a row). The scalar backend's row sums must be
  // bit-equal to the color chain itself — rgb8_to_lab_fast and
  // from_rgb8 summed in pixel order — and every vector backend's to the
  // scalar ones. That pins every per-pixel LUT lookup, lerp and
  // accumulation step of every backend to the chain, so this runs even
  // when no vector backend is compiled.
  //
  // The sweep also pins the one exception the kernels decide from the
  // codes: pure white is the only pixel whose white-normalized X, Y or Z
  // sum leaves [0, 1], where lab_f_fast takes the exact cube root. A
  // table change that moves another code out of range fails here by
  // name, not as a bare byte mismatch.
  const std::vector<simd::Backend> backends = vector_backends();
  BackendGuard guard;
  const auto& contributions = color::rgb8_lab_contributions();
  const auto in_unit_range = [](double t) { return t >= 0.0 && t <= 1.0; };

  std::vector<color::Rgb8> row(256);
  for (int r = 0; r < 256; ++r) {
    for (int g = 0; g < 256; ++g) {
      simd::RowSums chain;
      for (int b = 0; b < 256; ++b) {
        const color::Rgb8 pixel{static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(g),
                                static_cast<std::uint8_t>(b)};
        row[static_cast<std::size_t>(b)] = pixel;
        const util::Vec3 ratio = contributions[0][pixel.r] + contributions[1][pixel.g] +
                                 contributions[2][pixel.b];
        const bool leaves_range =
            !in_unit_range(ratio.x) || !in_unit_range(ratio.y) || !in_unit_range(ratio.z);
        const bool white = r == 255 && g == 255 && b == 255;
        ASSERT_EQ(leaves_range, white)
            << "the codes whose X/Xn, Y/Yn or Z/Zn sum leaves [0, 1] are no longer "
               "exactly pure white: (" << r << ", " << g << ", " << b << ") sums to ("
            << std::setprecision(17) << ratio.x << ", " << ratio.y << ", " << ratio.z << ")";
        const color::Lab lab = color::rgb8_to_lab_fast(pixel);
        const util::Vec3 encoded = color::from_rgb8(pixel);
        chain.l += lab.L;
        chain.a += lab.a;
        chain.b += lab.b;
        chain.r += encoded.x;
        chain.g += encoded.y;
        chain.bb += encoded.z;
      }
      ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
      simd::RowSums reference;
      simd::row_lab_rgb_sums(row.data(), 256, reference);
      ASSERT_TRUE(bit_equal(reference, chain))
          << "scalar diverged from the color chain at r=" << r << " g=" << g;
      for (const simd::Backend backend : backends) {
        ASSERT_TRUE(simd::set_backend(backend));
        simd::RowSums sums;
        simd::row_lab_rgb_sums(row.data(), 256, sums);
        ASSERT_TRUE(bit_equal(sums, reference))
            << simd::backend_name(backend) << " diverged at r=" << r << " g=" << g;
      }
    }
  }
}

TEST(Simd, RowSumsEveryMisalignmentOffsetAndOddWidth) {
  // ROI column ranges land the row pointer on arbitrary addresses and
  // widths; every offset 0–31 into a known pixel row, crossed with prime
  // and vector-width-straddling widths, must reduce bit-identically.
  const std::vector<simd::Backend> backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend compiled/supported";
  BackendGuard guard;

  util::Xoshiro256 rng(0x51dee);
  std::vector<color::Rgb8> pixels(256);
  for (auto& pixel : pixels) {
    pixel = {static_cast<std::uint8_t>(rng.below(256)),
             static_cast<std::uint8_t>(rng.below(256)),
             static_cast<std::uint8_t>(rng.below(256))};
  }

  const int widths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 97};
  for (int offset = 0; offset < 32; ++offset) {
    for (const int width : widths) {
      ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
      simd::RowSums reference;
      simd::row_lab_rgb_sums(pixels.data() + offset, width, reference);
      for (const simd::Backend backend : backends) {
        ASSERT_TRUE(simd::set_backend(backend));
        simd::RowSums sums;
        simd::row_lab_rgb_sums(pixels.data() + offset, width, sums);
        ASSERT_TRUE(bit_equal(sums, reference))
            << simd::backend_name(backend) << " offset=" << offset << " width=" << width;
      }
    }
  }
}

TEST(Simd, DemosaicCodeRowMatchesScalarAtEveryOffset) {
  // The demosaic→code kernel against the scalar backend on rows of
  // every width from 1 to 67, both row phases and every misalignment
  // offset 0–7 of the three raw rows and the output. Half the values
  // are the exact 0.0 / 1.0 of a clamped render; the rest are uniform
  // in [-0.05, 1.05), so the quantizer's clamps see both sides.
  const std::vector<simd::Backend> backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend compiled/supported";
  BackendGuard guard;

  util::Xoshiro256 rng(0xba7e2);
  constexpr int kMaxColumns = 67;
  constexpr int kMaxOffset = 8;
  std::vector<double> raw(3 * (kMaxColumns + kMaxOffset));
  for (double& value : raw) {
    value = rng.chance(0.5) ? (rng.chance(0.5) ? 0.0 : 1.0) : rng.uniform(-0.05, 1.05);
  }
  const double* up = raw.data();
  const double* mid = up + kMaxColumns + kMaxOffset;
  const double* down = mid + kMaxColumns + kMaxOffset;
  for (int columns = 1; columns <= kMaxColumns; ++columns) {
    for (int offset = 0; offset < kMaxOffset; ++offset) {
      for (const bool even_row : {true, false}) {
        std::vector<color::Rgb8> reference(kMaxColumns + kMaxOffset, {7, 7, 7});
        ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
        simd::demosaic_code_row(up + offset, mid + offset, down + offset, columns, even_row,
                                reference.data() + offset);
        for (const simd::Backend backend : backends) {
          ASSERT_TRUE(simd::set_backend(backend));
          std::vector<color::Rgb8> out(reference.size(), {7, 7, 7});
          simd::demosaic_code_row(up + offset, mid + offset, down + offset, columns,
                                  even_row, out.data() + offset);
          ASSERT_EQ(out, reference) << simd::backend_name(backend) << " columns=" << columns
                                    << " offset=" << offset << " even_row=" << even_row;
        }
      }
    }
  }
}

/// A pair (u, v) whose polar s = u·u + v·v rounds to exactly `target`:
/// u steps through the doubles around sqrt(target - v·v) for v = 0 and a
/// few v whose square is a small multiple of an ulp of `target`.
std::pair<double, double> pair_with_s(double target) {
  const int exponent = std::ilogb(target) - 52;
  std::vector<double> vs = {0.0};
  for (int q = (exponent - 2) / 2 - 1; q <= (exponent + 4) / 2; ++q) {
    for (const double mantissa : {1.0, 1.25, 1.5, 1.75}) vs.push_back(std::ldexp(mantissa, q));
  }
  for (const double v : vs) {
    double u = std::sqrt(target - v * v);
    for (int step = 0; step < 4; ++step) u = std::nextafter(u, 0.0);
    for (int step = 0; step < 9; ++step, u = std::nextafter(u, 2.0)) {
      if (u * u + v * v == target) return {u, v};
    }
  }
  ADD_FAILURE() << "no pair found for s = " << std::hexfloat << target;
  return {0.5, 0.5};
}

TEST(Simd, PolarFinishMatchesReferenceAtEveryCount) {
  // The vector polar finish against Xoshiro256::polar_finish, bit for
  // bit, on accepted pairs from a real accept loop (0 < s < 1) and on
  // the extremes: s a hair above 0 and a hair below 1. Counts up to 44
  // cover every vector tail, at every offset 0–3 of the pair buffer.
  BackendGuard guard;
  util::Xoshiro256 rng(0x901a);
  std::vector<double> pairs;
  while (pairs.size() < 2 * 48) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s < 1.0 && s != 0.0) pairs.insert(pairs.end(), {u, v});
  }
  pairs[2] = 0x1p-30;
  pairs[3] = -0x1p-31;
  pairs[4] = std::nextafter(std::sqrt(0.5), 0.0);
  pairs[5] = -std::nextafter(std::sqrt(0.5), 0.0);
  std::vector<simd::Backend> backends = vector_backends();
  backends.push_back(simd::Backend::kScalar);
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t count = 0; count + offset <= 44; ++count) {
      std::vector<double> reference = pairs;
      util::Xoshiro256::polar_finish(reference.data() + 2 * offset, count);
      for (const simd::Backend backend : backends) {
        ASSERT_TRUE(simd::set_backend(backend));
        std::vector<double> out = pairs;
        simd::polar_finish(out.data() + 2 * offset, count);
        ASSERT_EQ(std::memcmp(out.data(), reference.data(), out.size() * sizeof(double)), 0)
            << simd::backend_name(backend) << " offset=" << offset << " count=" << count;
      }
    }
  }

  // The branches of util::fma_log, which the AVX2 lanes replicate: s on
  // the near-1 path at each pair position of a four-pair step (and at
  // all four), on both bounds of that path ±1 ulp, on every edge ±1 ulp
  // of the 128 table subintervals in a few binades, the smallest s the
  // accept loop can produce (2^-104) and the largest (just below 1).
  // Then 2^16 accepted pairs on each path: unfusing the near-1 path's
  // last fma in the lanes changes about 1.3 results in 10^4 near-1
  // inputs, which the handful of pairs above would miss.
  std::vector<double> targets;
  const auto add_bits = [&](std::uint64_t bits) {
    for (const std::uint64_t b : {bits - 1, bits, bits + 1}) {
      const double s = std::bit_cast<double>(b);
      if (s >= 0x1p-104 && s < 1.0) targets.push_back(s);
    }
  };
  for (int position = 0; position <= 4; ++position) {
    for (int pair = 0; pair < 4; ++pair) {
      const bool near_one = position == 4 || pair == position;
      targets.push_back(near_one ? 0.96 + 0.01 * pair : 0.3 + 0.1 * pair);
    }
  }
  add_bits(util::kFmaLogNearOneLo);
  add_bits(util::kFmaLogNearOneHi);
  // Subinterval edges of s = 2^k z, z in [0x1.6p-1, 0x1.6p+0).
  for (const int k : {-103, -52, -19, -1, 0}) {
    for (std::uint64_t edge = 0; edge < (1u << util::FmaLogData::kTableBits); ++edge) {
      add_bits(util::kFmaLogOff + (static_cast<std::uint64_t>(k) << 52) +
               (edge << (52 - util::FmaLogData::kTableBits)));
    }
  }
  targets.push_back(0x1p-104);
  targets.push_back(std::nextafter(1.0, 0.0));
  std::vector<double> branch_pairs;
  for (const double target : targets) {
    const auto [u, v] = pair_with_s(target);
    branch_pairs.insert(branch_pairs.end(), {u, v});
  }
  constexpr std::size_t kPerPath = 1 << 16;
  std::size_t near_one_count = 0;
  std::size_t table_count = 0;
  while (near_one_count < kPerPath || table_count < kPerPath) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (!(s < 1.0 && s != 0.0)) continue;
    const bool near_one = std::bit_cast<std::uint64_t>(s) - util::kFmaLogNearOneLo <
                          util::kFmaLogNearOneHi - util::kFmaLogNearOneLo;
    std::size_t& filled = near_one ? near_one_count : table_count;
    if (filled == kPerPath) continue;
    ++filled;
    branch_pairs.insert(branch_pairs.end(), {u, v});
  }
  const std::size_t branch_count = branch_pairs.size() / 2;
  for (std::size_t offset = 0; offset < 4; ++offset) {
    std::vector<double> reference = branch_pairs;
    util::Xoshiro256::polar_finish(reference.data() + 2 * offset, branch_count - offset);
    for (const simd::Backend backend : backends) {
      ASSERT_TRUE(simd::set_backend(backend));
      std::vector<double> out = branch_pairs;
      simd::polar_finish(out.data() + 2 * offset, branch_count - offset);
      ASSERT_EQ(std::memcmp(out.data(), reference.data(), out.size() * sizeof(double)), 0)
          << simd::backend_name(backend) << " branch pairs at offset=" << offset;
    }
  }
}

TEST(Simd, PolarAcceptMatchesReferenceAtEveryCount) {
  // The dispatched accept loop against Xoshiro256::polar_accept, bit for
  // bit: the same pairs, nothing written past them, and the same state
  // left behind, from 50 start states, at every count up to 300, at
  // 2L - 1, 2L and 2L + 1 pairs for every block length L of the lane
  // kernel, and at the render's batch sizes (a whole and a last partial
  // batch of each built-in profile, with and without a cached
  // half-pair).
  BackendGuard guard;
  std::vector<std::size_t> counts;
  for (std::size_t count = 0; count <= 300; ++count) counts.push_back(count);
  for (const std::size_t length : simd::kPolarAcceptBlocks) {
    for (const std::size_t count : {2 * length - 1, 2 * length, 2 * length + 1}) {
      counts.push_back(count);
    }
  }
  for (const camera::SensorProfile& profile :
       {camera::nexus5_profile(), camera::iphone5s_profile(), camera::ideal_profile()}) {
    for (const int rows : {camera::kNoiseBatchRows, profile.rows % camera::kNoiseBatchRows}) {
      const auto pairs = static_cast<std::size_t>(rows) * static_cast<std::size_t>(profile.columns);
      if (pairs > 0) counts.insert(counts.end(), {pairs - 1, pairs});
    }
  }
  std::vector<simd::Backend> backends = vector_backends();
  backends.push_back(simd::Backend::kScalar);
  constexpr double kUnwritten = -7.0;
  constexpr std::size_t kGuardPairs = 4;
  util::Xoshiro256 seeds(0xacce97);
  for (int start_index = 0; start_index < 50; ++start_index) {
    const std::array<std::uint64_t, 4> start = {seeds(), seeds(), seeds(), seeds()};
    for (const std::size_t count : counts) {
      std::array<std::uint64_t, 4> reference_state = start;
      std::vector<double> reference(2 * (count + kGuardPairs), kUnwritten);
      util::Xoshiro256::polar_accept(reference_state.data(), reference.data(), count);
      for (const simd::Backend backend : backends) {
        ASSERT_TRUE(simd::set_backend(backend));
        std::array<std::uint64_t, 4> state = start;
        std::vector<double> out(reference.size(), kUnwritten);
        simd::polar_accept(state.data(), out.data(), count);
        ASSERT_EQ(std::memcmp(out.data(), reference.data(), out.size() * sizeof(double)), 0)
            << simd::backend_name(backend) << " start " << start_index << " count " << count;
        ASSERT_EQ(state, reference_state)
            << simd::backend_name(backend) << " start " << start_index << " count " << count;
      }
    }
  }
}

TEST(Simd, RenderNoiseDrawsMatchReferenceAndFrozenDigest) {
  // 2x10^7 normals drawn as the render draws them: 64 Nexus 5 frames,
  // every other one opened by the auto-exposure normal() that leaves a
  // cached half-pair, each then filled in batches of kNoiseBatchRows
  // rows. Every backend's dispatched accept loop and finish must give
  // the reference path's draws, draw for draw, and an FNV-1a digest pins
  // the reference draws' bits: the golden captures hash 8-bit codes and
  // miss a change to a few draws in 10^7.
  BackendGuard guard;
  const camera::SensorProfile profile = camera::nexus5_profile();
  const auto row_normals = 2 * static_cast<std::size_t>(profile.columns);
  std::vector<simd::Backend> backends = vector_backends();
  backends.push_back(simd::Backend::kScalar);
  util::Xoshiro256 reference(0x5eed);
  std::vector<util::Xoshiro256> dispatched(backends.size(), reference);
  std::vector<double> expected(row_normals * camera::kNoiseBatchRows);
  std::vector<double> drawn(expected.size());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t count = 0;
  for (int frame = 0; frame < 64; ++frame) {
    if (frame % 2 == 0) {
      (void)reference.normal();
      for (util::Xoshiro256& rng : dispatched) (void)rng.normal();
    }
    for (int first = 0; first < profile.rows; first += camera::kNoiseBatchRows) {
      const auto rows = static_cast<std::size_t>(
          std::min(camera::kNoiseBatchRows, profile.rows - first));
      const std::span<double> batch = std::span(expected).first(rows * row_normals);
      reference.fill_normal(batch);
      for (std::size_t b = 0; b < backends.size(); ++b) {
        ASSERT_TRUE(simd::set_backend(backends[b]));
        dispatched[b].fill_normal(std::span(drawn).first(batch.size()), simd::polar_finish,
                                  simd::polar_accept);
        ASSERT_EQ(std::memcmp(drawn.data(), batch.data(), batch.size() * sizeof(double)), 0)
            << simd::backend_name(backends[b]) << " frame " << frame << " row " << first;
      }
      for (const double value : batch) {
        const auto word = std::bit_cast<std::uint64_t>(value);
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= (word >> (8 * byte)) & 0xff;
          hash *= 0x100000001b3ULL;
        }
      }
      count += batch.size();
    }
  }
  const auto next = std::bit_cast<std::uint64_t>(reference.normal());
  for (util::Xoshiro256& rng : dispatched) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal()), next);
  }
  EXPECT_GE(count, 20'000'000u);
  if (!util::polar_log_is_fma_log()) GTEST_SKIP() << "digest pinned for util::fma_log only";
  EXPECT_EQ(hash, 0xa9f2257890f89e36ULL) << "digest 0x" << std::hex << hash;
}

TEST(Simd, VignetteShotSigmaDeltaEMatchScalarAtEveryOffset) {
  const std::vector<simd::Backend> backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend compiled/supported";
  BackendGuard guard;

  util::Xoshiro256 rng(0x7e57);
  constexpr int kColumns = 160;
  std::vector<double> col2(kColumns);
  for (double& value : col2) value = rng.uniform(0.0, 1.0);
  std::vector<double> signal(kColumns);
  for (double& value : signal) value = rng.uniform(-0.1, 1.2);  // negatives hit the clamp
  std::vector<double> ref_a(kColumns), ref_b(kColumns);
  for (int i = 0; i < kColumns; ++i) {
    ref_a[static_cast<std::size_t>(i)] = rng.uniform(-90.0, 90.0);
    ref_b[static_cast<std::size_t>(i)] = rng.uniform(-90.0, 90.0);
  }

  for (int offset = 0; offset < 32; ++offset) {
    for (const int width : {0, 1, 2, 3, 5, 8, 13, 16, 21, 32, 33, 64, 97}) {
      const int end = offset + width;
      ASSERT_LE(end, kColumns);
      for (const double strength : {0.0, 0.4}) {
        ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
        std::vector<double> vignette_ref(kColumns, -1.0);
        simd::vignette_signal_span(col2.data(), offset, end, 0.37, strength, 0.8, 0.25,
                                   vignette_ref.data());
        std::vector<double> sigma_ref(static_cast<std::size_t>(width) + 1, -1.0);
        simd::shot_sigma_row(signal.data() + offset, width, 1.7, 5000.0, sigma_ref.data());
        std::vector<double> delta_ref(static_cast<std::size_t>(width) + 1, -1.0);
        simd::delta_e_ab_many(ref_a.data() + offset, ref_b.data() + offset, width, 12.5,
                              -33.25, delta_ref.data());

        for (const simd::Backend backend : backends) {
          ASSERT_TRUE(simd::set_backend(backend));
          std::vector<double> vignette(kColumns, -1.0);
          simd::vignette_signal_span(col2.data(), offset, end, 0.37, strength, 0.8, 0.25,
                                     vignette.data());
          ASSERT_EQ(std::memcmp(vignette.data(), vignette_ref.data(),
                                vignette.size() * sizeof(double)),
                    0)
              << simd::backend_name(backend) << " vignette offset=" << offset
              << " width=" << width << " strength=" << strength;

          std::vector<double> sigma(sigma_ref.size(), -1.0);
          simd::shot_sigma_row(signal.data() + offset, width, 1.7, 5000.0, sigma.data());
          ASSERT_EQ(
              std::memcmp(sigma.data(), sigma_ref.data(), sigma.size() * sizeof(double)), 0)
              << simd::backend_name(backend) << " sigma offset=" << offset
              << " width=" << width;

          std::vector<double> delta(delta_ref.size(), -1.0);
          simd::delta_e_ab_many(ref_a.data() + offset, ref_b.data() + offset, width, 12.5,
                                -33.25, delta.data());
          ASSERT_EQ(
              std::memcmp(delta.data(), delta_ref.data(), delta.size() * sizeof(double)), 0)
              << simd::backend_name(backend) << " deltaE offset=" << offset
              << " width=" << width;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end byte-identity across backends and thread counts.

TEST(Simd, CaptureAndReductionIdenticalAcrossBackendsAndThreadCounts) {
  BackendGuard guard;
  // A shrunken Nexus-class profile keeps vignette (0.40) and both noise
  // terms in play while staying fast; 33 columns forces odd-width rows
  // through every kernel epilogue.
  camera::SensorProfile profile = camera::nexus5_profile();
  profile.rows = 96;
  profile.columns = 33;

  const led::TriLed led;
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  util::Xoshiro256 symbol_rng(0xfee1);
  std::vector<protocol::ChannelSymbol> slots;
  for (int i = 0; i < 40; ++i) {
    slots.push_back(protocol::ChannelSymbol::data(static_cast<int>(symbol_rng.below(8))));
  }
  const led::EmissionTrace trace = led.emit(protocol::drives_of(slots, constellation), 2000.0);

  const auto capture = [&] {
    camera::RollingShutterCamera camera(profile, channel::OpticalChannel{}, 0x5eed);
    return camera.capture_frame(trace, 0.001);
  };

  ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
  const camera::Frame reference_frame = capture();
  const std::vector<rx::ScanlineColor> reference_lines =
      rx::reduce_to_scanlines(reference_frame, 3, 30);

  for (const simd::Backend backend : vector_backends()) {
    ASSERT_TRUE(simd::set_backend(backend));
    for (const unsigned threads : {1u, 2u, 8u}) {
      runtime::ThreadPool::set_shared_thread_count(threads);
      const camera::Frame frame = capture();
      EXPECT_EQ(frame.pixels, reference_frame.pixels)
          << simd::backend_name(backend) << " capture diverged at " << threads
          << " threads";
      const std::vector<rx::ScanlineColor> lines = rx::reduce_to_scanlines(frame, 3, 30);
      ASSERT_EQ(lines.size(), reference_lines.size());
      for (std::size_t i = 0; i < lines.size(); ++i) {
        ASSERT_TRUE(bit_equal(lines[i], reference_lines[i]))
            << simd::backend_name(backend) << " scanline " << i << " at " << threads
            << " threads";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Capture arena.

TEST(Simd, ArenaSpansAreAlignedAndRecycle) {
  util::CaptureArena arena;
  const auto a = arena.allocate<double>(33);
  const auto b = arena.allocate<float>(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % util::CaptureArena::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % util::CaptureArena::kAlignment, 0u);
  EXPECT_EQ(a.size(), 33u);
  EXPECT_EQ(b.size(), 7u);

  // The warm-up frame grows incrementally, so its reset coalesces to a
  // block sized for the whole frame; from then on same-shape frames are
  // pure reuse with zero growth.
  arena.reset();
  const std::size_t capacity = arena.capacity_bytes();
  EXPECT_GT(capacity, 0u);
  const auto c = arena.allocate<double>(33);
  const auto d = arena.allocate<float>(7);
  // Both spans now come from the one coalesced block, in order and
  // non-overlapping (33 doubles round up to 5 cache lines).
  EXPECT_GE(reinterpret_cast<std::uintptr_t>(d.data()),
            reinterpret_cast<std::uintptr_t>(c.data()) + 33 * sizeof(double));
  EXPECT_EQ(arena.capacity_bytes(), capacity);
  const long long grows_after_warmup = arena.stats().grows;

  arena.reset();
  const auto e = arena.allocate<double>(33);
  (void)arena.allocate<float>(7);
  EXPECT_EQ(e.data(), c.data());  // same storage handed back
  EXPECT_EQ(arena.capacity_bytes(), capacity);
  EXPECT_EQ(arena.stats().grows, grows_after_warmup);

  const util::CaptureArena::Stats& stats = arena.stats();
  EXPECT_EQ(stats.resets, 2);
  EXPECT_EQ(stats.reuse_hits, 1);  // the post-coalesce reset
  EXPECT_GT(stats.peak_bytes, 0u);
}

TEST(Simd, ArenaOverflowCoalescesOnReset) {
  util::CaptureArena arena;
  (void)arena.allocate<double>(8);  // small first block
  arena.reset();
  // Overflow the block: the frame still works (side blocks), and the
  // next reset coalesces so the frame after that is a single reuse hit.
  (void)arena.allocate<double>(8);
  const auto big = arena.allocate<double>(1000);
  EXPECT_EQ(big.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % util::CaptureArena::kAlignment,
            0u);
  const long long grows_after_overflow = arena.stats().grows;
  EXPECT_GE(grows_after_overflow, 2);

  arena.reset();  // coalesce
  (void)arena.allocate<double>(8);
  (void)arena.allocate<double>(1000);
  EXPECT_EQ(arena.stats().grows, grows_after_overflow) << "coalesced block too small";
  arena.reset();
  EXPECT_EQ(arena.stats().reuse_hits, 2);  // first reset + post-coalesce one
  EXPECT_GE(arena.stats().peak_bytes, 1008 * sizeof(double));
}

}  // namespace
}  // namespace colorbars
