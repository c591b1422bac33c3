#pragma once

// Runtime-dispatched SIMD kernels for the hottest per-pixel loops of
// the capture/decode path: the render's RGGB demosaic straight to sRGB
// codes, the accept loop and the polar finish of its noise draw and its
// separable vignette/gain and shot-sigma row fills, the Rgb8→Lab LUT
// reduction inside reduce_to_scanlines, and the per-band ΔE
// nearest-reference scan of the symbol decision.
//
// The contract is byte-identity: every backend performs, per output
// element, exactly the scalar reference's IEEE-754 operation sequence
// (same operand order, a fused multiply-add only where the reference
// calls std::fma, division kept as division), so the dispatched result
// is bit-equal to the scalar one on every input. That keeps the frozen
// golden capture hashes and the 1/2/8-thread determinism guarantees
// untouched no matter which backend runs. simd_test proves it per
// kernel (exhaustive for the Lab chain, randomized plus every
// misalignment offset for the rest), and channel_test re-verifies the
// golden hashes per backend.
//
// Dispatch: the scalar backend always exists; SSE4.2/AVX2 are compiled
// when the build targets x86-64 with COLORBARS_SIMD=ON and selected at
// runtime via CPUID (AVX2 needs the avx2 and fma bits), NEON when
// targeting AArch64. The environment variable COLORBARS_SIMD_BACKEND
// (scalar|sse42|avx2|neon) pins the initial choice, set_backend()
// overrides programmatically (used by the byte-identity tests and
// bench_micro --compare).
//
// Alignment contract: no kernel requires aligned pointers — interior
// lanes use unaligned vector loads and every kernel falls back to a
// scalar prologue/epilogue for ranges the vector width does not cover,
// so odd ROI widths and non-16-byte-aligned column starts are safe.
// Arena-backed rows (util::CaptureArena) are 64-byte aligned anyway,
// which keeps the common case on the fast path.

#include <cstddef>
#include <cstdint>

#include "colorbars/color/srgb.hpp"

namespace colorbars::simd {

enum class Backend { kScalar = 0, kSse42 = 1, kAvx2 = 2, kNeon = 3 };

/// Human-readable backend name ("scalar", "sse42", "avx2", "neon").
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// True when the backend's kernels are compiled into this binary.
[[nodiscard]] bool backend_compiled(Backend backend) noexcept;

/// True when the backend is compiled AND the running CPU supports it.
[[nodiscard]] bool backend_supported(Backend backend) noexcept;

/// The backend the kernels below currently dispatch to. Defaults to the
/// widest supported one, unless COLORBARS_SIMD_BACKEND pins another.
[[nodiscard]] Backend active_backend() noexcept;

/// Forces dispatch to `backend`; returns false (and changes nothing)
/// when it is not supported on this machine/build. Not thread-safe
/// against concurrent kernel calls mid-switch — switch at quiescent
/// points only (tests and bench setup do).
bool set_backend(Backend backend) noexcept;

/// Accumulated sums of one scanline reduction: the Rgb8→Lab fast chain
/// and the gamma-encoded RGB triple, in pixel order.
struct RowSums {
  double l = 0.0, a = 0.0, b = 0.0;   ///< Lab sums
  double r = 0.0, g = 0.0, bb = 0.0;  ///< encoded-RGB sums
};

/// One interior frame row of the RGGB bilinear demosaic, quantized to
/// 8-bit sRGB: out[c] == color::quantize_srgb(pixel (row, c) of
/// camera::demosaic) for every c in [0, columns), byte for byte. `mid`
/// is the row's raw mosaic values, `up` and `down` its neighbours', and
/// `even_row` its RGGB phase. Columns 0 and columns - 1 use the
/// fixed-neighbour edge formulas of the bounds-checked path; any
/// columns >= 1 is valid. The frame's top and bottom rows are the
/// caller's job (camera::demosaic_quantize_row).
void demosaic_code_row(const double* up, const double* mid, const double* down,
                       int columns, bool even_row, color::Rgb8* out);

/// The scalar reference of demosaic_code_row's interior reconstruction,
/// unquantized and not dispatched: columns [1, columns - 1) of one
/// interior row as three doubles per pixel, at rgb_out[3c .. 3c + 2].
/// camera::demosaic_into, the FloatImage reference, runs it.
void demosaic_interior_row(const double* up, const double* mid, const double* down,
                           int columns, bool even_row, double* rgb_out);

/// Adds `count` pixels' Lab (fast-chain) and encoded-RGB values into
/// `sums`, in pixel order — the inner loop of reduce_to_scanlines.
void row_lab_rgb_sums(const color::Rgb8* pixels, int count, RowSums& sums);

/// Fills out_row[c] for c in [column_begin, column_end) with the
/// vignetted pre-noise Bayer signal of one row:
///   gain(c) = max(1 - strength * 0.5*(row2 + col2[c]), 0)
///   out_row[c] = (c even ? value_even : value_odd) * gain(c)
/// (parity in absolute column index). strength <= 0 short-circuits to
/// gain 1, matching RollingShutterCamera::vignette_gain.
void vignette_signal_span(const double* col2, int column_begin, int column_end,
                          double row2, double strength, double value_even,
                          double value_odd, double* out_row);

/// out[i] = sqrt(max(signal[i], 0) * iso_gain / well_capacity) — the
/// per-pixel shot-noise sigma of one row.
void shot_sigma_row(const double* signal, int count, double iso_gain,
                    double well_capacity, double* out);

/// out[i] = ΔE(CIE76, chroma plane) between (a, b) and reference i:
/// sqrt((a-ref_a[i])^2 + (b-ref_b[i])^2) — the distance fan-out of the
/// nearest-reference symbol decision.
void delta_e_ab_many(const double* ref_a, const double* ref_b, int count,
                     double a, double b, double* out);

/// util::Xoshiro256::polar_finish, bit for bit: `count` accepted polar
/// pairs (u, v), interleaved at `pairs`, become (u·f, v·f) with
/// f = sqrt(-2·log(s) / s), s = u·u + v·v and log = util::polar_log. The
/// AVX2 backend, which needs FMA and so pairs with util::fma_log, evaluates
/// that log's steps in lanes; the others run the scalar reference. Pass it
/// to fill_normal as the finish.
void polar_finish(double* pairs, std::size_t count);

/// Block lengths of the AVX2 accept loop, in generator outputs per lane,
/// largest first. A chunk of block length L runs while at least 2L pairs
/// are still wanted (see polar_accept). 2046 is the largest L that a
/// render batch of 64 rows by 64 columns fits when its first normal
/// comes from the cached half-pair, as after the auto-exposure draw:
/// 4,095 pairs. That chunk leaves about 880, one chunk of 400 about 250,
/// and one of 100 about 100 for the reference loop.
inline constexpr std::size_t kPolarAcceptBlocks[] = {2046, 400, 100};

/// util::Xoshiro256::polar_accept, bit for bit: the first `count`
/// accepted polar candidates of the generator whose state words are at
/// `state`, as interleaved pairs at `pairs`, and the state just past the
/// last candidate drawn. The AVX2 backend runs four lanes over four
/// consecutive blocks of the one stream: lane k starts L·k outputs on by
/// a jump-ahead (util::Xoshiro256::jump_polynomial), each lane keeps its
/// own accepted pairs, and the lanes are concatenated in stream order. A
/// chunk runs only while at least 2L pairs are still wanted, so it can
/// never accept a pair the reference would not draw; the reference loop
/// draws what the chunks leave. The others run the reference. Pass it to
/// fill_normal as the accept loop.
void polar_accept(std::uint64_t* state, double* pairs, std::size_t count);

}  // namespace colorbars::simd
