#pragma once

// The logarithm of the polar noise draw, without libm where the host
// has FMA. fma_log is a replica of what glibc's FMA variant of log
// computes (glibc >= 2.28, taken from Arm optimized-routines, MIT /
// Apache-2.0): the same 128-entry {1/c, log c} table, the same two
// polynomials, and the same fused and separately rounded steps in the
// same order. It therefore returns glibc's bits on every input it
// accepts, and a vector evaluation of the same steps
// (simd::polar_finish) returns them too, so on an FMA host the render's
// noise bytes no longer depend on the host's libm.
//
// std::fma is exact wherever it runs: the FMA instruction where the
// CPU has it, libm's correctly rounded software fma elsewhere. Only
// the speed differs between hosts, never the bits, but the software
// fma is slow enough that the noise draw does not use it (polar_log).

#include <cstdint>

namespace colorbars::util {

/// The fields of glibc's __log_data that log reads, in its layout:
/// ln 2 split into a high part with trailing zero bits and the rest,
/// the main path's polynomial A, the near-1 path's polynomial B, then
/// {1/c, log c} for the centre c of each of the 128 subintervals of
/// [0x1.6p-1, 0x1.6p+0). Checked in as hex-float literals from
/// optimized-routines' log_data.c; the scalar and the lane code read
/// this one copy.
struct FmaLogData {
  static constexpr int kTableBits = 7;
  struct Entry {
    double invc;
    double logc;
  };
  double ln2hi;
  double ln2lo;
  double poly[5];
  double poly1[11];
  alignas(16) Entry table[1 << kTableBits];
};

extern const FmaLogData kFmaLogData;

/// Bits of 0x1.6p-1: x = 2^k · z with z in [0x1.6p-1, 0x1.6p+0).
inline constexpr std::uint64_t kFmaLogOff = 0x3fe6000000000000;
/// Bits of 1 - 2^-4 and of 1 + 0x1.09p-4: x whose bits lie in
/// [lo, hi) take the near-1 polynomial instead of the table.
inline constexpr std::uint64_t kFmaLogNearOneLo = 0x3fee000000000000;
inline constexpr std::uint64_t kFmaLogNearOneHi = 0x3ff1090000000000;

/// ln(x), bit for bit what glibc's log returns on an FMA host, for
/// every positive, normal, finite x. That covers every s the polar
/// accept loop can produce: u and v are multiples of 2^-52, so
/// s = u·u + v·v lies in [2^-104, 1). Zero, subnormal, negative,
/// infinite and NaN inputs are outside the domain and are not checked.
[[nodiscard]] double fma_log(double x) noexcept;

/// The log of the polar noise draw (Xoshiro256::normal and
/// Xoshiro256::polar_finish): fma_log on a host with hardware FMA, and
/// libm's log on one without. There fma_log's software fma made a
/// Nexus 5 frame's render 64x slower (EXPERIMENTS.md), so such a host
/// keeps its libm's speed and bits.
[[nodiscard]] double polar_log(double x) noexcept;

/// True when polar_log is fma_log on this host, so the noise draws'
/// bits do not depend on the host's libm.
[[nodiscard]] bool polar_log_is_fma_log() noexcept;

}  // namespace colorbars::util
