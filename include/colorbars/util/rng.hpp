#pragma once

// Deterministic pseudo-random number generation for reproducible
// simulation runs. All ColorBars experiments are seeded, so two runs of
// the same bench produce identical tables.
//
// We use xoshiro256** (Blackman & Vigna) seeded through splitmix64 — a
// small, fast, high-quality generator that, unlike std::mt19937, has a
// guaranteed-stable output sequence across standard library versions.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace colorbars::util {

/// Splitmix64 step: used both as a standalone mixer and as the seeding
/// routine for Xoshiro256. Advances `state` and returns the next value.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator,
/// so it can be used with <random> distributions if desired; the helper
/// members below avoid distribution-implementation variance entirely.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a single 64-bit seed via splitmix64.
  explicit constexpr Xoshiro256(std::uint64_t seed = 0x436f6c6f72426172ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire-style
  /// rejection to avoid modulo bias.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

  /// Standard normal deviate (Marsaglia polar method, deterministic).
  /// Its log is util::polar_log: on a host with FMA that is
  /// util::fma_log, which calls no libm function, so the deviates are
  /// the same bits on every such host whatever its libm.
  [[nodiscard]] double normal() noexcept;

  /// The finish of the batched polar method: overwrites `count`
  /// accepted candidates (u, v), stored as interleaved pairs at `pairs`,
  /// with (u·f, v·f), where f = sqrt(-2·log(s) / s), s = u·u + v·v and
  /// log is util::polar_log — normal()'s own expressions. A replacement
  /// (simd::polar_finish) must produce the same bits.
  using PolarFinish = void (*)(double* pairs, std::size_t count);

  /// The reference PolarFinish, pair by pair.
  static void polar_finish(double* pairs, std::size_t count) noexcept;

  /// Fills `out` with exactly the values of out.size() successive
  /// normal() calls and leaves the generator in the same state they
  /// would, cached half-pair included. The batch form exists for speed:
  /// the polar accept loop runs without a data-dependent branch, and
  /// `finish` turns the accepted pairs into deviates in one pass.
  void fill_normal(std::span<double> out, PolarFinish finish = polar_finish) noexcept;

  /// Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli draw with probability p of returning true.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace colorbars::util
