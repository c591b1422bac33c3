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

  constexpr result_type operator()() noexcept { return next(state_.data()); }

  /// One xoshiro256** step on the four state words at `state`: returns
  /// the output and advances the words. operator() is this step on the
  /// generator's own state; batch kernels step raw copies.
  static constexpr result_type next(std::uint64_t* state) noexcept {
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
  }

  /// A polynomial over GF(2) of degree below 256: bit i % 64 of word
  /// i / 64 is the coefficient of x^i.
  using Gf2Poly = std::array<std::uint64_t, 4>;

  /// The state update M of next() is linear over GF(2), and its
  /// characteristic polynomial P has degree 256; these are P's
  /// coefficients below x^256. Since P(M) = 0, n steps are
  /// Mⁿs = c(M)s with c = xⁿ mod P: the XOR of the states s, Ms, ...,
  /// M²⁵⁵s at the set bits of c, the loop of the reference xoshiro256
  /// jump(). P came from Berlekamp–Massey over 1,024 successive values
  /// of one state bit (bit 0 of word 0); x^(2^128) mod P and
  /// x^(2^192) mod P are that jump()'s published JUMP and LONG_JUMP
  /// words (checked by Xoshiro256.StatePolynomialGivesThePublishedJumps).
  static constexpr Gf2Poly kStatePolynomial = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                                               0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

  /// xⁿ mod P, by n multiply-by-x steps: meant for jump lengths fixed
  /// at compile time.
  [[nodiscard]] static constexpr Gf2Poly jump_polynomial(std::uint64_t n) noexcept {
    Gf2Poly c = {1, 0, 0, 0};
    for (std::uint64_t step = 0; step < n; ++step) {
      const std::uint64_t overflow = c[3] >> 63;
      for (std::size_t word = c.size() - 1; word > 0; --word) {
        c[word] = (c[word] << 1) | (c[word - 1] >> 63);
      }
      c[0] <<= 1;
      for (std::size_t word = 0; word < c.size(); ++word) {
        c[word] ^= kStatePolynomial[word] & (0 - overflow);
      }
    }
    return c;
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

  /// The accept loop of the batched polar method: from the generator
  /// whose four state words are at `state`, draws candidates
  /// u = uniform(-1, 1), v = uniform(-1, 1) as normal() does, writes the
  /// first `count` with 0 < u·u + v·v < 1 to `pairs` as interleaved
  /// pairs, and leaves the state just past the candidate that completed
  /// them. A replacement (simd::polar_accept) must write the same pairs
  /// and leave the same state.
  using PolarAccept = void (*)(std::uint64_t* state, double* pairs, std::size_t count);

  /// The reference PolarAccept, candidate by candidate, without a
  /// data-dependent branch.
  static void polar_accept(std::uint64_t* state, double* pairs, std::size_t count) noexcept;

  /// Fills `out` with exactly the values of out.size() successive
  /// normal() calls and leaves the generator in the same state they
  /// would, cached half-pair included. The batch form exists for speed:
  /// `accept` draws every pair the batch needs, and `finish` turns them
  /// into deviates in one pass.
  void fill_normal(std::span<double> out, PolarFinish finish = polar_finish,
                   PolarAccept accept = polar_accept) noexcept;

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
