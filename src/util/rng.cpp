#include "colorbars/util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "colorbars/util/fma_log.hpp"

namespace colorbars::util {

std::uint64_t Xoshiro256::below(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method: unbiased and branch-light.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * polar_log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

void Xoshiro256::polar_finish(double* pairs, std::size_t count) noexcept {
  // The same s and factor expressions as normal(), so every deviate is
  // bit-identical to the call-by-call sequence.
  for (std::size_t k = 0; k < count; ++k) {
    const double u = pairs[2 * k];
    const double v = pairs[2 * k + 1];
    const double s = u * u + v * v;
    const double factor = std::sqrt(-2.0 * polar_log(s) / s);
    pairs[2 * k] = u * factor;
    pairs[2 * k + 1] = v * factor;
  }
}

void Xoshiro256::polar_accept(std::uint64_t* state, double* pairs,
                              std::size_t count) noexcept {
  Xoshiro256 rng;
  std::copy_n(state, rng.state_.size(), rng.state_.begin());
  // Each candidate (u, v) is written to the next free pair slot and the
  // slot advances only on acceptance, so a rejected candidate is
  // overwritten instead of costing a mispredicted branch.
  std::size_t accepted = 0;
  while (accepted < count) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    pairs[2 * accepted] = u;
    pairs[2 * accepted + 1] = v;
    accepted += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
  }
  std::copy_n(rng.state_.begin(), rng.state_.size(), state);
}

void Xoshiro256::fill_normal(std::span<double> out, PolarFinish finish,
                             PolarAccept accept) noexcept {
  std::size_t begin = 0;
  if (!out.empty() && has_cached_normal_) {
    has_cached_normal_ = false;
    out[0] = cached_normal_;
    begin = 1;
  }
  // Whole pairs take the batched polar method below; an odd tail takes
  // one normal() call, which caches its pair's second half exactly as
  // the call-by-call sequence would.
  const std::size_t pairs = (out.size() - begin) / 2;
  double* const pair_out = out.data() + begin;
  accept(state_.data(), pair_out, pairs);
  finish(pair_out, pairs);
  if ((out.size() - begin) % 2 != 0) out.back() = normal();
}

}  // namespace colorbars::util
