#pragma once

// Frequency Shift Keying baseline, modeled on the rolling-shutter FSK
// systems the paper compares against (RollingLight [1] and VLC landmarks
// [2], §2.1/§9). Each symbol is an ON/OFF square wave at one of a small
// set of frequencies, held for a full dwell period (one camera frame),
// so the receiver can estimate the band frequency from the stripe count
// within a frame. FSK is robust but slow: one symbol (a few bits) per
// frame, which is why those systems top out near 11 bytes/second.

#include <cstdint>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/channel.hpp"
#include "colorbars/led/tri_led.hpp"

namespace colorbars::baseline {

struct FskConfig {
  /// Symbol alphabet: the square-wave frequencies, in Hz. Spacing must
  /// be wide enough for per-frame discrimination.
  std::vector<double> frequencies = {600, 900, 1200, 1500, 1800, 2100, 2400, 2700};
  /// Dwell per symbol, seconds (one frame period for a 30 fps receiver).
  double dwell_s = 1.0 / 30.0;
  led::TriLedConfig led{};
  /// Scanline-lightness threshold separating ON from OFF stripes.
  double on_lightness = 35.0;

  /// Throws std::invalid_argument unless the alphabet is non-empty,
  /// every frequency finite and positive, dwell_s finite and positive,
  /// and no frequency puts more than 2^16 half-periods in one dwell
  /// (the default alphabet needs at most 180). Otherwise fsk_modulate's
  /// square-wave loop would not end: a negative half-period never
  /// shortens the dwell left, and one below an ulp of it (1e300 Hz) is
  /// absorbed by the subtraction. NaN would append NaN-length segments.
  /// fsk_modulate and fsk_run call it.
  void validate() const;

  [[nodiscard]] int bits_per_symbol() const noexcept {
    int bits = 0;
    while ((1 << (bits + 1)) <= static_cast<int>(frequencies.size())) ++bits;
    return bits;
  }
};

/// Renders a symbol sequence (indices into the frequency alphabet) as an
/// emission trace of white/dark square waves. Throws
/// std::invalid_argument for a config FskConfig::validate rejects.
[[nodiscard]] led::EmissionTrace fsk_modulate(const std::vector<int>& symbols,
                                              const FskConfig& config);

/// Per-frame FSK demodulation: estimates the dominant stripe frequency
/// from ON/OFF transition counts and maps it to the nearest alphabet
/// entry. Returns one symbol per frame (the dwell alignment of the
/// paper's baselines), or -1 for undecodable frames and frames without
/// pixels.
[[nodiscard]] std::vector<int> fsk_demodulate(const std::vector<camera::Frame>& frames,
                                              const FskConfig& config);

/// End-to-end FSK measurement.
struct FskRunResult {
  long long symbols_sent = 0;
  long long symbols_decoded = 0;
  long long symbol_errors = 0;
  double air_time_s = 0.0;
  int bits_per_symbol = 0;

  [[nodiscard]] double ser() const noexcept {
    return symbols_decoded > 0
               ? static_cast<double>(symbol_errors) / static_cast<double>(symbols_decoded)
               : 0.0;
  }
  [[nodiscard]] double throughput_bps() const noexcept {
    return air_time_s > 0.0 ? static_cast<double>((symbols_decoded - symbol_errors) *
                                                  bits_per_symbol) /
                                  air_time_s
                            : 0.0;
  }
};

/// End-to-end FSK run through the given optical channel (the default
/// spec is the identity close-range channel). Throws
/// std::invalid_argument for a config FskConfig::validate rejects.
[[nodiscard]] FskRunResult fsk_run(const FskConfig& config,
                                   const camera::SensorProfile& profile,
                                   const channel::ChannelSpec& channel_spec, int symbol_count,
                                   std::uint64_t seed);

}  // namespace colorbars::baseline
