#pragma once

// On-Off Keying baseline (paper §2.1). The LED transmits 1/0 as
// white/dark at the symbol rate; the rolling-shutter camera sees bright
// and dark bands. This is the scheme CSK is compared against: it carries
// one bit per band, is vulnerable to ambient light, and flickers on long
// runs of equal bits.

#include <cstdint>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/channel.hpp"
#include "colorbars/led/tri_led.hpp"

namespace colorbars::baseline {

struct OokConfig {
  double symbol_rate_hz = 2000.0;
  led::TriLedConfig led{};
  /// Scanline-lightness threshold separating ON from OFF bands.
  double on_lightness = 35.0;
};

/// Renders a bit sequence as an OOK emission trace.
[[nodiscard]] led::EmissionTrace ook_modulate(const std::vector<std::uint8_t>& bits,
                                              const OokConfig& config);

/// Result of demodulating an OOK capture.
struct OokDecodeResult {
  std::vector<std::uint8_t> bits;      ///< recovered bits, slot-aligned
  std::vector<bool> observed;          ///< slot observed (not lost in gap)
  long long slots_total = 0;
};

/// Demodulates captured frames back into slot-aligned bits by
/// thresholding per-scanline lightness. Slot s is bit s; a slot before
/// bit 0, or more than rx::kMaxSlotGap past the slots kept before it in
/// arrival order, comes from a corrupt frame time and is dropped.
[[nodiscard]] OokDecodeResult ook_demodulate(const std::vector<camera::Frame>& frames,
                                             const OokConfig& config);

/// End-to-end OOK throughput/BER measurement over a simulated camera.
struct OokRunResult {
  long long bits_sent = 0;
  long long bits_observed = 0;
  long long bit_errors = 0;
  double air_time_s = 0.0;

  [[nodiscard]] double ber() const noexcept {
    return bits_observed > 0
               ? static_cast<double>(bit_errors) / static_cast<double>(bits_observed)
               : 0.0;
  }
  [[nodiscard]] double throughput_bps() const noexcept {
    return air_time_s > 0.0 ? static_cast<double>(bits_observed) / air_time_s : 0.0;
  }
};

/// End-to-end OOK run through the given optical channel (the default
/// spec is the identity close-range channel).
[[nodiscard]] OokRunResult ook_run(const OokConfig& config,
                                   const camera::SensorProfile& profile,
                                   const channel::ChannelSpec& channel_spec, int bit_count,
                                   std::uint64_t seed);

}  // namespace colorbars::baseline
