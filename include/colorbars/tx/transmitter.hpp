#pragma once

// The full ColorBars transmitter (paper Fig. 2b, left column): splits the
// input bitstream into RS blocks, encodes, packetizes with flags and
// white illumination symbols, interleaves periodic calibration packets,
// and drives the tri-LED to produce the on-air emission trace.

#include <cstdint>
#include <span>
#include <vector>

#include "colorbars/led/tri_led.hpp"
#include "colorbars/protocol/packetizer.hpp"
#include "colorbars/rs/reed_solomon.hpp"

namespace colorbars::tx {

/// Transmit-side configuration.
struct TransmitterConfig {
  protocol::FrameFormat format{};
  double symbol_rate_hz = 2000.0;
  /// RS code dimensions. Every link derives them with
  /// core::LinkConfig::code() (derive_link_code: one whole packet per
  /// frame period, parity by the paper's §5 rule; DESIGN.md §4).
  int rs_n = 64;
  int rs_k = 32;
  /// Calibration packets per second (paper §8 uses 5).
  double calibration_rate_hz = 5.0;
  /// Insert pseudorandom white pads between packets so a packet stream
  /// sized to one frame period cannot phase-lock its headers into the
  /// camera's inter-frame gap. Disable only for ablation experiments.
  bool enable_dephasing_pad = true;
  led::TriLedConfig led{};
};

/// One transmission, fully described: the symbol slots on the timeline,
/// the emission trace, and the ground-truth payload split per packet.
struct Transmission {
  std::vector<protocol::ChannelSymbol> slots;  ///< every on-air symbol slot
  led::EmissionTrace trace;                    ///< what the LED emitted
  std::vector<std::vector<std::uint8_t>> packet_messages;  ///< k-byte RS messages
  double symbol_rate_hz = 0.0;

  [[nodiscard]] double duration_s() const noexcept { return trace.duration(); }
};

class Transmitter {
 public:
  explicit Transmitter(TransmitterConfig config);

  [[nodiscard]] const TransmitterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const csk::Constellation& constellation() const noexcept {
    return constellation_;
  }
  [[nodiscard]] const protocol::Packetizer& packetizer() const noexcept {
    return packetizer_;
  }
  [[nodiscard]] const led::TriLed& led() const noexcept { return led_; }

  /// Message bytes carried per packet (the RS k).
  [[nodiscard]] int message_bytes_per_packet() const noexcept { return config_.rs_k; }

  /// Builds the full transmission for `payload`. The payload is split
  /// into k-byte messages (the final one zero-padded), each RS-encoded
  /// into one packet; calibration packets are inserted at the configured
  /// cadence, and one leads the transmission so a cold receiver can
  /// calibrate before the first data packet (paper §6).
  [[nodiscard]] Transmission transmit(std::span<const std::uint8_t> payload) const;

  /// Builds a transmission of raw symbols (no packets, no coding) —
  /// used by the SER experiments that measure pure demodulation error
  /// (paper Fig. 9), preceded by a calibration packet.
  [[nodiscard]] Transmission transmit_raw_symbols(std::span<const int> symbol_indices) const;

 private:
  void append_calibration(std::vector<protocol::ChannelSymbol>& slots,
                          int variant = 0) const;
  void append_warmup(std::vector<protocol::ChannelSymbol>& slots) const;

  TransmitterConfig config_;
  csk::Constellation constellation_;
  protocol::Packetizer packetizer_;
  led::TriLed led_;
  rs::ReedSolomon code_;
};

}  // namespace colorbars::tx
