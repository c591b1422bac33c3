#include "colorbars/tx/transmitter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "colorbars/util/rng.hpp"

namespace colorbars::tx {

using protocol::ChannelSymbol;

Transmitter::Transmitter(TransmitterConfig config)
    : config_(config),
      constellation_(config.format.order),
      packetizer_(config.format, constellation_),
      led_(config.led),
      code_(config.rs_n, config.rs_k) {
  if (!led_.supports_rate(config_.symbol_rate_hz)) {
    throw std::invalid_argument("Transmitter: symbol rate exceeds LED hardware limit");
  }
}

void Transmitter::append_calibration(std::vector<ChannelSymbol>& slots,
                                     int variant) const {
  // Cycle forward / reversed / rotated color orders so that receivers
  // whose gap-free readout window is shorter than the calibration packet
  // still learn every reference from the packet heads.
  std::vector<ChannelSymbol> packet;
  switch (variant % 3) {
    case 0: packet = packetizer_.build_calibration_packet(); break;
    case 1: packet = packetizer_.build_reversed_calibration_packet(); break;
    default: packet = packetizer_.build_rotated_calibration_packet(); break;
  }
  slots.insert(slots.end(), packet.begin(), packet.end());
}

void Transmitter::append_warmup(std::vector<ChannelSymbol>& slots) const {
  // White lead-in (~50 ms): the luminaire is already lit before data
  // starts, and the receiver's capture may begin mid-frame — without the
  // lead-in the very first packet's delimiter could fall before the
  // first captured scanline.
  const int warmup = static_cast<int>(std::ceil(config_.symbol_rate_hz * 0.05));
  slots.insert(slots.end(), static_cast<std::size_t>(warmup), ChannelSymbol::white());
}

Transmission Transmitter::transmit(std::span<const std::uint8_t> payload) const {
  Transmission transmission;
  transmission.symbol_rate_hz = config_.symbol_rate_hz;

  // Split the payload into k-byte messages (zero-padding the tail).
  const int k = config_.rs_k;
  std::vector<std::vector<std::uint8_t>> messages;
  for (std::size_t offset = 0; offset < payload.size();
       offset += static_cast<std::size_t>(k)) {
    const std::size_t take = std::min(payload.size() - offset, static_cast<std::size_t>(k));
    std::vector<std::uint8_t> message(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(offset + take));
    message.resize(static_cast<std::size_t>(k), 0);
    messages.push_back(std::move(message));
  }

  // Calibration cadence: one calibration packet every `interval` symbol
  // slots (paper §8: 5 calibration packets per second). A rate <= 0 (or
  // NaN) means never, and so does one so small that the interval reaches
  // 2^63 slots: the interval stays a double until it is known to fit a
  // long long.
  long long calibration_interval = std::numeric_limits<long long>::max();
  if (config_.calibration_rate_hz > 0.0) {
    const double interval = config_.symbol_rate_hz / config_.calibration_rate_hz;
    if (interval < 0x1p63) calibration_interval = static_cast<long long>(interval);
  }

  std::vector<ChannelSymbol>& slots = transmission.slots;
  append_warmup(slots);
  // Cold-start calibration, sent six times cycling the three color
  // orders: a single calibration packet can straddle the inter-frame gap
  // or even exceed a frame's gap-free window, and the variant cycle lets
  // the receiver accumulate full reference coverage from packet heads.
  for (int i = 0; i < 6; ++i) append_calibration(slots, i);
  long long last_calibration = static_cast<long long>(slots.size());
  int next_calibration_variant = 0;

  int packet_index = 0;
  for (std::vector<std::uint8_t>& message : messages) {
    const std::vector<std::uint8_t> codeword = code_.encode(message);
    const std::vector<ChannelSymbol> packet = packetizer_.build_data_packet(codeword);
    slots.insert(slots.end(), packet.begin(), packet.end());
    transmission.packet_messages.push_back(std::move(message));
    // De-phasing pad: a packet is sized to one frame period, so without
    // jitter a header that lands in the inter-frame gap stays in the gap
    // for many consecutive packets (the gap and the packet stream drift
    // past each other very slowly). A pseudorandom run of white slots
    // between packets breaks the phase lock, turning correlated burst
    // losses into near-independent per-packet losses at the header-loss
    // probability the packet design already implies. The receiver scans
    // for delimiters, so the pad is transparent (and it doubles as extra
    // illumination).
    if (config_.enable_dephasing_pad) {
      std::uint64_t pad_state = static_cast<std::uint64_t>(packet_index) + 1;
      const int pad = static_cast<int>(util::splitmix64_next(pad_state) % 16);
      for (int i = 0; i < pad; ++i) slots.push_back(ChannelSymbol::white());
    }
    ++packet_index;
    if (static_cast<long long>(slots.size()) - last_calibration >= calibration_interval) {
      append_calibration(slots, next_calibration_variant++);
      last_calibration = static_cast<long long>(slots.size());
    }
  }

  // Trailing white tail so the final packet's last symbols are not cut
  // off mid-frame by the capture ending.
  const int tail = static_cast<int>(std::ceil(config_.symbol_rate_hz * 0.1));
  for (int i = 0; i < tail; ++i) slots.push_back(ChannelSymbol::white());

  transmission.trace =
      led_.emit(protocol::drives_of(slots, constellation_), config_.symbol_rate_hz);
  return transmission;
}

Transmission Transmitter::transmit_raw_symbols(std::span<const int> symbol_indices) const {
  Transmission transmission;
  transmission.symbol_rate_hz = config_.symbol_rate_hz;
  std::vector<ChannelSymbol>& slots = transmission.slots;
  append_warmup(slots);
  for (int i = 0; i < 6; ++i) append_calibration(slots, i);
  slots.reserve(slots.size() + symbol_indices.size());
  for (const int index : symbol_indices) {
    slots.push_back(ChannelSymbol::data(index));
  }
  transmission.trace =
      led_.emit(protocol::drives_of(slots, constellation_), config_.symbol_rate_hz);
  return transmission;
}

}  // namespace colorbars::tx
