#include "colorbars/baseline/ook.hpp"

#include <algorithm>
#include <cmath>

#include "colorbars/runtime/seed.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/rx/receiver.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::baseline {

led::EmissionTrace ook_modulate(const std::vector<std::uint8_t>& bits,
                                const OokConfig& config) {
  const led::TriLed led(config.led);
  const double duration = 1.0 / config.symbol_rate_hz;
  led::EmissionTrace trace;
  for (const std::uint8_t bit : bits) {
    const csk::LedDrive drive = bit ? csk::white_drive() : csk::off_drive();
    trace.append(duration, led.radiance(drive));
  }
  return trace;
}

OokDecodeResult ook_demodulate(const std::vector<camera::Frame>& frames,
                               const OokConfig& config) {
  // Collect per-slot lightness through the shared band extractor; OOK
  // only needs the lightness channel.
  std::vector<rx::SlotObservation> observations;
  rx::ExtractorConfig extractor;
  for (const camera::Frame& frame : frames) {
    const auto slots = rx::extract_slots(frame, config.symbol_rate_hz, extractor);
    observations.insert(observations.end(), slots.begin(), slots.end());
  }

  // Slot s carries bit s, so the result spans slots [0, last]. A slot
  // before bit 0, or more than rx::kMaxSlotGap past the slots kept before
  // it (the receivers' arrival-order rule, anchored at bit 0), comes from
  // a corrupt frame time and is dropped: it would index before the
  // result or size it for every slot up to it. Two passes replay the
  // rule, as rx::assemble_timeline does.
  const auto keep = [](long long slot, long long& last) {
    if (slot < 0 || rx::beyond_slot_gap(slot, 0, last)) return false;
    last = std::max(last, slot);
    return true;
  };
  OokDecodeResult result;
  long long last = 0;
  bool any_kept = false;
  for (const auto& observation : observations) {
    if (keep(observation.slot, last)) any_kept = true;
  }
  if (!any_kept) return result;
  result.slots_total = last + 1;
  result.bits.assign(static_cast<std::size_t>(result.slots_total), 0);
  result.observed.assign(static_cast<std::size_t>(result.slots_total), false);
  long long replay = 0;
  for (const auto& observation : observations) {
    if (!keep(observation.slot, replay)) continue;
    const auto index = static_cast<std::size_t>(observation.slot);
    result.observed[index] = true;
    result.bits[index] = observation.lightness >= config.on_lightness ? 1 : 0;
  }
  return result;
}

OokRunResult ook_run(const OokConfig& config, const camera::SensorProfile& profile,
                     const channel::ChannelSpec& channel_spec, int bit_count,
                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(bit_count));
  for (auto& bit : bits) bit = static_cast<std::uint8_t>(rng.below(2));

  const led::EmissionTrace trace = ook_modulate(bits, config);
  // Channel streams derive from the camera seed (one RNG draw, as
  // before the channel refactor — identity specs stay byte-identical).
  const std::uint64_t camera_seed = rng();
  camera::RollingShutterCamera camera(
      profile,
      channel::OpticalChannel(channel_spec,
                              runtime::derive_stream_seed(camera_seed, 0x0cc10ca1)),
      camera_seed);
  const std::vector<camera::Frame> frames = camera.capture_video(trace);
  const OokDecodeResult decoded = ook_demodulate(frames, config);

  OokRunResult result;
  result.bits_sent = bit_count;
  result.air_time_s = trace.duration();
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i >= decoded.observed.size() || !decoded.observed[i]) continue;
    ++result.bits_observed;
    if (decoded.bits[i] != bits[i]) ++result.bit_errors;
  }
  return result;
}

}  // namespace colorbars::baseline
