#include "colorbars/baseline/fsk.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "colorbars/runtime/seed.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::baseline {

/// Most half-periods one dwell may hold, 2 * frequency * dwell_s. Any
/// bound far below 2^52 makes every half-period a visible step off the
/// dwell left; this one also caps the trace at 2^16 segments per symbol.
constexpr double kMaxHalfPeriodsPerDwell = 65536.0;

void FskConfig::validate() const {
  if (frequencies.empty()) {
    throw std::invalid_argument("FskConfig: the frequency alphabet is empty");
  }
  if (!std::isfinite(dwell_s) || !(dwell_s > 0.0)) {
    throw std::invalid_argument("FskConfig: dwell_s must be finite and positive");
  }
  for (const double frequency : frequencies) {
    if (!std::isfinite(frequency) || !(frequency > 0.0)) {
      throw std::invalid_argument("FskConfig: every frequency must be finite and positive");
    }
    if (!(2.0 * frequency * dwell_s <= kMaxHalfPeriodsPerDwell)) {
      throw std::invalid_argument(
          "FskConfig: a frequency puts more than 2^16 half-periods in one dwell");
    }
  }
}

led::EmissionTrace fsk_modulate(const std::vector<int>& symbols, const FskConfig& config) {
  config.validate();
  const led::TriLed led(config.led);
  const led::Vec3 on = led.radiance(csk::white_drive());
  const led::Vec3 off = led.radiance(csk::off_drive());

  led::EmissionTrace trace;
  for (const int symbol : symbols) {
    const double frequency = config.frequencies.at(static_cast<std::size_t>(symbol));
    const double half_period = 0.5 / frequency;
    double remaining = config.dwell_s;
    bool high = true;
    while (remaining > 1e-12) {
      const double slice = std::min(half_period, remaining);
      trace.append(slice, high ? on : off);
      remaining -= slice;
      high = !high;
    }
  }
  return trace;
}

std::vector<int> fsk_demodulate(const std::vector<camera::Frame>& frames,
                                const FskConfig& config) {
  std::vector<int> symbols;
  symbols.reserve(frames.size());
  for (const camera::Frame& frame : frames) {
    const std::vector<rx::ScanlineColor> scanlines = rx::reduce_to_scanlines(frame);
    if (scanlines.empty()) {  // a frame without pixels carries no symbol
      symbols.push_back(-1);
      continue;
    }
    // Count ON<->OFF transitions along the scanlines.
    int transitions = 0;
    bool previous_on = scanlines.front().lightness >= config.on_lightness;
    for (const rx::ScanlineColor& line : scanlines) {
      const bool on = line.lightness >= config.on_lightness;
      if (on != previous_on) {
        ++transitions;
        previous_on = on;
      }
    }
    // Each square-wave period produces two transitions across the
    // visible readout window.
    const double visible_s = frame.row_time_s * frame.rows;
    const double estimated_frequency = transitions / (2.0 * visible_s);

    int best = -1;
    double best_error = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < config.frequencies.size(); ++i) {
      const double error = std::abs(config.frequencies[i] - estimated_frequency);
      if (error < best_error) {
        best_error = error;
        best = static_cast<int>(i);
      }
    }
    // Reject frames whose estimate is not clearly nearest one alphabet
    // entry (e.g. a frame straddling two dwells).
    if (best >= 0 && config.frequencies.size() > 1) {
      double spacing = std::numeric_limits<double>::infinity();
      for (std::size_t i = 1; i < config.frequencies.size(); ++i) {
        spacing = std::min(spacing, config.frequencies[i] - config.frequencies[i - 1]);
      }
      if (best_error > 0.5 * spacing) best = -1;
    }
    symbols.push_back(best);
  }
  return symbols;
}

FskRunResult fsk_run(const FskConfig& config, const camera::SensorProfile& profile,
                     const channel::ChannelSpec& channel_spec, int symbol_count,
                     std::uint64_t seed) {
  config.validate();
  util::Xoshiro256 rng(seed);
  std::vector<int> symbols(static_cast<std::size_t>(symbol_count));
  for (int& symbol : symbols) {
    symbol = static_cast<int>(rng.below(config.frequencies.size()));
  }

  const led::EmissionTrace trace = fsk_modulate(symbols, config);
  // Channel streams derive from the camera seed (one RNG draw, as
  // before the channel refactor — identity specs stay byte-identical).
  const std::uint64_t camera_seed = rng();
  camera::RollingShutterCamera camera(
      profile,
      channel::OpticalChannel(channel_spec,
                              runtime::derive_stream_seed(camera_seed, 0x0cc10ca1)),
      camera_seed);
  // Align frame capture with dwell boundaries, as the synchronized
  // baselines do (RollingLight handles the unsynchronized case with
  // extra overhead that only lowers its rate further).
  const std::vector<camera::Frame> frames = camera.capture_video(trace);
  const std::vector<int> decoded = fsk_demodulate(frames, config);

  FskRunResult result;
  result.symbols_sent = symbol_count;
  result.air_time_s = trace.duration();
  result.bits_per_symbol = config.bits_per_symbol();
  const std::size_t compare = std::min(decoded.size(), symbols.size());
  for (std::size_t i = 0; i < compare; ++i) {
    if (decoded[i] < 0) continue;
    ++result.symbols_decoded;
    if (decoded[i] != symbols[i]) ++result.symbol_errors;
  }
  return result;
}

}  // namespace colorbars::baseline
