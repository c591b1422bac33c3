#include "colorbars/pd/frontend.hpp"

#include <stdexcept>

#include "colorbars/runtime/seed.hpp"

namespace colorbars::pd {

namespace {

const PdFrontendConfig& validated(const PdFrontendConfig& config) {
  config.pd.validate();
  config.channel.validate();
  if (!(config.symbol_rate_hz > 0.0)) {
    throw std::invalid_argument("PdFrontend: symbol_rate_hz must be positive");
  }
  if (config.pd.sample_rate_hz < 2.0 * config.symbol_rate_hz) {
    throw std::invalid_argument(
        "PdFrontend: sample_rate_hz must be at least twice the symbol rate");
  }
  return config;
}

/// The sampler of a config that has passed validated(): taking it as
/// the argument runs the checks before the sampler meters its AGC.
PdSampler make_sampler(const PdFrontendConfig& config, const led::EmissionTrace& trace,
                       std::uint64_t capture_seed) {
  return PdSampler(
      config.pd,
      channel::OpticalChannel(
          config.channel,
          runtime::derive_stream_seed(capture_seed, frontend::kOpticalSeedStream)),
      trace, config.start_offset_s,
      runtime::derive_stream_seed(capture_seed, frontend::kPdNoiseSeedStream));
}

}  // namespace

PdFrontend::PdFrontend(const PdFrontendConfig& config, const led::EmissionTrace& trace,
                       std::uint64_t capture_seed)
    : sampler_(make_sampler(validated(config), trace, capture_seed)),
      source_(sampler_),
      reducer_(config.pd, config.symbol_rate_hz) {}

bool PdFrontend::next_block(std::vector<rx::SlotObservation>& out) {
  out.clear();
  if (const SampleBlock* block = source_.next()) {
    reducer_.ingest(*block, out);
    return true;
  }
  // One flush block carries the replay buffer (if acquisition never
  // froze mid-stream) and the trailing slot; after it, end of stream.
  if (!flushed_) {
    flushed_ = true;
    reducer_.finish(out);
    return true;
  }
  return false;
}

}  // namespace colorbars::pd
