#pragma once

// The photodiode frontend behind the frontend::SlotObservationSource
// seam: sampler → prefetch ring → clock recovery → slot reducer, one
// observation block per sample block, feeding the same streaming
// receiver back half as the camera. Frame-domain channel impairments
// (ChannelSpec::frame) do not apply — there are no frames — but the
// radiance-domain stages (distance, ambient, flicker, occlusion) act on
// every sample through the same OpticalChannel evaluator the camera
// integrates through, derived from the same capture-seed stream, so
// camera and pd observing one luminaire see identical channel
// randomness.

#include <cstdint>

#include "colorbars/frontend/frontend.hpp"
#include "colorbars/pd/pd.hpp"
#include "colorbars/pd/reducer.hpp"
#include "colorbars/pd/sampler.hpp"

namespace colorbars::pd {

/// Capture-side configuration of one pd decode, mirroring
/// frontend::CameraFrontendConfig.
struct PdFrontendConfig {
  PdConfig pd{};
  channel::ChannelSpec channel{};
  double symbol_rate_hz = 2000.0;
  /// Capture start offset into the trace (the pd capture simply starts
  /// sampling here; slots stay on the absolute trace clock).
  double start_offset_s = 0.0;
};

/// Photodiode array implementation of the frontend seam.
class PdFrontend final : public frontend::SlotObservationSource {
 public:
  /// Validates the pd config and the channel spec, and requires at
  /// least two samples per symbol (throws std::invalid_argument
  /// otherwise). `trace` must outlive the frontend. The optical channel
  /// derives from frontend::kOpticalSeedStream of `capture_seed` —
  /// the same stream a camera built from this seed uses — and sampler
  /// noise from frontend::kPdNoiseSeedStream.
  PdFrontend(const PdFrontendConfig& config, const led::EmissionTrace& trace,
             std::uint64_t capture_seed);
  PdFrontend(const PdFrontendConfig&, led::EmissionTrace&&, std::uint64_t) = delete;

  PdFrontend(const PdFrontend&) = delete;
  PdFrontend& operator=(const PdFrontend&) = delete;

  bool next_block(std::vector<rx::SlotObservation>& out) override;

  [[nodiscard]] const PdSampler& sampler() const noexcept { return sampler_; }
  [[nodiscard]] const SlotReducer& reducer() const noexcept { return reducer_; }

 private:
  PdSampler sampler_;
  PdSampleSource source_;
  SlotReducer reducer_;
  bool flushed_ = false;
};

}  // namespace colorbars::pd
