#pragma once

// Frame-domain channel impairments, realized as pipeline::FrameStage
// hooks between camera and receiver. Each stage derives its per-frame
// randomness from (stage seed, frame_index) — a pure function, so a
// capture impaired by these stages is byte-identical at any thread
// count and any pipeline lookahead.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "colorbars/channel/channel.hpp"
#include "colorbars/pipeline/pipeline.hpp"

namespace colorbars::channel {

/// Drops each frame independently with the configured probability —
/// the phone camera pipeline skipping a frame. A dropped frame never
/// reaches the receiver (pipeline::apply_stages skips later stages).
class FrameDropStage final : public pipeline::FrameStage {
 public:
  /// Throws std::invalid_argument unless probability is in [0, 1).
  FrameDropStage(double drop_probability, std::uint64_t seed);

  bool process(camera::Frame& frame) override;

  /// Frames this stage has rejected so far.
  [[nodiscard]] long long dropped() const noexcept { return dropped_; }

 private:
  double probability_;
  std::uint64_t seed_;
  long long dropped_ = 0;
};

/// Scales every pixel of a frame by a per-frame gain drawn from
/// N(1, sigma), clamped to [0.5, 1.5] — post-capture processing wobble
/// (tone mapping / digital gain hunting frame to frame).
class GainWobbleStage final : public pipeline::FrameStage {
 public:
  /// Throws std::invalid_argument unless sigma is in [0, 0.5].
  GainWobbleStage(double sigma, std::uint64_t seed);

  bool process(camera::Frame& frame) override;

  /// The gain this stage would apply to frame `frame_index` (exposed
  /// for tests; process() applies exactly this value).
  [[nodiscard]] double gain_for(int frame_index) const noexcept;

 private:
  double sigma_;
  std::uint64_t seed_;
};

/// Owns the frame-domain stages a ChannelSpec configures, in canonical
/// order (drop first — a skipped frame is never processed further),
/// and exposes them in the span form pipeline::apply_stages takes.
/// Empty for the identity spec.
class StageChain {
 public:
  StageChain() = default;
  /// Builds the chain for `spec.frame`, deriving one sub-stream per
  /// stage from `seed`.
  StageChain(const ChannelSpec& spec, std::uint64_t seed);

  StageChain(StageChain&&) = default;
  StageChain& operator=(StageChain&&) = default;

  [[nodiscard]] std::span<pipeline::FrameStage* const> stages() const noexcept {
    return raw_;
  }
  [[nodiscard]] bool empty() const noexcept { return raw_.empty(); }

 private:
  std::vector<std::unique_ptr<pipeline::FrameStage>> owned_;
  std::vector<pipeline::FrameStage*> raw_;
};

}  // namespace colorbars::channel
