#pragma once

// Rx-side link-quality estimation. The decoder already computes
// everything a rate controller needs: packet outcomes and ΔE decision
// margins against the calibration store. LinkMonitor folds one
// LinkQualitySample per control interval into an exponentially
// smoothed LinkQuality estimate the RateController consumes.

#include <cstdint>

namespace colorbars::adapt {

/// Raw per-control-interval quality signals, harvested from the
/// receiver report deltas and the interval's pipeline stats.
struct LinkQualitySample {
  /// Data packets the transmitter put on the air this interval.
  int packets_sent = 0;
  /// Data packet records that reached a decode decision (ok + failed).
  int packets_decided = 0;
  int packets_ok = 0;
  /// ΔE decision margin sum/count over classified payload slots.
  double margin_sum = 0.0;
  long long margin_count = 0;
  /// Frames the interval's capture delivered and its frame stages
  /// dropped (frontend::CameraFrontend's counts).
  long long frames_streamed = 0;
  long long frames_dropped = 0;

  /// The interval's packet success ratio. A link that sent packets but
  /// decided none is dead (0.0) — an uncalibrated too-high rung decodes
  /// nothing at all, and that must read as failure, not absence of
  /// evidence. An idle interval (nothing sent) reads as healthy.
  [[nodiscard]] double success() const noexcept {
    if (packets_decided > 0) {
      return static_cast<double>(packets_ok) / static_cast<double>(packets_decided);
    }
    return packets_sent > 0 ? 0.0 : 1.0;
  }

  [[nodiscard]] double mean_margin() const noexcept {
    return margin_count > 0 ? margin_sum / static_cast<double>(margin_count) : 0.0;
  }
};

/// LinkMonitor smoothing knobs.
struct MonitorConfig {
  /// EWMA weight of the newest sample, in (0, 1]. 1 disables smoothing.
  double alpha = 0.5;

  /// Throws std::invalid_argument unless alpha is in (0, 1].
  void validate() const;
};

/// The smoothed estimate. Both signals are EWMA over interval samples.
struct LinkQuality {
  double packet_success = 1.0;
  /// Smoothed mean ΔE decision margin; meaningful only when
  /// margin_valid (margins only exist for decoded payload slots).
  double margin = 0.0;
  bool margin_valid = false;
  int samples = 0;

  [[nodiscard]] bool valid() const noexcept { return samples > 0; }
};

/// Folds interval samples into the smoothed LinkQuality. reset() starts
/// a fresh estimate — call it at every epoch switch, since quality
/// measured under the old rung says nothing about the new one.
class LinkMonitor {
 public:
  /// Throws as MonitorConfig::validate does.
  explicit LinkMonitor(MonitorConfig config = {});

  void observe(const LinkQualitySample& sample);
  void reset();

  [[nodiscard]] const LinkQuality& quality() const noexcept { return quality_; }
  [[nodiscard]] const MonitorConfig& config() const noexcept { return config_; }

 private:
  MonitorConfig config_;
  LinkQuality quality_;
};

}  // namespace colorbars::adapt
