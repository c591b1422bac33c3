#pragma once

// Sensor profiles: everything device-specific about a rolling-shutter
// camera. The two built-in profiles model the paper's evaluation devices
// (Nexus 5 and iPhone 5S, §8) — their frame rates, inter-frame loss
// ratios (Table 1), color-response skews (Fig. 6a) and noise levels are
// set so the simulated link reproduces the paper's relative behaviour:
// the iPhone perceives colors more faithfully (lower SER) but loses more
// symbols per frame gap (lower throughput).

#include <string>

#include "colorbars/util/vec3.hpp"

namespace colorbars::camera {

/// Static description of one camera device.
struct SensorProfile {
  std::string name = "generic";

  /// Scanlines read per frame. Bands form along this axis.
  int rows = 1080;
  /// Simulated pixel columns. Real sensors have thousands; because the
  /// close-range LED illuminates every column of a row identically (up to
  /// vignetting and noise) and the receiver averages across columns, the
  /// simulator synthesizes a reduced column count for speed.
  int columns = 64;

  /// Video frame rate, frames per second.
  double fps = 30.0;

  /// Inter-frame loss ratio l: fraction of each frame period occupied by
  /// the readout gap during which no scanline samples light (paper §5).
  double inter_frame_loss_ratio = 0.25;

  /// Linear map from scene XYZ to this sensor's raw RGB response —
  /// the aggregate of its color filter array transmissivities and ISP
  /// color matrix. Differences in this matrix across devices are the
  /// paper's "different cameras, different symbols" effect (§6.1).
  util::Mat3 xyz_to_sensor_rgb = util::Mat3::identity();

  /// Read-noise standard deviation in normalized sensor units at unit gain.
  double read_noise = 0.003;
  /// Effective full-well depth in photo-electrons; photon shot noise is
  /// sqrt(signal * well) / well before gain.
  double well_capacity = 8000.0;

  /// Auto-exposure limits.
  double min_exposure_s = 1.0 / 12000.0;
  double max_exposure_s = 1.0 / 60.0;
  double min_iso = 100.0;
  double max_iso = 3200.0;

  /// Mean luminance target the auto-exposure controller aims for.
  double auto_exposure_target = 0.35;

  /// Vignetting: relative illumination falloff at the frame corners
  /// (0 = none). Produces the paper's Fig. 8a non-uniform brightness.
  double vignette_strength = 0.35;

  /// Frame-start timing jitter (seconds, uniform in [0, this], clamped
  /// to stay inside the inter-frame gap). Phone camera pipelines do not
  /// deliver frames on a perfect 33.3 ms grid; this jitter is what
  /// de-phases the inter-frame gap from the packet stream — without it,
  /// a packet sized to one frame period whose header lands in the gap
  /// would stay in the gap for many consecutive packets. Kept within the
  /// link code's 25% parity margin so a jitter-stretched gap stays
  /// correctable.
  double frame_start_jitter_s = 0.0015;

  /// Sensitivity scale: sensor response to unit radiance at ISO 100 and
  /// 1 ms exposure. Chosen so the close-range LED drives auto-exposure
  /// to ~0.1-0.2 ms — short enough to resolve kHz-rate bands, long
  /// enough to blur adjacent symbols at 3-4 kHz (the paper's ISI regime).
  double sensitivity = 8.5;

  /// Per-frame active readout duration (excludes the gap).
  [[nodiscard]] double readout_duration_s() const noexcept {
    return (1.0 - inter_frame_loss_ratio) / fps;
  }
  /// Time between consecutive scanline readouts.
  [[nodiscard]] double row_time_s() const noexcept {
    return readout_duration_s() / rows;
  }
  /// Duration of the inter-frame gap.
  [[nodiscard]] double gap_duration_s() const noexcept {
    return inter_frame_loss_ratio / fps;
  }
  /// Frame period (active readout + gap).
  [[nodiscard]] double frame_period_s() const noexcept { return 1.0 / fps; }

  /// Width of one symbol band in scanlines at `symbol_rate_hz`.
  [[nodiscard]] double band_rows(double symbol_rate_hz) const noexcept {
    return (1.0 / symbol_rate_hz) / row_time_s();
  }

  /// Throws std::invalid_argument unless every field is finite; rows,
  /// columns, fps, well_capacity and sensitivity are positive; read_noise
  /// is non-negative; the loss ratio is in [0, 1); and the exposure and
  /// ISO limits satisfy 0 < min <= max. A profile outside these bounds
  /// makes the render's noise sigma NaN or its auto-exposure clamp
  /// undefined (mirrors ExposureSettings::validate).
  void validate() const;
};

/// Nexus 5 rear camera model (2448x3264 @ 30 fps; Table 1 loss ratio
/// 0.2312). Stronger color-response skew and noise than the iPhone —
/// the paper observes it captures true colors less faithfully (Fig. 9).
[[nodiscard]] SensorProfile nexus5_profile();

/// iPhone 5S rear camera model (1080x1920 @ 30 fps; Table 1 loss ratio
/// 0.3727). Faithful color response but a larger inter-frame gap.
[[nodiscard]] SensorProfile iphone5s_profile();

/// A neutral reference camera with no response skew and mild noise, for
/// tests and controlled experiments.
[[nodiscard]] SensorProfile ideal_profile();

}  // namespace colorbars::camera
