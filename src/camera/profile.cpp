#include "colorbars/camera/profile.hpp"

#include <cmath>
#include <stdexcept>

#include "colorbars/color/srgb.hpp"

namespace colorbars::camera {

namespace {

using util::Mat3;

/// Builds a device color-response matrix: the sRGB ISP matrix composed
/// with a channel-crosstalk skew. `crosstalk` is the fraction of each
/// channel's response that leaks into its neighbors (CFA dye overlap);
/// `green_bias` models the Bayer green-heavy weighting differences.
Mat3 skewed_response(double crosstalk, double green_bias) {
  const Mat3 leak{1.0 - 2.0 * crosstalk, crosstalk, crosstalk,
                  crosstalk, (1.0 - 2.0 * crosstalk) * green_bias, crosstalk,
                  crosstalk, crosstalk, 1.0 - 2.0 * crosstalk};
  return leak * color::xyz_to_srgb_matrix();
}

[[noreturn]] void fail(const char* what) { throw std::invalid_argument(what); }

}  // namespace

void SensorProfile::validate() const {
  for (const auto& row : xyz_to_sensor_rgb.rows) {
    for (const double value : row) {
      if (!std::isfinite(value)) fail("SensorProfile: xyz_to_sensor_rgb must be finite");
    }
  }
  for (const double value :
       {fps, inter_frame_loss_ratio, read_noise, well_capacity, min_exposure_s,
        max_exposure_s, min_iso, max_iso, auto_exposure_target, vignette_strength,
        frame_start_jitter_s, sensitivity}) {
    if (!std::isfinite(value)) fail("SensorProfile: every field must be finite");
  }
  if (rows <= 0 || columns <= 0) fail("SensorProfile: rows and columns must be positive");
  if (!(fps > 0.0)) fail("SensorProfile: fps must be positive");
  if (!(inter_frame_loss_ratio >= 0.0) || !(inter_frame_loss_ratio < 1.0)) {
    fail("SensorProfile: inter_frame_loss_ratio must be in [0, 1)");
  }
  if (!(read_noise >= 0.0)) fail("SensorProfile: read_noise must be non-negative");
  if (!(well_capacity > 0.0)) fail("SensorProfile: well_capacity must be positive");
  if (!(sensitivity > 0.0)) fail("SensorProfile: sensitivity must be positive");
  if (!(min_exposure_s > 0.0) || !(min_exposure_s <= max_exposure_s)) {
    fail("SensorProfile: exposure limits must satisfy 0 < min <= max");
  }
  if (!(min_iso > 0.0) || !(min_iso <= max_iso)) {
    fail("SensorProfile: ISO limits must satisfy 0 < min <= max");
  }
}

SensorProfile nexus5_profile() {
  SensorProfile profile;
  profile.name = "Nexus 5";
  profile.rows = 2448;   // readout lines (sensor 2448x3264, paper §8)
  profile.columns = 64;  // simulated column subsample of the 3264
  profile.fps = 30.0;
  profile.inter_frame_loss_ratio = 0.2312;  // Table 1
  // Pronounced CFA crosstalk: the paper finds the Nexus 5 renders the
  // transmitted colors less faithfully than the iPhone (Fig. 6a / §8).
  profile.xyz_to_sensor_rgb = skewed_response(0.085, 0.97);
  profile.read_noise = 0.005;
  profile.well_capacity = 5000.0;
  profile.vignette_strength = 0.40;
  return profile;
}

SensorProfile iphone5s_profile() {
  SensorProfile profile;
  profile.name = "iPhone 5S";
  profile.rows = 1080;   // readout lines (sensor 1080x1920, paper §8)
  profile.columns = 64;  // simulated column subsample of the 1920
  profile.fps = 30.0;
  profile.inter_frame_loss_ratio = 0.3727;  // Table 1
  // Mild crosstalk: better color fidelity, hence the lower SER the paper
  // reports — but the larger gap loses more symbols per frame.
  profile.xyz_to_sensor_rgb = skewed_response(0.03, 1.0);
  profile.read_noise = 0.003;
  profile.well_capacity = 9000.0;
  profile.vignette_strength = 0.30;
  // Faster optics (f/2.2, larger pixels) than the Nexus: auto-exposure
  // lands near ~85 us, which its coarser 1080-line readout needs — at
  // 4 kHz its bands are only ~13 lines, so exposure blur must stay small
  // for the single-slot OFF flags to remain detectable.
  profile.sensitivity = 14.0;
  return profile;
}

SensorProfile ideal_profile() {
  SensorProfile profile;
  profile.name = "ideal";
  profile.rows = 1080;
  profile.columns = 32;
  profile.fps = 30.0;
  profile.inter_frame_loss_ratio = 0.25;
  profile.xyz_to_sensor_rgb = color::xyz_to_srgb_matrix();
  profile.read_noise = 0.001;
  profile.well_capacity = 20000.0;
  profile.vignette_strength = 0.0;
  profile.sensitivity = 12.0;  // short exposure for its 1080-line readout
  return profile;
}

}  // namespace colorbars::camera
