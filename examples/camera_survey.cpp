// Camera survey: an interactive-style explorer for receiver diversity
// (paper §6). For every built-in camera model it shows:
//   - the auto-exposure decision the camera makes for the LED,
//   - the CIELab chroma each CSK reference color lands on after that
//     camera's color filter, demosaic and exposure pipeline,
//   - how many references one calibration capture teaches the receiver,
//     and the smallest margin between those it learned.
//
// Useful when adding a new device profile: if the printed minimum margin
// for an order drops near the noise floor, that device needs a lower CSK
// order (or better optics) for reliable reception.
//
// Build & run:   ./build/examples/camera_survey

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/rx/receiver.hpp"
#include "colorbars/tx/transmitter.hpp"

using namespace colorbars;

namespace {

/// Learned reference colors for one device at one CSK order (empty
/// where the capture never showed the receiver that symbol).
std::vector<std::optional<color::ChromaAB>> survey_references(
    const camera::SensorProfile& profile, csk::CskOrder order) {
  tx::TransmitterConfig tx_config;
  tx_config.format.order = order;
  tx_config.symbol_rate_hz = 1000.0;
  const tx::Transmitter transmitter(tx_config);
  const tx::Transmission transmission = transmitter.transmit_raw_symbols({});

  camera::RollingShutterCamera camera(profile, {}, 0x5a17);
  const auto frames = camera.capture_video(transmission.trace);

  rx::ReceiverConfig rx_config;
  rx_config.format = tx_config.format;
  rx_config.symbol_rate_hz = tx_config.symbol_rate_hz;
  rx::Receiver receiver(rx_config);
  (void)receiver.process(frames);

  std::vector<std::optional<color::ChromaAB>> references;
  for (int i = 0; i < csk::symbol_count(order); ++i) {
    references.push_back(receiver.store().reference(i));
  }
  return references;
}

/// Smallest ΔE between two learned references; empty when fewer than
/// two were learned.
std::optional<double> min_margin(
    const std::vector<std::optional<color::ChromaAB>>& references) {
  double margin = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < references.size(); ++i) {
    for (std::size_t j = i + 1; j < references.size(); ++j) {
      if (!references[i].has_value() || !references[j].has_value()) continue;
      margin = std::min(margin, color::delta_e_ab(*references[i], *references[j]));
    }
  }
  if (margin == std::numeric_limits<double>::infinity()) return std::nullopt;
  return margin;
}

}  // namespace

int main() {
  const led::TriLed led;
  const led::Vec3 led_radiance = led.radiance(csk::white_drive());

  for (const auto& profile :
       {camera::nexus5_profile(), camera::iphone5s_profile(), camera::ideal_profile()}) {
    std::printf("=== %s ===\n", profile.name.c_str());
    std::printf("  %d scanlines @ %.0f fps, inter-frame loss ratio %.3f\n", profile.rows,
                profile.fps, profile.inter_frame_loss_ratio);

    camera::RollingShutterCamera camera(profile, {}, 1);
    const camera::ExposureSettings auto_exposure = camera.auto_exposure(led_radiance);
    std::printf("  auto exposure for this LED: %.0f us @ ISO %.0f\n",
                auto_exposure.exposure_s * 1e6, auto_exposure.iso);
    std::printf("  band width: %.1f rows at 1 kHz, %.1f rows at 4 kHz\n",
                profile.band_rows(1000), profile.band_rows(4000));

    for (const csk::CskOrder order : csk::all_orders()) {
      const auto references = survey_references(profile, order);
      const auto learned = std::count_if(references.begin(), references.end(),
                                         [](const auto& ref) { return ref.has_value(); });
      const std::optional<double> margin = min_margin(references);
      char margin_text[32] = "n/a";
      if (margin.has_value()) std::snprintf(margin_text, sizeof margin_text, "%.1f", *margin);
      std::printf("  CSK%-2d %d/%d references learned, min margin ΔE %s\n",
                  csk::symbol_count(order), static_cast<int>(learned),
                  csk::symbol_count(order), margin_text);
      if (order == csk::CskOrder::kCsk8) {
        for (std::size_t i = 0; i < references.size(); ++i) {
          if (references[i].has_value()) {
            std::printf("    sym %zu: (%7.1f, %7.1f)\n", i, references[i]->a,
                        references[i]->b);
          } else {
            std::printf("    sym %zu: not learned\n", i);
          }
        }
      }
    }
    std::printf("\n");
  }

  std::printf(
      "Reading the survey: a device is usable at an order when its minimum\n"
      "reference margin stays well above the per-band chroma noise (a few ΔE).\n"
      "The margin spans only the references this one capture taught the\n"
      "receiver, and reads n/a when it learned fewer than two.\n");
  return 0;
}
