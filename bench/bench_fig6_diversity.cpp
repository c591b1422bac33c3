// Reproduces Fig. 6: receiver-diversity effects.
//   (a) the same 8-CSK symbols as perceived by the Nexus 5 and the
//       iPhone 5S (CIELab a/b coordinates of each received reference
//       color) — different color filters, different perceived symbols;
//   (b) the perceived color of one transmitted symbol (pure blue) as a
//       function of exposure time;
//   (c) the same as a function of ISO.

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/channel.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/rx/receiver.hpp"
#include "colorbars/tx/transmitter.hpp"

using namespace colorbars;

namespace {

/// Captures one calibration packet through `camera` and returns the
/// receiver's learned reference chroma for each symbol.
std::vector<color::ChromaAB> perceived_references(const camera::SensorProfile& profile,
                                                  std::optional<camera::ExposureSettings>
                                                      manual = std::nullopt,
                                                  channel::ChannelSpec channel_spec = {}) {
  tx::TransmitterConfig tx_config;
  tx_config.format.order = csk::CskOrder::kCsk8;
  tx_config.symbol_rate_hz = 1000.0;  // wide bands for clean references
  const tx::Transmitter transmitter(tx_config);
  const tx::Transmission transmission = transmitter.transmit_raw_symbols({});

  camera::RollingShutterCamera camera(profile, channel::OpticalChannel(channel_spec),
                                      0xd1ce);
  if (manual.has_value()) camera.set_manual_exposure(*manual);
  const auto frames = camera.capture_video(transmission.trace);

  rx::ReceiverConfig rx_config;
  rx_config.format = tx_config.format;
  rx_config.symbol_rate_hz = tx_config.symbol_rate_hz;
  rx::Receiver receiver(rx_config);
  (void)receiver.process(frames);

  std::vector<color::ChromaAB> references;
  for (int i = 0; i < 8; ++i) {
    const std::optional<color::ChromaAB> reference = receiver.store().reference(i);
    if (!reference.has_value()) {
      throw std::runtime_error(profile.name + ": calibration never showed symbol " +
                               std::to_string(i));
    }
    references.push_back(*reference);
  }
  return references;
}

}  // namespace

int main() {
  bench::print_header("Fig. 6(a): same 8-CSK symbols perceived by different cameras");
  bench::JsonReport report("fig6_diversity");
  const auto nexus = perceived_references(camera::nexus5_profile());
  const auto iphone = perceived_references(camera::iphone5s_profile());
  std::printf("%-6s %-22s %-22s %s\n", "sym", "Nexus 5 (a, b)", "iPhone 5S (a, b)",
              "ΔE between devices");
  for (int i = 0; i < 8; ++i) {
    std::printf("%-6d (%7.1f, %7.1f)     (%7.1f, %7.1f)     %6.1f\n", i, nexus[i].a,
                nexus[i].b, iphone[i].a, iphone[i].b,
                color::delta_e_ab(nexus[i], iphone[i]));
    report.add_row()
        .label("figure", "6a")
        .metric("symbol", i)
        .metric("nexus_a", nexus[i].a)
        .metric("nexus_b", nexus[i].b)
        .metric("iphone_a", iphone[i].a)
        .metric("iphone_b", iphone[i].b)
        .metric("delta_e", color::delta_e_ab(nexus[i], iphone[i]));
  }

  // Figs. 6b/6c transmit one steady symbol (pure blue) and sweep the
  // camera settings manually; the measurement is the mean chroma of the
  // captured frame. The LED is dimmed (neutral-density-style) so the
  // sweep spans under- to over-exposure instead of clipping immediately.
  const auto steady_blue_chroma = [](const camera::ExposureSettings& settings) {
    const csk::Constellation constellation(csk::CskOrder::kCsk8);
    const led::TriLed led;
    led::EmissionTrace trace;
    trace.append(0.2, led.radiance(csk::drive_for(constellation.gamut(),
                                                  constellation.gamut().blue())));
    // Dimmed (neutral-density-style) via distance: 0.03 m reference
    // moved to sqrt(1/0.12) x the reference ≈ 8.66 cm gives the old
    // 0.12 signal gain through the inverse-square attenuation stage.
    channel::ChannelSpec dimmed;
    dimmed.distance.distance_m = 0.03 / std::sqrt(0.12);
    camera::RollingShutterCamera camera(camera::nexus5_profile(),
                                        channel::OpticalChannel(dimmed), 0xb1ce);
    camera.set_manual_exposure(settings);
    const camera::Frame frame = camera.capture_frame(trace, 0.05);
    const auto scanlines = rx::reduce_to_scanlines(frame);
    color::ChromaAB mean;
    for (const auto& line : scanlines) mean += line.chroma;
    mean /= static_cast<double>(scanlines.size());
    return mean;
  };

  bench::print_header("Fig. 6(b): perceived color of pure blue vs exposure time");
  std::printf("%-16s %-10s %-10s\n", "exposure (us)", "a", "b");
  for (const double exposure_us : {200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0}) {
    const auto chroma = steady_blue_chroma({exposure_us / 1e6, 100.0});
    std::printf("%-16.0f %-10.1f %-10.1f\n", exposure_us, chroma.a, chroma.b);
    report.add_row()
        .label("figure", "6b")
        .metric("exposure_us", exposure_us)
        .metric("a", chroma.a)
        .metric("b", chroma.b);
  }

  bench::print_header("Fig. 6(c): perceived color of pure blue vs ISO");
  std::printf("%-10s %-10s %-10s\n", "ISO", "a", "b");
  for (const double iso : {100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0}) {
    const auto chroma = steady_blue_chroma({1.0 / 2500.0, iso});
    std::printf("%-10.0f %-10.1f %-10.1f\n", iso, chroma.a, chroma.b);
    report.add_row()
        .label("figure", "6c")
        .metric("iso", iso)
        .metric("a", chroma.a)
        .metric("b", chroma.b);
  }

  std::printf(
      "\nExpected shape: per-device reference colors differ by several ΔE (6a);\n"
      "exposure and ISO sweeps move the perceived chroma of the same symbol (6b/6c)\n"
      "— the motivation for transmitter-assisted calibration.\n");
  return 0;
}
