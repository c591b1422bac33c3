// Navigation signs: the paper's second motivating scenario (§1) — office
// ceiling LEDs broadcast a floor map and walking directions; any device
// that can see a light receives the directions for that location.
//
// This example runs the SAME transmission past two different phones
// (Nexus 5-class and iPhone 5S-class) to show receiver diversity in
// action: both decode the broadcast despite perceiving the colors
// differently, thanks to transmitter-assisted calibration. It also shows
// how the transmitter must provision Reed-Solomon parity for the WORST
// receiver it wants to support (paper §8: the achievable goodput is
// bounded by the phone with the highest inter-frame loss).
//
// Build & run:   ./build/examples/navigation_signs

#include <cstdio>
#include <string>
#include <vector>

#include "colorbars/core/link.hpp"
#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/rx/streaming.hpp"

using namespace colorbars;

namespace {

struct Reception {
  std::string device;
  int packets_ok = 0;
  int packets_lost = 0;
  std::size_t bytes = 0;
};

Reception receive_with(const camera::SensorProfile& profile,
                       const tx::Transmission& transmission,
                       const rx::ReceiverConfig& rx_config, std::uint64_t seed) {
  camera::RollingShutterCamera camera(profile, {}, seed);
  // Stream the capture through the frame pipeline (only a lookahead's
  // worth of frames ever exists): each frame goes to the streaming
  // receiver as the camera delivers it.
  pipeline::BufferPool pool;
  pipeline::FrameSource source(camera, transmission.trace, pool, {});
  rx::StreamingReceiver receiver(rx_config);
  while (const camera::Frame* frame = source.next()) {
    receiver.push_frame(*frame);
    (void)receiver.poll();
  }
  receiver.on_stream_end();
  const rx::ReceiverReport report = receiver.take_report();
  Reception reception;
  reception.device = profile.name;
  reception.packets_ok = report.data_packets_ok;
  reception.packets_lost = report.data_packets_failed;
  reception.bytes = report.payload.size();
  return reception;
}

}  // namespace

int main() {
  const std::string directions =
      "FLOOR 3 | Room 314: straight 20 m, turn left at the atrium. "
      "Restrooms: behind you, 8 m. Fire exit: corridor end, right side.";
  std::vector<std::uint8_t> payload(directions.begin(), directions.end());

  // The ceiling LED must serve every phone that looks at it, so its RS
  // code is derived from the WORST loss ratio among supported devices —
  // the paper's §8 observation.
  const camera::SensorProfile nexus = camera::nexus5_profile();
  const camera::SensorProfile iphone = camera::iphone5s_profile();
  const double worst_loss =
      std::max(nexus.inter_frame_loss_ratio, iphone.inter_frame_loss_ratio);

  const double symbol_rate = 3000.0;
  const csk::CskOrder order = csk::CskOrder::kCsk8;
  const rs::CodeParameters code =
      core::derive_link_code(order, symbol_rate, 30.0, worst_loss, 0.8);

  tx::TransmitterConfig tx_config;
  tx_config.format.order = order;
  tx_config.symbol_rate_hz = symbol_rate;
  tx_config.rs_n = code.n;
  tx_config.rs_k = code.k;
  const tx::Transmitter transmitter(tx_config);
  const tx::Transmission transmission = transmitter.transmit(payload);

  rx::ReceiverConfig rx_config;
  rx_config.format = tx_config.format;
  rx_config.symbol_rate_hz = symbol_rate;
  rx_config.rs_n = code.n;
  rx_config.rs_k = code.k;

  std::printf("Ceiling LED broadcasts %zu bytes (CSK8 @ 3 kHz, RS(%d,%d) sized for\n"
              "the worst supported receiver, loss ratio %.2f)\n\n",
              payload.size(), code.n, code.k, worst_loss);

  for (const auto& profile : {nexus, iphone}) {
    const Reception reception = receive_with(profile, transmission, rx_config, 0x5109);
    std::printf("%-10s: %2d packets ok, %2d lost  ->  %3zu bytes of directions\n",
                reception.device.c_str(), reception.packets_ok, reception.packets_lost,
                reception.bytes);
  }

  std::printf(
      "\nBoth phones decode the same broadcast even though their color filters\n"
      "perceive the LED differently — each calibrates itself from the periodic\n"
      "calibration packets (paper SS6). The iPhone-class camera loses more\n"
      "packets because its inter-frame gap is larger; a looping broadcast\n"
      "fills the gaps on the next pass.\n");
  return 0;
}
