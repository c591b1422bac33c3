// Reproduces the paper's motivating comparison (§1, §2.1, §9): the
// prior rolling-shutter modulation schemes — OOK and FSK (the
// RollingLight-class baselines reporting ~11.32 and ~1.25 bytes/sec) —
// against ColorBars' CSK link, all over the same simulated camera.

#include "bench_util.hpp"
#include "colorbars/baseline/fsk.hpp"
#include "colorbars/baseline/ook.hpp"
#include "colorbars/core/link.hpp"

using namespace colorbars;

int main() {
  bench::print_header("Baseline comparison: OOK vs FSK vs ColorBars CSK (Nexus-class camera)");

  const camera::SensorProfile profile = camera::nexus5_profile();
  const channel::ChannelSpec channel_spec{};

  std::printf("%-26s %-16s %-14s %s\n", "scheme", "throughput", "error rate",
              "notes");

  {
    baseline::FskConfig config;
    const baseline::FskRunResult result = baseline::fsk_run(config, profile, channel_spec, 90, 7);
    std::printf("%-26s %10.1f bps  %-14.4f %s\n", "FSK (8 freq, 1 sym/frame)",
                result.throughput_bps(), result.ser(),
                "RollingLight-class baseline (~90 bps = 11 B/s)");
  }
  {
    baseline::OokConfig config;
    config.symbol_rate_hz = 2000.0;
    const baseline::OokRunResult result =
        baseline::ook_run(config, profile, channel_spec, 6000, 8);
    std::printf("%-26s %10.1f bps  %-14.4f %s\n", "OOK @ 2 kHz",
                result.throughput_bps(), result.ber(),
                "1 bit/band, ambient-sensitive, flickers");
  }
  for (const csk::CskOrder order : {csk::CskOrder::kCsk8, csk::CskOrder::kCsk16}) {
    core::LinkConfig config;
    config.order = order;
    config.symbol_rate_hz = 4000.0;
    config.profile = profile;
    core::LinkSimulator sim(config);
    const core::LinkRunResult result = sim.run_goodput(3.0);
    const core::SerResult ser = sim.run_ser(4000);
    std::printf("ColorBars %-16s %10.1f bps  %-14.4f %s\n",
                csk::order_name(order), result.goodput_bps(), ser.ser(),
                "goodput incl. FEC + calibration + whites");
  }

  std::printf(
      "\nExpected shape: FSK lands near the paper's ~11 bytes/s; OOK carries one\n"
      "bit per band; ColorBars CSK delivers two orders of magnitude more than FSK.\n");
  return 0;
}
