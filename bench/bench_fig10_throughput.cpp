// Reproduces Fig. 10: raw throughput (no error correction; observed data
// symbols x bits per symbol, illumination symbols excluded) vs symbol
// frequency for all CSK orders on both camera models.
//
// Paper shape: throughput grows with both frequency and order; maxima at
// 32-CSK / 4 kHz are > 11 kbps (Nexus 5) and > 9 kbps (iPhone 5S); the
// iPhone trails the Nexus because of its larger inter-frame loss.

#include "bench_util.hpp"
#include "colorbars/core/link.hpp"

using namespace colorbars;

int main() {
  bench::print_header("Fig. 10: raw throughput (kbps) vs symbol frequency");
  bench::JsonReport report("fig10_throughput");

  for (const auto& profile : {camera::nexus5_profile(), camera::iphone5s_profile()}) {
    std::printf("\n%s\n", profile.name.c_str());
    std::printf("%-8s", "");
    for (const double frequency : bench::paper_frequencies()) {
      std::printf(" %9.0fHz", frequency);
    }
    std::printf("\n");
    for (const csk::CskOrder order : csk::all_orders()) {
      std::printf("%-8s", csk::order_name(order));
      for (const double frequency : bench::paper_frequencies()) {
        core::LinkConfig config;
        config.order = order;
        config.symbol_rate_hz = frequency;
        config.profile = profile;
        config.seed = 0xf10 + static_cast<std::uint64_t>(frequency) +
                      (static_cast<std::uint64_t>(order) << 20);
        core::LinkSimulator sim(config);
        // 2 s per point, split into parallel trials on derived seeds.
        const core::ThroughputBatchResult batch = sim.run_throughput_trials(2, 1.0);
        std::printf(" %9.2fkb", batch.throughput_bps.mean / 1000.0);
        report.add_row()
            .label("device", profile.name)
            .label("order", csk::order_name(order))
            .metric("symbol_rate_hz", frequency)
            .metric("throughput_bps_mean", batch.throughput_bps.mean)
            .metric("throughput_bps_stddev", batch.throughput_bps.stddev);
      }
      std::printf("\n");
    }
  }

  std::printf(
      "\nExpected shape: rises with frequency and order; ~11+ kbps at CSK32/4kHz on\n"
      "the Nexus-class camera and ~9+ kbps on the iPhone-class camera.\n");
  return 0;
}
