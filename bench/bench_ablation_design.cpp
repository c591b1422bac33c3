// Ablation bench: quantifies the design choices DESIGN.md calls out,
// each against its dropped/naive alternative on the same link.
//
//   1. Matching space — CIELab (a,b) vs full CIE94 vs raw RGB distance
//      (the "naive way" the paper rejects in §6.1).
//   2. Erasure vs blind-error RS decoding of the inter-frame gap
//      (the receiver locates the gap; declaring erasures doubles the
//      correctable loss for the same parity).
//   3. Gray-style vs natural bit labeling of the constellation
//      (misdetections land on spatial neighbors; Gray labels make each
//      such event cost ~1 bit).
//   4. De-phasing white pads between packets (without them, a packet
//      sized to one frame period phase-locks its header into the gap).

#include "bench_util.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/csk/mapper.hpp"

using namespace colorbars;

namespace {

core::SerResult ser_with_space(rx::MatchingSpace space, std::uint64_t seed) {
  core::LinkConfig config;
  config.order = csk::CskOrder::kCsk16;
  config.symbol_rate_hz = 2000.0;
  config.profile = camera::nexus5_profile();
  // Strong vignetting: the regime where brightness variation punishes
  // brightness-sensitive metrics (paper Fig. 8).
  config.profile.vignette_strength = 0.5;
  config.classifier.matching_space = space;
  config.seed = seed;
  core::LinkSimulator sim(config);
  return sim.run_ser(4000);
}

double goodput_with(bool erasures, bool pads, std::uint64_t seed) {
  core::LinkConfig config;
  config.order = csk::CskOrder::kCsk8;
  config.symbol_rate_hz = 3000.0;
  config.profile = camera::nexus5_profile();
  config.use_erasure_decoding = erasures;
  config.enable_dephasing_pad = pads;
  config.seed = seed;
  core::LinkSimulator sim(config);
  return sim.run_goodput(2.0).goodput_bps();
}

}  // namespace

int main() {
  bench::print_header("Ablation 1: symbol matching space (CSK16 @ 2 kHz, heavy vignette)");
  std::printf("%-24s %-10s %s\n", "matching space", "SER", "");
  const double lab_ser = ser_with_space(rx::MatchingSpace::kCielabAB, 11).ser();
  const double lab94_ser = ser_with_space(rx::MatchingSpace::kCielab94, 11).ser();
  const double rgb_ser = ser_with_space(rx::MatchingSpace::kRgb, 11).ser();
  std::printf("%-24s %-10.4f (production choice, paper §7)\n", "CIELab (a,b)", lab_ser);
  std::printf("%-24s %-10.4f\n", "CIE94 (L,a,b)", lab94_ser);
  std::printf("%-24s %-10.4f (the paper's rejected §6.1 baseline)\n", "RGB distance",
              rgb_ser);

  bench::print_header("Ablation 2: RS gap handling (CSK8 @ 3 kHz)");
  std::printf("%-28s %10.0f bps\n", "erasure decoding (located)",
              goodput_with(true, true, 21));
  std::printf("%-28s %10.0f bps\n", "blind error decoding",
              goodput_with(false, true, 21));

  bench::print_header("Ablation 3: constellation bit labeling");
  std::printf("%-8s %-24s %-24s\n", "order", "Gray (mean bits/error)", "natural labels");
  for (const csk::CskOrder order : csk::all_orders()) {
    const csk::Constellation constellation(order);
    const csk::SymbolMapper mapper(constellation);
    // Natural labels: label(i) == i. Mean Hamming distance to the
    // spatially nearest neighbor = bit cost of the dominant error event.
    double natural = 0.0;
    for (int i = 0; i < constellation.size(); ++i) {
      int nearest = -1;
      double best = 1e9;
      for (int j = 0; j < constellation.size(); ++j) {
        if (j == i) continue;
        const double d = color::xy_distance(constellation.point(i), constellation.point(j));
        if (d < best) {
          best = d;
          nearest = j;
        }
      }
      natural += csk::hamming(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(nearest));
    }
    natural /= constellation.size();
    std::printf("%-8s %-24.2f %-24.2f\n", csk::order_name(order),
                mapper.mean_neighbor_hamming(constellation), natural);
  }

  bench::print_header("Ablation 4: de-phasing pads between packets");
  std::printf("%-28s %10.0f bps\n", "pads enabled", goodput_with(true, true, 31));
  std::printf("%-28s %10.0f bps  (headers can lock into the gap)\n", "pads disabled",
              goodput_with(true, false, 31));

  std::printf(
      "\nExpected shape: CIELab matching beats RGB under non-uniform brightness;\n"
      "erasure decoding beats blind decoding; Gray labeling costs fewer bits per\n"
      "symbol error than natural labels; disabling the pads is at best equal and\n"
      "sometimes catastrophically worse (phase lottery).\n");
  return 0;
}
