// Reproduces Fig. 1(e) and 1(f): the 8-CSK and 16-CSK constellation
// designs in the CIE 1931 xy plane (plus the 4- and 32-CSK sets the
// evaluation uses). Prints each symbol's chromaticity and the design's
// minimum inter-symbol distance — the quantity the 802.15.7 designs
// maximize.

#include "bench_util.hpp"
#include "colorbars/csk/mapper.hpp"

using namespace colorbars;

int main() {
  bench::print_header(
      "Fig. 1(e)/1(f): CSK constellation designs (CIE 1931 xy coordinates)");

  for (const csk::CskOrder order : csk::all_orders()) {
    const csk::Constellation constellation(order);
    const csk::SymbolMapper mapper(constellation);
    std::printf("\n%s (%d symbols, %d bits/symbol)\n", csk::order_name(order),
                constellation.size(), constellation.bits());
    std::printf("  %-6s %-8s %-8s %s\n", "sym", "x", "y", "bit label");
    for (int i = 0; i < constellation.size(); ++i) {
      const color::Chromaticity& point = constellation.point(i);
      std::printf("  %-6d %-8.4f %-8.4f 0b", i, point.x, point.y);
      for (int bit = constellation.bits() - 1; bit >= 0; --bit) {
        std::printf("%u", (mapper.label(i) >> bit) & 1u);
      }
      std::printf("\n");
    }
    std::printf("  min inter-symbol distance: %.4f   mean neighbor Hamming: %.2f\n",
                constellation.min_pairwise_distance(),
                mapper.mean_neighbor_hamming(constellation));
  }

  std::printf(
      "\nExpected shape: min distance shrinks as the order grows (4 > 8 > 16 > 32),\n"
      "matching the paper's Fig. 1 layouts inside the tri-LED gamut triangle.\n");
  return 0;
}
