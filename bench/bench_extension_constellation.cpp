// Extension bench (paper §10 future work): high-order constellations
// decoded through pluggable symbol-decision engines on ISI channels.
//
// Part 1 reports the packing quality of every constellation in the
// receiver's decision metric — minimum pairwise ΔE over the rendered
// (a,b) chroma. The xy-plane max-min objective the standard optimizes
// is not the metric the receiver classifies with; at CSK64 density an
// xy packing collapses symbol pairs to near-coincident chroma, which
// is why the 64-point layout is packed with maxmin_packing_lab.
//
// Part 2 sweeps (order x engine x delay spread) and measures SER plus
// goodput through the full link simulator. The ISI channel uses
// symbol-spaced echo taps (tap spacing = one slot), the regime a
// linear FIR equalizer is built for; the exponential profile's
// sub-slot smear instead breaks packet framing (the OFF-prefix
// delimiter) before classification becomes the bottleneck.
//
// Acceptance gate: on the moderate-ISI channel, the equalized engine
// must hold CSK64 below the RS-correctable SER threshold while the
// nearest-reference scan fails it — the headline claim of the
// equalized-decode extension.

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "colorbars/color/lab.hpp"
#include "colorbars/color/srgb.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/csk/constellation.hpp"

using namespace colorbars;

namespace {

/// The receiver-side decision metric: minimum pairwise ΔE over the
/// constellation rendered through the reference camera pipeline
/// (unit-power LED emission, clipped sRGB sensor, CIELab). Mirrors the
/// render inside maxmin_packing_lab.
double min_rendered_ab_distance(const std::vector<color::Chromaticity>& points) {
  constexpr double kExposureScale = 1.3;
  auto rendered = [](const color::Chromaticity& c) {
    const color::XYZ emitted{c.x * kExposureScale, c.y * kExposureScale,
                             (1.0 - c.x - c.y) * kExposureScale};
    const util::Vec3 sensor = color::xyz_to_linear_srgb(emitted).clamped(0.0, 1.0);
    return color::chroma_of(color::xyz_to_lab(color::linear_srgb_to_xyz(sensor)));
  };
  std::vector<color::ChromaAB> ab;
  ab.reserve(points.size());
  for (const auto& p : points) ab.push_back(rendered(p));
  double best = 1e9;
  for (std::size_t i = 0; i < ab.size(); ++i) {
    for (std::size_t j = i + 1; j < ab.size(); ++j) {
      best = std::min(best, color::delta_e_ab(ab[i], ab[j]));
    }
  }
  return best;
}

struct SpreadPoint {
  const char* name;
  double delay_spread_s;
};

struct EnginePoint {
  const char* name;
  eq::EngineKind kind;
};

core::LinkConfig link_config(csk::CskOrder order, eq::EngineKind kind,
                             double spread_s) {
  core::LinkConfig config;
  config.order = order;
  config.symbol_rate_hz = 2000.0;
  config.profile = camera::ideal_profile();
  config.engine.kind = kind;
  // Short FIR: the symbol-spaced single-echo channel needs only the
  // direct tap plus one cancellation tap, and a short window keeps the
  // nearest-reference fallback rate (incomplete context after
  // inter-frame gaps) low.
  config.engine.channel_taps = 2;
  config.engine.equalizer_taps = 3;
  // Symbol-spaced echo: one reflection tap exactly one slot behind the
  // direct path, weighted exp(-slot / spread).
  config.channel.isi.delay_spread_s = spread_s;
  config.channel.isi.tap_spacing_s = 1.0 / config.symbol_rate_hz;
  config.channel.isi.taps = 2;
  return config;
}

}  // namespace

int main() {
  bench::print_header(
      "Extension: equalized decode of high-order constellations under ISI");

  bench::JsonReport report("extension_constellation");

  // ---- Part 1: packing quality in the decision metric ----------------
  const auto& gamut = color::default_led_gamut();
  std::printf("%-8s %-20s %-22s\n", "order", "min xy dist", "min rendered ab dist");
  for (const csk::CskOrder order : csk::all_orders()) {
    const csk::Constellation constellation(order, gamut);
    const double xy = constellation.min_pairwise_distance();
    const double ab = min_rendered_ab_distance(constellation.points());
    std::printf("%-8s %-20.4f %-22.3f\n", csk::order_name(order), xy, ab);
    report.add_row()
        .label("table", "packing")
        .label("order", csk::order_name(order))
        .metric("min_xy_distance", xy)
        .metric("min_rendered_ab_distance", ab);
  }

  // ---- Part 2: SER / goodput per (order x engine x delay spread) -----
  const SpreadPoint spreads[] = {
      {"clean", 0.0},
      {"moderate", 0.00022},
      {"harsh", 0.0003},
  };
  const EnginePoint engines[] = {
      {"nearest", eq::EngineKind::kNearestReference},
      {"mmse", eq::EngineKind::kLinearMmse},
      {"freq", eq::EngineKind::kFrequencyDomain},
  };
  const csk::CskOrder orders[] = {csk::CskOrder::kCsk16, csk::CskOrder::kCsk32,
                                  csk::CskOrder::kCsk64};

  std::printf("\n%-8s %-10s %-9s %-10s %-12s %-10s %-8s\n", "order", "spread",
              "engine", "SER", "goodput bps", "retrains", "fallback");

  double ser_nearest_csk64_moderate = -1.0;
  double ser_mmse_csk64_moderate = -1.0;
  double threshold_csk64 = 0.0;
  for (const csk::CskOrder order : orders) {
    for (const SpreadPoint& spread : spreads) {
      for (const EnginePoint& engine : engines) {
        core::LinkConfig config = link_config(order, engine.kind, spread.delay_spread_s);
        const rs::CodeParameters code = config.code();
        // Half the parity corrects errors; the rest is erasure headroom
        // for inter-frame gaps.
        const double rs_threshold =
            0.5 * static_cast<double>(code.n - code.k) / static_cast<double>(code.n);

        core::LinkSimulator ser_sim(config);
        const core::SerResult ser = ser_sim.run_ser(4000);

        core::LinkSimulator goodput_sim(config);
        const core::LinkRunResult run = goodput_sim.run_goodput(1.5);

        std::printf("%-8s %-10s %-9s %-10.4f %-12.0f %-10lld %-8lld\n",
                    csk::order_name(order), spread.name, engine.name, ser.ser(),
                    run.goodput_bps(), ser.engine_retrains,
                    ser.engine_fallback_decisions);
        report.add_row()
            .label("table", "link")
            .label("order", csk::order_name(order))
            .label("spread", spread.name)
            .label("engine", engine.name)
            .metric("delay_spread_s", spread.delay_spread_s)
            .metric("ser", ser.ser())
            .metric("rs_correctable_ser", rs_threshold)
            .metric("goodput_bps", run.goodput_bps())
            .metric("recovered_bytes", static_cast<double>(run.recovered_bytes))
            .metric("engine_decisions", static_cast<double>(ser.engine_decisions))
            .metric("engine_fallback_decisions",
                    static_cast<double>(ser.engine_fallback_decisions))
            .metric("engine_retrains", static_cast<double>(ser.engine_retrains))
            .metric("engine_train_fallbacks",
                    static_cast<double>(ser.engine_train_fallbacks))
            .metric("engine_tap_norm", ser.engine_tap_norm);

        if (order == csk::CskOrder::kCsk64 &&
            std::string(spread.name) == "moderate") {
          threshold_csk64 = rs_threshold;
          if (engine.kind == eq::EngineKind::kNearestReference) {
            ser_nearest_csk64_moderate = ser.ser();
          }
          if (engine.kind == eq::EngineKind::kLinearMmse) {
            ser_mmse_csk64_moderate = ser.ser();
          }
        }
      }
    }
  }

  // ---- Acceptance gate ------------------------------------------------
  const bool nearest_fails = ser_nearest_csk64_moderate > threshold_csk64;
  const bool equalized_holds = ser_mmse_csk64_moderate >= 0.0 &&
                               ser_mmse_csk64_moderate < threshold_csk64;
  const bool pass = nearest_fails && equalized_holds;
  std::printf(
      "\nCSK64 @ moderate ISI: nearest SER %.4f vs mmse SER %.4f "
      "(RS-correctable %.4f)\n",
      ser_nearest_csk64_moderate, ser_mmse_csk64_moderate, threshold_csk64);
  std::printf("acceptance (equalized sustains CSK64 where nearest fails): %s\n",
              pass ? "PASS" : "FAIL");
  report.add_row()
      .label("table", "acceptance")
      .metric("ser_nearest_csk64_moderate", ser_nearest_csk64_moderate)
      .metric("ser_mmse_csk64_moderate", ser_mmse_csk64_moderate)
      .metric("rs_correctable_ser", threshold_csk64)
      .metric("pass", pass ? 1 : 0);
  report.write();
  return pass ? 0 : 1;
}
