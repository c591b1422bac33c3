// Extension bench: photodiode/solar-cell frontend vs the rolling-shutter
// camera across a symbol-rate sweep. The camera's rate ceiling is
// geometric — one symbol must span at least min_band_rows scanlines, so
// past ~4.5 kHz (ideal profile) the bands thin out and the decode
// collapses — and a quarter of the slots die in the inter-frame gap at
// any rate. The photodiode array has neither limit: no raster, no gap,
// rate bounded only by the ADC sampling chain. Same transmitter, same
// coding stack, same classifier back half; only LinkConfig::frontend
// differs.
//
// Acceptance: the photodiode frontend sustains a symbol rate strictly
// above the camera's highest viable rate at SER <= target while
// observing (nearly) every slot.
//
// The grid runs through svc::run_sweep: in this process, or with
// COLORBARS_GRID_WORKERS=N across N worker processes (byte-identical).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace colorbars;

namespace {

constexpr double kSerTarget = 0.05;
/// A frontend must actually see most of the slots for its SER to mean
/// anything (SER is measured over observed slots only; the camera's
/// gap loss is ~25%, so a healthy camera point sits near 0.75).
constexpr double kMinObservedFraction = 0.5;

struct RatePoint {
  double rate_hz = 0.0;
  double ser = 0.0;
  double observed_fraction = 0.0;
  double loss_ratio = 0.0;
  bool viable = false;
};

svc::SweepPoint sweep_point(frontend::FrontendKind kind, double rate_hz) {
  svc::SweepPoint point;
  point.config.profile = camera::ideal_profile();
  point.config.frontend = kind;
  point.config.symbol_rate_hz = rate_hz;
  // Let the transmitter hardware chase the sweep — the stock
  // BeagleBone-class cap would clip the upper rates for both frontends.
  point.config.led.max_symbol_rate_hz = 64000.0;
  point.config.seed = 0x501a25ULL ^ static_cast<std::uint64_t>(rate_hz);
  point.kind = svc::TrialKind::kSer;
  point.trials = 3;
  point.symbols_per_trial = 1500;
  return point;
}

/// Pools a point's trials: SER over every observed symbol of the point.
RatePoint summarize(const svc::PointResult& result, double rate_hz) {
  long long sent = 0;
  long long observed = 0;
  long long errors = 0;
  for (const svc::TrialResult& trial : result.trials) {
    sent += trial.ser.symbols_sent;
    observed += trial.ser.symbols_observed;
    errors += trial.ser.symbol_errors;
  }
  RatePoint point;
  point.rate_hz = rate_hz;
  point.ser = observed > 0 ? static_cast<double>(errors) / static_cast<double>(observed)
                           : 1.0;
  point.observed_fraction =
      sent > 0 ? static_cast<double>(observed) / static_cast<double>(sent) : 0.0;
  point.loss_ratio = result.loss_ratio.mean;
  point.viable =
      point.ser <= kSerTarget && point.observed_fraction >= kMinObservedFraction;
  return point;
}

}  // namespace

int main() {
  svc::maybe_run_worker();  // this binary is its own grid worker

  bench::print_header(
      "Extension: photodiode (solar-cell) frontend vs rolling-shutter camera");
  bench::JsonReport report("extension_solar");

  const std::vector<double> rates = {2000.0, 3000.0, 4000.0, 6000.0,
                                     8000.0, 16000.0, 32000.0};
  const int bits_per_symbol = 3;  // CSK-8

  std::printf("%9s | %28s | %28s\n", "", "camera (rolling shutter)", "photodiode array");
  std::printf("%9s | %8s %9s %8s | %8s %9s %8s\n", "rate", "SER", "observed",
              "viable", "SER", "observed", "viable");
  svc::SweepSpec spec;
  for (const double rate : rates) {
    spec.points.push_back(sweep_point(frontend::FrontendKind::kCamera, rate));
    spec.points.push_back(sweep_point(frontend::FrontendKind::kPhotodiode, rate));
  }
  svc::SvcStats grid_stats;
  const std::vector<svc::PointResult> results = bench::run_grid(spec, grid_stats);

  double camera_best = 0.0;
  double pd_best = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    const RatePoint camera = summarize(results[2 * i], rate);
    const RatePoint pd = summarize(results[2 * i + 1], rate);
    if (camera.viable) camera_best = rate;
    if (pd.viable) pd_best = rate;
    std::printf("%7.0f/s | %8.4f %8.1f%% %8s | %8.4f %8.1f%% %8s\n", rate,
                camera.ser, 100.0 * camera.observed_fraction,
                camera.viable ? "yes" : "no", pd.ser,
                100.0 * pd.observed_fraction, pd.viable ? "yes" : "no");
    for (const RatePoint* point : {&camera, &pd}) {
      report.add_row()
          .label("frontend", point == &camera ? "camera" : "photodiode")
          .metric("symbol_rate_hz", point->rate_hz)
          .metric("ser", point->ser)
          .metric("observed_fraction", point->observed_fraction)
          .metric("inter_frame_loss_ratio", point->loss_ratio)
          .metric("viable", point->viable ? 1.0 : 0.0)
          .metric("raw_bps",
                  point->rate_hz * bits_per_symbol * point->observed_fraction *
                      (point->viable ? 1.0 : 0.0));
    }
  }

  std::printf("\ncamera ceiling: %.0f sym/s   photodiode: %.0f sym/s\n", camera_best,
              pd_best);
  report.add_row()
      .label("summary", "ceiling")
      .metric("camera_max_viable_rate_hz", camera_best)
      .metric("pd_max_viable_rate_hz", pd_best);
  bench::add_scheduler_row(report, "summary", grid_stats);

  // Acceptance: the pd frontend must push strictly past the camera's
  // rolling-shutter ceiling.
  if (pd_best > camera_best && camera_best > 0.0) {
    std::printf("acceptance: PASS — photodiode sustains %.1fx the camera ceiling\n",
                pd_best / camera_best);
  } else {
    std::printf("acceptance: FAIL — photodiode does not clear the camera ceiling\n");
    return 1;
  }
  return 0;
}
