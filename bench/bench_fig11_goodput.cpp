// Reproduces Fig. 11: goodput (RS-recovered payload bits per second,
// packet overhead, calibration packets, illumination symbols and
// header-loss discards all included) vs symbol frequency for all CSK
// orders on both camera models.
//
// Paper shape: goodput peaks at 16-CSK / 4 kHz (~5.2 kbps Nexus 5,
// ~2.5 kbps iPhone 5S); at 32-CSK the higher SER begins to *reduce*
// goodput below the 16-CSK curve; the iPhone's larger gap both loses
// more packets and forces more parity, lowering its whole family of
// curves.
//
// The grid runs through svc::run_sweep: in this process, or with
// COLORBARS_GRID_WORKERS=N across N worker processes (byte-identical).

#include "bench_util.hpp"

using namespace colorbars;

int main() {
  svc::maybe_run_worker();  // this binary is its own grid worker

  bench::print_header("Fig. 11: goodput (kbps) vs symbol frequency");
  bench::JsonReport report("fig11_goodput");

  // 3 s per point, split into 2 trials on derived seeds.
  const svc::SweepSpec spec = bench::paper_grid(0xf11, [](svc::SweepPoint& point) {
    point.kind = svc::TrialKind::kGoodput;
    point.trials = 2;
    point.duration_s = 1.5;
  });
  svc::SvcStats grid_stats;
  const std::vector<svc::PointResult> results = bench::run_grid(spec, grid_stats);
  bench::print_paper_grid(results, report,
                          [](const svc::PointResult& result, bench::JsonReport::Row& row) {
                            std::printf(" %9.2fkb", result.primary.mean / 1000.0);
                            row.metric("goodput_bps_mean", result.primary.mean)
                                .metric("goodput_bps_stddev", result.primary.stddev);
                          });
  bench::add_scheduler_row(report, "device", grid_stats);

  std::printf(
      "\nExpected shape: grows with frequency; peak at CSK16/4kHz (~5 kbps\n"
      "Nexus-class, ~2.5 kbps iPhone-class); CSK32 falls at or below CSK16 at\n"
      "high frequency as its SER overwhelms the code.\n");
  return 0;
}
