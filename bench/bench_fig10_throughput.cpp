// Reproduces Fig. 10: raw throughput (no error correction; observed data
// symbols x bits per symbol, illumination symbols excluded) vs symbol
// frequency for all CSK orders on both camera models.
//
// Paper shape: throughput grows with both frequency and order; maxima at
// 32-CSK / 4 kHz are > 11 kbps (Nexus 5) and > 9 kbps (iPhone 5S); the
// iPhone trails the Nexus because of its larger inter-frame loss.
//
// The grid runs through svc::run_sweep: in this process, or with
// COLORBARS_GRID_WORKERS=N across N worker processes (byte-identical).

#include "bench_util.hpp"

using namespace colorbars;

int main() {
  svc::maybe_run_worker();  // this binary is its own grid worker

  bench::print_header("Fig. 10: raw throughput (kbps) vs symbol frequency");
  bench::JsonReport report("fig10_throughput");

  // 2 s per point, split into 2 trials on derived seeds.
  const svc::SweepSpec spec = bench::paper_grid(0xf10, [](svc::SweepPoint& point) {
    point.kind = svc::TrialKind::kThroughput;
    point.trials = 2;
    point.duration_s = 1.0;
  });
  svc::SvcStats grid_stats;
  const std::vector<svc::PointResult> results = bench::run_grid(spec, grid_stats);
  bench::print_paper_grid(results, report,
                          [](const svc::PointResult& result, bench::JsonReport::Row& row) {
                            std::printf(" %9.2fkb", result.primary.mean / 1000.0);
                            row.metric("throughput_bps_mean", result.primary.mean)
                                .metric("throughput_bps_stddev", result.primary.stddev);
                          });
  bench::add_scheduler_row(report, "device", grid_stats);

  std::printf(
      "\nExpected shape: rises with frequency and order; ~11+ kbps at CSK32/4kHz on\n"
      "the Nexus-class camera and ~9+ kbps on the iPhone-class camera.\n");
  return 0;
}
