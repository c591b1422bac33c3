// Reproduces Fig. 9: symbol error rate vs symbol frequency (1-4 kHz) for
// 4/8/16/32-CSK on the Nexus 5 (9a) and iPhone 5S (9b) camera models,
// with automatic exposure/ISO as in the paper.
//
// Paper shape: 4/8-CSK SER stays near zero (< 1e-3) at every frequency;
// 16/32-CSK SER rises with frequency as narrower bands increase the
// inter-symbol interference; the iPhone's cleaner color path gives it a
// lower SER than the Nexus despite its larger inter-frame gap.
//
// Every point runs through svc::run_sweep: in this process on the
// runtime pool, or with COLORBARS_GRID_WORKERS=N across N worker
// processes — byte-identical either way; with workers, the scheduler
// stats are appended to the JSON report.

#include "bench_util.hpp"

using namespace colorbars;

int main() {
  svc::maybe_run_worker();  // this binary is its own grid worker

  bench::print_header("Fig. 9: SER vs symbol frequency (CIELab matching, auto exposure)");
  bench::JsonReport report("fig9_ser");

  // 2.5 s per point, split into 2 trials on derived seeds.
  const svc::SweepSpec spec = bench::paper_grid(0xf19, [](svc::SweepPoint& point) {
    point.kind = svc::TrialKind::kSer;
    point.trials = 2;
    point.symbols_per_trial = static_cast<int>(point.config.symbol_rate_hz * 1.25);
  });
  svc::SvcStats grid_stats;
  const std::vector<svc::PointResult> results = bench::run_grid(spec, grid_stats);
  bench::print_paper_grid(results, report,
                          [](const svc::PointResult& result, bench::JsonReport::Row& row) {
                            std::printf(" %11.4f", result.primary.mean);
                            row.metric("ser_mean", result.primary.mean)
                                .metric("ser_stddev", result.primary.stddev)
                                .metric("loss_ratio_mean", result.loss_ratio.mean);
                          });
  bench::add_scheduler_row(report, "device", grid_stats);

  std::printf(
      "\nExpected shape: CSK4/CSK8 rows ~0 everywhere; CSK16/CSK32 grow with\n"
      "frequency; iPhone 5S values sit below the Nexus 5 values.\n");
  return 0;
}
