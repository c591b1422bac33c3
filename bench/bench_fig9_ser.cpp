// Reproduces Fig. 9: symbol error rate vs symbol frequency (1-4 kHz) for
// 4/8/16/32-CSK on the Nexus 5 (9a) and iPhone 5S (9b) camera models,
// with automatic exposure/ISO as in the paper.
//
// Paper shape: 4/8-CSK SER stays near zero (< 1e-3) at every frequency;
// 16/32-CSK SER rises with frequency as narrower bands increase the
// inter-symbol interference; the iPhone's cleaner color path gives it a
// lower SER than the Nexus despite its larger inter-frame gap.
//
// Set COLORBARS_GRID_WORKERS=N to run the grid through the sharded
// trial service (colorbars::svc) across N worker processes — results
// are byte-identical to the in-process run, and the scheduler stats are
// appended to the JSON report.

#include "bench_util.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/svc/service.hpp"

using namespace colorbars;

namespace {

core::LinkConfig point_config(const camera::SensorProfile& profile,
                              csk::CskOrder order, double frequency) {
  core::LinkConfig config;
  config.order = order;
  config.symbol_rate_hz = frequency;
  config.profile = profile;
  config.seed = 0xf19 + static_cast<std::uint64_t>(frequency) +
                (static_cast<std::uint64_t>(order) << 20);
  return config;
}

// 2.5 s per point, split into trials on derived seeds.
constexpr int kTrials = 2;
int symbols_per_trial(double frequency) {
  return static_cast<int>(frequency * 1.25);
}

}  // namespace

int main() {
  svc::maybe_run_worker();  // this binary is its own grid worker

  bench::print_header("Fig. 9: SER vs symbol frequency (CIELab matching, auto exposure)");
  bench::JsonReport report("fig9_ser");

  // With COLORBARS_GRID_WORKERS set, precompute every point through the
  // trial service; the print loops below then just index the results.
  const std::optional<int> grid_workers = svc::grid_workers_from_env();
  std::vector<svc::PointResult> grid_results;
  svc::SvcStats grid_stats;
  if (grid_workers) {
    svc::SweepSpec spec;
    for (const auto& profile : {camera::nexus5_profile(), camera::iphone5s_profile()}) {
      for (const csk::CskOrder order : csk::all_orders()) {
        for (const double frequency : bench::paper_frequencies()) {
          svc::SweepPoint point;
          point.config = point_config(profile, order, frequency);
          point.kind = svc::TrialKind::kSer;
          point.trials = kTrials;
          point.symbols_per_trial = symbols_per_trial(frequency);
          spec.points.push_back(std::move(point));
        }
      }
    }
    svc::ServiceConfig service;
    service.workers = *grid_workers;
    grid_results = svc::run_sweep(spec, service, &grid_stats);
  }

  std::size_t point_index = 0;
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
        core::BatchStats ser;
        core::BatchStats loss_ratio;
        if (grid_workers) {
          ser = grid_results[point_index].primary;
          loss_ratio = grid_results[point_index].loss_ratio;
          ++point_index;
        } else {
          core::LinkSimulator sim(point_config(profile, order, frequency));
          const core::SerBatchResult batch =
              sim.run_ser_trials(kTrials, symbols_per_trial(frequency));
          ser = batch.ser;
          loss_ratio = batch.inter_frame_loss_ratio;
        }
        std::printf(" %11.4f", ser.mean);
        report.add_row()
            .label("device", profile.name)
            .label("order", csk::order_name(order))
            .metric("symbol_rate_hz", frequency)
            .metric("ser_mean", ser.mean)
            .metric("ser_stddev", ser.stddev)
            .metric("loss_ratio_mean", loss_ratio.mean);
      }
      std::printf("\n");
    }
  }

  if (grid_workers) {
    report.add_row()
        .label("device", "scheduler")
        .metric("grid_workers", grid_stats.workers)
        .metric("jobs", static_cast<double>(grid_stats.jobs_total))
        .metric("retries", static_cast<double>(grid_stats.retries))
        .metric("respawns", static_cast<double>(grid_stats.respawns))
        .metric("wall_time_s", grid_stats.wall_time_s);
  }

  std::printf(
      "\nExpected shape: CSK4/CSK8 rows ~0 everywhere; CSK16/CSK32 grow with\n"
      "frequency; iPhone 5S values sit below the Nexus 5 values.\n");
  return 0;
}
