#pragma once

// Sweep vocabulary for the trial service: a grid of sweep points (full
// LinkConfig plus a measurement kind and trial count), its decomposition
// into wire-level jobs, the job executor, and the aggregation of each
// point's trial rows into BatchStats.
//
// Byte-identity contract: run_job_trials runs trial t of a point on a
// fresh LinkSimulator of core::trial_config(point config, t), and
// aggregate_point folds the trial-ordered rows with core::stats_of: the
// recipe and the arithmetic of LinkSimulator::run_*_trials. Every trial
// is a pure function of (config, trial index), so svc::run_sweep is
// byte-identical at every pool size and worker count, under any job
// order, retries or crashes.

#include <vector>

#include "colorbars/core/link.hpp"
#include "colorbars/svc/wire.hpp"

namespace colorbars::svc {

/// One grid point of a sweep.
struct SweepPoint {
  core::LinkConfig config{};
  TrialKind kind = TrialKind::kSer;
  int trials = 1;
  int symbols_per_trial = 0;  ///< kSer
  double duration_s = 0.0;    ///< kThroughput / kGoodput
};

/// A whole sweep: the grid plus the sharding grain.
struct SweepSpec {
  std::vector<SweepPoint> points;
  /// Trials per job shard; a point's last shard may be smaller. <= 0
  /// means one job per point (no intra-point sharding).
  int trials_per_job = 1;
};

/// Aggregated outcome of one sweep point.
struct PointResult {
  /// Every trial outcome, in trial-index order.
  std::vector<TrialResult> trials;
  /// The point's primary metric statistics — ser() for kSer,
  /// throughput_bps() for kThroughput, goodput_bps() for kGoodput —
  /// bit-identical to the batch entry points.
  core::BatchStats primary;
  /// Measured inter-frame loss ratio statistics (kSer only).
  core::BatchStats loss_ratio;
};

/// Decomposes a sweep into jobs. Job ids are assigned in (point, shard)
/// order; ordering is irrelevant to results (each job names its point
/// and trial range explicitly). Throws std::invalid_argument if any
/// point's config fails LinkConfig::validate or its trial size fails
/// core::validate_trial_size, so a bad grid fails before any trial runs
/// or any worker spawns.
[[nodiscard]] std::vector<JobRequest> make_jobs(const SweepSpec& spec);

/// Executes one job's trials in this process (what a worker, or the
/// in-process sweep, runs per job). Throws std::invalid_argument on a
/// config the simulators reject.
[[nodiscard]] std::vector<TrialResult> run_job_trials(const JobRequest& job);

/// Folds a point's trial-ordered results into BatchStats with
/// core::stats_of, as the batch APIs do.
[[nodiscard]] PointResult aggregate_point(const SweepPoint& point,
                                          std::vector<TrialResult> trials);

}  // namespace colorbars::svc
