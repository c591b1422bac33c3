#pragma once

// Sweep vocabulary for the trial service: a grid of sweep points (full
// LinkConfig plus a measurement kind and trial count), its decomposition
// into wire-level jobs, the worker-side job executor, and the
// aggregation back into the BatchStats the sequential
// LinkSimulator::run_*_trials entry points produce.
//
// Byte-identity contract: run_job_trials executes trial t of a point
// exactly as core run_trials does — a fresh LinkSimulator whose seed is
// derive_stream_seed(point seed, t) — and aggregate_point replicates
// link.cpp's stats_of arithmetic (sum in trial-index order, then the
// n-1 sample stddev). Because every trial is a pure function of
// (config, trial index), the sharded result is byte-identical to the
// sequential run regardless of worker count, job order, retries or
// crashes.

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
  /// bit-identical to the sequential batch entry points.
  core::BatchStats primary;
  /// Measured inter-frame loss ratio statistics (kSer only).
  core::BatchStats loss_ratio;
};

/// Decomposes a sweep into jobs. Job ids are assigned in (point, shard)
/// order; ordering is irrelevant to results (each job names its point
/// and trial range explicitly). Throws std::invalid_argument if any
/// point's config fails LinkConfig::validate, so both sweep paths
/// reject a bad grid before any trial runs or any worker spawns.
[[nodiscard]] std::vector<JobRequest> make_jobs(const SweepSpec& spec);

/// Executes one job's trials in-process (the worker's compute path, and
/// the building block of the sequential reference). Throws
/// std::invalid_argument on a config the simulators reject.
[[nodiscard]] std::vector<TrialResult> run_job_trials(const JobRequest& job);

/// Folds a point's trial-ordered results into BatchStats, replicating
/// core link.cpp's stats_of arithmetic exactly.
[[nodiscard]] PointResult aggregate_point(const SweepPoint& point,
                                          std::vector<TrialResult> trials);

/// Runs the whole sweep in this process, sequentially over jobs — the
/// reference the distributed scheduler must match byte for byte.
[[nodiscard]] std::vector<PointResult> run_sweep_sequential(const SweepSpec& spec);

}  // namespace colorbars::svc
