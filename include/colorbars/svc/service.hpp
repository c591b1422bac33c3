#pragma once

// The grid executor. run_sweep decomposes a sweep into jobs
// (svc/sweep.hpp) and runs them either in this process, one job per
// task on the runtime pool, or on a pool of worker processes —
// re-executions of its own binary, switched into worker mode by
// environment (maybe_run_worker) — over a Unix-domain socket using the
// length-prefixed JSON frames of svc/wire.hpp. Both paths re-key the
// job results into trial order and aggregate with aggregate_point.
//
// Fault tolerance: each worker heartbeats from a side thread while a
// job runs; the scheduler kills and respawns a worker whose job passes
// its deadline or whose stream goes silent past the liveness timeout,
// requeues the job (bounded retries with exponential respawn backoff),
// and drains gracefully on SIGTERM (in-flight jobs finish, nothing new
// dispatches). Because every trial's seed derives from (point seed,
// trial index), a retried or re-ordered job reproduces exactly the
// bytes the first attempt would have produced — results are
// byte-identical to the in-process run at any pool size and worker
// count, under any schedule, including crash-and-retry schedules.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "colorbars/adapt/simulator.hpp"
#include "colorbars/svc/sweep.hpp"

namespace colorbars::svc {

/// The most worker processes one run may spawn. run_sweep and
/// run_adaptive_batch reject a larger count before any socket or
/// process exists, and COLORBARS_GRID_WORKERS above it is ignored.
inline constexpr int kMaxWorkers = 256;

/// Scheduler tuning. Defaults suit the benches; tests shrink the
/// timeouts to exercise the kill/retry paths quickly.
struct ServiceConfig {
  /// Worker processes to spawn; 0 runs the jobs in this process on the
  /// runtime pool. Negative or above kMaxWorkers is an error.
  int workers = 2;
  /// Per-job wall-clock deadline, seconds: a job still unfinished this
  /// long after dispatch has hung its worker (logic wedge with a live
  /// heartbeat), so the worker is killed and the job requeued.
  double job_deadline_s = 300.0;
  /// Worker-side heartbeat cadence, seconds.
  double heartbeat_interval_s = 0.25;
  /// Server-side liveness window: a worker whose stream is silent this
  /// long (no result, no heartbeat) is presumed dead and killed.
  double liveness_timeout_s = 10.0;
  /// Base respawn delay after a worker death, seconds; doubles per
  /// consecutive death of the same worker slot (exponential backoff).
  double respawn_backoff_s = 0.05;
  /// Unix-domain socket path; empty derives one under TMPDIR from the
  /// server pid. Must fit sockaddr_un (~100 bytes).
  std::string socket_path;
};

/// One worker slot's scheduler-side counters.
struct WorkerStats {
  int worker = 0;
  long long jobs_completed = 0;
  /// Jobs requeued because this slot's process died or timed out.
  long long retries = 0;
  /// Process launches for this slot beyond the first.
  long long respawns = 0;
  /// Sum of completed-job latencies, seconds (dispatch to result).
  double busy_s = 0.0;
  /// Largest single completed-job latency, seconds.
  double max_job_s = 0.0;
  long long bytes_sent = 0;      ///< server -> this worker
  long long bytes_received = 0;  ///< this worker -> server
};

/// Aggregate scheduler statistics, mirrored into bench report JSON.
struct SvcStats {
  int workers = 0;
  long long jobs_total = 0;
  long long jobs_completed = 0;
  long long retries = 0;
  long long respawns = 0;
  long long bytes_sent = 0;
  long long bytes_received = 0;
  /// Peak pending-queue depth observed (jobs neither dispatched nor
  /// complete).
  long long max_queue_depth = 0;
  double wall_time_s = 0.0;
  bool drained = false;  ///< a SIGTERM drain cut the run short
  std::vector<WorkerStats> per_worker;
};

/// Runs the sweep in this process (`config.workers` == 0) or across
/// `config.workers` worker processes; the result is byte-identical
/// either way, and at every pool size. Throws std::invalid_argument on
/// a grid make_jobs rejects, and std::runtime_error on a worker count
/// outside [0, kMaxWorkers], when a job exhausts its retries, when the
/// run is drained before completing, or on socket/spawn failure. In process,
/// `stats` gets the job count and the wall time.
[[nodiscard]] std::vector<PointResult> run_sweep(const SweepSpec& spec,
                                                 const ServiceConfig& config,
                                                 SvcStats* stats = nullptr);

/// One closed-loop adaptive run to schedule (see adapt/simulator.hpp).
struct AdaptiveJob {
  adapt::AdaptiveLinkConfig config{};
  adapt::Trajectory trajectory{};
};

/// Runs a batch of adaptive simulations, one job per run, in this
/// process or across the worker pool as run_sweep does; results in
/// input order. Byte-identical to running each AdaptiveLinkSimulator in
/// order. Throws std::invalid_argument, before any run or worker, when
/// a run's config or trajectory fails its validate().
[[nodiscard]] std::vector<adapt::AdaptiveRunResult> run_adaptive_batch(
    const std::vector<AdaptiveJob>& runs, const ServiceConfig& config,
    SvcStats* stats = nullptr);

/// Worker-mode bootstrap. When COLORBARS_SVC_WORKER_SOCKET is set in
/// the environment this process is a spawned worker: connect, serve
/// jobs until shutdown, then _exit — the call never returns. A no-op
/// otherwise. Must be the first statement of main() in every binary
/// that calls run_sweep / run_adaptive_batch (the server spawns
/// /proc/self/exe, so the binary is its own worker).
void maybe_run_worker();

/// True when `result` answers `job`: the same id, the same adaptive
/// flag, and for a sweep job the same trial kind and exactly
/// trial_end - trial_begin rows. The scheduler treats any other result
/// like a bad frame: it kills the worker and requeues the job.
[[nodiscard]] bool result_answers_job(const JobRequest& job, const JobResultMessage& result);

/// Parses COLORBARS_GRID_WORKERS, the worker count of every figure
/// grid. Unset, empty, non-numeric, < 1 or > kMaxWorkers yields 0: the
/// grid runs in this process.
[[nodiscard]] int grid_workers_from_env();

}  // namespace colorbars::svc
