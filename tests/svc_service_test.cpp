// Tests of the grid executor (colorbars::svc::run_sweep): a sweep must be
// byte-identical in process at every pool size and on workers at every
// worker count, including schedules where a worker crashes mid-job
// (kill, respawn, requeue, retry) or wedges past its deadline. The
// reference is the in-process run on a one-thread pool, which runs the
// jobs inline in job order. The crash/hang injections are env-triggered
// in run_job_trials and fire only in generation-0 workers, so a retried
// job always completes.
//
// These tests spawn real worker processes by re-executing this test
// binary (tests/main.cpp calls maybe_run_worker() before gtest runs).
// The Svc suite is TSan-required; SvcTimeout is kept out of the TSan
// filter because its deadlines are wall-clock and TSan slows the
// workers by an order of magnitude.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "colorbars/adapt/simulator.hpp"
#include "colorbars/camera/profile.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/svc/json.hpp"
#include "colorbars/svc/service.hpp"
#include "colorbars/svc/sweep.hpp"
#include "colorbars/svc/wire.hpp"

namespace colorbars::svc {
namespace {

/// Sets an environment variable for the scope (restores the previous
/// value on destruction). Worker processes inherit the server's
/// environment, so this is how the fault injections reach them.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = ::getenv(name)) {
      had_previous_ = true;
      previous_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_previous_) {
      ::setenv(name_.c_str(), previous_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string previous_;
  bool had_previous_ = false;
};

/// A small two-point SER grid: 6 jobs at grain 1, cheap enough to run
/// several times per test yet wide enough that jobs interleave across
/// workers in a schedule-dependent order.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.trials_per_job = 1;
  SweepPoint a;
  a.config.order = csk::CskOrder::kCsk8;
  a.config.symbol_rate_hz = 1000.0;
  a.config.seed = 0x51d0a;
  a.kind = TrialKind::kSer;
  a.trials = 3;
  a.symbols_per_trial = 96;
  SweepPoint b = a;
  b.config.order = csk::CskOrder::kCsk16;
  b.config.symbol_rate_hz = 2000.0;
  b.config.seed = 0x51d0b;
  spec.points = {a, b};
  return spec;
}

/// One point of each trial kind, cheap enough to run several times: no
/// tier-1 grid sends throughput or goodput rows anywhere else.
SweepSpec mixed_spec() {
  SweepSpec spec;
  SweepPoint ser;
  ser.config.order = csk::CskOrder::kCsk8;
  ser.config.symbol_rate_hz = 2000.0;
  ser.config.profile = camera::ideal_profile();
  ser.config.seed = 0x3e1;
  ser.kind = TrialKind::kSer;
  ser.trials = 2;
  ser.symbols_per_trial = 200;
  SweepPoint throughput = ser;
  throughput.config.seed = 0x3e2;
  throughput.kind = TrialKind::kThroughput;
  throughput.symbols_per_trial = 0;
  throughput.duration_s = 0.3;
  SweepPoint goodput = throughput;
  goodput.config.seed = 0x3e3;
  goodput.kind = TrialKind::kGoodput;
  goodput.duration_s = 0.5;
  spec.points = {ser, throughput, goodput};
  return spec;
}

/// Runs the sweep with no workers on a shared pool of `threads`
/// contexts (1: the reference, every job inline in job order), then
/// restores the default pool, also when the sweep throws.
std::vector<PointResult> in_process(const SweepSpec& spec, unsigned threads = 1) {
  struct PoolSize {
    explicit PoolSize(unsigned threads) { runtime::ThreadPool::set_shared_thread_count(threads); }
    ~PoolSize() { runtime::ThreadPool::set_shared_thread_count(0); }
  } pool(threads);
  ServiceConfig config;
  config.workers = 0;
  return run_sweep(spec, config);
}

/// Serializes every trial row and the aggregate stats through the exact
/// numeric tokens of the wire layer — equal fingerprints mean equal
/// bytes, not merely equal-within-epsilon.
std::string fingerprint(const SweepSpec& spec,
                        const std::vector<PointResult>& results) {
  std::string out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    JobResultMessage message;
    message.trials_kind = spec.points[i].kind;
    message.trials = results[i].trials;
    out += encode_job_result(message);
    out += '|';
    out += Json::number(results[i].primary.mean).dump();
    out += ',';
    out += Json::number(results[i].primary.stddev).dump();
    out += ',';
    out += std::to_string(results[i].primary.trials);
    out += ',';
    out += Json::number(results[i].loss_ratio.mean).dump();
    out += ',';
    out += Json::number(results[i].loss_ratio.stddev).dump();
    out += '\n';
  }
  return out;
}

TEST(Svc, GridWorkersFromEnvParses) {
  {
    ScopedEnv env("COLORBARS_GRID_WORKERS", "3");
    EXPECT_EQ(grid_workers_from_env(), 3);
  }
  {
    ScopedEnv env("COLORBARS_GRID_WORKERS", "256");
    EXPECT_EQ(grid_workers_from_env(), 256);
  }
  // Anything else runs the grid in process.
  for (const char* value : {"0", "-2", "257", "banana", "3x", ""}) {
    ScopedEnv env("COLORBARS_GRID_WORKERS", value);
    EXPECT_EQ(grid_workers_from_env(), 0) << value;
  }
  ::unsetenv("COLORBARS_GRID_WORKERS");
  EXPECT_EQ(grid_workers_from_env(), 0);
}

TEST(Svc, ShardedSweepIsByteIdenticalAtEveryWorkerCount) {
  const SweepSpec spec = small_spec();
  const std::string reference = fingerprint(spec, in_process(spec));
  for (const int workers : {1, 2, 4}) {
    ServiceConfig config;
    config.workers = workers;
    SvcStats stats;
    const std::vector<PointResult> results = run_sweep(spec, config, &stats);
    EXPECT_EQ(fingerprint(spec, results), reference)
        << workers << " workers diverged from the in-process reference";
    EXPECT_EQ(stats.workers, workers);
    EXPECT_EQ(stats.jobs_total, 6);
    EXPECT_EQ(stats.jobs_completed, 6);
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.respawns, 0);
    EXPECT_FALSE(stats.drained);
    EXPECT_GT(stats.wall_time_s, 0.0);
    EXPECT_GT(stats.bytes_sent, 0);
    EXPECT_GT(stats.bytes_received, 0);
    ASSERT_EQ(stats.per_worker.size(), static_cast<std::size_t>(workers));
    long long completed = 0;
    for (const WorkerStats& worker : stats.per_worker) {
      completed += worker.jobs_completed;
    }
    EXPECT_EQ(completed, 6);
  }
}

TEST(Svc, CrashedWorkerIsRespawnedAndResultsStayByteIdentical) {
  const SweepSpec spec = small_spec();
  const std::string reference = fingerprint(spec, in_process(spec));
  // Generation-0 workers abort when dispatched job 0. Both initial
  // workers are generation 0, so the job can die at most twice before a
  // respawned (generation >= 1) worker completes it — within the
  // default retry budget.
  ScopedEnv crash("COLORBARS_SVC_CRASH_JOB", "0");
  ServiceConfig config;
  config.workers = 2;
  config.respawn_backoff_s = 0.02;
  SvcStats stats;
  const std::vector<PointResult> results = run_sweep(spec, config, &stats);
  EXPECT_EQ(fingerprint(spec, results), reference)
      << "crash-and-retry schedule diverged from the in-process reference";
  EXPECT_GE(stats.retries, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.jobs_completed, 6);
}

TEST(Svc, InvalidPointThrowsBeforeAnyTrialOrWorker) {
  // A point the simulator would refuse (a bad config, a negative SER
  // count, a duration past INT_MAX slots) fails both transports up
  // front with the simulator's error. It must never reach a worker,
  // where every retry would die on it.
  const std::function<void(SweepPoint&)> make_bad[] = {
      [](SweepPoint& point) { point.config.symbol_rate_hz = 0.0; },
      [](SweepPoint& point) { point.symbols_per_trial = -1; },
      [](SweepPoint& point) {
        point.kind = TrialKind::kGoodput;
        point.duration_s = 1e300;
      },
  };
  for (const auto& spoil : make_bad) {
    SweepSpec spec = small_spec();
    spoil(spec.points[1]);
    EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
    EXPECT_THROW((void)in_process(spec), std::invalid_argument);
    ServiceConfig config;
    config.workers = 2;
    SvcStats stats;
    EXPECT_THROW((void)run_sweep(spec, config, &stats), std::invalid_argument);
    EXPECT_EQ(stats.respawns, 0);
    EXPECT_EQ(stats.jobs_completed, 0);
  }
}

TEST(Svc, NegativeWorkerCountIsAnError) {
  // Above kMaxWorkers is refused too, before any socket or process
  // exists: a typo must not fork thousands of workers.
  for (const int workers : {-1, kMaxWorkers + 1, std::numeric_limits<int>::max()}) {
    ServiceConfig config;
    config.workers = workers;
    EXPECT_THROW((void)run_sweep(small_spec(), config), std::runtime_error) << workers;
    EXPECT_THROW((void)run_adaptive_batch({}, config), std::runtime_error) << workers;
  }
}

TEST(Svc, InProcessSweepMatchesWorkersForEveryKind) {
  // SER, throughput and goodput rows through two real workers, against
  // the in-process run at one and eight pool threads, sharded per trial
  // and per point.
  for (const int trials_per_job : {1, 0}) {
    SweepSpec spec = mixed_spec();
    spec.trials_per_job = trials_per_job;
    ServiceConfig config;
    config.workers = 2;
    SvcStats stats;
    const std::string reference = fingerprint(spec, run_sweep(spec, config, &stats));
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.jobs_completed, trials_per_job == 1 ? 6 : 3);
    for (const unsigned threads : {1u, 8u}) {
      EXPECT_EQ(fingerprint(spec, in_process(spec, threads)), reference)
          << threads << " pool threads, " << trials_per_job << " trials per job";
    }
  }
}

TEST(Svc, SweepAggregatesMatchTheBatchApis) {
  // perfbench's traced pass checks the batch APIs against the service;
  // this is the same check at tier 1. The SER and goodput points of the
  // mixed grid, through run_ser_trials and run_goodput_trials, projected
  // onto the wire rows.
  SweepSpec spec = mixed_spec();
  spec.points = {spec.points[0], spec.points[2]};
  const SweepPoint& ser = spec.points[0];
  const SweepPoint& goodput = spec.points[1];
  const core::SerBatchResult ser_batch =
      core::LinkSimulator(ser.config).run_ser_trials(ser.trials, ser.symbols_per_trial);
  const core::GoodputBatchResult goodput_batch =
      core::LinkSimulator(goodput.config).run_goodput_trials(goodput.trials, goodput.duration_s);
  std::vector<PointResult> expected(2);
  for (const core::SerResult& trial : ser_batch.trials) {
    expected[0].trials.emplace_back().ser = trial;
  }
  expected[0].primary = ser_batch.ser;
  expected[0].loss_ratio = ser_batch.inter_frame_loss_ratio;
  for (const core::LinkRunResult& trial : goodput_batch.trials) {
    GoodputTrial& row = expected[1].trials.emplace_back().goodput;
    row.payload_bytes = static_cast<long long>(trial.payload_bytes);
    row.recovered_bytes = static_cast<long long>(trial.recovered_bytes);
    row.air_time_s = trial.air_time_s;
    row.packets_ok = trial.report.data_packets_ok;
    row.packets_failed = trial.report.data_packets_failed;
  }
  expected[1].primary = goodput_batch.goodput_bps;
  EXPECT_EQ(fingerprint(spec, in_process(spec, 8)), fingerprint(spec, expected));
}

TEST(Svc, SchedulerAcceptsOnlyAResultThatAnswersItsJob) {
  // The scheduler's result check, fed crafted results. A worker that
  // answers with another id, kind, adaptive flag or row count is killed
  // like one that sent a bad frame: rows past its job's range would land
  // outside the sweep's result table, and missing rows would leave
  // default rows in an aggregate.
  SweepSpec spec = small_spec();
  spec.trials_per_job = 2;
  const std::vector<JobRequest> jobs = make_jobs(spec);
  const JobRequest& job = jobs[0];  // point 0, trials [0, 2)
  JobResultMessage answer;
  answer.id = job.id;
  answer.trials_kind = job.kind;
  answer.trials.resize(2);
  EXPECT_TRUE(result_answers_job(job, answer));
  const auto answers_with = [&](const std::function<void(JobResultMessage&)>& edit) {
    JobResultMessage result = answer;
    edit(result);
    return result_answers_job(job, result);
  };
  EXPECT_FALSE(answers_with([](JobResultMessage& r) { r.id = 1; }));
  EXPECT_FALSE(answers_with([](JobResultMessage& r) { r.trials_kind = TrialKind::kGoodput; }));
  EXPECT_FALSE(answers_with([](JobResultMessage& r) { r.is_adaptive = true; }));
  for (const std::size_t rows : {0u, 1u, 3u, 4096u}) {
    EXPECT_FALSE(answers_with([&](JobResultMessage& r) { r.trials.resize(rows); })) << rows;
  }
  // The tail shard [2, 3) takes exactly one row.
  answer.id = jobs[1].id;
  answer.trials.resize(1);
  EXPECT_TRUE(result_answers_job(jobs[1], answer));

  JobRequest adaptive;
  adaptive.is_adaptive = true;
  JobResultMessage run;
  run.is_adaptive = true;
  EXPECT_TRUE(result_answers_job(adaptive, run));
  run.is_adaptive = false;
  EXPECT_FALSE(result_answers_job(adaptive, run));
}

TEST(Svc, SweepTeardownDoesNotWaitForHeartbeat) {
  // A worker told to shut down must exit at once, not after its
  // heartbeat thread sleeps out the interval; and teardown must not
  // reap workers one at a time. With a 30 s heartbeat, a sweep that
  // waited for either would take at least 30 s; 10 s is the margin
  // that still holds under the sanitizers.
  SweepSpec spec = small_spec();
  spec.points.resize(1);
  spec.points[0].trials = 4;
  ServiceConfig config;
  config.workers = 4;
  config.heartbeat_interval_s = 30.0;
  config.liveness_timeout_s = 120.0;
  SvcStats stats;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<PointResult> results = run_sweep(spec, config, &stats);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(stats.jobs_completed, 4);
  EXPECT_EQ(fingerprint(spec, results), fingerprint(spec, in_process(spec)));
  EXPECT_LT(elapsed_s, 10.0);
}

TEST(Svc, AdaptiveBatchMatchesInProcessSimulation) {
  // One short healthy leg: cheap, yet the full closed loop (streaming
  // receiver, monitor, controller, feedback) runs end to end in the
  // worker process.
  adapt::Trajectory trajectory;
  adapt::TrajectorySegment leg;
  leg.name = "near";
  leg.duration_s = 1.0;
  leg.channel.distance.distance_m = 0.08;
  leg.channel.distance.reference_distance_m = 0.08;
  trajectory.segments = {leg};

  std::vector<AdaptiveJob> jobs(2);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].config.profile = camera::ideal_profile();
    jobs[i].config.feedback.delay_intervals = 0;
    jobs[i].config.recalibration_cost_s = 0.05;
    jobs[i].config.controller.switch_cost_intervals = 0.125;
    jobs[i].config.seed = 0xada0 + i;
    jobs[i].trajectory = trajectory;
  }

  std::vector<std::string> expected;
  for (const AdaptiveJob& job : jobs) {
    adapt::AdaptiveLinkSimulator simulator(job.config, job.trajectory);
    expected.push_back(adaptive_result_to_json(simulator.run()).dump());
  }

  // Zero workers: the runs as tasks on this process's pool.
  for (const int workers : {0, 2}) {
    ServiceConfig config;
    config.workers = workers;
    SvcStats stats;
    const std::vector<adapt::AdaptiveRunResult> results =
        run_adaptive_batch(jobs, config, &stats);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(adaptive_result_to_json(results[i]).dump(), expected[i])
          << "adaptive job " << i << " on " << workers
          << " workers diverged from the simulator run";
    }
    EXPECT_EQ(stats.jobs_completed, static_cast<long long>(jobs.size()));
  }
}

// --- SvcTimeout: wall-clock deadline enforcement (not TSan-safe) ---

TEST(SvcTimeout, HungJobIsKilledAtDeadlineAndRetriedByteIdentically) {
  SweepSpec spec = small_spec();
  spec.points.resize(1);  // 3 jobs — keep the deadline waits short
  const std::string reference = fingerprint(spec, in_process(spec));
  // Generation-0 workers sleep forever on job 0 while their heartbeat
  // thread keeps the stream alive, so the liveness timer never fires —
  // only the per-job deadline can catch the wedge.
  ScopedEnv hang("COLORBARS_SVC_HANG_JOB", "0");
  ServiceConfig config;
  config.workers = 2;
  config.job_deadline_s = 2.0;
  config.liveness_timeout_s = 60.0;
  config.heartbeat_interval_s = 0.1;
  config.respawn_backoff_s = 0.02;
  SvcStats stats;
  const std::vector<PointResult> results = run_sweep(spec, config, &stats);
  EXPECT_EQ(fingerprint(spec, results), reference)
      << "deadline-kill schedule diverged from the in-process reference";
  EXPECT_GE(stats.retries, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.jobs_completed, 3);
}

}  // namespace
}  // namespace colorbars::svc
