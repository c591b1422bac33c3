#include "colorbars/svc/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

namespace colorbars::svc {

namespace {

/// Crash/hang injection for the scheduler's fault-tolerance tests:
/// COLORBARS_SVC_CRASH_JOB=<id> aborts the worker mid-job the first
/// time it executes job <id> (generation 0 only, so the respawned
/// worker completes the retry), COLORBARS_SVC_HANG_JOB=<id> wedges it
/// in a sleep loop instead (exercising the deadline kill path).
void maybe_inject_fault(long long job_id) {
  const char* generation = std::getenv("COLORBARS_SVC_WORKER_GENERATION");
  if (generation == nullptr || std::strtol(generation, nullptr, 10) != 0) return;
  if (const char* crash = std::getenv("COLORBARS_SVC_CRASH_JOB");
      crash != nullptr && std::strtoll(crash, nullptr, 10) == job_id) {
    std::abort();
  }
  if (const char* hang = std::getenv("COLORBARS_SVC_HANG_JOB");
      hang != nullptr && std::strtoll(hang, nullptr, 10) == job_id) {
    // Sleep, don't spin: the wedged worker's heartbeat thread must keep
    // running (the deadline, not the liveness timer, has to catch this).
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

double primary_metric(TrialKind kind, const TrialResult& trial) {
  switch (kind) {
    case TrialKind::kSer: return trial.ser.ser();
    case TrialKind::kThroughput: return trial.throughput.throughput_bps();
    case TrialKind::kGoodput: return trial.goodput.goodput_bps();
  }
  return 0.0;
}

}  // namespace

std::vector<JobRequest> make_jobs(const SweepSpec& spec) {
  std::vector<JobRequest> jobs;
  long long next_id = 0;
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const SweepPoint& point = spec.points[p];
    point.config.validate();
    core::validate_trial_size(point.symbols_per_trial, point.duration_s,
                              point.config.symbol_rate_hz);
    const int trials = point.trials < 0 ? 0 : point.trials;
    const int grain = spec.trials_per_job > 0 ? spec.trials_per_job : trials;
    for (int begin = 0; begin < trials; begin += grain > 0 ? grain : trials) {
      JobRequest job;
      job.id = next_id++;
      job.kind = point.kind;
      job.point = static_cast<int>(p);
      job.trial_begin = begin;
      job.trial_end = grain > 0 ? std::min(begin + grain, trials) : trials;
      job.symbols_per_trial = point.symbols_per_trial;
      job.duration_s = point.duration_s;
      job.config = point.config;
      jobs.push_back(std::move(job));
      if (grain <= 0) break;
    }
  }
  return jobs;
}

std::vector<TrialResult> run_job_trials(const JobRequest& job) {
  maybe_inject_fault(job.id);
  std::vector<TrialResult> results;
  results.reserve(static_cast<std::size_t>(
      std::max(0, job.trial_end - job.trial_begin)));
  for (int trial = job.trial_begin; trial < job.trial_end; ++trial) {
    // The batch APIs' per-trial recipe: the whole byte-identity
    // mechanism, since the result depends only on (config, trial).
    core::LinkSimulator simulator(core::trial_config(job.config, trial));
    TrialResult result;
    switch (job.kind) {
      case TrialKind::kSer:
        result.ser = simulator.run_ser(job.symbols_per_trial);
        break;
      case TrialKind::kThroughput:
        result.throughput = simulator.run_throughput(job.duration_s);
        break;
      case TrialKind::kGoodput: {
        const core::LinkRunResult run = simulator.run_goodput(job.duration_s);
        result.goodput.payload_bytes = static_cast<long long>(run.payload_bytes);
        result.goodput.recovered_bytes = static_cast<long long>(run.recovered_bytes);
        result.goodput.air_time_s = run.air_time_s;
        result.goodput.packets_ok = run.report.data_packets_ok;
        result.goodput.packets_failed = run.report.data_packets_failed;
        break;
      }
    }
    results.push_back(result);
  }
  return results;
}

PointResult aggregate_point(const SweepPoint& point, std::vector<TrialResult> trials) {
  PointResult result;
  result.trials = std::move(trials);
  result.primary = core::stats_of(result.trials, [&](const TrialResult& trial) {
    return primary_metric(point.kind, trial);
  });
  if (point.kind == TrialKind::kSer) {
    result.loss_ratio = core::stats_of(result.trials, [](const TrialResult& trial) {
      return trial.ser.inter_frame_loss_ratio;
    });
  }
  return result;
}

}  // namespace colorbars::svc
