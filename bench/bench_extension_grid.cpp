// Extension bench: svc::run_sweep on worker processes (colorbars::svc)
// vs the same call in process on a one-thread pool, on a fixed SER grid.
//
// Two claims are measured:
//
//  1. Correctness (hard gate, any hardware): the 2-worker, 4-worker and
//     crash-injected 2-worker runs must be BYTE-identical to the
//     sequential in-process run — same trial rows, same aggregates, to
//     the last bit. Any divergence fails the bench.
//  2. Throughput (gated on >= 4 hardware threads): with per-process
//     compute pinned to one thread (COLORBARS_THREADS=1), 4 workers
//     must finish the grid > 1.5x faster than the sequential run. On
//     smaller machines the speedup is still reported but not enforced —
//     worker processes cannot beat wall-clock on cores that don't exist.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

using namespace colorbars;

namespace {

svc::SweepSpec grid_spec() {
  svc::SweepSpec spec;
  spec.trials_per_job = 1;  // 16 jobs: enough to interleave across 4 workers
  for (const csk::CskOrder order : {csk::CskOrder::kCsk8, csk::CskOrder::kCsk16}) {
    for (const double frequency : {1000.0, 2000.0}) {
      svc::SweepPoint point;
      point.config.order = order;
      point.config.symbol_rate_hz = frequency;
      point.config.seed = 0x99d1 + static_cast<std::uint64_t>(frequency) +
                          (static_cast<std::uint64_t>(order) << 20);
      point.kind = svc::TrialKind::kSer;
      point.trials = 4;
      point.symbols_per_trial = static_cast<int>(frequency * 0.6);
      spec.points.push_back(std::move(point));
    }
  }
  return spec;
}

/// Exact-token serialization of every trial row and aggregate: equal
/// strings mean equal bytes, not equal-within-epsilon.
std::string fingerprint(const svc::SweepSpec& spec,
                        const std::vector<svc::PointResult>& results) {
  std::string out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    svc::JobResultMessage message;
    message.trials_kind = spec.points[i].kind;
    message.trials = results[i].trials;
    out += svc::encode_job_result(message);
    out += svc::Json::number(results[i].primary.mean).dump();
    out += svc::Json::number(results[i].primary.stddev).dump();
    out += svc::Json::number(results[i].loss_ratio.mean).dump();
    out += '\n';
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  // Workers inherit the environment, so the single-thread pin below
  // reaches them too; set it before anything sizes a thread pool.
  ::setenv("COLORBARS_THREADS", "1", 1);
  svc::maybe_run_worker();  // this binary is its own grid worker

  bench::print_header("Extension: sharded trial service vs sequential reference");
  bench::JsonReport report("extension_grid");

  const svc::SweepSpec spec = grid_spec();
  std::printf("grid: %zu points x 4 trials, 1 trial/job, COLORBARS_THREADS=1\n\n",
              spec.points.size());

  // Zero workers on the one-thread pool: the jobs run in order, inline.
  svc::ServiceConfig in_process;
  in_process.workers = 0;
  auto start = std::chrono::steady_clock::now();
  const std::vector<svc::PointResult> reference = svc::run_sweep(spec, in_process);
  const double sequential_s = seconds_since(start);
  const std::string reference_print = fingerprint(spec, reference);
  std::printf("%-24s %8.2fs\n", "sequential", sequential_s);
  report.add_row()
      .label("mode", "sequential")
      .metric("workers", 0)
      .metric("wall_time_s", sequential_s);

  struct Leg {
    const char* name;
    int workers;
    bool inject_crash;
  };
  const Leg legs[] = {
      {"2 workers", 2, false},
      {"4 workers", 4, false},
      {"2 workers + crash", 2, true},
  };

  bool identical = true;
  double four_worker_s = 0.0;
  for (const Leg& leg : legs) {
    if (leg.inject_crash) ::setenv("COLORBARS_SVC_CRASH_JOB", "0", 1);
    svc::ServiceConfig service;
    service.workers = leg.workers;
    service.respawn_backoff_s = 0.02;
    svc::SvcStats stats;
    start = std::chrono::steady_clock::now();
    const std::vector<svc::PointResult> results =
        svc::run_sweep(spec, service, &stats);
    const double wall_s = seconds_since(start);
    if (leg.inject_crash) ::unsetenv("COLORBARS_SVC_CRASH_JOB");
    if (leg.workers == 4 && !leg.inject_crash) four_worker_s = wall_s;

    const bool matches = fingerprint(spec, results) == reference_print;
    identical = identical && matches;
    std::printf("%-24s %8.2fs  speedup %4.2fx  retries %lld  respawns %lld  %s\n",
                leg.name, wall_s, sequential_s / wall_s, stats.retries,
                stats.respawns, matches ? "byte-identical" : "DIVERGED");
    report.add_row()
        .label("mode", leg.name)
        .metric("workers", leg.workers)
        .metric("wall_time_s", wall_s)
        .metric("speedup", sequential_s / wall_s)
        .metric("jobs", static_cast<double>(stats.jobs_total))
        .metric("retries", static_cast<double>(stats.retries))
        .metric("respawns", static_cast<double>(stats.respawns))
        .metric("max_queue_depth", static_cast<double>(stats.max_queue_depth))
        .metric("bytes_sent", static_cast<double>(stats.bytes_sent))
        .metric("bytes_received", static_cast<double>(stats.bytes_received))
        .metric("byte_identical", matches ? 1 : 0);
  }

  // Acceptance: identity is unconditional; the speedup gate needs the
  // hardware to exist.
  const unsigned cores = std::thread::hardware_concurrency();
  const double speedup = four_worker_s > 0.0 ? sequential_s / four_worker_s : 0.0;
  const bool speedup_gated = cores >= 4;
  const bool speedup_ok = !speedup_gated || speedup > 1.5;
  std::printf("\nidentity: %s\n", identical ? "ok" : "FAIL");
  if (speedup_gated) {
    std::printf("speedup @4 workers: %.2fx (need > 1.5x) -> %s\n", speedup,
                speedup_ok ? "ok" : "FAIL");
  } else {
    std::printf("speedup @4 workers: %.2fx (gate skipped: %u hardware threads)\n",
                speedup, cores);
  }
  const bool pass = identical && speedup_ok;
  std::printf("acceptance: %s\n", pass ? "PASS" : "FAIL");
  report.add_row()
      .label("mode", "acceptance")
      .metric("byte_identical", identical ? 1 : 0)
      .metric("speedup_4_workers", speedup)
      .metric("speedup_gate_active", speedup_gated ? 1 : 0)
      .metric("hardware_threads", cores)
      .metric("pass", pass ? 1 : 0);
  report.write();
  return pass ? 0 : 1;
}
