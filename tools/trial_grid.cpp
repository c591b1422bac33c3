// trial_grid: command-line front end of the grid executor
// (colorbars::svc::run_sweep).
//
//   trial_grid sweep [--workers N] [--trials T] [--trials-per-job J]
//                    [--orders 8,16] [--frequencies 1000,2000]
//                    [--symbols S] [--socket PATH]
//
// Runs an SER sweep grid. --workers 0 (default) runs it in this process
// on the runtime pool (COLORBARS_THREADS); 1 <= N <= svc::kMaxWorkers
// runs the same grid through N spawned worker processes, on an
// explicit Unix-socket path with --socket, and prints the scheduler
// statistics to stderr. Output is byte-identical either way. SIGTERM
// drains a worker run gracefully: in-flight jobs finish, nothing new is
// dispatched. Every number must parse whole ("2x" is refused).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "colorbars/core/link.hpp"
#include "colorbars/svc/service.hpp"

using namespace colorbars;

namespace {

struct Options {
  int workers = 0;
  int trials = 2;
  int trials_per_job = 1;
  int symbols = 500;
  std::vector<int> orders = {8, 16};
  std::vector<double> frequencies = {1000.0, 2000.0};
  std::string socket_path;
};

std::vector<std::string> split_list(const char* text) {
  std::vector<std::string> items;
  std::string current;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!current.empty()) items.push_back(current);
      current.clear();
    } else {
      current.push_back(*p);
    }
  }
  if (!current.empty()) items.push_back(current);
  return items;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: trial_grid sweep [--workers N] [--trials T] [--trials-per-job J]\n"
               "                        [--orders 8,16] [--frequencies 1000,2000]\n"
               "                        [--symbols S] [--socket PATH]\n");
  std::exit(64);
}

[[noreturn]] void bad_value(const std::string& flag, const std::string& value) {
  std::fprintf(stderr, "trial_grid: bad value '%s' for %s\n", value.c_str(), flag.c_str());
  usage();
}

/// The whole of `text` as an int, or usage() naming `flag`.
int parse_int(const std::string& flag, const std::string& text) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) bad_value(flag, text);
  return value;
}

/// The whole of `text` as a finite double, or usage() naming `flag`.
double parse_double(const std::string& flag, const std::string& text) {
  char* stop = nullptr;
  const double value = std::strtod(text.c_str(), &stop);
  if (text.empty() || stop != text.c_str() + text.size() || !std::isfinite(value)) {
    bad_value(flag, text);
  }
  return value;
}

bool parse_options(int argc, char** argv, Options& options) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return false;
    ++i;
    if (flag == "--workers") {
      options.workers = parse_int(flag, value);
    } else if (flag == "--trials") {
      options.trials = parse_int(flag, value);
    } else if (flag == "--trials-per-job") {
      options.trials_per_job = parse_int(flag, value);
    } else if (flag == "--symbols") {
      options.symbols = parse_int(flag, value);
    } else if (flag == "--socket") {
      options.socket_path = value;
    } else if (flag == "--orders") {
      options.orders.clear();
      for (const std::string& item : split_list(value)) {
        options.orders.push_back(parse_int(flag, item));
      }
    } else if (flag == "--frequencies") {
      options.frequencies.clear();
      for (const std::string& item : split_list(value)) {
        options.frequencies.push_back(parse_double(flag, item));
      }
    } else {
      return false;
    }
  }
  return true;
}

csk::CskOrder order_from_int_or_die(int order) {
  const auto parsed = csk::order_from_int(order);
  if (!parsed) {
    std::fprintf(stderr, "trial_grid: unsupported CSK order %d\n", order);
    std::exit(64);
  }
  return *parsed;
}

svc::SweepSpec build_spec(const Options& options) {
  svc::SweepSpec spec;
  spec.trials_per_job = options.trials_per_job;
  for (const int order : options.orders) {
    for (const double frequency : options.frequencies) {
      svc::SweepPoint point;
      point.config.order = order_from_int_or_die(order);
      point.config.symbol_rate_hz = frequency;
      point.config.seed = 0x5eed + static_cast<std::uint64_t>(frequency) +
                          (static_cast<std::uint64_t>(order) << 20);
      point.kind = svc::TrialKind::kSer;
      point.trials = options.trials;
      point.symbols_per_trial = options.symbols;
      spec.points.push_back(std::move(point));
    }
  }
  return spec;
}

// Scheduler stats go to stderr: stdout carries only the result table,
// so a sharded run's stdout diffs clean against the in-process run.
void print_stats(const svc::SvcStats& stats) {
  std::fprintf(stderr,
               "\nscheduler: %lld jobs, %d workers, %.2fs wall, "
               "%lld retries, %lld respawns, peak queue %lld, "
               "%lld B out / %lld B in\n",
               stats.jobs_total, stats.workers, stats.wall_time_s,
               stats.retries, stats.respawns, stats.max_queue_depth,
               stats.bytes_sent, stats.bytes_received);
  for (const svc::WorkerStats& worker : stats.per_worker) {
    std::fprintf(stderr,
                 "  worker %d: %lld jobs, %lld retries, %lld respawns, "
                 "busy %.2fs (max job %.2fs), %lld B out / %lld B in\n",
                 worker.worker, worker.jobs_completed, worker.retries,
                 worker.respawns, worker.busy_s, worker.max_job_s,
                 worker.bytes_sent, worker.bytes_received);
  }
}

int run_grid(const Options& options) {
  const svc::SweepSpec spec = build_spec(options);
  svc::ServiceConfig config;
  config.workers = options.workers;
  config.socket_path = options.socket_path;
  svc::SvcStats stats;
  const std::vector<svc::PointResult> results = svc::run_sweep(spec, config, &stats);

  std::printf("%-8s %-12s %-8s %-12s %-12s\n", "order", "rate_hz", "trials",
              "ser_mean", "ser_stddev");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const svc::SweepPoint& point = spec.points[i];
    std::printf("CSK%-5d %-12.0f %-8d %-12.6f %-12.6f\n",
                csk::symbol_count(point.config.order),
                point.config.symbol_rate_hz, results[i].primary.trials,
                results[i].primary.mean, results[i].primary.stddev);
  }
  if (options.workers >= 1) print_stats(stats);
  std::printf("grid done: %zu points\n", results.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // When the server re-executes this binary as a worker, the socket env
  // is already set and this call never returns.
  svc::maybe_run_worker();

  if (argc < 2 || std::string(argv[1]) != "sweep") usage();
  Options options;
  if (!parse_options(argc, argv, options)) usage();

  try {
    return run_grid(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trial_grid: %s\n", error.what());
    return 1;
  }
}
