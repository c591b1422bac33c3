#pragma once

// Shared helpers for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper and prints it in a plain
// text layout comparable to the published one.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "colorbars/csk/constellation.hpp"
#include "colorbars/svc/json.hpp"
#include "colorbars/svc/service.hpp"

namespace colorbars::bench {

/// Canonical machine-readable output path of a bench: every bench
/// binary mirrors its table into BENCH_<name>.json, so the perf
/// trajectory is diffable across commits. The file lands in the working
/// directory unless COLORBARS_BENCH_DIR is set, in which case that
/// directory is created (if needed) and used instead — CI sets it to
/// collect every bench's JSON into one artifact directory.
inline std::string bench_json_path(const std::string& name) {
  const std::string file = "BENCH_" + name + ".json";
  const char* dir = std::getenv("COLORBARS_BENCH_DIR");
  if (dir == nullptr || *dir == '\0') return file;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; open reports failure
  return (std::filesystem::path(dir) / file).string();
}

/// Row-oriented JSON report shared by the fig/extension benches, built on
/// svc::Json (escaping, round-trip number tokens, null for non-finite
/// values). Usage:
///
///   bench::JsonReport report("fig9_ser");
///   report.add_row().label("device", "Nexus 5").metric("ser", 0.02);
///   ...
///   report.write();  // -> BENCH_fig9_ser.json (also runs at destruction)
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  ~JsonReport() {
    if (!written_) write();
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  class Row {
   public:
    Row& label(const std::string& key, const std::string& value) {
      fields_.set(key, svc::Json::string(value));
      return *this;
    }
    Row& metric(const std::string& key, double value) {
      fields_.set(key, svc::Json::number(value));
      return *this;
    }

   private:
    friend class JsonReport;
    svc::Json fields_ = svc::Json::object();
  };

  /// Returned reference stays valid across later add_row calls.
  Row& add_row() { return rows_.emplace_back(); }

  [[nodiscard]] std::string path() const { return bench_json_path(name_); }

  void write() {
    written_ = true;
    // Write-then-rename so the report appears atomically: with the
    // trial service several processes share COLORBARS_BENCH_DIR, and a
    // reader (or a crashed sibling's leftover) must never see a
    // half-written file. The temp name carries the pid so concurrent
    // writers of the same bench cannot collide; rename() within one
    // directory is atomic on POSIX.
    const std::string final_path = path();
    const std::string temp_path =
        final_path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::FILE* file = std::fopen(temp_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", temp_path.c_str());
      return;
    }
    // One row per line keeps the reports diffable across commits.
    std::string text = "{\n  \"bench\": " + svc::Json::string(name_).dump() + ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      text += "    " + rows_[i].fields_.dump() + (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    text += "  ]\n}\n";
    std::fputs(text.c_str(), file);
    std::fclose(file);
    if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
      std::fprintf(stderr, "bench: cannot rename %s -> %s\n", temp_path.c_str(),
                   final_path.c_str());
      std::remove(temp_path.c_str());
      return;
    }
    std::printf("\n[wrote %s]\n", final_path.c_str());
  }

 private:
  std::string name_;
  std::deque<Row> rows_;
  bool written_ = false;
};

/// Runs a figure grid through the one grid executor, svc::run_sweep: on
/// COLORBARS_GRID_WORKERS worker processes, or in this process on the
/// runtime pool when it is unset. The results are byte-identical either
/// way. A bench that calls it starts main() with svc::maybe_run_worker().
inline std::vector<svc::PointResult> run_grid(const svc::SweepSpec& spec,
                                              svc::SvcStats& stats) {
  svc::ServiceConfig service;
  service.workers = svc::grid_workers_from_env();
  return svc::run_sweep(spec, service, &stats);
}

/// Appends the scheduler's counters as a row labelled `key` =
/// "scheduler" when the grid ran on worker processes.
inline void add_scheduler_row(JsonReport& report, const std::string& key,
                              const svc::SvcStats& stats) {
  if (stats.workers == 0) return;
  report.add_row()
      .label(key, "scheduler")
      .metric("grid_workers", stats.workers)
      .metric("jobs", static_cast<double>(stats.jobs_total))
      .metric("retries", static_cast<double>(stats.retries))
      .metric("respawns", static_cast<double>(stats.respawns))
      .metric("wall_time_s", stats.wall_time_s);
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline const std::vector<double>& paper_frequencies() {
  static const std::vector<double> frequencies{1000, 2000, 3000, 4000};
  return frequencies;
}

inline const std::vector<camera::SensorProfile>& paper_profiles() {
  static const std::vector<camera::SensorProfile> profiles{camera::nexus5_profile(),
                                                           camera::iphone5s_profile()};
  return profiles;
}

/// The grid of Figs. 9-11 in table order: paper_profiles() × every CSK
/// order × paper_frequencies(). A point's seed is seed_base + frequency +
/// (order << 20); `fill(point)` sets its kind and trial size.
template <typename Fill>
svc::SweepSpec paper_grid(std::uint64_t seed_base, Fill fill) {
  svc::SweepSpec spec;
  for (const camera::SensorProfile& profile : paper_profiles()) {
    for (const csk::CskOrder order : csk::all_orders()) {
      for (const double frequency : paper_frequencies()) {
        svc::SweepPoint point;
        point.config.order = order;
        point.config.symbol_rate_hz = frequency;
        point.config.profile = profile;
        point.config.seed = seed_base + static_cast<std::uint64_t>(frequency) +
                            (static_cast<std::uint64_t>(order) << 20);
        fill(point);
        spec.points.push_back(std::move(point));
      }
    }
  }
  return spec;
}

/// Prints a paper_grid's results as one table per profile, a row per
/// order and a column per frequency, and mirrors each point into a
/// report row labelled with its device, order and rate: `cell(result,
/// row)` prints the point's cell and adds its metrics to the row.
template <typename Cell>
void print_paper_grid(const std::vector<svc::PointResult>& results, JsonReport& report,
                      Cell cell) {
  std::size_t index = 0;
  for (const camera::SensorProfile& profile : paper_profiles()) {
    std::printf("\n%s\n", profile.name.c_str());
    std::printf("%-8s", "");
    for (const double frequency : paper_frequencies()) std::printf(" %9.0fHz", frequency);
    std::printf("\n");
    for (const csk::CskOrder order : csk::all_orders()) {
      std::printf("%-8s", csk::order_name(order));
      for (const double frequency : paper_frequencies()) {
        JsonReport::Row& row = report.add_row()
                                   .label("device", profile.name)
                                   .label("order", csk::order_name(order))
                                   .metric("symbol_rate_hz", frequency);
        cell(results[index++], row);
      }
      std::printf("\n");
    }
  }
}

}  // namespace colorbars::bench
