#pragma once

// Shared helpers for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper and prints it in a plain
// text layout comparable to the published one.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "colorbars/csk/constellation.hpp"

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

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no NaN/inf
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

/// Row-oriented JSON emitter shared by the fig/extension benches. Usage:
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
      fields_.push_back("\"" + json_escape(key) + "\": \"" + json_escape(value) + "\"");
      return *this;
    }
    Row& metric(const std::string& key, double value) {
      fields_.push_back("\"" + json_escape(key) + "\": " + json_number(value));
      return *this;
    }

   private:
    friend class JsonReport;
    std::vector<std::string> fields_;
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
    std::fprintf(file, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                 json_escape(name_).c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::string row = "    {";
      const auto& fields = rows_[i].fields_;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        row += fields[f];
        if (f + 1 < fields.size()) row += ", ";
      }
      row += i + 1 < rows_.size() ? "},\n" : "}\n";
      std::fputs(row.c_str(), file);
    }
    std::fputs("  ]\n}\n", file);
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

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline const std::vector<double>& paper_frequencies() {
  static const std::vector<double> frequencies{1000, 2000, 3000, 4000};
  return frequencies;
}

}  // namespace colorbars::bench
