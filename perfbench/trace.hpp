#pragma once

// In-memory span recorder for the benchmark's traced runs. Spans are
// taken around the benchmark's own calls into each program layer (the
// program itself is not instrumented), kept in per-thread buffers, and
// written out once at the end of the run; run.py derives self times and
// the per-layer table from the dump.
//
// A span records its name, start, end, parent span and trial id. The
// parent defaults to the innermost open span on the calling thread;
// work fanned out to pool threads (frame renders inside a prefetch
// refill) names its parent explicitly, so overlapping parallel children
// still hang off the span that caused them.

#include <cstdint>
#include <string>

namespace perfbench {

/// Global switch: spans are recorded only while enabled (traced runs).
void set_tracing(bool enabled) noexcept;

/// Trial id stamped on spans opened by this thread (-1 = none).
void set_thread_trial(std::int64_t trial) noexcept;
[[nodiscard]] std::int64_t thread_trial() noexcept;

/// An open span; closed (and recorded) on destruction. `name` must be a
/// string literal. A no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::int64_t count = 0) noexcept;
  /// Explicit parent and trial, for work running on another thread than
  /// the span that caused it.
  Span(const char* name, std::uint32_t parent, std::int64_t trial) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing is off.
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  /// Work items the span covered (symbols classified, frames pulled).
  void set_count(std::int64_t count) noexcept { count_ = count; }

 private:
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t trial_ = -1;
  std::int64_t count_ = 0;
  std::int64_t start_ns_ = 0;
  bool pushed_ = false;
};

/// Writes every recorded span as tab-separated lines
/// `id parent trial name start_ns end_ns count`, sorted by id. Returns
/// false when the file cannot be written.
bool write_spans(const std::string& path);

}  // namespace perfbench
