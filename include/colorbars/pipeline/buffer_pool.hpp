#pragma once

// Recycled frame and scratch buffers for the streaming frame pipeline.
// Rendering a frame needs one Frame plus a RenderScratch (row responses,
// mosaic plane, demosaiced float image) — roughly half a megabyte for a
// Nexus-class sensor. The pool keeps released buffers on free lists so a
// long capture reuses the same handful of allocations instead of
// allocating per frame, and counts hits/misses/outstanding so tests and
// benches can prove the pipeline's memory stays O(lookahead).
//
// Thread-safe: parallel render workers acquire scratch concurrently.
// Ownership rule: whoever acquires a buffer must release it back to the
// same pool (or let it die with the pool's client — the pool does not
// track live buffers, only counts them).

#include <mutex>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/camera/image.hpp"

namespace colorbars::pipeline {

/// Cumulative pool counters. outstanding = acquired - released; the
/// peak is the pipeline's true high-water mark of resident buffers.
struct BufferPoolStats {
  long long frame_hits = 0;        ///< acquire_frame served from the free list
  long long frame_misses = 0;      ///< acquire_frame had to create a buffer
  long long scratch_hits = 0;
  long long scratch_misses = 0;
  long long outstanding_frames = 0;
  long long peak_outstanding_frames = 0;
  long long outstanding_scratch = 0;
  long long peak_outstanding_scratch = 0;
};

class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A recycled (or fresh) frame. Pixel contents and shape are
  /// unspecified — every render path resizes before writing.
  [[nodiscard]] camera::Frame acquire_frame();
  void release_frame(camera::Frame&& frame);

  /// A recycled (or fresh) render scratch.
  [[nodiscard]] camera::RenderScratch acquire_scratch();
  void release_scratch(camera::RenderScratch&& scratch);

  /// Snapshot of the counters.
  [[nodiscard]] BufferPoolStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::vector<camera::Frame> free_frames_;
  std::vector<camera::RenderScratch> free_scratch_;
  BufferPoolStats stats_;
};

}  // namespace colorbars::pipeline
