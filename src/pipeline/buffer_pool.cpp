#include "colorbars/pipeline/buffer_pool.hpp"

#include <algorithm>

namespace colorbars::pipeline {

camera::Frame BufferPool::acquire_frame() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.outstanding_frames;
  stats_.peak_outstanding_frames =
      std::max(stats_.peak_outstanding_frames, stats_.outstanding_frames);
  if (!free_frames_.empty()) {
    ++stats_.frame_hits;
    camera::Frame frame = std::move(free_frames_.back());
    free_frames_.pop_back();
    return frame;
  }
  ++stats_.frame_misses;
  return {};
}

void BufferPool::release_frame(camera::Frame&& frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  --stats_.outstanding_frames;
  free_frames_.push_back(std::move(frame));
}

camera::RenderScratch BufferPool::acquire_scratch() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.outstanding_scratch;
  stats_.peak_outstanding_scratch =
      std::max(stats_.peak_outstanding_scratch, stats_.outstanding_scratch);
  if (!free_scratch_.empty()) {
    ++stats_.scratch_hits;
    camera::RenderScratch scratch = std::move(free_scratch_.back());
    free_scratch_.pop_back();
    return scratch;
  }
  ++stats_.scratch_misses;
  return {};
}

void BufferPool::release_scratch(camera::RenderScratch&& scratch) {
  std::lock_guard<std::mutex> lock(mutex_);
  --stats_.outstanding_scratch;
  free_scratch_.push_back(std::move(scratch));
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace colorbars::pipeline
