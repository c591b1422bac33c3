#include "colorbars/pipeline/pipeline.hpp"

#include <algorithm>

#include "colorbars/runtime/thread_pool.hpp"

namespace colorbars::pipeline {

FrameSource::FrameSource(camera::RollingShutterCamera& camera,
                         const led::EmissionTrace& trace, BufferPool& pool,
                         SourceConfig config)
    : owned_renderer_(
          std::make_unique<CameraTraceRenderer>(camera, trace, config.start_offset_s)),
      renderer_(owned_renderer_.get()), pool_(pool), config_(config) {
  config_.lookahead = std::max(config_.lookahead, 1);
}

FrameSource::FrameSource(const FrameRenderer& renderer, BufferPool& pool,
                         SourceConfig config)
    : renderer_(&renderer), pool_(pool), config_(config) {
  config_.lookahead = std::max(config_.lookahead, 1);
}

FrameSource::~FrameSource() {
  // Return the ring so the pool's outstanding counter balances.
  for (camera::Frame& frame : ring_) pool_.release_frame(std::move(frame));
}

void FrameSource::refill() {
  for (camera::Frame& frame : ring_) pool_.release_frame(std::move(frame));
  ring_.clear();

  const int base = next_serve_;
  const int batch = std::min(config_.lookahead, plan().frame_count() - base);
  ring_.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) ring_.push_back(pool_.acquire_frame());

  // Frame i depends only on (plan, base + i): rendering the batch in
  // parallel with per-frame derived RNG streams is byte-identical at
  // any thread count. Nested inside an outer parallel region (batch
  // Monte-Carlo trials) this runs inline, per the pool's contract.
  runtime::parallel_for(0, batch, 1, [&](std::int64_t lo, std::int64_t hi) {
    camera::RenderScratch scratch = pool_.acquire_scratch();
    for (std::int64_t i = lo; i < hi; ++i) {
      camera::Frame& frame = ring_[static_cast<std::size_t>(i)];
      renderer_->render(base + static_cast<int>(i), frame, scratch);
      // Re-stamp onto the consumer's stream clock (see SourceConfig);
      // a pure post-render shift, so the rendered pixels are identical
      // to the unshifted capture.
      frame.start_time_s += config_.time_shift_s;
      frame.frame_index += config_.frame_index_base;
    }
    pool_.release_scratch(std::move(scratch));
  });
  ring_base_ = base;
  ++refills_;
}

camera::Frame* FrameSource::next() {
  if (next_serve_ >= plan().frame_count()) return nullptr;
  if (next_serve_ >= ring_base_ + static_cast<int>(ring_.size())) refill();
  camera::Frame* frame = &ring_[static_cast<std::size_t>(next_serve_ - ring_base_)];
  ++next_serve_;
  return frame;
}

bool apply_stages(std::span<FrameStage* const> stages, camera::Frame& frame) {
  for (FrameStage* stage : stages) {
    if (!stage->process(frame)) return false;
  }
  return true;
}

}  // namespace colorbars::pipeline
