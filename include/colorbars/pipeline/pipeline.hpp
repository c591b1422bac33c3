#pragma once

// The streaming tx→camera→rx frame pipeline: a FrameSource renders
// camera frames a bounded lookahead at a time into pooled buffers, and
// its consumer pulls them in capture order, as a real camera callback
// would deliver them, running each through the channel's FrameStages
// with apply_stages (frontend::CameraFrontend for a single-LED link,
// the scene simulator for a multi-luminaire one).
//
// Memory contract: at most `lookahead` frames plus the in-flight render
// scratch are resident at any instant, independent of capture duration
// — a 60 s capture holds the same live buffers as a 5 s one.
//
// Determinism contract: the source consumes the camera's CapturePlan
// (the same member-RNG walk capture_video performs) and renders each
// frame from a counter-derived RNG stream, so the streamed frame
// sequence is byte-identical to the materialized capture_video at every
// thread count and every lookahead.

#include <memory>
#include <span>

#include "colorbars/camera/camera.hpp"
#include "colorbars/led/emission.hpp"
#include "colorbars/pipeline/buffer_pool.hpp"

namespace colorbars::pipeline {

/// FrameSource prefetch tuning.
struct SourceConfig {
  /// Frames rendered per prefetch refill — the pipeline's peak resident
  /// frame count. Refills fan out over the shared runtime pool.
  int lookahead = 8;
  /// Capture start offset into the trace (same meaning as
  /// capture_video's start_offset_s).
  double start_offset_s = 0.0;
  /// Added to every emitted frame's start_time_s after rendering (the
  /// render itself still integrates the trace at trace-local time).
  /// Lets a consumer splice multiple per-segment captures onto one
  /// continuous stream clock — link adaptation epochs place each
  /// control interval's capture at its position on the epoch's symbol
  /// grid. 0 leaves frames on the trace-local clock, unchanged.
  double time_shift_s = 0.0;
  /// Added to every emitted frame's frame_index after rendering, so a
  /// spliced stream keeps a monotonic frame counter. Per-frame render
  /// randomness still derives from the plan-local index.
  int frame_index_base = 0;
};

/// What a FrameSource prefetches through: a frozen CapturePlan plus a
/// renderer for its frames. render() must be a pure function of
/// (plan, frame_index) — refills fan the batch out over the runtime
/// pool, and the determinism contract requires byte-identical frames at
/// every thread count. CameraTraceRenderer adapts the classic
/// single-trace camera path; scene::SceneFrameRenderer the
/// multi-luminaire compositor.
class FrameRenderer {
 public:
  virtual ~FrameRenderer() = default;
  [[nodiscard]] virtual const camera::CapturePlan& plan() const noexcept = 0;
  /// Renders plan frame `frame_index` into caller-provided (pooled)
  /// buffers.
  virtual void render(int frame_index, camera::Frame& out,
                      camera::RenderScratch& scratch) const = 0;
};

/// The single-trace renderer every pre-scene capture used: one camera,
/// one emission trace flooding the field of view. Construction consumes
/// the camera's timing walk (plan_capture), exactly as the classic
/// FrameSource constructor did.
class CameraTraceRenderer final : public FrameRenderer {
 public:
  /// `camera` and `trace` must outlive the renderer.
  CameraTraceRenderer(camera::RollingShutterCamera& camera,
                      const led::EmissionTrace& trace, double start_offset_s = 0.0)
      : camera_(camera), trace_(trace), plan_(camera.plan_capture(trace, start_offset_s)) {}
  /// A temporary trace would dangle after this full-expression.
  CameraTraceRenderer(camera::RollingShutterCamera&, led::EmissionTrace&&, double = 0.0) =
      delete;

  [[nodiscard]] const camera::CapturePlan& plan() const noexcept override { return plan_; }
  void render(int frame_index, camera::Frame& out,
              camera::RenderScratch& scratch) const override {
    camera_.render_planned_frame(trace_, plan_, frame_index, out, scratch);
  }

 private:
  camera::RollingShutterCamera& camera_;
  const led::EmissionTrace& trace_;
  camera::CapturePlan plan_;
};

/// A channel-impairment hook between camera and receiver. Stages may
/// mutate the frame in place (exposure jitter, pixel corruption) or
/// drop it entirely (return false) — a dropped frame never reaches the
/// receiver, like a frame the phone's camera pipeline skipped.
class FrameStage {
 public:
  virtual ~FrameStage() = default;
  /// Returns false to drop the frame.
  virtual bool process(camera::Frame& frame) = 0;
};

/// Runs `frame` through `stages` in order. Returns false as soon as a
/// stage drops it; the later stages then never see the frame.
[[nodiscard]] bool apply_stages(std::span<FrameStage* const> stages, camera::Frame& frame);

/// Pulls frames from a FrameRenderer through a bounded-lookahead
/// prefetch ring of pooled buffers. With the classic constructor the
/// camera's member RNG advances exactly once, at construction
/// (plan_capture), so interleaving other camera use during iteration is
/// not supported.
class FrameSource {
 public:
  /// `camera`, `trace` and `pool` must outlive the source. Construction
  /// consumes the camera's timing walk; next() then renders on demand.
  FrameSource(camera::RollingShutterCamera& camera, const led::EmissionTrace& trace,
              BufferPool& pool, SourceConfig config = {});
  /// A temporary trace would dangle after this full-expression.
  FrameSource(camera::RollingShutterCamera&, led::EmissionTrace&&, BufferPool&,
              SourceConfig = {}) = delete;
  /// Prefetches through an externally owned renderer (scene composites,
  /// custom sources). `renderer` and `pool` must outlive the source.
  /// config.start_offset_s is ignored — the renderer's plan already
  /// fixed the capture timing.
  FrameSource(const FrameRenderer& renderer, BufferPool& pool, SourceConfig config = {});
  ~FrameSource();

  FrameSource(const FrameSource&) = delete;
  FrameSource& operator=(const FrameSource&) = delete;

  /// The next frame in capture order, or nullptr at end of stream. The
  /// pointer (and the frame behind it) stays valid until the next call;
  /// the buffer is recycled automatically afterwards.
  [[nodiscard]] camera::Frame* next();

  /// Total frames the capture plan spans.
  [[nodiscard]] int total_frames() const noexcept { return plan().frame_count(); }
  /// Frames served so far.
  [[nodiscard]] int frames_emitted() const noexcept { return next_serve_; }
  /// Prefetch refills performed so far.
  [[nodiscard]] long long refills() const noexcept { return refills_; }

  [[nodiscard]] const BufferPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const camera::CapturePlan& plan() const noexcept {
    return renderer_->plan();
  }

 private:
  /// Releases the served ring back to the pool and renders the next
  /// lookahead-sized batch in parallel.
  void refill();

  /// Set by the classic camera+trace constructor; renderer_ points at it.
  std::unique_ptr<CameraTraceRenderer> owned_renderer_;
  const FrameRenderer* renderer_ = nullptr;
  BufferPool& pool_;
  SourceConfig config_;
  /// Prefetch ring: pooled frames holding plan indices
  /// [ring_base_, ring_base_ + ring_.size()).
  std::vector<camera::Frame> ring_;
  int ring_base_ = 0;
  int next_serve_ = 0;
  long long refills_ = 0;
};

}  // namespace colorbars::pipeline
