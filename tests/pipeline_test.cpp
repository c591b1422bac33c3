// The streaming frame pipeline's contracts: pooled buffers are recycled
// (bounded residency independent of capture duration), the streamed
// frame sequence is byte-identical to the materialized capture_video,
// stages can drop frames before the receiver, and the shared
// image/exposure validation rejects degenerate shapes.

#include <gtest/gtest.h>

#include <algorithm>

#include "colorbars/camera/camera.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/pipeline/pipeline.hpp"

namespace colorbars {
namespace {

/// Tiny sensor + steady emission: renders hundreds of frames in
/// milliseconds, so long-duration residency claims are cheap to test.
camera::SensorProfile tiny_profile() {
  camera::SensorProfile profile = camera::ideal_profile();
  profile.rows = 32;
  profile.columns = 8;
  return profile;
}

led::EmissionTrace steady_trace(double duration_s) {
  led::EmissionTrace trace;
  trace.append(duration_s, {0.6, 0.4, 0.2});
  return trace;
}

TEST(BufferPool, CountsHitsMissesAndPeakResidency) {
  pipeline::BufferPool pool;
  camera::Frame a = pool.acquire_frame();  // miss
  camera::Frame b = pool.acquire_frame();  // miss
  EXPECT_EQ(pool.stats().frame_misses, 2);
  EXPECT_EQ(pool.stats().frame_hits, 0);
  EXPECT_EQ(pool.stats().outstanding_frames, 2);
  EXPECT_EQ(pool.stats().peak_outstanding_frames, 2);

  pool.release_frame(std::move(a));
  pool.release_frame(std::move(b));
  EXPECT_EQ(pool.stats().outstanding_frames, 0);

  camera::Frame c = pool.acquire_frame();  // hit (recycled)
  EXPECT_EQ(pool.stats().frame_hits, 1);
  EXPECT_EQ(pool.stats().frame_misses, 2);
  EXPECT_EQ(pool.stats().peak_outstanding_frames, 2);
  pool.release_frame(std::move(c));

  camera::RenderScratch s = pool.acquire_scratch();  // miss
  pool.release_scratch(std::move(s));
  camera::RenderScratch t = pool.acquire_scratch();  // hit
  pool.release_scratch(std::move(t));
  EXPECT_EQ(pool.stats().scratch_misses, 1);
  EXPECT_EQ(pool.stats().scratch_hits, 1);
}

TEST(Pipeline, StreamedFramesMatchCaptureVideoByteForByte) {
  const led::EmissionTrace trace = steady_trace(1.0);
  const double start_offset = 0.004;

  camera::RollingShutterCamera buffered_camera(tiny_profile(), {}, 0x5eed);
  const std::vector<camera::Frame> expected =
      buffered_camera.capture_video(trace, start_offset);
  ASSERT_FALSE(expected.empty());

  camera::RollingShutterCamera streamed_camera(tiny_profile(), {}, 0x5eed);
  pipeline::BufferPool pool;
  pipeline::SourceConfig config;
  config.lookahead = 3;  // deliberately not a divisor of the frame count
  config.start_offset_s = start_offset;
  pipeline::FrameSource source(streamed_camera, trace, pool, config);
  ASSERT_EQ(source.total_frames(), static_cast<int>(expected.size()));

  int i = 0;
  while (const camera::Frame* frame = source.next()) {
    ASSERT_LT(i, static_cast<int>(expected.size()));
    const camera::Frame& want = expected[static_cast<std::size_t>(i)];
    EXPECT_EQ(frame->frame_index, want.frame_index);
    EXPECT_EQ(frame->start_time_s, want.start_time_s);
    EXPECT_EQ(frame->exposure_s, want.exposure_s);
    EXPECT_EQ(frame->iso, want.iso);
    ASSERT_EQ(frame->pixels.size(), want.pixels.size());
    EXPECT_TRUE(std::equal(frame->pixels.begin(), frame->pixels.end(),
                           want.pixels.begin(),
                           [](const color::Rgb8& a, const color::Rgb8& b) {
                             return a.r == b.r && a.g == b.g && a.b == b.b;
                           }))
        << "pixels diverged at frame " << i;
    ++i;
  }
  EXPECT_EQ(i, static_cast<int>(expected.size()));
}

TEST(Pipeline, PeakResidentFramesIsBoundedByLookaheadNotDuration) {
  const int lookahead = 4;
  auto peak_for = [&](double duration_s) {
    camera::RollingShutterCamera camera(tiny_profile(), {}, 0x5eed);
    pipeline::BufferPool pool;
    pipeline::SourceConfig config;
    config.lookahead = lookahead;
    // The source borrows the trace, so it must outlive the run.
    const led::EmissionTrace trace = steady_trace(duration_s);
    pipeline::FrameSource source(camera, trace, pool, config);
    long long peak_outstanding_seen = 0;
    while (source.next() != nullptr) {
      peak_outstanding_seen =
          std::max(peak_outstanding_seen, pool.stats().outstanding_frames);
    }
    EXPECT_EQ(source.frames_emitted(), source.total_frames());
    // Whenever the consumer held a frame, at most one lookahead batch
    // was live.
    EXPECT_LE(peak_outstanding_seen, lookahead);
    return pool.stats().peak_outstanding_frames;
  };

  const long long peak_30s = peak_for(30.0);
  const long long peak_5s = peak_for(5.0);
  EXPECT_LE(peak_30s, lookahead);
  // A 6x longer capture holds exactly the same number of live buffers.
  EXPECT_EQ(peak_30s, peak_5s);
}

TEST(Pipeline, SourceDrainsEveryPlannedFrameAcrossRefills) {
  camera::RollingShutterCamera camera(tiny_profile(), {}, 0x5eed);
  pipeline::BufferPool pool;
  pipeline::SourceConfig config;
  config.lookahead = 7;  // 30 frames / 7 => a short final batch
  const led::EmissionTrace trace = steady_trace(1.0);
  pipeline::FrameSource source(camera, trace, pool, config);
  const int total = source.total_frames();
  ASSERT_GT(total, config.lookahead);

  int served = 0;
  while (source.next() != nullptr) ++served;
  EXPECT_EQ(served, total);
  EXPECT_EQ(source.frames_emitted(), total);
  EXPECT_EQ(source.next(), nullptr);  // stays ended
  EXPECT_EQ(source.refills(), (total + config.lookahead - 1) / config.lookahead);
}

/// Drops every `n`-th frame (n = 0 drops none) and counts the frames it
/// saw.
class DropEveryNth final : public pipeline::FrameStage {
 public:
  explicit DropEveryNth(int n) : n_(n) {}
  bool process(camera::Frame& frame) override {
    ++seen_;
    return n_ == 0 || (frame.frame_index % n_) != 0;
  }

  int seen_ = 0;

 private:
  int n_;
};

TEST(Pipeline, StagesCanDropFramesBeforeTheSink) {
  camera::RollingShutterCamera camera(tiny_profile(), {}, 0x5eed);
  pipeline::BufferPool pool;
  const led::EmissionTrace trace = steady_trace(1.0);
  pipeline::FrameSource source(camera, trace, pool, {});
  DropEveryNth keep_all(0);
  DropEveryNth drop(3);
  DropEveryNth after(0);
  pipeline::FrameStage* stages[] = {&keep_all, &drop, &after};
  int kept = 0;
  int dropped = 0;
  while (camera::Frame* frame = source.next()) {
    if (pipeline::apply_stages(stages, *frame)) {
      ++kept;
    } else {
      ++dropped;
    }
  }

  EXPECT_GT(dropped, 0);
  EXPECT_EQ(kept + dropped, source.total_frames());
  EXPECT_EQ(keep_all.seen_, source.total_frames());
  // A dropped frame never reaches the stages after the one that dropped
  // it.
  EXPECT_EQ(after.seen_, kept);
  // No stages keep every frame.
  camera::Frame frame;
  EXPECT_TRUE(pipeline::apply_stages({}, frame));
}

TEST(ImageValidation, RejectsNonPositiveDimensionsEverywhere) {
  EXPECT_THROW((void)camera::checked_image_size(0, 8), std::invalid_argument);
  EXPECT_THROW((void)camera::checked_image_size(8, -1), std::invalid_argument);
  EXPECT_THROW(camera::FloatImage(0, 4), std::invalid_argument);

  camera::FloatImage image(2, 2);
  EXPECT_THROW(image.resize(2, 0), std::invalid_argument);

  camera::Frame frame;
  EXPECT_THROW(frame.resize(-3, 4), std::invalid_argument);
  frame.resize(3, 4);
  EXPECT_EQ(frame.pixels.size(), 12u);
}

TEST(ImageValidation, ManualExposureRejectsNonPositiveSettings) {
  camera::RollingShutterCamera camera(tiny_profile(), {}, 1);
  EXPECT_THROW(camera.set_manual_exposure({0.0, 100.0}), std::invalid_argument);
  EXPECT_THROW(camera.set_manual_exposure({1e-3, 0.0}), std::invalid_argument);
  EXPECT_THROW(camera.set_manual_exposure({-1e-3, -5.0}), std::invalid_argument);
  EXPECT_NO_THROW(camera.set_manual_exposure({1e-3, 200.0}));
}

}  // namespace
}  // namespace colorbars
