#include "colorbars/rx/roi_tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

namespace colorbars::rx {
namespace {

/// A dark frame (ambient surround only).
camera::Frame make_frame(int rows = 240, int columns = 64) {
  camera::Frame frame;
  frame.resize(rows, columns);
  std::fill(frame.pixels.begin(), frame.pixels.end(), color::Rgb8{6, 6, 6});
  return frame;
}

/// Paints a luminaire strip: saturated colors cycling every `band_rows`
/// rows — the rolling-shutter signature the detector keys on.
void paint_strip(camera::Frame& frame, int left, int width, int band_rows = 8) {
  static constexpr color::Rgb8 kPalette[4] = {
      {230, 40, 40}, {40, 230, 40}, {70, 70, 235}, {230, 230, 40}};
  for (int r = 0; r < frame.rows; ++r) {
    const color::Rgb8& color = kPalette[(r / band_rows) % 4];
    for (int c = left; c < left + width; ++c) frame.at(r, c) = color;
  }
}

/// Paints a bright but chroma-static patch (a lamp, a white wall).
void paint_static_patch(camera::Frame& frame, int left, int width) {
  for (int r = 0; r < frame.rows; ++r) {
    for (int c = left; c < left + width; ++c) frame.at(r, c) = {225, 225, 225};
  }
}

TEST(SceneTracker, ConfigValidation) {
  EXPECT_THROW(RoiTracker({.cell_rows = 0}), std::invalid_argument);
  EXPECT_THROW(RoiTracker({.cell_columns = -1}), std::invalid_argument);
  EXPECT_THROW(RoiTracker({.min_active_fraction = 0.0}), std::invalid_argument);
  EXPECT_THROW(RoiTracker({.min_active_fraction = 1.5}), std::invalid_argument);
  EXPECT_THROW(RoiTracker({.retire_after_frames = 0}), std::invalid_argument);
  EXPECT_NO_THROW(RoiTracker{});

  // detect is public and static, so it validates its config too; a zero
  // cell would divide by zero.
  camera::Frame frame = make_frame();
  paint_strip(frame, 0, frame.columns);
  EXPECT_THROW(static_cast<void>(RoiTracker::detect(frame, {.cell_rows = 0})),
               std::invalid_argument);
  // A cell size near INT_MAX must not overflow the grid size: one cell
  // covers the whole lit frame.
  const auto regions = RoiTracker::detect(
      frame, {.cell_rows = INT_MAX, .cell_columns = INT_MAX});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].left, 0);
  EXPECT_EQ(regions[0].top, 0);
  EXPECT_EQ(regions[0].width, frame.columns);
  EXPECT_EQ(regions[0].height, frame.rows);
}

TEST(SceneTracker, EmptyFrameYieldsNoDetections) {
  const camera::Frame frame;  // zero-sized
  EXPECT_TRUE(RoiTracker::detect(frame, {}).empty());
  RoiTracker tracker;
  EXPECT_TRUE(tracker.update(frame).empty());
}

TEST(SceneTracker, DarkFrameYieldsNoDetections) {
  const camera::Frame frame = make_frame();
  EXPECT_TRUE(RoiTracker::detect(frame, {}).empty());
}

TEST(SceneTracker, DetectsSingleStrip) {
  camera::Frame frame = make_frame();
  paint_strip(frame, 16, 16);
  const auto regions = RoiTracker::detect(frame, {});
  ASSERT_EQ(regions.size(), 1u);
  // The detected rectangle covers the strip (cell-quantized bounds may
  // extend slightly, never shrink past a cell).
  EXPECT_LE(regions[0].left, 16);
  EXPECT_GE(regions[0].column_end(), 32);
  EXPECT_LE(regions[0].top, 8);
  EXPECT_GE(regions[0].row_end(), frame.rows - 8);
  EXPECT_TRUE(regions[0].within(frame.rows, frame.columns));
}

TEST(SceneTracker, DetectsTwoStripsLeftToRight) {
  camera::Frame frame = make_frame();
  paint_strip(frame, 8, 16);
  paint_strip(frame, 40, 16, /*band_rows=*/6);
  const auto regions = RoiTracker::detect(frame, {});
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_LT(regions[0].left, regions[1].left);
  EXPECT_EQ(regions[0].column_overlap(regions[1]), 0);
  EXPECT_GE(regions[0].column_overlap({.left = 8, .width = 16}), 12);
  EXPECT_GE(regions[1].column_overlap({.left = 40, .width = 16}), 12);
}

TEST(SceneTracker, IgnoresBrightStaticBackground) {
  camera::Frame frame = make_frame();
  paint_static_patch(frame, 4, 20);  // bright, but no chroma cycling
  paint_strip(frame, 40, 16);
  const auto regions = RoiTracker::detect(frame, {});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_GE(regions[0].left, 36);
}

TEST(SceneTracker, TracksPersistAcrossFrames) {
  camera::Frame frame = make_frame();
  paint_strip(frame, 16, 16);
  RoiTracker tracker;
  for (int i = 0; i < 3; ++i) {
    const auto& tracks = tracker.update(frame);
    ASSERT_EQ(tracks.size(), 1u);
    EXPECT_EQ(tracks[0].id, 0);
    EXPECT_EQ(tracks[0].frames_seen, i + 1);
    EXPECT_EQ(tracks[0].frames_since_seen, 0);
  }
  EXPECT_EQ(tracker.tracks_opened(), 1);
}

TEST(SceneTracker, TrackFollowsDriftingStrip) {
  RoiTracker tracker;
  for (int shift = 0; shift <= 8; shift += 4) {
    camera::Frame frame = make_frame();
    paint_strip(frame, 16 + shift, 16);
    const auto& tracks = tracker.update(frame);
    ASSERT_EQ(tracks.size(), 1u);
    EXPECT_EQ(tracks[0].id, 0) << "drift must not spawn a new track";
  }
  EXPECT_EQ(tracker.tracks_opened(), 1);
}

TEST(SceneTracker, RetiresUnseenTracksAndNeverReusesIds) {
  RoiTrackerConfig config;
  config.retire_after_frames = 2;
  RoiTracker tracker(config);

  camera::Frame lit = make_frame();
  paint_strip(lit, 16, 16);
  (void)tracker.update(lit);
  ASSERT_EQ(tracker.tracks().size(), 1u);

  const camera::Frame dark = make_frame();
  (void)tracker.update(dark);
  (void)tracker.update(dark);
  // Within the retire horizon the track survives (a dropped frame or a
  // brief occlusion must not sever the decode lane).
  ASSERT_EQ(tracker.tracks().size(), 1u);
  EXPECT_EQ(tracker.tracks()[0].frames_since_seen, 2);
  (void)tracker.update(dark);
  EXPECT_TRUE(tracker.tracks().empty());

  // A luminaire reappearing after retirement opens a fresh track: IDs
  // are never reused.
  (void)tracker.update(lit);
  ASSERT_EQ(tracker.tracks().size(), 1u);
  EXPECT_EQ(tracker.tracks()[0].id, 1);
  EXPECT_EQ(tracker.tracks_opened(), 2);
}

TEST(SceneTracker, TwoTracksKeepIdentityWhenOneVanishes) {
  RoiTracker tracker;
  camera::Frame both = make_frame();
  paint_strip(both, 8, 16);
  paint_strip(both, 40, 16);
  (void)tracker.update(both);
  ASSERT_EQ(tracker.tracks().size(), 2u);

  camera::Frame right_only = make_frame();
  paint_strip(right_only, 40, 16);
  const auto& tracks = tracker.update(right_only);
  ASSERT_EQ(tracks.size(), 2u);  // left track coasts within the horizon
  EXPECT_EQ(tracks[0].frames_since_seen, 1);
  EXPECT_EQ(tracks[1].frames_since_seen, 0);
  EXPECT_EQ(tracks[1].id, 1);
  EXPECT_GE(tracks[1].region.left, 36);
}

}  // namespace
}  // namespace colorbars::rx
