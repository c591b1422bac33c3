#pragma once

// The rolling-shutter camera simulator. Integrates a tri-LED emission
// trace through per-scanline exposure windows, applies the device's
// color response, vignetting, Bayer mosaic, photon/read noise, bilinear
// demosaic and sRGB encoding, and emits 8-bit frames separated by the
// device's inter-frame gap — everything the ColorBars receiver has to
// cope with (paper §2.1, §3.1, §6).

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "colorbars/camera/image.hpp"
#include "colorbars/camera/profile.hpp"
#include "colorbars/channel/channel.hpp"
#include "colorbars/led/emission.hpp"
#include "colorbars/util/arena.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::camera {

/// Manual exposure override (the paper sweeps these in Fig. 6b/6c; the
/// evaluation otherwise leaves the camera on auto).
struct ExposureSettings {
  double exposure_s = 1.0 / 1000.0;
  double iso = 100.0;

  /// Throws unless both fields are positive: a non-positive exposure or
  /// ISO silently produces degenerate (zero-gain) rows downstream.
  void validate() const {
    if (!(exposure_s > 0.0) || !(iso > 0.0)) {
      throw std::invalid_argument(
          "ExposureSettings: exposure_s and iso must be positive");
    }
  }
};

/// Rows of noise the render draws per fill_normal call: each call's
/// cached half-pair, odd tail and set-up are shared by this many rows,
/// and a batch is long enough for the lane accept loop's blocks
/// (simd::polar_accept) to run.
inline constexpr int kNoiseBatchRows = 64;

/// Reusable per-frame render scratch: the intermediate buffers one
/// frame synthesis needs. No frame-sized plane exists — the render
/// streams rows from the noise draw to 8-bit codes through a three-row
/// raw window, so its memory is O(columns) beyond the per-row
/// responses. Recyclable across frames — every render resizes the
/// buffers it uses — so a pipeline::BufferPool can hand the same scratch
/// to thousands of frames without reallocating.
struct RenderScratch {
  std::vector<led::Vec3> row_response;
  /// Scene-composite renders only: per-emitter per-row LED responses,
  /// laid out emitter-major (emitter * rows + row). Unused (and left
  /// untouched) by the single-trace render path.
  std::vector<led::Vec3> region_rows;
  /// Per-frame bump allocator for row-shaped transients (the vignetted
  /// signal, shot-sigma and noise rows of the mosaic stage and the raw
  /// row window). Reset at the start of every frame; after the first
  /// frame every row comes back from the same 64-byte-aligned block, so
  /// the SIMD kernels stay on the aligned fast path and nothing
  /// reallocates. arena.stats() exposes its reuse/peak counters.
  util::CaptureArena arena;
};

/// One luminaire of a multi-emitter scene: the sensor rectangle its
/// image covers, the emission trace it plays, and the optical channel
/// its light crosses (per-luminaire distance/occlusion). Non-owning —
/// the scene compositor borrows all three for the duration of a render.
struct RegionEmitter {
  const led::EmissionTrace* trace = nullptr;
  const channel::OpticalChannel* channel = nullptr;
  SensorRegion region;
};

/// The deterministic frame-timing plan of one video capture: the
/// jittered readout start time of every frame plus the seed the
/// per-frame RNG streams derive from. Consuming a plan frame-by-frame
/// (pipeline::FrameSource) is byte-identical to capture_video because
/// both draw the member-RNG walk in exactly this order.
struct CapturePlan {
  std::vector<double> start_times;
  std::uint64_t stream_seed = 0;

  [[nodiscard]] int frame_count() const noexcept {
    return static_cast<int>(start_times.size());
  }
};

/// Rolling-shutter camera instance: pure sensor physics. Everything
/// between LED and sensor — distance, ambient, occlusion — lives in
/// the channel::OpticalChannel the camera integrates through (the
/// default channel is the identity close-range setup). Deterministic
/// given its seed.
class RollingShutterCamera {
 public:
  RollingShutterCamera(SensorProfile profile,
                       channel::OpticalChannel optical_channel = channel::OpticalChannel{},
                       std::uint64_t noise_seed = 0x5eed);

  [[nodiscard]] const SensorProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] const channel::OpticalChannel& optical_channel() const noexcept {
    return channel_;
  }

  /// Fixes exposure/ISO manually (disables auto exposure). Throws on
  /// non-positive exposure or ISO (see ExposureSettings::validate).
  void set_manual_exposure(const ExposureSettings& settings) {
    settings.validate();
    manual_exposure_ = settings;
  }
  /// Re-enables auto exposure.
  void set_auto_exposure() noexcept { manual_exposure_.reset(); }

  /// Auto-exposure decision for a given mean scene radiance (exposed for
  /// tests and for the Fig. 6 sweeps).
  [[nodiscard]] ExposureSettings auto_exposure(const led::Vec3& mean_radiance) const noexcept;

  /// Captures a single frame whose first scanline reads out at
  /// `start_time_s` into the trace.
  [[nodiscard]] Frame capture_frame(const led::EmissionTrace& trace, double start_time_s,
                                    int frame_index = 0);

  /// Records video for the duration of the trace: frames every
  /// 1/fps seconds with the inter-frame gap between them, starting at
  /// `start_offset_s`. Frames are synthesized in parallel on the shared
  /// runtime pool; each frame's AE-hunt and noise randomness comes from
  /// a counter-derived per-frame stream, so the captured video is
  /// byte-identical at every thread count.
  ///
  /// Materializes the whole capture — O(duration) frames resident. Long
  /// or memory-bounded runs should consume a CapturePlan through
  /// pipeline::FrameSource instead, which renders the identical frames
  /// O(lookahead) at a time.
  [[nodiscard]] std::vector<Frame> capture_video(const led::EmissionTrace& trace,
                                                 double start_offset_s = 0.0);

  /// Computes the frame-timing walk of a capture (start times + derived
  /// per-frame RNG stream seed) without rendering anything. Advances the
  /// member RNG exactly as capture_video does, so rendering the plan's
  /// frames — in any order, on any thread count — reproduces
  /// capture_video byte for byte.
  [[nodiscard]] CapturePlan plan_capture(const led::EmissionTrace& trace,
                                         double start_offset_s = 0.0);

  /// Duration-based variant of plan_capture for captures that are not
  /// driven by a single trace (scene composites span several). Performs
  /// the identical member-RNG timing walk: plan_capture(trace, o) ==
  /// plan_capture_span(trace.duration(), o) byte for byte.
  [[nodiscard]] CapturePlan plan_capture_span(double duration_s,
                                              double start_offset_s = 0.0);

  /// Renders frame `frame_index` of `plan` into the caller-provided
  /// frame and scratch buffers (both resized in place, so pooled buffers
  /// recycle their allocations). Pure function of (plan, frame_index):
  /// the frame's randomness comes from a stream derived from
  /// plan.stream_seed and the index.
  void render_planned_frame(const led::EmissionTrace& trace, const CapturePlan& plan,
                            int frame_index, Frame& out, RenderScratch& scratch) const;

  /// Renders one frame whose first scanline reads out at `start_time_s`,
  /// drawing randomness from `rng`, into caller-provided buffers. The
  /// re-entrant core every capture path shares.
  void render_frame_into(const led::EmissionTrace& trace, double start_time_s,
                         int frame_index, util::Xoshiro256& rng, Frame& out,
                         RenderScratch& scratch) const;

  /// Scene-composite render: places every emitter's LED response into
  /// its sensor rectangle on top of the camera channel's ambient
  /// background, then applies the same vignette/mosaic/noise/demosaic/
  /// encode chain as the single-trace path. Auto exposure spot-meters
  /// the lit regions (area-weighted mean over the emitters, each seen
  /// through its own channel) — a phone meters the subject, and
  /// metering the mostly dark full field would blow out the strips.
  /// Throws std::invalid_argument on a null trace/channel or a region
  /// that does not fit the sensor.
  void render_scene_frame_into(std::span<const RegionEmitter> emitters,
                               double start_time_s, int frame_index,
                               util::Xoshiro256& rng, Frame& out,
                               RenderScratch& scratch) const;

  /// Scene counterpart of render_planned_frame: renders plan frame
  /// `frame_index` of a multi-emitter capture from its counter-derived
  /// RNG stream. Pure function of (emitters, plan, frame_index).
  void render_planned_scene_frame(std::span<const RegionEmitter> emitters,
                                  const CapturePlan& plan, int frame_index, Frame& out,
                                  RenderScratch& scratch) const;

  /// Vignetting gain at a pixel (1 at center, 1 - strength at corners,
  /// clamped at 0 so an extreme profile cannot produce negative charge).
  [[nodiscard]] double vignette_gain(int row, int column) const noexcept;

  /// Precomputed squared normalized distances of every row / column from
  /// the sensor center — the separable halves of the vignette model
  /// (gain(r, c) = 1 - strength * 0.5 * (row_sq[r] + col_sq[c]), clamped
  /// at 0). Exposed so the row-batched mosaic stage can hand whole rows
  /// to simd::vignette_signal_span.
  [[nodiscard]] std::span<const double> vignette_row_sq() const noexcept {
    return vignette_row2_;
  }
  [[nodiscard]] std::span<const double> vignette_col_sq() const noexcept {
    return vignette_col2_;
  }

 private:
  /// Linear sensor RGB for one scanline's exposure window, before noise.
  [[nodiscard]] led::Vec3 expose_row(const led::EmissionTrace& trace, double read_time_s,
                                     const ExposureSettings& settings) const noexcept;

  /// auto_exposure core on a radiance that already carries its channel
  /// attenuation (the scene path attenuates per emitter; the classic
  /// path applies the camera channel's static gain first).
  [[nodiscard]] ExposureSettings auto_exposure_metered(
      const led::Vec3& attenuated_mean_radiance) const noexcept;

  /// Scene auto-exposure decision plus AE-hunt jitter, shared by the
  /// composite render path.
  [[nodiscard]] ExposureSettings scene_exposure(std::span<const RegionEmitter> emitters,
                                                double start_time_s,
                                                util::Xoshiro256& rng) const;

  SensorProfile profile_;
  channel::OpticalChannel channel_;
  std::optional<ExposureSettings> manual_exposure_;
  util::Xoshiro256 rng_;
  /// True when the channel's ambient term is time-invariant, making
  /// ambient_sensor_ below valid for every row of every frame.
  bool ambient_constant_ = true;
  /// Sensor response to the channel's constant ambient term, hoisted
  /// out of the per-row exposure integral.
  led::Vec3 ambient_sensor_;
  /// Separable squared vignette distances, precomputed per row/column so
  /// the per-pixel gain is two lookups and a multiply.
  std::vector<double> vignette_row2_;
  std::vector<double> vignette_col2_;
};

}  // namespace colorbars::camera
