#include "colorbars/camera/camera.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "colorbars/camera/bayer.hpp"
#include "colorbars/runtime/seed.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/simd/simd.hpp"

namespace colorbars::camera {

using util::Vec3;

RollingShutterCamera::RollingShutterCamera(SensorProfile profile,
                                           channel::OpticalChannel optical_channel,
                                           std::uint64_t noise_seed)
    : profile_(std::move(profile)), channel_(std::move(optical_channel)), rng_(noise_seed) {
  profile_.validate();
  ambient_constant_ = channel_.ambient_is_constant();
  ambient_sensor_ = profile_.xyz_to_sensor_rgb * channel_.constant_ambient_xyz();
  vignette_row2_.resize(static_cast<std::size_t>(profile_.rows));
  for (int r = 0; r < profile_.rows; ++r) {
    const double dr = (r - 0.5 * (profile_.rows - 1)) / (0.5 * profile_.rows);
    vignette_row2_[static_cast<std::size_t>(r)] = dr * dr;
  }
  vignette_col2_.resize(static_cast<std::size_t>(profile_.columns));
  for (int c = 0; c < profile_.columns; ++c) {
    const double dc = (c - 0.5 * (profile_.columns - 1)) / (0.5 * profile_.columns);
    vignette_col2_[static_cast<std::size_t>(c)] = dc * dc;
  }
}

ExposureSettings RollingShutterCamera::auto_exposure(const Vec3& mean_radiance) const noexcept {
  // AE meters the channel's static attenuation only — a phone's AE
  // converges on the steady scene, not a transient occlusion burst.
  return auto_exposure_metered(mean_radiance * channel_.attenuation_gain());
}

ExposureSettings RollingShutterCamera::auto_exposure_metered(
    const Vec3& attenuated_mean_radiance) const noexcept {
  // Controller: pick the exposure that puts the mean green response at
  // the target, at base ISO; raise ISO only when the exposure ceiling is
  // reached (standard phone AE priority order).
  const Vec3 sensor = profile_.xyz_to_sensor_rgb * attenuated_mean_radiance;
  const double mean_green = std::max(sensor.y, 1e-6);

  ExposureSettings settings;
  settings.iso = profile_.min_iso;
  // response = sensitivity * (iso/100) * exposure_ms * mean_green
  const double needed_exposure_ms = profile_.auto_exposure_target /
                                    (profile_.sensitivity * (settings.iso / 100.0) *
                                     mean_green);
  double exposure_s = needed_exposure_ms / 1000.0;
  if (exposure_s > profile_.max_exposure_s) {
    // Dark scene: max out exposure, then raise ISO.
    const double iso = settings.iso * exposure_s / profile_.max_exposure_s;
    settings.iso = std::clamp(iso, profile_.min_iso, profile_.max_iso);
    exposure_s = profile_.max_exposure_s;
  }
  settings.exposure_s = std::clamp(exposure_s, profile_.min_exposure_s,
                                   profile_.max_exposure_s);
  return settings;
}

double RollingShutterCamera::vignette_gain(int row, int column) const noexcept {
  if (profile_.vignette_strength <= 0.0) return 1.0;
  const double radial2 = 0.5 * (vignette_row2_[static_cast<std::size_t>(row)] +
                                vignette_col2_[static_cast<std::size_t>(column)]);
  // A strength > 2 profile would otherwise go negative at the corners
  // and inject negative "charge" upstream of the sensor clip.
  return std::max(1.0 - profile_.vignette_strength * radial2, 0.0);
}

Vec3 RollingShutterCamera::expose_row(const led::EmissionTrace& trace, double read_time_s,
                                      const ExposureSettings& settings) const noexcept {
  // Exposure window ends at the scanline's readout instant. A
  // time-invariant ambient term is constant across rows and frames, so
  // its sensor response is precomputed once at construction; only a
  // flickering channel pays the per-row ambient evaluation.
  const double window_start_s = read_time_s - settings.exposure_s;
  const Vec3 led_xyz = channel_.led_average(trace, window_start_s, read_time_s) *
                       channel_.signal_gain(window_start_s, read_time_s);
  const Vec3 ambient_sensor =
      ambient_constant_ ? ambient_sensor_
                        : profile_.xyz_to_sensor_rgb *
                              channel_.ambient_xyz(window_start_s, read_time_s);
  const Vec3 sensor = profile_.xyz_to_sensor_rgb * led_xyz + ambient_sensor;
  const double gain =
      profile_.sensitivity * (settings.iso / 100.0) * (settings.exposure_s * 1000.0);
  // CFA responses are non-negative; a strongly skewed matrix could go
  // slightly negative off-gamut, which the sensor clips at zero charge.
  return (sensor * gain).clamped(0.0, 1e9);
}

namespace {

/// Bayer-plane responses of one row: with RGGB phasing a row only ever
/// exposes two of the three channels, alternating by column parity —
/// even rows see (R, G), odd rows see (G, B).
struct RowBayerValues {
  double even;  ///< response at even columns
  double odd;   ///< response at odd columns
};

[[nodiscard]] inline RowBayerValues row_bayer_values(int row, const Vec3& response) noexcept {
  return (row % 2) == 0 ? RowBayerValues{response.x, response.y}
                        : RowBayerValues{response.y, response.z};
}

/// The back half of every frame render — vignette, Bayer mosaic with
/// shot/read noise, demosaic, sRGB quantize, metadata stamp — shared by
/// the single-trace and scene-composite paths. `fill_signal_row(r, out)`
/// writes the vignetted pre-noise Bayer signal of row r into
/// out[0..columns) (callers use simd::vignette_signal_span per
/// constant-response column span). Noise then draws exactly two
/// rng.normal() per pixel in row-major order (fill_normal over
/// kNoiseBatchRows rows at a time, with the dispatched accept loop and
/// finish, which is the same sequence), so any path funneled through
/// here keeps the frozen golden captures byte-identical.
///
/// Rows stream from the draw to 8-bit codes: once raw row r exists,
/// row r - 1 has both neighbours and is encoded, so the mosaic lives in
/// a window of three raw rows and never as a plane.
template <typename FillSignalRow>
void mosaic_and_encode(const RollingShutterCamera& camera, const ExposureSettings& settings,
                       double start_time_s, int frame_index, FillSignalRow&& fill_signal_row,
                       util::Xoshiro256& rng, Frame& out, RenderScratch& scratch) {
  const SensorProfile& profile = camera.profile();
  const double iso_gain = settings.iso / 100.0;
  const int rows = profile.rows;
  const int columns = profile.columns;
  const auto width = static_cast<std::size_t>(columns);
  const double read_sigma = profile.read_noise * iso_gain;
  out.resize(rows, columns);

  // Row-shaped transients come from the per-frame arena: 64-byte
  // aligned (SIMD fast path) and recycled across frames without
  // touching the allocator.
  scratch.arena.reset();
  const std::span<double> signal_row = scratch.arena.allocate<double>(width);
  const std::span<double> sigma_row = scratch.arena.allocate<double>(width);
  const std::span<double> normals =
      scratch.arena.allocate<double>(2 * width * kNoiseBatchRows);
  const std::span<double> window = scratch.arena.allocate<double>(3 * width);
  const auto raw_row = [&](int r) {
    return window.data() + static_cast<std::size_t>(r % 3) * width;
  };
  const auto encode_row = [&](int r) {
    demosaic_quantize_row(r > 0 ? raw_row(r - 1) : nullptr, raw_row(r),
                          r + 1 < rows ? raw_row(r + 1) : nullptr, r, columns,
                          out.pixels.data() + static_cast<std::size_t>(r) * width);
  };

  for (int first = 0; first < rows; first += kNoiseBatchRows) {
    const int count = std::min(kNoiseBatchRows, rows - first);
    rng.fill_normal(normals.first(2 * width * static_cast<std::size_t>(count)),
                    simd::polar_finish, simd::polar_accept);
    for (int r = first; r < first + count; ++r) {
      fill_signal_row(r, signal_row.data());
      simd::shot_sigma_row(signal_row.data(), columns, iso_gain, profile.well_capacity,
                           sigma_row.data());
      const double* row_normals =
          normals.data() + 2 * width * static_cast<std::size_t>(r - first);
      double* raw = raw_row(r);
      for (std::size_t c = 0; c < width; ++c) {
        const double noisy = signal_row[c] + row_normals[2 * c] * sigma_row[c] +
                             row_normals[2 * c + 1] * read_sigma;
        raw[c] = std::clamp(noisy, 0.0, 1.0);
      }
      if (r > 0) encode_row(r - 1);
    }
  }
  encode_row(rows - 1);

  out.start_time_s = start_time_s;
  out.row_time_s = profile.row_time_s();
  out.exposure_s = settings.exposure_s;
  out.iso = settings.iso;
  out.frame_index = frame_index;
}

}  // namespace

Frame RollingShutterCamera::capture_frame(const led::EmissionTrace& trace,
                                          double start_time_s, int frame_index) {
  Frame frame;
  RenderScratch scratch;
  render_frame_into(trace, start_time_s, frame_index, rng_, frame, scratch);
  return frame;
}

void RollingShutterCamera::render_frame_into(const led::EmissionTrace& trace,
                                             double start_time_s, int frame_index,
                                             util::Xoshiro256& rng, Frame& out,
                                             RenderScratch& scratch) const {
  ExposureSettings settings;
  if (manual_exposure_.has_value()) {
    settings = *manual_exposure_;
  } else {
    const Vec3 mean =
        trace.average(start_time_s, start_time_s + profile_.readout_duration_s());
    settings = auto_exposure(mean);
    // Frame-to-frame AE hunting: phones in auto mode never hold settings
    // perfectly steady (paper §6.2).
    settings.exposure_s *= std::clamp(rng.normal(1.0, 0.03), 0.85, 1.15);
    settings.exposure_s = std::clamp(settings.exposure_s, profile_.min_exposure_s,
                                     profile_.max_exposure_s);
  }

  const double row_time = profile_.row_time_s();

  // Per-row scene response (identical across columns before vignetting
  // and noise, since the close-range LED floods the field of view).
  std::vector<Vec3>& row_response = scratch.row_response;
  row_response.resize(static_cast<std::size_t>(profile_.rows));
  for (int r = 0; r < profile_.rows; ++r) {
    const double read_time = start_time_s + (r + 1) * row_time;
    row_response[static_cast<std::size_t>(r)] = expose_row(trace, read_time, settings);
  }

  // The close-range LED floods the field of view, so one row's response
  // is constant across columns: the whole row is a single
  // constant-response span for the vignette kernel.
  const std::span<const double> row_sq = vignette_row_sq();
  const std::span<const double> col_sq = vignette_col_sq();
  mosaic_and_encode(
      *this, settings, start_time_s, frame_index,
      [&](int r, double* out_row) {
        const RowBayerValues values =
            row_bayer_values(r, row_response[static_cast<std::size_t>(r)]);
        simd::vignette_signal_span(col_sq.data(), 0, profile_.columns,
                                   row_sq[static_cast<std::size_t>(r)],
                                   profile_.vignette_strength, values.even, values.odd,
                                   out_row);
      },
      rng, out, scratch);
}

ExposureSettings RollingShutterCamera::scene_exposure(
    std::span<const RegionEmitter> emitters, double start_time_s,
    util::Xoshiro256& rng) const {
  if (manual_exposure_.has_value()) return *manual_exposure_;
  // Spot-meter the lit regions: the area-weighted mean radiance over the
  // emitter rectangles, each attenuated by its own channel. The dark
  // surround is excluded — metering the full mostly-dark field would
  // crank exposure until the strips saturate and smear every band.
  Vec3 metered;
  double total_area = 0.0;
  const double readout_end_s = start_time_s + profile_.readout_duration_s();
  for (const RegionEmitter& emitter : emitters) {
    const double area = static_cast<double>(emitter.region.area());
    metered += emitter.trace->average(start_time_s, readout_end_s) *
               (emitter.channel->attenuation_gain() * area);
    total_area += area;
  }
  if (total_area > 0.0) metered /= total_area;
  ExposureSettings settings = auto_exposure_metered(metered);
  // Same frame-to-frame AE hunting as the single-trace path.
  settings.exposure_s *= std::clamp(rng.normal(1.0, 0.03), 0.85, 1.15);
  settings.exposure_s = std::clamp(settings.exposure_s, profile_.min_exposure_s,
                                   profile_.max_exposure_s);
  return settings;
}

void RollingShutterCamera::render_scene_frame_into(std::span<const RegionEmitter> emitters,
                                                   double start_time_s, int frame_index,
                                                   util::Xoshiro256& rng, Frame& out,
                                                   RenderScratch& scratch) const {
  for (const RegionEmitter& emitter : emitters) {
    if (emitter.trace == nullptr || emitter.channel == nullptr ||
        !emitter.region.within(profile_.rows, profile_.columns)) {
      throw std::invalid_argument(
          "render_scene_frame_into: emitter needs a trace, a channel and a region "
          "inside the sensor");
    }
  }
  const ExposureSettings settings = scene_exposure(emitters, start_time_s, rng);
  const double row_time = profile_.row_time_s();
  const double gain =
      profile_.sensitivity * (settings.iso / 100.0) * (settings.exposure_s * 1000.0);
  const auto rows = static_cast<std::size_t>(profile_.rows);

  // Background rows: the camera channel's ambient term (the scene's
  // unlit surround), per row like expose_row's ambient half.
  std::vector<Vec3>& ambient_rows = scratch.row_response;
  ambient_rows.resize(rows);
  for (int r = 0; r < profile_.rows; ++r) {
    const double read_time = start_time_s + (r + 1) * row_time;
    const double window_start = read_time - settings.exposure_s;
    const Vec3 ambient =
        ambient_constant_ ? ambient_sensor_
                          : profile_.xyz_to_sensor_rgb *
                                channel_.ambient_xyz(window_start, read_time);
    ambient_rows[static_cast<std::size_t>(r)] = (ambient * gain).clamped(0.0, 1e9);
  }

  // Per-emitter LED rows, computed only for rows the emitter's
  // rectangle covers (the per-pixel composite below never reads the
  // rest).
  std::vector<Vec3>& region_rows = scratch.region_rows;
  region_rows.assign(emitters.size() * rows, Vec3{});
  for (std::size_t e = 0; e < emitters.size(); ++e) {
    const RegionEmitter& emitter = emitters[e];
    for (int r = emitter.region.top; r < emitter.region.row_end(); ++r) {
      const double read_time = start_time_s + (r + 1) * row_time;
      const double window_start = read_time - settings.exposure_s;
      const Vec3 led_xyz =
          emitter.channel->led_average(*emitter.trace, window_start, read_time) *
          emitter.channel->signal_gain(window_start, read_time);
      region_rows[e * rows + static_cast<std::size_t>(r)] =
          ((profile_.xyz_to_sensor_rgb * led_xyz) * gain).clamped(0.0, 1e9);
    }
  }

  // Within one row the response is piecewise constant: it only changes
  // at emitter rectangle edges. Sweep the row's column spans and hand
  // each constant-response span to the vignette kernel; the span sum
  // adds ambient plus containing emitters in ascending order, exactly
  // like the old per-pixel walk, so the composite stays bit-identical.
  const std::span<const double> row_sq = vignette_row_sq();
  const std::span<const double> col_sq = vignette_col_sq();
  std::vector<int> edges;
  edges.reserve(2 * emitters.size() + 2);
  mosaic_and_encode(
      *this, settings, start_time_s, frame_index,
      [&](int r, double* out_row) {
        edges.clear();
        edges.push_back(0);
        edges.push_back(profile_.columns);
        for (const RegionEmitter& emitter : emitters) {
          if (r < emitter.region.top || r >= emitter.region.row_end()) continue;
          edges.push_back(std::clamp(emitter.region.left, 0, profile_.columns));
          edges.push_back(std::clamp(emitter.region.column_end(), 0, profile_.columns));
        }
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
          const int span_begin = edges[i];
          const int span_end = edges[i + 1];
          Vec3 response = ambient_rows[static_cast<std::size_t>(r)];
          for (std::size_t e = 0; e < emitters.size(); ++e) {
            if (emitters[e].region.contains(r, span_begin)) {
              response += region_rows[e * rows + static_cast<std::size_t>(r)];
            }
          }
          const RowBayerValues values = row_bayer_values(r, response);
          simd::vignette_signal_span(col_sq.data(), span_begin, span_end,
                                     row_sq[static_cast<std::size_t>(r)],
                                     profile_.vignette_strength, values.even, values.odd,
                                     out_row);
        }
      },
      rng, out, scratch);
}

void RollingShutterCamera::render_planned_scene_frame(
    std::span<const RegionEmitter> emitters, const CapturePlan& plan, int frame_index,
    Frame& out, RenderScratch& scratch) const {
  util::Xoshiro256 frame_rng(runtime::derive_stream_seed(
      plan.stream_seed, static_cast<std::uint64_t>(frame_index)));
  render_scene_frame_into(emitters, plan.start_times[static_cast<std::size_t>(frame_index)],
                          frame_index, frame_rng, out, scratch);
}

CapturePlan RollingShutterCamera::plan_capture(const led::EmissionTrace& trace,
                                               double start_offset_s) {
  return plan_capture_span(trace.duration(), start_offset_s);
}

CapturePlan RollingShutterCamera::plan_capture_span(double duration_s,
                                                    double start_offset_s) {
  const double period = profile_.frame_period_s();
  // Frame timing wanders as a bounded random walk inside the gap
  // (auto-exposure hunting continuously reshuffles readout start on real
  // phones). The walk, unlike independent jitter, sweeps the full offset
  // range over tens of frames — which is what de-phases the inter-frame
  // gap from a packet stream sized to one frame period.
  //
  // The walk is inherently sequential but cheap, so it is precomputed
  // here from the member RNG; frame synthesis — the expensive part —
  // then fans out over the runtime pool with one derived RNG stream per
  // frame index, making the video byte-identical at any thread count.
  const double offset_max =
      std::min(profile_.frame_start_jitter_s, 0.8 * profile_.gap_duration_s());
  double offset = offset_max > 0.0 ? rng_.uniform(0.0, offset_max) : 0.0;
  CapturePlan plan;
  for (int index = 0;; ++index) {
    // Multiply rather than accumulate so rounding cannot create a
    // spurious extra frame at an exact trace boundary.
    const double nominal = start_offset_s + index * period;
    if (nominal >= duration_s - 1e-12) break;
    plan.start_times.push_back(nominal + offset);
    if (offset_max > 0.0) {
      offset += rng_.uniform(-0.4, 0.4) * offset_max;
      offset = std::clamp(offset, 0.0, offset_max);
    }
  }
  plan.stream_seed = rng_();
  return plan;
}

void RollingShutterCamera::render_planned_frame(const led::EmissionTrace& trace,
                                                const CapturePlan& plan, int frame_index,
                                                Frame& out, RenderScratch& scratch) const {
  util::Xoshiro256 frame_rng(runtime::derive_stream_seed(
      plan.stream_seed, static_cast<std::uint64_t>(frame_index)));
  render_frame_into(trace, plan.start_times[static_cast<std::size_t>(frame_index)],
                    frame_index, frame_rng, out, scratch);
}

std::vector<Frame> RollingShutterCamera::capture_video(const led::EmissionTrace& trace,
                                                       double start_offset_s) {
  const CapturePlan plan = plan_capture(trace, start_offset_s);
  std::vector<Frame> frames(plan.start_times.size());
  runtime::parallel_for(
      0, static_cast<std::int64_t>(plan.start_times.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        // One scratch per claimed chunk: buffers recycle across the
        // chunk's frames without crossing thread boundaries.
        RenderScratch scratch;
        for (std::int64_t i = lo; i < hi; ++i) {
          render_planned_frame(trace, plan, static_cast<int>(i),
                               frames[static_cast<std::size_t>(i)], scratch);
        }
      });
  return frames;
}

}  // namespace colorbars::camera
