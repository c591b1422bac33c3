// Micro-benchmarks (google-benchmark) for the building blocks whose
// speed governs real-time decoding on a phone (paper §8 uses a threaded
// pipeline): color conversion, Bayer demosaic, Reed-Solomon, band
// extraction and the end-to-end per-frame receiver cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "colorbars/camera/bayer.hpp"
#include "colorbars/camera/camera.hpp"
#include "colorbars/color/lab.hpp"
#include "colorbars/color/lut.hpp"
#include "colorbars/color/srgb.hpp"
#include "colorbars/csk/mapper.hpp"
#include "colorbars/led/emission.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/pipeline/buffer_pool.hpp"
#include "colorbars/protocol/symbols.hpp"
#include "colorbars/rs/reed_solomon.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/simd/simd.hpp"
#include "colorbars/util/rng.hpp"

using namespace colorbars;

namespace {

void BM_SrgbToLab(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::vector<util::Vec3> pixels(4096);
  for (auto& pixel : pixels) pixel = {rng.uniform(), rng.uniform(), rng.uniform()};
  for (auto _ : state) {
    for (const auto& pixel : pixels) {
      benchmark::DoNotOptimize(
          color::xyz_to_lab(color::linear_srgb_to_xyz(color::srgb_decode(pixel))));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(pixels.size()));
}
BENCHMARK(BM_SrgbToLab);

void BM_Rgb8ToLabFast(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::vector<color::Rgb8> pixels(4096);
  for (auto& pixel : pixels) {
    pixel = {static_cast<std::uint8_t>(rng.below(256)),
             static_cast<std::uint8_t>(rng.below(256)),
             static_cast<std::uint8_t>(rng.below(256))};
  }
  for (auto _ : state) {
    for (const auto& pixel : pixels) {
      benchmark::DoNotOptimize(color::rgb8_to_lab_fast(pixel));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(pixels.size()));
}
BENCHMARK(BM_Rgb8ToLabFast);

void BM_TraceAverage(benchmark::State& state) {
  // Row-exposure-sized windows against traces of growing length: the
  // prefix-sum integral keeps this O(log segments) per window instead of
  // O(segments in window).
  const int segments = static_cast<int>(state.range(0));
  util::Xoshiro256 rng(10);
  led::EmissionTrace trace;
  for (int i = 0; i < segments; ++i) {
    trace.append(rng.uniform(1e-4, 6e-4), {rng.uniform(), rng.uniform(), rng.uniform()});
  }
  std::vector<std::pair<double, double>> windows;
  for (int i = 0; i < 1024; ++i) {
    const double t0 = rng.uniform(0.0, trace.duration());
    windows.emplace_back(t0, t0 + 1e-3);
  }
  for (auto _ : state) {
    for (const auto& [lo, hi] : windows) {
      benchmark::DoNotOptimize(trace.average(lo, hi));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(windows.size()));
}
BENCHMARK(BM_TraceAverage)->Arg(1000)->Arg(20000);

void BM_BayerDemosaic(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int columns = 64;
  util::Xoshiro256 rng(2);
  std::vector<double> raw(static_cast<std::size_t>(rows) * columns);
  for (auto& value : raw) value = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(camera::demosaic(raw, rows, columns));
  }
  state.SetItemsProcessed(state.iterations() * rows * columns);
}
BENCHMARK(BM_BayerDemosaic)->Arg(1080)->Arg(2448);

void BM_RsEncode(benchmark::State& state) {
  const rs::ReedSolomon code(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(0)) / 2);
  util::Xoshiro256 rng(3);
  std::vector<std::uint8_t> message(static_cast<std::size_t>(code.k()));
  for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(message));
  }
  state.SetBytesProcessed(state.iterations() * code.k());
}
BENCHMARK(BM_RsEncode)->Arg(32)->Arg(64)->Arg(255);

void BM_RsDecodeWithErasures(benchmark::State& state) {
  const rs::ReedSolomon code(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(0)) / 2);
  util::Xoshiro256 rng(4);
  std::vector<std::uint8_t> message(static_cast<std::size_t>(code.k()));
  for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.below(256));
  auto codeword = code.encode(message);
  std::vector<int> erasures;
  for (int i = 0; i < code.parity_count() / 2; ++i) {
    erasures.push_back(i + 3);
    codeword[static_cast<std::size_t>(i) + 3] = 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(codeword, erasures));
  }
  state.SetBytesProcessed(state.iterations() * code.n());
}
BENCHMARK(BM_RsDecodeWithErasures)->Arg(32)->Arg(64)->Arg(255);

void BM_SymbolMapping(benchmark::State& state) {
  const csk::Constellation constellation(csk::CskOrder::kCsk16);
  const csk::SymbolMapper mapper(constellation);
  util::Xoshiro256 rng(5);
  std::vector<std::uint8_t> payload(256);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map_bytes(payload));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(payload.size()));
}
BENCHMARK(BM_SymbolMapping);

camera::Frame captured_frame() {
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::TriLed led;
  util::Xoshiro256 rng(6);
  std::vector<protocol::ChannelSymbol> symbols;
  for (int i = 0; i < 200; ++i) {
    symbols.push_back(protocol::ChannelSymbol::data(static_cast<int>(rng.below(8))));
  }
  const led::EmissionTrace trace =
      led.emit(protocol::drives_of(symbols, constellation), 2000.0);
  camera::RollingShutterCamera camera(camera::nexus5_profile(), {}, 7);
  return camera.capture_frame(trace, 0.01);
}

// The frame benches fan a frame's rows out over the shared pool at its
// default size; their "/one_thread" variants shrink the pool to one
// thread for the run and restore it after, which is how both perfbench
// workloads decode a frame.
unsigned saved_thread_count = 0;

void pin_one_thread(const benchmark::State&) {
  saved_thread_count = runtime::ThreadPool::shared().thread_count();
  runtime::ThreadPool::set_shared_thread_count(1);
}

void restore_thread_count(const benchmark::State&) {
  runtime::ThreadPool::set_shared_thread_count(saved_thread_count);
}

void BM_FrameReduceToScanlines(benchmark::State& state) {
  const camera::Frame frame = captured_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rx::reduce_to_scanlines(frame));
  }
  state.SetItemsProcessed(state.iterations() * frame.rows * frame.columns);
}
BENCHMARK(BM_FrameReduceToScanlines);
BENCHMARK(BM_FrameReduceToScanlines)
    ->Name("BM_FrameReduceToScanlines/one_thread")
    ->Setup(pin_one_thread)
    ->Teardown(restore_thread_count);

void BM_FrameExtractSlots(benchmark::State& state) {
  const camera::Frame frame = captured_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rx::extract_slots(frame, 2000.0));
  }
  // Frames arrive at 30 fps; this must stay well under 33 ms for the
  // paper's real-time Android pipeline to keep up.
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameExtractSlots);
BENCHMARK(BM_FrameExtractSlots)
    ->Name("BM_FrameExtractSlots/one_thread")
    ->Setup(pin_one_thread)
    ->Teardown(restore_thread_count);

void BM_CameraCaptureFrame(benchmark::State& state) {
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::TriLed led;
  util::Xoshiro256 rng(8);
  std::vector<protocol::ChannelSymbol> symbols;
  for (int i = 0; i < 200; ++i) {
    symbols.push_back(protocol::ChannelSymbol::data(static_cast<int>(rng.below(8))));
  }
  const led::EmissionTrace trace =
      led.emit(protocol::drives_of(symbols, constellation), 2000.0);
  camera::RollingShutterCamera camera(camera::nexus5_profile(), {}, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(camera.capture_frame(trace, 0.01));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameraCaptureFrame);

// The render's noise draws for one Nexus 5 frame (2 normals per pixel):
// mode 0 the call-by-call normal() loop and mode 1 one fill_normal per
// row with the reference accept loop and finish, the two references;
// mode 2 what the render draws, one auto-exposure normal() and then one
// fill_normal per camera::kNoiseBatchRows rows with the dispatched
// simd::polar_accept and simd::polar_finish. Each draws the bytes the
// normal() calls would.
void fill_normal_frame(benchmark::State& state, int mode) {
  const camera::SensorProfile profile = camera::nexus5_profile();
  util::Xoshiro256 rng(15);
  const int batch_rows = mode == 2 ? camera::kNoiseBatchRows : 1;
  const auto row_normals = 2 * static_cast<std::size_t>(profile.columns);
  std::vector<double> batch(row_normals * static_cast<std::size_t>(batch_rows));
  for (auto _ : state) {
    if (mode == 2) benchmark::DoNotOptimize(rng.normal());
    for (int first = 0; first < profile.rows; first += batch_rows) {
      const auto rows = static_cast<std::size_t>(std::min(batch_rows, profile.rows - first));
      const std::span<double> out = std::span(batch).first(row_normals * rows);
      if (mode == 0) {
        for (double& value : out) value = rng.normal();
      } else if (mode == 1) {
        rng.fill_normal(out);
      } else {
        rng.fill_normal(out, simd::polar_finish, simd::polar_accept);
      }
      benchmark::DoNotOptimize(batch.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * profile.rows *
                          static_cast<long long>(row_normals));
  state.SetLabel(mode == 0   ? "normal()"
                 : mode == 1 ? "fill_normal"
                             : "fill_normal+simd, render batch");
}

void BM_FillNormal(benchmark::State& state) {
  fill_normal_frame(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FillNormal)->Arg(0)->Arg(1)->Arg(2);

// The mosaic of a rendered Nexus 5 frame: its codes decoded back to
// linear and sampled through the RGGB pattern. It keeps what the render
// feeds the demosaic — bands, noise, and the exact 0.0 / 1.0 runs of
// its clamp in dark and saturated stripes — where uniform values would
// never reach the quantizer's clamps.
std::vector<double> rendered_nexus5_mosaic() {
  const camera::Frame frame = captured_frame();
  camera::FloatImage linear(frame.rows, frame.columns);
  for (int r = 0; r < frame.rows; ++r) {
    for (int c = 0; c < frame.columns; ++c) {
      linear.at(r, c) = color::linear_of_rgb8(frame.at(r, c));
    }
  }
  return camera::mosaic(linear);
}

// The render's sRGB quantize for one Nexus 5 frame, row by row, over
// the demosaiced rows of a rendered frame.
void BM_QuantizeSrgbRow(benchmark::State& state) {
  const camera::SensorProfile profile = camera::nexus5_profile();
  const auto width = static_cast<std::size_t>(profile.columns);
  const camera::FloatImage demosaiced =
      camera::demosaic(rendered_nexus5_mosaic(), profile.rows, profile.columns);
  std::vector<util::Vec3> linear;
  for (int r = 0; r < profile.rows; ++r) {
    for (int c = 0; c < profile.columns; ++c) linear.push_back(demosaiced.at(r, c));
  }
  std::vector<color::Rgb8> out(linear.size());
  for (auto _ : state) {
    for (std::size_t offset = 0; offset < linear.size(); offset += width) {
      color::quantize_srgb_row(std::span<const util::Vec3>(linear).subspan(offset, width),
                               std::span<color::Rgb8>(out).subspan(offset, width));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(linear.size()));
}
BENCHMARK(BM_QuantizeSrgbRow);

// Per-frame render cost through the streaming pipeline's pooled path
// (Arg(1): buffers recycled through a BufferPool) versus fresh
// allocations every frame (Arg(0)). The delta is what the pipeline's
// buffer reuse saves per frame in steady state.
void BM_PipelineFrame(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::TriLed led;
  util::Xoshiro256 rng(11);
  std::vector<protocol::ChannelSymbol> symbols;
  for (int i = 0; i < 200; ++i) {
    symbols.push_back(protocol::ChannelSymbol::data(static_cast<int>(rng.below(8))));
  }
  const led::EmissionTrace trace =
      led.emit(protocol::drives_of(symbols, constellation), 2000.0);
  camera::RollingShutterCamera camera(camera::nexus5_profile(), {}, 12);
  const camera::CapturePlan plan = camera.plan_capture(trace);
  pipeline::BufferPool pool;
  int index = 0;
  for (auto _ : state) {
    camera::Frame frame = pooled ? pool.acquire_frame() : camera::Frame{};
    camera::RenderScratch scratch =
        pooled ? pool.acquire_scratch() : camera::RenderScratch{};
    camera.render_planned_frame(trace, plan, index % plan.frame_count(), frame,
                                scratch);
    benchmark::DoNotOptimize(frame.pixels.data());
    if (pooled) {
      pool.release_frame(std::move(frame));
      pool.release_scratch(std::move(scratch));
    }
    ++index;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(pooled ? "pooled" : "fresh");
}
BENCHMARK(BM_PipelineFrame)->Arg(0)->Arg(1);

// The ΔE fan-out of the nearest-reference symbol decision: one
// observation against a full classifier batch of references.
void BM_SimdDeltaE(benchmark::State& state) {
  util::Xoshiro256 rng(13);
  constexpr int kRefs = 64;
  std::vector<double> ref_a(kRefs), ref_b(kRefs), dist(kRefs);
  for (int i = 0; i < kRefs; ++i) {
    ref_a[static_cast<std::size_t>(i)] = rng.uniform(-90.0, 90.0);
    ref_b[static_cast<std::size_t>(i)] = rng.uniform(-90.0, 90.0);
  }
  std::vector<std::pair<double, double>> observations(1024);
  for (auto& [a, b] : observations) {
    a = rng.uniform(-90.0, 90.0);
    b = rng.uniform(-90.0, 90.0);
  }
  for (auto _ : state) {
    for (const auto& [a, b] : observations) {
      simd::delta_e_ab_many(ref_a.data(), ref_b.data(), kRefs, a, b, dist.data());
      benchmark::DoNotOptimize(dist.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(observations.size()) * kRefs);
}
BENCHMARK(BM_SimdDeltaE);

// --compare mode (or COLORBARS_BENCH_COMPARE=1): pin each supported
// simd backend in turn and rerun the dispatched kernels, the frame
// reduce, the frame render and its noise draws in this same process, so
// scalar-vs-vector numbers land side by side in one BENCH_micro.json
// under names like "BM_FrameReduceToScanlines/avx2" (and
// "BM_FrameReduceToScanlines/one_thread/avx2").
template <typename Body>
benchmark::internal::Benchmark* register_compare(const char* name, simd::Backend backend,
                                                 Body body) {
  return benchmark::RegisterBenchmark(
      (std::string(name) + "/" + simd::backend_name(backend)).c_str(),
      [backend, body](benchmark::State& state) {
        const simd::Backend saved = simd::active_backend();
        simd::set_backend(backend);
        body(state);
        simd::set_backend(saved);
      });
}

void register_compare_benchmarks() {
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kSse42, simd::Backend::kAvx2,
        simd::Backend::kNeon}) {
    if (!simd::backend_supported(backend)) continue;

    register_compare("BM_FrameReduceToScanlines", backend, BM_FrameReduceToScanlines);
    register_compare("BM_FrameReduceToScanlines/one_thread", backend,
                     BM_FrameReduceToScanlines)
        ->Setup(pin_one_thread)
        ->Teardown(restore_thread_count);

    register_compare("BM_DemosaicCodeRow", backend, [](benchmark::State& state) {
      // The render's demosaic→code kernel over every row of a rendered
      // Nexus 5 frame's mosaic, into a reused frame.
      const camera::SensorProfile profile = camera::nexus5_profile();
      const std::vector<double> raw = rendered_nexus5_mosaic();
      camera::Frame frame;
      for (auto _ : state) {
        camera::demosaic_quantize_into(raw, profile.rows, profile.columns, frame);
        benchmark::DoNotOptimize(frame.pixels.data());
      }
      state.SetItemsProcessed(state.iterations() * profile.rows * profile.columns);
    });

    register_compare("BM_CameraCaptureFrame", backend, BM_CameraCaptureFrame);

    // One frame's noise draws as the render draws them.
    register_compare("BM_FillNormal", backend,
                     [](benchmark::State& state) { fill_normal_frame(state, 2); });

    register_compare("BM_RowLabRgbSums", backend, [](benchmark::State& state) {
      util::Xoshiro256 rng(1);
      std::vector<color::Rgb8> pixels(4096);
      for (auto& pixel : pixels) {
        pixel = {static_cast<std::uint8_t>(rng.below(256)),
                 static_cast<std::uint8_t>(rng.below(256)),
                 static_cast<std::uint8_t>(rng.below(256))};
      }
      for (auto _ : state) {
        simd::RowSums sums;
        simd::row_lab_rgb_sums(pixels.data(), static_cast<int>(pixels.size()), sums);
        benchmark::DoNotOptimize(sums);
      }
      state.SetItemsProcessed(state.iterations() * static_cast<long long>(pixels.size()));
    });

    register_compare("BM_VignetteSignalSpan", backend, [](benchmark::State& state) {
      util::Xoshiro256 rng(14);
      constexpr int kColumns = 2448;
      std::vector<double> col2(kColumns), out(kColumns);
      for (auto& value : col2) value = rng.uniform();
      for (auto _ : state) {
        simd::vignette_signal_span(col2.data(), 0, kColumns, 0.41, 0.4, 0.83, 0.27,
                                   out.data());
        benchmark::DoNotOptimize(out.data());
      }
      state.SetItemsProcessed(state.iterations() * kColumns);
    });

    register_compare("BM_SimdDeltaE", backend, BM_SimdDeltaE);
  }
}

}  // namespace

// Custom main: mirror the console run into BENCH_micro.json so the
// per-stage timings land in a machine-readable artifact alongside the
// human-readable table. An explicit --benchmark_out flag wins over the
// default; all other standard --benchmark_* flags pass through.
// --compare (or COLORBARS_BENCH_COMPARE=1) additionally registers
// per-backend variants of the dispatched kernels.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool compare = std::getenv("COLORBARS_BENCH_COMPARE") != nullptr;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--compare") == 0) {
      compare = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (compare) register_compare_benchmarks();
  std::string out_flag =
      "--benchmark_out=" + colorbars::bench::bench_json_path("micro");
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
