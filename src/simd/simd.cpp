// Backend probe and runtime dispatch. The default backend is decided
// once, lazily, from CPUID (widest supported wins) unless the
// COLORBARS_SIMD_BACKEND environment variable pins one; set_backend()
// lets tests and bench_micro --compare swap backends at quiescent
// points. Kernel entry points read the table through a relaxed atomic —
// a backend switch is not synchronized against concurrent kernel calls,
// but every table is byte-identical in results, so a racing reader at
// worst runs the previous backend for one call.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kernels.hpp"

namespace colorbars::simd {

namespace {

using detail::KernelTable;

const KernelTable* table_for(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return &detail::kScalarKernels;
#if defined(COLORBARS_SIMD_X86)
    case Backend::kSse42:
      return &detail::kSse42Kernels;
    case Backend::kAvx2:
      return &detail::kAvx2Kernels;
#endif
#if defined(COLORBARS_SIMD_NEON)
    case Backend::kNeon:
      return &detail::kNeonKernels;
#endif
    default:
      return nullptr;
  }
}

Backend detect_default() noexcept {
  if (const char* env = std::getenv("COLORBARS_SIMD_BACKEND")) {
    for (const Backend backend : {Backend::kScalar, Backend::kSse42, Backend::kAvx2,
                                  Backend::kNeon}) {
      if (std::strcmp(env, backend_name(backend)) == 0 && backend_supported(backend)) {
        return backend;
      }
    }
  }
  if (backend_supported(Backend::kNeon)) return Backend::kNeon;
  if (backend_supported(Backend::kAvx2)) return Backend::kAvx2;
  if (backend_supported(Backend::kSse42)) return Backend::kSse42;
  return Backend::kScalar;
}

struct Dispatch {
  std::atomic<const KernelTable*> table;
  std::atomic<Backend> backend;
  Dispatch() {
    const Backend detected = detect_default();
    backend.store(detected, std::memory_order_relaxed);
    table.store(table_for(detected), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() noexcept {
  static Dispatch instance;
  return instance;
}

const KernelTable& active_table() noexcept {
  return *dispatch().table.load(std::memory_order_relaxed);
}

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kSse42: return "sse42";
    case Backend::kAvx2: return "avx2";
    case Backend::kNeon: return "neon";
  }
  return "unknown";
}

bool backend_compiled(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse42:
    case Backend::kAvx2:
#if defined(COLORBARS_SIMD_X86)
      return true;
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(COLORBARS_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool backend_supported(Backend backend) noexcept {
  if (!backend_compiled(backend)) return false;
  switch (backend) {
    case Backend::kScalar:
      return true;
#if defined(COLORBARS_SIMD_X86)
    case Backend::kSse42:
      return __builtin_cpu_supports("sse4.2") != 0;
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
#endif
#if defined(COLORBARS_SIMD_NEON)
    case Backend::kNeon:
      return true;  // baseline on AArch64
#endif
    default:
      return false;
  }
}

Backend active_backend() noexcept {
  return dispatch().backend.load(std::memory_order_relaxed);
}

bool set_backend(Backend backend) noexcept {
  if (!backend_supported(backend)) return false;
  Dispatch& d = dispatch();
  d.backend.store(backend, std::memory_order_relaxed);
  d.table.store(table_for(backend), std::memory_order_relaxed);
  return true;
}

void demosaic_code_row(const double* up, const double* mid, const double* down,
                       int columns, bool even_row, color::Rgb8* out) {
  active_table().demosaic_code_row(up, mid, down, columns, even_row, out);
}

void demosaic_interior_row(const double* up, const double* mid, const double* down,
                           int columns, bool even_row, double* rgb_out) {
  detail::demosaic_segment(up, mid, down, even_row, 1, columns - 1,
                           [rgb_out](int c, double red, double green, double blue) {
                             double* pixel = rgb_out + 3 * static_cast<std::size_t>(c);
                             pixel[0] = red;
                             pixel[1] = green;
                             pixel[2] = blue;
                           });
}

void row_lab_rgb_sums(const color::Rgb8* pixels, int count, RowSums& sums) {
  active_table().row_lab_rgb_sums(pixels, count, sums);
}

void vignette_signal_span(const double* col2, int column_begin, int column_end,
                          double row2, double strength, double value_even,
                          double value_odd, double* out_row) {
  active_table().vignette_signal_span(col2, column_begin, column_end, row2, strength,
                                      value_even, value_odd, out_row);
}

void shot_sigma_row(const double* signal, int count, double iso_gain,
                    double well_capacity, double* out) {
  active_table().shot_sigma_row(signal, count, iso_gain, well_capacity, out);
}

void delta_e_ab_many(const double* ref_a, const double* ref_b, int count, double a,
                     double b, double* out) {
  active_table().delta_e_ab_many(ref_a, ref_b, count, a, b, out);
}

void polar_finish(double* pairs, std::size_t count) {
  active_table().polar_finish(pairs, count);
}

void polar_accept(std::uint64_t* state, double* pairs, std::size_t count) {
  active_table().polar_accept(state, pairs, count);
}

}  // namespace colorbars::simd
