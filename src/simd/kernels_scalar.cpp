// Scalar backend: the reference implementation every vector backend
// must match bit-for-bit. These are the exact loops the call sites ran
// before the simd layer existed, moved behind the dispatch table.

#include "colorbars/util/rng.hpp"
#include "kernels.hpp"

namespace colorbars::simd::detail {

namespace {

void demosaic_code_row_scalar(const double* up, const double* mid, const double* down,
                              int columns, bool even_row, color::Rgb8* out) {
  demosaic_code_edges(up, mid, down, columns, even_row, out);
  demosaic_code_segment(up, mid, down, even_row, 1, columns - 1, out);
}

void row_lab_rgb_sums_scalar(const color::Rgb8* pixels, int count, RowSums& sums) {
  row_lab_rgb_sums_segment(pixels, count, sums);
}

void vignette_signal_scalar(const double* col2, int column_begin, int column_end,
                            double row2, double strength, double value_even,
                            double value_odd, double* out_row) {
  vignette_signal_segment(col2, column_begin, column_end, row2, strength, value_even,
                          value_odd, out_row);
}

void shot_sigma_scalar(const double* signal, int count, double iso_gain,
                       double well_capacity, double* out) {
  shot_sigma_segment(signal, count, iso_gain, well_capacity, out);
}

void delta_e_ab_scalar(const double* ref_a, const double* ref_b, int count, double a,
                       double b, double* out) {
  delta_e_ab_segment(ref_a, ref_b, count, a, b, out);
}

}  // namespace

const KernelTable kScalarKernels = {
    demosaic_code_row_scalar, row_lab_rgb_sums_scalar, vignette_signal_scalar,
    shot_sigma_scalar,        delta_e_ab_scalar,       util::Xoshiro256::polar_finish,
    util::Xoshiro256::polar_accept,
};

const LabLut& lab_lut() noexcept {
  static const LabLut lut = [] {
    LabLut table;
    const auto& contributions = color::rgb8_lab_contributions();
    for (int channel = 0; channel < 3; ++channel) {
      for (int code = 0; code < 256; ++code) {
        const util::Vec3& v =
            contributions[static_cast<std::size_t>(channel)][static_cast<std::size_t>(code)];
        double* row = table.rows[channel][code];
        row[0] = v.x * LabLut::kLabFScale;
        row[1] = v.y * LabLut::kLabFScale;
        row[2] = v.z * LabLut::kLabFScale;
        // Bit-identical to from_rgb8: the same code / 255.0 division.
        row[3] = code / 255.0;
      }
    }
    const auto& lab_f = color::lab_f_table_values();
    table.lab_f = lab_f.data();
    for (int i = 0; i + 1 < color::kLabFTableSamples; ++i) {
      const auto sample = static_cast<std::size_t>(i);
      table.lab_f_slope[i] = lab_f[sample + 1] - lab_f[sample];
    }
    table.lab_f_slope[color::kLabFTableSamples - 1] = 0.0;
    const color::Lab white = color::rgb8_to_lab_fast({255, 255, 255});
    table.white_lab[0] = white.L;
    table.white_lab[1] = white.a;
    table.white_lab[2] = white.b;
    table.white_lab[3] = 0.0;
    return table;
  }();
  return lut;
}

}  // namespace colorbars::simd::detail
