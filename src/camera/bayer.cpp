#include "colorbars/camera/bayer.hpp"

#include <stdexcept>

#include "colorbars/color/lut.hpp"
#include "colorbars/simd/simd.hpp"

namespace colorbars::camera {

std::vector<double> mosaic(const FloatImage& rgb) {
  const int rows = rgb.rows();
  const int columns = rgb.columns();
  std::vector<double> raw(static_cast<std::size_t>(rows) * static_cast<std::size_t>(columns));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < columns; ++c) {
      const util::Vec3& pixel = rgb.at(r, c);
      double value = 0.0;
      switch (bayer_channel(r, c)) {
        case BayerChannel::kRed: value = pixel.x; break;
        case BayerChannel::kGreen: value = pixel.y; break;
        case BayerChannel::kBlue: value = pixel.z; break;
      }
      raw[static_cast<std::size_t>(r) * static_cast<std::size_t>(columns) +
          static_cast<std::size_t>(c)] = value;
    }
  }
  return raw;
}

namespace {

/// The raw rows a pixel's 3x3 neighbourhood reads: the rows above and
/// below its own, null where the image ends.
struct RowWindow {
  const double* up;
  const double* mid;
  const double* down;
};

/// Mean of the raw values at the listed (row, col) offsets that fall
/// inside the image and whose site matches `channel`.
double neighbor_mean(const RowWindow& window, int columns, int row, int column,
                     BayerChannel channel) {
  static constexpr int kOffsets[8][2] = {{-1, -1}, {-1, 0}, {-1, 1}, {0, -1},
                                         {0, 1},   {1, -1}, {1, 0},  {1, 1}};
  const double* const source_rows[3] = {window.up, window.mid, window.down};
  double total = 0.0;
  int count = 0;
  for (const auto& offset : kOffsets) {
    const double* source = source_rows[1 + offset[0]];
    const int c = column + offset[1];
    if (source == nullptr || c < 0 || c >= columns) continue;
    if (bayer_channel(row + offset[0], c) != channel) continue;
    total += source[c];
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

/// Generic (bounds-checked) reconstruction of one pixel: the reference
/// for the image border, where neighbors may fall outside.
util::Vec3 demosaic_pixel(const RowWindow& window, int columns, int r, int c) {
  const double own = window.mid[c];
  util::Vec3 pixel;
  switch (bayer_channel(r, c)) {
    case BayerChannel::kRed:
      pixel.x = own;
      pixel.y = neighbor_mean(window, columns, r, c, BayerChannel::kGreen);
      pixel.z = neighbor_mean(window, columns, r, c, BayerChannel::kBlue);
      break;
    case BayerChannel::kGreen:
      pixel.x = neighbor_mean(window, columns, r, c, BayerChannel::kRed);
      pixel.y = own;
      pixel.z = neighbor_mean(window, columns, r, c, BayerChannel::kBlue);
      break;
    case BayerChannel::kBlue:
      pixel.x = neighbor_mean(window, columns, r, c, BayerChannel::kRed);
      pixel.y = neighbor_mean(window, columns, r, c, BayerChannel::kGreen);
      pixel.z = own;
      break;
  }
  return pixel;
}

/// Row r's window in a full raw plane.
RowWindow plane_window(std::span<const double> raw, int rows, int columns, int r) {
  const double* mid =
      raw.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(columns);
  return {r > 0 ? mid - columns : nullptr, mid, r + 1 < rows ? mid + columns : nullptr};
}

void check_raw_size(std::span<const double> raw, int rows, int columns) {
  if (raw.size() != checked_image_size(rows, columns)) {
    throw std::invalid_argument("demosaic: raw size does not match dimensions");
  }
}

}  // namespace

FloatImage demosaic(const std::vector<double>& raw, int rows, int columns) {
  FloatImage rgb;
  demosaic_into(raw, rows, columns, rgb);
  return rgb;
}

void demosaic_into(const std::vector<double>& raw, int rows, int columns,
                   FloatImage& out) {
  check_raw_size(raw, rows, columns);
  out.resize(rows, columns);
  for (int r = 0; r < rows; ++r) {
    const RowWindow window = plane_window(raw, rows, columns, r);
    // Interior columns of interior rows take the scalar reference
    // segment: away from the border every RGGB phase has a fixed
    // in-bounds neighbor set, and the segment accumulates in the order
    // neighbor_mean visits its offset table. Everything else goes
    // through the generic bounds-checked path.
    if (window.up != nullptr && window.down != nullptr && columns > 2) {
      simd::demosaic_interior_row(window.up, window.mid, window.down, columns, r % 2 == 0,
                                  &out.at(r, 0).x);
      out.at(r, 0) = demosaic_pixel(window, columns, r, 0);
      out.at(r, columns - 1) = demosaic_pixel(window, columns, r, columns - 1);
    } else {
      for (int c = 0; c < columns; ++c) out.at(r, c) = demosaic_pixel(window, columns, r, c);
    }
  }
}

void demosaic_quantize_row(const double* up, const double* mid, const double* down, int row,
                           int columns, color::Rgb8* out) {
  if (up != nullptr && down != nullptr) {
    simd::demosaic_code_row(up, mid, down, columns, row % 2 == 0, out);
    return;
  }
  const RowWindow window{up, mid, down};
  for (int c = 0; c < columns; ++c) {
    out[c] = color::quantize_srgb(demosaic_pixel(window, columns, row, c));
  }
}

void demosaic_quantize_into(std::span<const double> raw, int rows, int columns,
                            Frame& out) {
  check_raw_size(raw, rows, columns);
  out.resize(rows, columns);
  for (int r = 0; r < rows; ++r) {
    const RowWindow window = plane_window(raw, rows, columns, r);
    demosaic_quantize_row(window.up, window.mid, window.down, r, columns,
                          &out.at(r, 0));
  }
}

}  // namespace colorbars::camera
