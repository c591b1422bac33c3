#include "colorbars/camera/bayer.hpp"

#include <algorithm>
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

/// Mean of the raw values at the listed (row, col) offsets that fall
/// inside the image and whose site matches `channel`.
double neighbor_mean(std::span<const double> raw, int rows, int columns, int row,
                     int column, BayerChannel channel) {
  static constexpr int kOffsets[8][2] = {{-1, -1}, {-1, 0}, {-1, 1}, {0, -1},
                                         {0, 1},   {1, -1}, {1, 0},  {1, 1}};
  double total = 0.0;
  int count = 0;
  for (const auto& offset : kOffsets) {
    const int r = row + offset[0];
    const int c = column + offset[1];
    if (r < 0 || r >= rows || c < 0 || c >= columns) continue;
    if (bayer_channel(r, c) != channel) continue;
    total += raw[static_cast<std::size_t>(r) * static_cast<std::size_t>(columns) +
                 static_cast<std::size_t>(c)];
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

}  // namespace

namespace {

/// Generic (bounds-checked) reconstruction of one pixel; used for the
/// image border where neighbors may fall outside.
util::Vec3 demosaic_pixel(std::span<const double> raw, int rows, int columns, int r,
                          int c) {
  const double own = raw[static_cast<std::size_t>(r) * static_cast<std::size_t>(columns) +
                         static_cast<std::size_t>(c)];
  util::Vec3 pixel;
  switch (bayer_channel(r, c)) {
    case BayerChannel::kRed:
      pixel.x = own;
      pixel.y = neighbor_mean(raw, rows, columns, r, c, BayerChannel::kGreen);
      pixel.z = neighbor_mean(raw, rows, columns, r, c, BayerChannel::kBlue);
      break;
    case BayerChannel::kGreen:
      pixel.x = neighbor_mean(raw, rows, columns, r, c, BayerChannel::kRed);
      pixel.y = own;
      pixel.z = neighbor_mean(raw, rows, columns, r, c, BayerChannel::kBlue);
      break;
    case BayerChannel::kBlue:
      pixel.x = neighbor_mean(raw, rows, columns, r, c, BayerChannel::kRed);
      pixel.y = neighbor_mean(raw, rows, columns, r, c, BayerChannel::kGreen);
      pixel.z = own;
      break;
  }
  return pixel;
}

/// Interior rows reconstructed per simd::demosaic_interior call by the
/// fused path. Even, so every window starts on an even raw row and the
/// kernel's window-relative RGGB row phase equals the frame's.
constexpr int kWindowRows = 8;

void check_raw_size(std::span<const double> raw, int rows, int columns) {
  if (raw.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(columns)) {
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
  FloatImage& rgb = out;

  // Interior fast path: away from the border every RGGB phase has a
  // fixed in-bounds neighbor set, so the per-neighbor bounds and channel
  // checks fold away. The kernel's scalar reference accumulates sums in
  // the same order neighbor_mean visits its offset table, and the vector
  // backends are proven byte-identical to it, so the result stays
  // bit-identical to the original loop.
  if (rows > 2 && columns > 2) {
    simd::demosaic_interior(raw.data(), rows, columns, &rgb.at(0, 0).x);
  }

  // Border pixels go through the generic bounds-checked path.
  for (int c = 0; c < columns; ++c) {
    rgb.at(0, c) = demosaic_pixel(raw, rows, columns, 0, c);
    if (rows > 1) rgb.at(rows - 1, c) = demosaic_pixel(raw, rows, columns, rows - 1, c);
  }
  for (int r = 1; r + 1 < rows; ++r) {
    rgb.at(r, 0) = demosaic_pixel(raw, rows, columns, r, 0);
    if (columns > 1) rgb.at(r, columns - 1) = demosaic_pixel(raw, rows, columns, r, columns - 1);
  }
}

void demosaic_quantize_into(std::span<const double> raw, int rows, int columns,
                            Frame& out, util::CaptureArena& arena) {
  check_raw_size(raw, rows, columns);
  out.resize(rows, columns);
  const auto width = static_cast<std::size_t>(columns);
  const auto frame_row = [&](int r) {
    return std::span<color::Rgb8>(out.pixels).subspan(static_cast<std::size_t>(r) * width,
                                                      width);
  };
  const auto quantize_border_row = [&](int r) {
    const std::span<color::Rgb8> row = frame_row(r);
    for (int c = 0; c < columns; ++c) {
      row[static_cast<std::size_t>(c)] =
          color::quantize_srgb(demosaic_pixel(raw, rows, columns, r, c));
    }
  };
  quantize_border_row(0);
  if (rows > 1) quantize_border_row(rows - 1);

  // The kernel writes rows [1, n-1) of an n-row window, so window row 0
  // is never filled; the interior rows of [first, last) land in rows
  // [1, last - first + 1).
  const std::span<util::Vec3> window =
      arena.allocate<util::Vec3>(static_cast<std::size_t>(kWindowRows + 1) * width);
  for (int first = 1; first + 1 < rows; first += kWindowRows) {
    const int last = std::min(first + kWindowRows, rows - 1);
    if (columns > 2) {
      simd::demosaic_interior(raw.data() + static_cast<std::size_t>(first - 1) * width,
                              last - first + 2, columns, &window[0].x);
    }
    for (int r = first; r < last; ++r) {
      const std::span<util::Vec3> row =
          window.subspan(static_cast<std::size_t>(r - first + 1) * width, width);
      row[0] = demosaic_pixel(raw, rows, columns, r, 0);
      if (columns > 1) row[width - 1] = demosaic_pixel(raw, rows, columns, r, columns - 1);
      color::quantize_srgb_row(row, frame_row(r));
    }
  }
}

}  // namespace colorbars::camera
