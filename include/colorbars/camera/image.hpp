#pragma once

// Frame containers produced by the simulated camera. The ISP output is
// an 8-bit sRGB image like a phone video frame; intermediate stages use
// a planar float image. Both containers support resize-in-place so
// pooled buffers (pipeline::BufferPool) can be recycled across frames
// without reallocating.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "colorbars/color/srgb.hpp"
#include "colorbars/util/vec3.hpp"

namespace colorbars::camera {

/// Validates image dimensions shared by every frame-shaped container
/// (FloatImage, Frame, raw mosaic planes): both must be positive.
[[nodiscard]] inline std::size_t checked_image_size(int rows, int columns) {
  if (rows <= 0 || columns <= 0) {
    throw std::invalid_argument("image dimensions must be positive");
  }
  return static_cast<std::size_t>(rows) * static_cast<std::size_t>(columns);
}

/// A row-major image of linear float RGB triples (sensor-internal).
class FloatImage {
 public:
  FloatImage() = default;
  FloatImage(int rows, int columns)
      : rows_(rows), columns_(columns),
        pixels_(checked_image_size(rows, columns)) {}

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int columns() const noexcept { return columns_; }

  /// Re-shapes the image, reusing the existing allocation when the new
  /// pixel count fits its capacity. Pixel contents are unspecified.
  void resize(int rows, int columns) {
    pixels_.resize(checked_image_size(rows, columns));
    rows_ = rows;
    columns_ = columns;
  }

  [[nodiscard]] util::Vec3& at(int row, int column) {
    return pixels_[index(row, column)];
  }
  [[nodiscard]] const util::Vec3& at(int row, int column) const {
    return pixels_[index(row, column)];
  }

 private:
  [[nodiscard]] std::size_t index(int row, int column) const {
    if (row < 0 || row >= rows_ || column < 0 || column >= columns_) {
      throw std::out_of_range("FloatImage: pixel index out of range");
    }
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(columns_) +
           static_cast<std::size_t>(column);
  }

  int rows_ = 0;
  int columns_ = 0;
  std::vector<util::Vec3> pixels_;
};

/// An axis-aligned rectangle on the sensor, in pixel units: rows
/// [top, top + height), columns [left, left + width). Shared by the
/// scene compositor (where a luminaire images) and the receiver-side
/// ROI tracker (where a luminaire was detected).
struct SensorRegion {
  int top = 0;
  int left = 0;
  int height = 0;
  int width = 0;

  [[nodiscard]] int row_end() const noexcept { return top + height; }
  [[nodiscard]] int column_end() const noexcept { return left + width; }
  [[nodiscard]] long long area() const noexcept {
    return static_cast<long long>(height) * static_cast<long long>(width);
  }
  [[nodiscard]] bool empty() const noexcept { return height <= 0 || width <= 0; }
  [[nodiscard]] bool contains(int row, int column) const noexcept {
    return row >= top && row < row_end() && column >= left && column < column_end();
  }
  /// Columns shared with `other` (0 when disjoint).
  [[nodiscard]] int column_overlap(const SensorRegion& other) const noexcept {
    const int lo = left > other.left ? left : other.left;
    const int hi = column_end() < other.column_end() ? column_end() : other.column_end();
    return hi > lo ? hi - lo : 0;
  }
  /// True when the rectangle has positive extent and fits a rows x
  /// columns sensor.
  [[nodiscard]] bool within(int rows, int columns) const noexcept {
    return !empty() && top >= 0 && left >= 0 && row_end() <= rows &&
           column_end() <= columns;
  }

  friend bool operator==(const SensorRegion&, const SensorRegion&) = default;
};

/// An 8-bit sRGB frame as delivered by the camera ISP, plus capture
/// metadata the receiver is allowed to know (its own camera's clock).
struct Frame {
  int rows = 0;
  int columns = 0;
  std::vector<color::Rgb8> pixels;  // row-major

  /// Capture time of the first scanline, seconds from stream start.
  double start_time_s = 0.0;
  /// Time between consecutive scanline readouts, seconds.
  double row_time_s = 0.0;
  /// Exposure time used for this frame (auto-exposure result), seconds.
  double exposure_s = 0.0;
  /// ISO used for this frame (auto-exposure result).
  double iso = 100.0;
  /// Frame sequence number.
  int frame_index = 0;

  /// Re-shapes the pixel buffer with the same validation as FloatImage,
  /// reusing the existing allocation when possible. Pixel contents are
  /// unspecified; metadata fields are untouched.
  void resize(int new_rows, int new_columns) {
    pixels.resize(checked_image_size(new_rows, new_columns));
    rows = new_rows;
    columns = new_columns;
  }

  [[nodiscard]] const color::Rgb8& at(int row, int column) const {
    return pixels[static_cast<std::size_t>(row) * static_cast<std::size_t>(columns) +
                  static_cast<std::size_t>(column)];
  }
  [[nodiscard]] color::Rgb8& at(int row, int column) {
    return pixels[static_cast<std::size_t>(row) * static_cast<std::size_t>(columns) +
                  static_cast<std::size_t>(column)];
  }
};

/// Rejects a frame whose pixel buffer does not hold exactly rows x
/// columns pixels, or whose shape is negative: the receiver's row
/// kernels read `columns` pixels per row straight from the buffer. A
/// 0-row or 0-column frame with no pixels passes (it reduces to nothing).
inline void check_frame_shape(const Frame& frame) {
  if (frame.rows < 0 || frame.columns < 0 ||
      frame.pixels.size() !=
          static_cast<std::size_t>(frame.rows) * static_cast<std::size_t>(frame.columns)) {
    throw std::invalid_argument("Frame: pixel buffer does not match rows x columns");
  }
}

}  // namespace colorbars::camera
