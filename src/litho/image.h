// Scalar field on a uniform grid over a layout window: mask transmission,
// aerial-image intensity, or blurred resist signal.  Coordinates are layout
// nanometres; (ox, oy) is the *centre* of pixel (0, 0).  ImageView reads an
// image's pixels in place, at its own origin or a rebased one.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/units.h"
#include "src/geom/rect.h"

namespace poc {

class Image2D {
 public:
  Image2D() = default;
  Image2D(std::size_t nx, std::size_t ny, double pixel_nm, double ox, double oy);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  double pixel() const { return pixel_; }
  double origin_x() const { return ox_; }
  double origin_y() const { return oy_; }

  double& at(std::size_t ix, std::size_t iy);
  double at(std::size_t ix, std::size_t iy) const;

  /// Centre coordinate of pixel column ix / row iy.
  double x_of(std::size_t ix) const { return ox_ + pixel_ * static_cast<double>(ix); }
  double y_of(std::size_t iy) const { return oy_ + pixel_ * static_cast<double>(iy); }

  /// Bilinear interpolation at layout coordinates; clamps to the grid edge
  /// (ImageView::sample at this image's origin).
  double sample(double x, double y) const;

  /// True if (x, y) lies within the sampled area (pixel centres hull).
  bool in_bounds(double x, double y) const;

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  double min_value() const;
  double max_value() const;

  /// True when every pixel is a finite number — the boundary guard between
  /// the imaging stack and CD extraction (a NaN CD must raise a structured
  /// fault, never propagate into STA).
  bool all_finite() const;

  /// Horizontal cross-section I(x) at fixed y (bilinear sampled), n points
  /// from x0 to x1 inclusive.
  std::vector<double> cross_section_x(double y, double x0, double x1,
                                      std::size_t n) const;

 private:
  std::size_t nx_ = 0, ny_ = 0;
  double pixel_ = 1.0;
  double ox_ = 0.0, oy_ = 0.0;
  std::vector<double> data_;
};

/// Read-only view of an image's pixels with pixel (0, 0) centred at
/// (ox, oy): what CD extraction samples.  A window-cache hit is read this
/// way, in place, at the window's origin instead of being copied there.
/// The pixels must outlive the view.
class ImageView {
 public:
  /// `img` at its own origin.
  ImageView(const Image2D& img)  // NOLINT(google-explicit-constructor)
      : ImageView(img, img.origin_x(), img.origin_y()) {}
  /// `img`'s pixels with pixel (0, 0) centred at (ox, oy).
  ImageView(const Image2D& img, double ox, double oy)
      : data_(img.data().data()), nx_(img.nx()), ny_(img.ny()),
        pixel_(img.pixel()), ox_(ox), oy_(oy) {}

  double pixel() const { return pixel_; }

  /// Bilinear interpolation at layout coordinates; clamps to the grid edge.
  double sample(double x, double y) const;

 private:
  const double* data_;
  std::size_t nx_, ny_;
  double pixel_;
  double ox_, oy_;
};

}  // namespace poc
