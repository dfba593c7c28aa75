#include "src/litho/image.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace poc {

Image2D::Image2D(std::size_t nx, std::size_t ny, double pixel_nm, double ox,
                 double oy)
    : nx_(nx), ny_(ny), pixel_(pixel_nm), ox_(ox), oy_(oy),
      data_(nx * ny, 0.0) {
  POC_EXPECTS(nx > 0 && ny > 0);
  POC_EXPECTS(pixel_nm > 0.0);
}

double& Image2D::at(std::size_t ix, std::size_t iy) {
  POC_EXPECTS(ix < nx_ && iy < ny_);
  return data_[iy * nx_ + ix];
}

double Image2D::at(std::size_t ix, std::size_t iy) const {
  POC_EXPECTS(ix < nx_ && iy < ny_);
  return data_[iy * nx_ + ix];
}

bool Image2D::in_bounds(double x, double y) const {
  return x >= ox_ && y >= oy_ &&
         x <= ox_ + pixel_ * static_cast<double>(nx_ - 1) &&
         y <= oy_ + pixel_ * static_cast<double>(ny_ - 1);
}

double Image2D::sample(double x, double y) const {
  return ImageView(*this).sample(x, y);
}

double ImageView::sample(double x, double y) const {
  POC_EXPECTS(nx_ > 1 && ny_ > 1);
  double fx = (x - ox_) / pixel_;
  double fy = (y - oy_) / pixel_;
  fx = std::clamp(fx, 0.0, static_cast<double>(nx_ - 1));
  fy = std::clamp(fy, 0.0, static_cast<double>(ny_ - 1));
  const auto ix = std::min(static_cast<std::size_t>(fx), nx_ - 2);
  const auto iy = std::min(static_cast<std::size_t>(fy), ny_ - 2);
  const double tx = fx - static_cast<double>(ix);
  const double ty = fy - static_cast<double>(iy);
  const double v00 = data_[iy * nx_ + ix];
  const double v10 = data_[iy * nx_ + ix + 1];
  const double v01 = data_[(iy + 1) * nx_ + ix];
  const double v11 = data_[(iy + 1) * nx_ + ix + 1];
  return v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty) +
         v01 * (1 - tx) * ty + v11 * tx * ty;
}

double Image2D::min_value() const {
  return *std::min_element(data_.begin(), data_.end());
}

double Image2D::max_value() const {
  return *std::max_element(data_.begin(), data_.end());
}

bool Image2D::all_finite() const {
  for (const double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::vector<double> Image2D::cross_section_x(double y, double x0, double x1,
                                             std::size_t n) const {
  POC_EXPECTS(n >= 2);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    out[i] = sample(x0 + (x1 - x0) * t, y);
  }
  return out;
}

}  // namespace poc
