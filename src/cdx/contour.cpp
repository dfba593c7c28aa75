#include "src/cdx/contour.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/check.h"

namespace poc {
namespace {

double dist(ContourPoint a, ContourPoint b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Bisection refinement of a crossing bracketed between t0 and t1 along
/// p0 + t * (p1 - p0), t in [0, 1].
double refine(const ImageView& img, double threshold, ContourPoint p0,
              ContourPoint p1, double t0, double t1) {
  const auto value = [&](double t) {
    return img.sample(p0.x + (p1.x - p0.x) * t, p0.y + (p1.y - p0.y) * t) -
           threshold;
  };
  double f0 = value(t0);
  for (int i = 0; i < 40; ++i) {
    const double tm = (t0 + t1) / 2.0;
    const double fm = value(tm);
    if ((f0 < 0) == (fm < 0)) {
      t0 = tm;
      f0 = fm;
    } else {
      t1 = tm;
    }
  }
  return (t0 + t1) / 2.0;
}

}  // namespace

double ContourPath::length() const {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    total += dist(points[i], points[i + 1]);
  }
  return total;
}

std::optional<double> first_crossing(const ImageView& img, double threshold,
                                     ContourPoint p0, ContourPoint p1,
                                     double step_nm) {
  POC_EXPECTS(step_nm > 0.0);
  const double total = dist(p0, p1);
  if (total <= 0.0) return std::nullopt;
  const auto n = static_cast<std::size_t>(std::ceil(total / step_nm));
  double prev_t = 0.0;
  double prev_v = img.sample(p0.x, p0.y) - threshold;
  for (std::size_t i = 1; i <= n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    const double v =
        img.sample(p0.x + (p1.x - p0.x) * t, p0.y + (p1.y - p0.y) * t) -
        threshold;
    if ((prev_v < 0) != (v < 0)) {
      return refine(img, threshold, p0, p1, prev_t, t) * total;
    }
    prev_t = t;
    prev_v = v;
  }
  return std::nullopt;
}

std::optional<double> printed_width(const ImageView& img, double threshold,
                                    ContourPoint center, bool horizontal,
                                    double max_reach_nm) {
  POC_EXPECTS(max_reach_nm > 0.0);
  if (img.sample(center.x, center.y) >= threshold) return std::nullopt;
  const double dx = horizontal ? max_reach_nm : 0.0;
  const double dy = horizontal ? 0.0 : max_reach_nm;
  const double step = img.pixel() / 2.0;
  const auto right = first_crossing(img, threshold, center,
                                    {center.x + dx, center.y + dy}, step);
  const auto left = first_crossing(img, threshold, center,
                                   {center.x - dx, center.y - dy}, step);
  if (!right || !left) return std::nullopt;
  return *right + *left;
}

std::vector<ContourPath> trace_contours(const Image2D& img, double threshold) {
  // Marching squares: for every grid cell, emit the interpolated segment(s)
  // separating below- from above-threshold corners, then stitch segments
  // that share endpoints into paths.
  struct Seg {
    ContourPoint a, b;
  };
  std::vector<Seg> segs;
  const std::size_t nx = img.nx();
  const std::size_t ny = img.ny();

  const auto lerp_x = [&](std::size_t ix, std::size_t iy) {
    const double v0 = img.at(ix, iy) - threshold;
    const double v1 = img.at(ix + 1, iy) - threshold;
    const double t = v0 / (v0 - v1);
    return ContourPoint{img.x_of(ix) + t * img.pixel(), img.y_of(iy)};
  };
  const auto lerp_y = [&](std::size_t ix, std::size_t iy) {
    const double v0 = img.at(ix, iy) - threshold;
    const double v1 = img.at(ix, iy + 1) - threshold;
    const double t = v0 / (v0 - v1);
    return ContourPoint{img.x_of(ix), img.y_of(iy) + t * img.pixel()};
  };

  for (std::size_t iy = 0; iy + 1 < ny; ++iy) {
    for (std::size_t ix = 0; ix + 1 < nx; ++ix) {
      // Corner occupancy: bit set if below threshold (inside feature).
      const bool b00 = img.at(ix, iy) < threshold;
      const bool b10 = img.at(ix + 1, iy) < threshold;
      const bool b01 = img.at(ix, iy + 1) < threshold;
      const bool b11 = img.at(ix + 1, iy + 1) < threshold;
      const int code = (b00 ? 1 : 0) | (b10 ? 2 : 0) | (b11 ? 4 : 0) |
                       (b01 ? 8 : 0);
      if (code == 0 || code == 15) continue;
      const ContourPoint bottom = (b00 != b10) ? lerp_x(ix, iy) : ContourPoint{};
      const ContourPoint top = (b01 != b11) ? lerp_x(ix, iy + 1) : ContourPoint{};
      const ContourPoint left = (b00 != b01) ? lerp_y(ix, iy) : ContourPoint{};
      const ContourPoint right = (b10 != b11) ? lerp_y(ix + 1, iy) : ContourPoint{};
      switch (code) {
        case 1: case 14: segs.push_back({left, bottom}); break;
        case 2: case 13: segs.push_back({bottom, right}); break;
        case 3: case 12: segs.push_back({left, right}); break;
        case 4: case 11: segs.push_back({top, right}); break;
        case 6: case 9:  segs.push_back({bottom, top}); break;
        case 7: case 8:  segs.push_back({left, top}); break;
        case 5:  // saddle: resolve by centre sample
        case 10: {
          const double centre =
              (img.at(ix, iy) + img.at(ix + 1, iy) + img.at(ix, iy + 1) +
               img.at(ix + 1, iy + 1)) / 4.0;
          const bool centre_in = centre < threshold;
          if ((code == 5) == centre_in) {
            segs.push_back({left, top});
            segs.push_back({bottom, right});
          } else {
            segs.push_back({left, bottom});
            segs.push_back({top, right});
          }
          break;
        }
        default: break;
      }
    }
  }

  // Stitch segments into paths via endpoint hashing on a fine key grid.
  const double quant = img.pixel() * 1e-4;
  const auto key_of = [&](ContourPoint p) {
    return std::pair<long long, long long>(
        static_cast<long long>(std::llround(p.x / quant)),
        static_cast<long long>(std::llround(p.y / quant)));
  };
  // A contour passing exactly through a grid corner produces degenerate
  // zero-length segments; drop them before stitching.
  std::erase_if(segs, [&](const Seg& s) { return key_of(s.a) == key_of(s.b); });
  std::multimap<std::pair<long long, long long>, std::size_t> by_end;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    by_end.emplace(key_of(segs[i].a), i);
    by_end.emplace(key_of(segs[i].b), i);
  }
  std::vector<bool> used(segs.size(), false);
  std::vector<ContourPath> paths;
  for (std::size_t start = 0; start < segs.size(); ++start) {
    if (used[start]) continue;
    used[start] = true;
    ContourPath path;
    path.points = {segs[start].a, segs[start].b};
    // Extend forward from the tail, then (if open) backward from the head.
    for (int pass = 0; pass < 2; ++pass) {
      bool extended = true;
      while (extended) {
        extended = false;
        const ContourPoint tail = path.points.back();
        const auto range = by_end.equal_range(key_of(tail));
        for (auto it = range.first; it != range.second; ++it) {
          const std::size_t si = it->second;
          if (used[si]) continue;
          const bool tail_is_a =
              key_of(segs[si].a) == key_of(tail);
          path.points.push_back(tail_is_a ? segs[si].b : segs[si].a);
          used[si] = true;
          extended = true;
          break;
        }
        if (key_of(path.points.front()) == key_of(path.points.back()) &&
            path.points.size() > 2) {
          path.closed = true;
          break;
        }
      }
      if (path.closed) break;
      std::reverse(path.points.begin(), path.points.end());
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace poc
