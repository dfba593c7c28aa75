#include "src/opc/orc.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/cdx/contour.h"
#include "src/geom/polygon_ops.h"

namespace poc {

std::string OrcViolation::describe() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kPinch: os << "PINCH"; break;
    case Kind::kBridge: os << "BRIDGE"; break;
    case Kind::kEpe: os << "EPE"; break;
  }
  os << " at (" << where.x << ", " << where.y << ") value=" << value_nm;
  return os.str();
}

OrcReport run_orc(const LithoSimulator& sim, const OpcEngine& engine,
                  const std::vector<Polygon>& targets,
                  const std::vector<Rect>& mask_rects, const Rect& window,
                  const Exposure& exposure, const OrcOptions& options) {
  OrcReport report;
  const Image2D latent =
      sim.latent(mask_rects, window, exposure, options.quality);
  const double th = sim.print_threshold();

  // --- EPE at every target fragment ---
  std::vector<Fragment> frags =
      fragment_polygons(targets, engine.options().fragmentation);
  freeze_outside_window(
      frags, window,
      static_cast<DbUnit>(engine.options().probe_outside_nm) + 60);
  engine.measure_epe(frags, mask_rects, window, exposure, options.quality);
  double sum_sq = 0.0;
  std::size_t counted = 0;
  for (const Fragment& f : frags) {
    if (f.frozen) continue;
    if (options.exclude_corner_fragments && f.at_corner) continue;
    report.max_abs_epe_nm = std::max(report.max_abs_epe_nm, std::abs(f.epe_nm));
    sum_sq += f.epe_nm * f.epe_nm;
    ++counted;
    if (std::abs(f.epe_nm) > options.epe_limit_nm) {
      report.violations.push_back(
          {OrcViolation::Kind::kEpe, f.ctrl, f.epe_nm});
    }
  }
  if (counted > 0) {
    report.rms_epe_nm = std::sqrt(sum_sq / static_cast<double>(counted));
  }

  // --- pinch: printed width at the centre of every target slab ---
  std::vector<Rect> slabs;
  for (const Polygon& p : targets) {
    for (const Rect& r : decompose(p)) slabs.push_back(r);
  }
  for (const Rect& r : slabs) {
    const bool horizontal_cd = r.width() <= r.height();
    const double drawn = static_cast<double>(
        horizontal_cd ? r.width() : r.height());
    const Point c = r.center();
    const auto width = printed_width(
        latent, th, {static_cast<double>(c.x), static_cast<double>(c.y)},
        horizontal_cd, drawn * 3.0);
    const double printed = width.value_or(0.0);
    if (printed < drawn * options.pinch_fraction) {
      report.violations.push_back({OrcViolation::Kind::kPinch, c, printed});
    }
  }

  // --- bridge: latent must clear threshold midway across narrow gaps ---
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    for (std::size_t j = i + 1; j < slabs.size(); ++j) {
      const Rect& a = slabs[i];
      const Rect& b = slabs[j];
      // Horizontal gap with vertical overlap.
      const DbUnit ylo = std::max(a.ylo, b.ylo);
      const DbUnit yhi = std::min(a.yhi, b.yhi);
      const DbUnit gap_x = std::max(a.xlo, b.xlo) - std::min(a.xhi, b.xhi);
      if (yhi > ylo && gap_x > 0 && gap_x < options.bridge_check_space) {
        const Point mid{(std::min(a.xhi, b.xhi) + std::max(a.xlo, b.xlo)) / 2,
                        (ylo + yhi) / 2};
        const double v = latent.sample(static_cast<double>(mid.x),
                                       static_cast<double>(mid.y));
        if (v < th) {
          report.violations.push_back(
              {OrcViolation::Kind::kBridge, mid, v / th});
        }
      }
      // Vertical gap with horizontal overlap.
      const DbUnit xlo = std::max(a.xlo, b.xlo);
      const DbUnit xhi = std::min(a.xhi, b.xhi);
      const DbUnit gap_y = std::max(a.ylo, b.ylo) - std::min(a.yhi, b.yhi);
      if (xhi > xlo && gap_y > 0 && gap_y < options.bridge_check_space) {
        const Point mid{(xlo + xhi) / 2,
                        (std::min(a.yhi, b.yhi) + std::max(a.ylo, b.ylo)) / 2};
        const double v = latent.sample(static_cast<double>(mid.x),
                                       static_cast<double>(mid.y));
        if (v < th) {
          report.violations.push_back(
              {OrcViolation::Kind::kBridge, mid, v / th});
        }
      }
    }
  }
  (void)window;
  return report;
}

}  // namespace poc
