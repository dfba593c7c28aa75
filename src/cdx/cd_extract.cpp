#include "src/cdx/cd_extract.h"

#include <algorithm>

#include "src/cdx/contour.h"
#include "src/common/check.h"

namespace poc {

bool GateCdProfile::printed() const {
  if (slice_cd_nm.empty()) return false;
  return std::all_of(slice_cd_nm.begin(), slice_cd_nm.end(),
                     [](double cd) { return cd > 0.0; });
}

double GateCdProfile::mean_cd() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (double cd : slice_cd_nm) {
    if (cd > 0.0) {
      sum += cd;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double GateCdProfile::min_cd() const {
  double m = 0.0;
  bool first = true;
  for (double cd : slice_cd_nm) {
    m = first ? cd : std::min(m, cd);
    first = false;
  }
  return m;
}

double GateCdProfile::max_cd() const {
  double m = 0.0;
  for (double cd : slice_cd_nm) m = std::max(m, cd);
  return m;
}

GateCdProfile extract_gate_cd(const ImageView& latent, double threshold,
                              const Rect& gate_region, bool vertical_poly,
                              const CdExtractOptions& opts) {
  POC_EXPECTS(!gate_region.empty());
  POC_EXPECTS(opts.num_slices >= 1);
  POC_EXPECTS(opts.edge_trim_fraction >= 0.0 && opts.edge_trim_fraction < 0.5);

  GateCdProfile profile;
  // For vertical poly the channel length (CD) spans x and the width spans y.
  const double cd_lo = static_cast<double>(vertical_poly ? gate_region.xlo
                                                         : gate_region.ylo);
  const double cd_hi = static_cast<double>(vertical_poly ? gate_region.xhi
                                                         : gate_region.yhi);
  const double w_lo = static_cast<double>(vertical_poly ? gate_region.ylo
                                                        : gate_region.xlo);
  const double w_hi = static_cast<double>(vertical_poly ? gate_region.yhi
                                                        : gate_region.xhi);
  profile.drawn_cd_nm = cd_hi - cd_lo;
  const double centre_cd = (cd_lo + cd_hi) / 2.0;

  const double usable = (w_hi - w_lo) * (1.0 - 2.0 * opts.edge_trim_fraction);
  const double start = w_lo + (w_hi - w_lo) * opts.edge_trim_fraction;
  profile.slice_width_nm = (w_hi - w_lo) / static_cast<double>(opts.num_slices);
  const double reach = profile.drawn_cd_nm * opts.reach_factor;

  for (std::size_t s = 0; s < opts.num_slices; ++s) {
    // Cut-line positions span the trimmed width evenly (midpoint sampling).
    const double t = (static_cast<double>(s) + 0.5) /
                     static_cast<double>(opts.num_slices);
    const double w_pos = start + usable * t;
    const ContourPoint centre = vertical_poly
                                    ? ContourPoint{centre_cd, w_pos}
                                    : ContourPoint{w_pos, centre_cd};
    const auto cd = printed_width(latent, threshold, centre,
                                  /*horizontal=*/vertical_poly, reach);
    profile.slice_cd_nm.push_back(cd.value_or(0.0));
  }
  return profile;
}

std::optional<double> extract_wire_cd(const ImageView& latent, double threshold,
                                      const Rect& wire_segment,
                                      bool horizontal_cd,
                                      double reach_factor) {
  POC_EXPECTS(!wire_segment.empty());
  const Point c = wire_segment.center();
  const double drawn = static_cast<double>(
      horizontal_cd ? wire_segment.width() : wire_segment.height());
  return printed_width(latent, threshold,
                       {static_cast<double>(c.x), static_cast<double>(c.y)},
                       horizontal_cd, drawn * reach_factor);
}

}  // namespace poc
