// Iso-contour utilities on latent images: sub-pixel threshold crossings
// along probe segments (the CD measurement primitive) and marching-squares
// contour tracing (used by ORC checks and layout dumps).
#pragma once

#include <optional>
#include <vector>

#include "src/litho/image.h"

namespace poc {

struct ContourPoint {
  double x = 0.0;
  double y = 0.0;
};

/// A traced iso-line; closed when the first and last points coincide.
struct ContourPath {
  std::vector<ContourPoint> points;
  bool closed = false;

  double length() const;
};

/// Finds the first threshold crossing of the (bilinear) field along the
/// segment p0 -> p1, refined by bisection to ~0.01 nm.  Returns the distance
/// from p0 in nm, or nullopt if the field never crosses.
std::optional<double> first_crossing(const ImageView& img, double threshold,
                                     ContourPoint p0, ContourPoint p1,
                                     double step_nm);

/// Width of the below-threshold interval containing `center` along the
/// horizontal (dx=1) or vertical (dx=0) direction: scans outward both ways
/// up to max_reach_nm.  Returns nullopt if `center` itself is not below
/// threshold (feature failed to print: pinched away).
std::optional<double> printed_width(const ImageView& img, double threshold,
                                    ContourPoint center, bool horizontal,
                                    double max_reach_nm);

/// Marching-squares contour extraction at `threshold` with linear
/// interpolation; segments are assembled into paths.
std::vector<ContourPath> trace_contours(const Image2D& img, double threshold);

}  // namespace poc
