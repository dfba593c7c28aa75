// Post-OPC extraction of critical dimensions — the step the paper's title
// names.  Given a latent image covering a transistor gate region, measures
// the printed poly linewidth on a ladder of cut-lines across the channel.
// The per-slice CDs feed the non-rectangular device model (src/device); the
// summary statistics feed reporting (experiments T1/F1).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/geom/rect.h"
#include "src/litho/image.h"

namespace poc {

/// Measured CDs across one transistor gate.
struct GateCdProfile {
  /// One printed-linewidth sample per cut-line, ordered along the channel
  /// width.  Slices where the line failed to print hold 0.
  std::vector<double> slice_cd_nm;
  /// Channel width represented by each slice (nm).
  double slice_width_nm = 0.0;
  double drawn_cd_nm = 0.0;

  bool printed() const;        ///< all slices printed
  double mean_cd() const;      ///< mean over printed slices (0 if none)
  double min_cd() const;
  double max_cd() const;
  /// Mean CD minus drawn CD: the residual the paper extracts.
  double residual_nm() const { return mean_cd() - drawn_cd_nm; }
};

struct CdExtractOptions {
  /// Fraction of the channel width trimmed at each end before placing
  /// cut-lines (avoids diffusion-edge rounding corrupting the CD).
  double edge_trim_fraction = 0.12;
  std::size_t num_slices = 7;
  /// Scan reach as a multiple of drawn CD when hunting the line edge.
  double reach_factor = 3.0;
};

/// Measures the gate whose drawn channel area is `gate_region` (top-level
/// layout coords, already inside the image).  `vertical_poly` true means the
/// poly line runs vertically, so CD (channel length) is measured along x and
/// the slice ladder steps along y.
GateCdProfile extract_gate_cd(const ImageView& latent, double threshold,
                              const Rect& gate_region, bool vertical_poly,
                              const CdExtractOptions& opts = {});

/// Printed linewidth of a straight wire segment at its midpoint (used for
/// the multi-layer metal extraction, experiment T5).  `horizontal_cd` true
/// measures across x.  Returns nullopt when the segment did not print.
std::optional<double> extract_wire_cd(const ImageView& latent, double threshold,
                                      const Rect& wire_segment,
                                      bool horizontal_cd,
                                      double reach_factor = 3.0);

}  // namespace poc
