// Optical rule check (post-OPC verification): scores a corrected mask
// against its targets — residual EPE statistics, pinching (printed width
// collapsing below a fraction of drawn) and bridging (resist clearing lost
// in the space between neighbouring features).
#pragma once

#include <string>
#include <vector>

#include "src/geom/polygon.h"
#include "src/geom/rect.h"
#include "src/litho/simulator.h"
#include "src/opc/opc_engine.h"

namespace poc {

struct OrcViolation {
  enum class Kind { kPinch, kBridge, kEpe } kind = Kind::kEpe;
  Point where;
  double value_nm = 0.0;  ///< printed width (pinch), gap latent margin
                          ///< (bridge, in threshold units), or EPE
  std::string describe() const;
};

struct OrcOptions {
  double pinch_fraction = 0.70;   ///< min printed/drawn width ratio
  double epe_limit_nm = 4.0;      ///< flag fragments beyond this residual
  DbUnit bridge_check_space = 320;  ///< probe gaps narrower than this
  /// Corner rounding is physical and uncorrectable; production ORC decks
  /// exclude corner fragments from EPE limits, as we do by default.
  bool exclude_corner_fragments = true;
  LithoQuality quality = LithoQuality::kStandard;
};

struct OrcReport {
  double max_abs_epe_nm = 0.0;
  double rms_epe_nm = 0.0;
  std::vector<OrcViolation> violations;
  bool clean() const { return violations.empty(); }
};

/// Verifies `mask_rects` (post-OPC mask incl. SRAFs) against the drawn
/// `targets` inside `window` at the given exposure.
OrcReport run_orc(const LithoSimulator& sim, const OpcEngine& engine,
                  const std::vector<Polygon>& targets,
                  const std::vector<Rect>& mask_rects, const Rect& window,
                  const Exposure& exposure, const OrcOptions& options = {});

}  // namespace poc
