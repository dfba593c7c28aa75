// Model-based OPC: iterative per-fragment edge-placement-error feedback.
// Each iteration simulates the current mask, measures the printed contour
// position against the original target at every fragment control point, and
// moves the fragment by -damping * EPE.  Residual EPE after convergence is
// exactly the "residual OPC error" the paper extracts and propagates into
// timing.  The OPC model images on SOCS by default (OpcOptions::imaging):
// at its default exact energy it prints the same masks as the Abbe
// reference, which the flow keeps for sign-off extraction, the containment
// retry and the SocsVsAbbe mask-agreement oracle.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/geom/polygon.h"
#include "src/geom/rect.h"
#include "src/litho/simulator.h"
#include "src/opc/fragment.h"

namespace poc {

struct OpcOptions {
  FragmentationOptions fragmentation;
  std::size_t max_iterations = 10;
  double damping = 0.5;          ///< feedback gain on measured EPE (the F3
                                 ///< ablation shows >0.6 oscillates near
                                 ///< landing-pad corners)
  double epe_tolerance_nm = 0.75;  ///< stop when max |EPE| falls below this
  DbUnit max_bias = 45;          ///< outward clamp (nm)
  DbUnit min_bias = -35;         ///< inward clamp (nm)
  double probe_inside_nm = 30.0;   ///< EPE probe start, inside the target
  double probe_outside_nm = 60.0;  ///< EPE probe reach outside the target
  /// Coarse-to-fine schedule: iterate at `sim_quality` until the EPE falls
  /// below `handoff_epe_nm` (or the iteration budget nears exhaustion),
  /// then finish at `final_quality` — the quality sign-off extraction uses.
  LithoQuality sim_quality = LithoQuality::kDraft;
  LithoQuality final_quality = LithoQuality::kStandard;
  double handoff_epe_nm = 2.5;
  std::size_t final_iterations = 3;  ///< budget reserved for fine iterations
  /// Imaging engine of every iteration, whatever the simulator's own mode.
  /// The SOCS truncation knobs still come from the simulator's
  /// ImagingOptions::socs, which keep every kernel by default.
  ImagingMode imaging = ImagingMode::kSocs;
  bool insert_srafs = false;     ///< rule-based scattering bars (see sraf.h)
  /// Non-convergence abort threshold (0 = off, the default): when the body
  /// EPE still exceeds this after the full iteration budget, correct()
  /// raises a structured kNonConvergence fault instead of returning a
  /// silently-bad mask.  The flow's containment retries or degrades the
  /// window; without containment the failure is at least explicit.
  double abort_epe_nm = 0.0;
};

struct OpcResult {
  std::vector<Polygon> corrected;   ///< post-OPC mask polygons
  std::vector<Rect> srafs;          ///< non-printing assist features
  std::vector<Fragment> fragments;  ///< final biases and EPEs
  std::size_t iterations = 0;
  double max_abs_epe_nm = 0.0;      ///< residual after the last iteration
  double rms_epe_nm = 0.0;
  /// Same, excluding corner fragments: convex corners round no matter how
  /// large the serif, so convergence is judged — as in production ORC — on
  /// the edge bodies that set printed linewidth.
  double max_abs_epe_body_nm = 0.0;
  double rms_epe_body_nm = 0.0;
  std::vector<double> max_epe_history;  ///< per-iteration trace (body)
  std::vector<double> rms_epe_history;  ///< per-iteration trace (body)

  /// Mask rectangles (corrected polygons + SRAFs) ready for simulation.
  std::vector<Rect> mask_rects() const;
};

class OpcEngine {
 public:
  OpcEngine(const LithoSimulator& sim, OpcOptions options = {})
      : sim_(&sim), options_(options) {}

  /// Corrects `targets` so their printed contours match the drawn shapes at
  /// the nominal exposure.  `window` must enclose the targets plus optical
  /// ambit; everything inside it is simulated together, so neighbouring
  /// shapes influence each other's correction (context-dependent OPC).
  OpcResult correct(const std::vector<Polygon>& targets, const Rect& window,
                    const Exposure& nominal = {}) const;

  /// Measures EPE at each fragment of `fragments` for an arbitrary mask
  /// (used by ORC and by the convergence bench to score uncorrected masks).
  /// `mode` overrides the simulator's imaging engine for this measurement.
  void measure_epe(std::vector<Fragment>& fragments,
                   const std::vector<Rect>& mask_rects, const Rect& window,
                   const Exposure& exposure, LithoQuality quality,
                   std::optional<ImagingMode> mode = std::nullopt) const;

  const OpcOptions& options() const { return options_; }

 private:
  const LithoSimulator* sim_;
  OpcOptions options_;
};

}  // namespace poc
