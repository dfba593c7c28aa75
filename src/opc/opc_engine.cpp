#include "src/opc/opc_engine.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/cdx/contour.h"
#include "src/common/check.h"
#include "src/common/error.h"
#include "src/common/fault.h"
#include "src/common/log.h"
#include "src/geom/polygon_ops.h"
#include "src/opc/sraf.h"

namespace poc {

std::vector<Rect> OpcResult::mask_rects() const {
  std::vector<Rect> rects;
  for (const Polygon& p : corrected) {
    for (const Rect& r : decompose(p)) rects.push_back(r);
  }
  rects.insert(rects.end(), srafs.begin(), srafs.end());
  return disjoint_union(rects);
}

void OpcEngine::measure_epe(std::vector<Fragment>& fragments,
                            const std::vector<Rect>& mask_rects,
                            const Rect& window, const Exposure& exposure,
                            LithoQuality quality,
                            std::optional<ImagingMode> mode) const {
  const Image2D latent =
      sim_->latent(mask_rects, window, exposure, quality, mode);
  const double th = sim_->print_threshold();
  const double step = latent.pixel() / 2.0;
  for (Fragment& f : fragments) {
    if (f.frozen) {
      f.epe_nm = 0.0;
      continue;
    }
    const Point n = dir_vec(f.outward);
    const ContourPoint inside{
        static_cast<double>(f.ctrl.x) - n.x * options_.probe_inside_nm,
        static_cast<double>(f.ctrl.y) - n.y * options_.probe_inside_nm};
    const ContourPoint outside{
        static_cast<double>(f.ctrl.x) + n.x * options_.probe_outside_nm,
        static_cast<double>(f.ctrl.y) + n.y * options_.probe_outside_nm};
    // The feature prints where latent < threshold; walking inside -> outside
    // the first crossing is the printed edge.
    if (latent.sample(inside.x, inside.y) >= th) {
      // Feature missing under the probe: saturated negative EPE (the printed
      // edge has retreated past the probe start).
      f.epe_nm = -options_.probe_inside_nm;
      continue;
    }
    const auto hit = first_crossing(latent, th, inside, outside, step);
    if (!hit) {
      // No edge found before the probe end: printed far too wide.
      f.epe_nm = options_.probe_outside_nm;
      continue;
    }
    // Distance from probe start to the target edge is probe_inside_nm, so
    // the signed EPE (printed minus target, + = outside) is:
    f.epe_nm = *hit - options_.probe_inside_nm;
  }
}

OpcResult OpcEngine::correct(const std::vector<Polygon>& targets,
                             const Rect& window,
                             const Exposure& nominal) const {
  POC_EXPECTS(!targets.empty());
  // Injection point for the fault harness (default-off): a window-level
  // convergence stall, raised before any iteration work.
  fault::maybe_throw(fault::Kind::kConvergenceStall);
  OpcResult result;
  result.fragments = fragment_polygons(targets, options_.fragmentation);
  // Halo: geometry near the tile boundary is context, not correction work.
  freeze_outside_window(result.fragments, window,
                        static_cast<DbUnit>(options_.probe_outside_nm) + 60);
  if (options_.insert_srafs) {
    result.srafs = insert_srafs(targets, window);
  }

  LithoQuality quality = options_.sim_quality;
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    result.corrected = apply_fragments(targets, result.fragments);
    measure_epe(result.fragments, result.mask_rects(), window, nominal,
                quality, options_.imaging);

    double max_abs = 0.0, sum_sq = 0.0;
    double body_max = 0.0, body_sum_sq = 0.0;
    std::size_t body_n = 0, live_n = 0;
    for (const Fragment& f : result.fragments) {
      if (f.frozen) continue;
      max_abs = std::max(max_abs, std::abs(f.epe_nm));
      sum_sq += f.epe_nm * f.epe_nm;
      ++live_n;
      if (!f.at_corner) {
        body_max = std::max(body_max, std::abs(f.epe_nm));
        body_sum_sq += f.epe_nm * f.epe_nm;
        ++body_n;
      }
    }
    result.max_abs_epe_nm = max_abs;
    result.rms_epe_nm =
        live_n ? std::sqrt(sum_sq / static_cast<double>(live_n)) : 0.0;
    result.max_abs_epe_body_nm = body_max;
    result.rms_epe_body_nm =
        body_n ? std::sqrt(body_sum_sq / static_cast<double>(body_n)) : 0.0;
    result.max_epe_history.push_back(body_max);
    result.rms_epe_history.push_back(result.rms_epe_body_nm);
    result.iterations = iter + 1;
    // Converged only counts at the sign-off quality, judged on edge bodies.
    if (quality == options_.final_quality &&
        body_max < options_.epe_tolerance_nm) {
      break;
    }
    if (iter + 1 == options_.max_iterations) break;
    // Coarse-to-fine handoff: once the draft model is nearly converged (or
    // the budget reserved for fine iterations is reached), switch to the
    // quality the sign-off extraction will use.
    if (quality != options_.final_quality &&
        (body_max < options_.handoff_epe_nm ||
         iter + options_.final_iterations + 1 >= options_.max_iterations)) {
      quality = options_.final_quality;
    }

    for (Fragment& f : result.fragments) {
      if (f.frozen) continue;
      const auto move = static_cast<DbUnit>(
          std::llround(-options_.damping * f.epe_nm));
      f.bias = std::clamp<DbUnit>(f.bias + move, options_.min_bias,
                                  options_.max_bias);
    }
  }
  // Optional hard abort on non-convergence: a window whose residual EPE
  // still exceeds the threshold after the full budget raises a structured
  // fault rather than handing a silently-bad mask downstream.
  if (options_.abort_epe_nm > 0.0 &&
      result.max_abs_epe_body_nm >= options_.abort_epe_nm) {
    throw FlowException(FlowError{
        FaultCode::kNonConvergence, kNoWindowId, "opc.correct",
        "body EPE " + std::to_string(result.max_abs_epe_body_nm) +
            " nm above abort threshold after " +
            std::to_string(result.iterations) + " iterations"});
  }
  log_debug("OPC window converged: iters=", result.iterations,
            " maxEPE=", result.max_abs_epe_nm, "nm rms=", result.rms_epe_nm,
            "nm frags=", result.fragments.size());
  return result;
}

}  // namespace poc
