#include "src/litho/simulator.h"

#include <cmath>
#include <limits>

#include "src/common/error.h"
#include "src/common/fault.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"

namespace poc {

QualityParams quality_params(LithoQuality q) {
  switch (q) {
    case LithoQuality::kDraft: return {10.0, 1, 6};
    case LithoQuality::kStandard: return {8.0, 2, 8};
    case LithoQuality::kFine: return {5.0, 3, 12};
  }
  return {8.0, 2, 8};
}

void LithoSimulator::init_quality_contexts() {
  for (const LithoQuality q : {LithoQuality::kDraft, LithoQuality::kStandard,
                               LithoQuality::kFine}) {
    const QualityParams qp = quality_params(q);
    QualityContext& ctx = quality_[static_cast<std::size_t>(q)];
    ctx.optics = optics_;
    ctx.optics.source_rings = qp.source_rings;
    ctx.optics.source_spokes = qp.source_spokes;
    ctx.source = sample_source(ctx.optics);
  }
}

Image2D LithoSimulator::aerial(const std::vector<Rect>& features,
                               const Rect& window, double defocus_nm,
                               LithoQuality quality,
                               std::optional<ImagingMode> mode) const {
  const QualityContext& ctx = quality_context(quality);
  const Image2D mask =
      rasterize_mask(features, window, quality_params(quality).pixel_nm);
  ImagingOptions imaging = imaging_;
  if (mode) imaging.mode = *mode;
  return aerial_image_blurred(mask, ctx.optics, defocus_nm, 0.0, ctx.source,
                              imaging);
}

Image2D LithoSimulator::latent(const std::vector<Rect>& features,
                               const Rect& window, const Exposure& exposure,
                               LithoQuality quality,
                               std::optional<ImagingMode> mode) const {
  const QualityContext& ctx = quality_context(quality);
  const Image2D mask =
      rasterize_mask(features, window, quality_params(quality).pixel_nm);
  ImagingOptions imaging = imaging_;
  if (mode) imaging.mode = *mode;
  // Blur applied in the imaging upsample pass; only the dose scale remains.
  Image2D latent = aerial_image_blurred(mask, ctx.optics, exposure.focus_nm,
                                        resist_.diffusion_nm, ctx.source,
                                        imaging);
  finish_latent(latent, exposure);
  return latent;
}

Image2D LithoSimulator::rasterize(const std::vector<Rect>& features,
                                  const Rect& window,
                                  LithoQuality quality) const {
  return rasterize_mask(features, window, quality_params(quality).pixel_nm);
}

std::vector<Image2D> LithoSimulator::latent_batch(
    const Image2D* const* masks, std::size_t count, const Exposure& exposure,
    LithoQuality quality, ScratchArena& arena,
    std::optional<ImagingMode> mode) const {
  const QualityContext& ctx = quality_context(quality);
  ImagingOptions imaging = imaging_;
  if (mode) imaging.mode = *mode;
  std::vector<Image2D> out;
  out.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    out.push_back(aerial_image_blurred(*masks[w], ctx.optics,
                                       exposure.focus_nm, resist_.diffusion_nm,
                                       ctx.source, imaging, arena));
    finish_latent(out.back(), exposure);
  }
  return out;
}

void LithoSimulator::finish_latent(Image2D& latent,
                                   const Exposure& exposure) const {
  // The fault probe corrupts a pixel before the pass, so the guard below
  // is what catches it (NaN * dose stays NaN).
  if (fault::enabled() && fault::should(fault::Kind::kNanPixel)) {
    latent.data()[0] = std::numeric_limits<double>::quiet_NaN();
  }
  // Dose scale and boundary guard in one pass: |v| <= DBL_MAX is false
  // exactly for NaN and +-inf, so the image is finite iff every pixel
  // counts (a count compiles to a shorter branch-free loop than a bool &=
  // chain).  Contour extraction bisects this image for CDs, and a NaN CD
  // would flow silently into the device model and STA, so raise the
  // structured fault here, where the window loops can contain it.
  constexpr double kMax = std::numeric_limits<double>::max();
  const double dose = exposure.dose;
  std::size_t finite = 0;
  for (double& v : latent.data()) {
    v *= dose;
    finite += std::abs(v) <= kMax;
  }
  if (finite != latent.data().size()) {
    throw FlowException(FlowError{FaultCode::kNonFinite, kNoWindowId,
                                  "litho.latent",
                                  "non-finite intensity in latent image"});
  }
}

}  // namespace poc
