// Partially-coherent aerial image formation, two interchangeable paths:
//
//  - Abbe (source-point summation, the reference path): for each discrete
//    source point the mask spectrum is filtered by the defocused pupil
//    shifted to that illumination angle and inverse-transformed;
//    intensities accumulate with the source weights.  This retains true
//    partial coherence (iso/dense bias, line-end pullback, forbidden
//    pitches) that a single-kernel convolution model cannot reproduce —
//    see DESIGN.md ablation 1.  Each window's transforms run four rows,
//    columns or source points at a time through the SoA FFT lanes, bit for
//    bit the same as transforming one span at a time (DESIGN.md "In-window
//    lanes (Abbe)").
//
//  - SOCS (sum of coherent systems, the fast path): the Hopkins TCC built
//    from the same source and pupil is eigendecomposed once per (optics,
//    source, defocus, spectral layout) into K orthonormal coherent kernels
//    (src/litho/tcc.h); each window is then imaged as an index-ordered sum
//    of lambda_k |kernel_k * mask|^2 with K << S transforms, plus packed
//    real-input/real-output band transforms the reference path cannot use
//    (they round differently, and the reference must stay bit-identical to
//    the goldens).  See DESIGN.md ablation 8 for the K vs CD-error vs speed
//    trade.
#pragma once

#include <cstdint>
#include <vector>

#include "src/litho/image.h"
#include "src/litho/optics.h"
#include "src/litho/tcc.h"

namespace poc {

/// Which imaging engine synthesizes the aerial image.
enum class ImagingMode : std::uint8_t {
  kAbbe,  ///< Source-point summation; the reference/golden path.
  kSocs,  ///< Truncated coherent-kernel summation; the fast path.
};

/// batch_windows value meaning "follow the parallel chunk size" (the flow
/// hands each worker chunk to the batched engine whole).
inline constexpr std::size_t kBatchWindowsAuto = static_cast<std::size_t>(-1);

/// Imaging engine selection plus the SOCS truncation knobs (ignored under
/// kAbbe).  Part of every window fingerprint downstream: Abbe and SOCS
/// results, or SOCS results at different kernel budgets, never alias.
struct ImagingOptions {
  ImagingMode mode = ImagingMode::kAbbe;
  SocsOptions socs;
  /// Windows per SoA batch in the flow hot loops (SOCS windows only; the
  /// Abbe engine's lanes stay within one window).  0 disables batching
  /// entirely; kBatchWindowsAuto follows the parallel chunk size.  Purely a
  /// performance knob: every batch size produces bit-identical results, so
  /// this field is deliberately EXCLUDED from cache and journal
  /// fingerprints (flow.cpp hash_imaging; enforced by test).
  std::size_t batch_windows = kBatchWindowsAuto;
};

/// Computes aerial intensity on the same grid as `mask` (transmission in
/// [0,1]).  An all-clear mask yields intensity 1.0 everywhere (dose applied
/// later by the resist model).  The grid dimensions must be powers of two
/// (rasterize_mask guarantees this).
///
/// Implementation note: per-source-point (or per-kernel) coherent fields
/// are band-limited to NA(1+sigma)/lambda, so they are synthesized on a
/// cropped spectral grid and the accumulated intensity is Fourier-upsampled
/// once — exact, and several times faster than full-grid transforms per
/// term.
Image2D aerial_image(const Image2D& mask, const OpticalSettings& opt,
                     double defocus_nm);

/// Same, with a Gaussian resist-diffusion blur folded into the upsampling
/// pass (equivalent to gaussian_blur(aerial_image(...), sigma) but free).
Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm);

/// Explicit-source overloads: callers that image many windows at the same
/// (optics, quality) pass the discretized source once instead of having
/// every call re-run sample_source (LithoSimulator holds one per quality
/// level).  `source` must be consistent with `opt` — the per-source-point
/// pupil grids are memoized process-wide on (optics, source geometry and
/// weights, defocus, grid spectral layout), so repeated same-shape windows
/// skip the pupil evaluation entirely.
Image2D aerial_image(const Image2D& mask, const OpticalSettings& opt,
                     double defocus_nm,
                     const std::vector<SourcePoint>& source);
Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm,
                             const std::vector<SourcePoint>& source);

/// Mode-selecting overload: kAbbe reproduces the overloads above bit for
/// bit; kSocs swaps the source loop for the truncated coherent-kernel sum
/// (kernels memoized process-wide, see src/litho/tcc.h).
Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm,
                             const std::vector<SourcePoint>& source,
                             const ImagingOptions& imaging);

class ScratchArena;  // src/litho/batch.h

/// Batched SOCS engine: images `count` same-shape (nx, ny, pixel) masks in
/// one structure-of-arrays pass through the band FFT / coherent-kernel /
/// separable-blur chain, writing blurred aerial images to out[0..count).
/// Lane w is bit-identical to the scalar kSocs aerial_image_blurred of
/// masks[w] alone — batching widens each scalar floating-point operation
/// across window lanes without reordering or fusing any of them.  All
/// scratch comes from `arena`; when the arena is warm and out[w] already
/// has the right geometry, the call performs no heap allocation.  Most
/// callers want the aerial_image_blurred_batch wrapper in batch.h.
void aerial_image_blurred_socs_batch(const Image2D* const* masks,
                                     std::size_t count,
                                     const OpticalSettings& opt,
                                     double defocus_nm, double blur_sigma_nm,
                                     const std::vector<SourcePoint>& source,
                                     const SocsOptions& socs,
                                     ScratchArena& arena, Image2D* out);

}  // namespace poc
