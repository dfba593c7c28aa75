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
//    the goldens).  Its transforms run four spans at a time inside the
//    window too, bit for bit the same as the scalar band transforms in
//    src/common/fft.h (DESIGN.md "In-window lanes (SOCS)").  See DESIGN.md
//    ablation 8 for the K vs CD-error vs speed trade.
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

/// Imaging engine selection plus the SOCS truncation knobs (ignored under
/// kAbbe).  Part of every window fingerprint downstream: Abbe and SOCS
/// results, or SOCS results at different kernel budgets, never alias.
struct ImagingOptions {
  ImagingMode mode = ImagingMode::kAbbe;
  SocsOptions socs;
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

/// Same, with every scratch buffer taken from `arena` (the overload above
/// uses the calling thread's, tls_scratch_arena()).  Bit-identical to it.
Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm,
                             const std::vector<SourcePoint>& source,
                             const ImagingOptions& imaging,
                             ScratchArena& arena);

}  // namespace poc
