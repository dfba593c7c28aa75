// Batched window imaging: the pack/compute/unpack seam.
//
// The flow hot loops (run_opc / extract / scan_hotspots) image many windows
// whose masks share one shape and one optical configuration.  This layer
// packs a batch of such windows into structure-of-arrays planes (element
// innermost-indexed by window lane, see src/common/fft.h), runs the SOCS
// band-FFT / coherent-convolution / separable-blur chain once over the
// whole batch, and unpacks per-window images in window-index order.  Every
// lane replays the exact scalar floating-point operation sequence, so the
// batch is bit-identical to imaging each window alone — batch size is a
// pure performance knob (ImagingOptions::batch_windows).
//
// The seam is deliberately explicit: pack (mask pointers in), compute
// (aerial_image_blurred_socs_batch over SoA planes), unpack (per-window
// Image2D out).  A future GPU/offload backend replaces the compute stage
// behind the same boundary.
//
// Scratch ownership: one ScratchArena per worker thread.  The arena owns
// every buffer the batched chain touches (grow-only, so steady-state
// batches perform zero heap allocations), the lane buffers of the Abbe
// engine (whose transforms run several rows, columns or source points per
// pass within one window), and the persistent upsample spectrum for the
// scalar SOCS path.  Workers reach their arena via tls_scratch_arena(); the
// engine entry points take the arena as an explicit parameter so tests
// (and future backends) can supply their own.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "src/litho/image.h"
#include "src/litho/imaging.h"
#include "src/litho/optics.h"

namespace poc {

/// Per-worker scratch for the batched SOCS chain and the Abbe engine (which
/// reuse the same slots; sizes below are the SOCS batch's, lanes = window
/// lanes).  All buffers grow and never shrink; the scalar SOCS path's
/// persistent upsample spectrum additionally keeps its contents between
/// calls (only a geometry change re-zeroes it).
class ScratchArena {
 public:
  enum Slot : std::size_t {
    kRowRe,     ///< Row-pair pack scratch, nx * lanes.
    kRowIm,     ///< Row-pair pack scratch, nx * lanes.
    kSpecRe,    ///< Compact band mask spectra, nb * ny * lanes.
    kSpecIm,    ///< Compact band mask spectra, nb * ny * lanes.
    kFieldRe,   ///< Coherent field on the coarse grid, ncx * ncy * lanes.
    kFieldIm,   ///< Coherent field on the coarse grid, ncx * ncy * lanes.
    kIntensity, ///< Accumulated intensity, ncx * ncy * lanes.
    kCoarseRe,  ///< Coarse intensity spectrum, ncx * ncy * lanes.
    kCoarseIm,  ///< Coarse intensity spectrum, ncx * ncy * lanes.
    kUpWorkRe,  ///< Upsample band spectrum, consumed in place, nbu*ny*lanes.
    kUpWorkIm,  ///< Upsample band spectrum, consumed in place, nbu*ny*lanes.
    kColRe,     ///< One full-height lane column (Abbe), ny * lanes.
    kColIm,     ///< One full-height lane column (Abbe), ny * lanes.
    kSlotCount
  };

  /// Slot buffer with room for at least n doubles (grow-only).
  double* buf(Slot s, std::size_t n) {
    std::vector<double>& b = bufs_[static_cast<std::size_t>(s)];
    if (b.size() < n) b.resize(n);
    return b.data();
  }

  /// Persistent full-grid upsample spectrum for the scalar SOCS path (the
  /// former thread_local UpsampleScratch in imaging.cpp).
  struct UpsampleSpec {
    std::size_t nx = 0, ny = 0;
    long long cx = -1, cy = -1;
    std::vector<Cplx> spec;
  };
  UpsampleSpec& upsample_spec() { return up_spec_; }

  /// Grow-only pointer scratch for the pack/unpack stages.
  std::vector<const double*>& src_ptrs() { return src_ptrs_; }
  std::vector<double*>& dst_ptrs() { return dst_ptrs_; }

  /// Grow-only separable blur factor tables.
  std::vector<double>& blur_x() { return blur_x_; }
  std::vector<double>& blur_y() { return blur_y_; }

 private:
  std::array<std::vector<double>, kSlotCount> bufs_;
  UpsampleSpec up_spec_;
  std::vector<const double*> src_ptrs_;
  std::vector<double*> dst_ptrs_;
  std::vector<double> blur_x_;
  std::vector<double> blur_y_;
};

/// The calling thread's arena (one per OS thread, created on first use).
/// Pool worker threads persist across a run, so their arenas reach steady
/// state after the first batch of each shape.
ScratchArena& tls_scratch_arena();

/// Images a batch of same-shape, same-pixel masks under one configuration,
/// returning per-mask blurred aerial images in batch order.  kSocs runs the
/// SoA batched chain (bit-identical per lane to the scalar path); kAbbe
/// images the masks one at a time in ascending order, each through the
/// engine's own in-window lanes.  Masks may have different origins; each
/// output inherits its mask's origin.
std::vector<Image2D> aerial_image_blurred_batch(
    const Image2D* const* masks, std::size_t count, const OpticalSettings& opt,
    double defocus_nm, double blur_sigma_nm,
    const std::vector<SourcePoint>& source, const ImagingOptions& imaging,
    ScratchArena& arena);

}  // namespace poc
