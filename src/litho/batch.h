// Per-worker imaging scratch.
//
// Both imaging engines run their transforms four spans at a time inside one
// window (src/litho/imaging.cpp) and take every lane buffer from a
// ScratchArena, so a warm call allocates nothing but the image it returns.
// Workers reach their arena via tls_scratch_arena(); the arena overload of
// aerial_image_blurred and LithoSimulator::latent_batch take one explicitly
// so callers can supply their own.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace poc {

/// Grow-only lane buffers, one per slot.  Sizes below are in doubles for a
/// window of nx x ny pixels whose coarse grid is ncx x ncy, with band
/// widths nb (the mask spectrum) and nbu (the upsampled intensity), all
/// rounded up to whole four-lane tiles.
class ScratchArena {
 public:
  enum Slot : std::size_t {
    kRowRe,      ///< Four packed rows, nx * 4.
    kRowIm,      ///< Four packed rows, nx * 4.
    kSpecRe,     ///< Band columns of the mask spectrum, nb * ny.
    kSpecIm,     ///< Band columns of the mask spectrum, nb * ny.
    kFieldRe,    ///< Coherent fields on the coarse grid.
    kFieldIm,    ///< Coherent fields on the coarse grid.
    kIntensity,  ///< Accumulated coarse intensity, ncx * ncy.
    kCoarseRe,   ///< Coarse intensity spectrum, column tiles.
    kCoarseIm,   ///< Coarse intensity spectrum, column tiles.
    kUpWorkRe,   ///< Upsample spectrum columns, nbu * ny.
    kUpWorkIm,   ///< Upsample spectrum columns, nbu * ny.
    kColRe,      ///< One full-height lane column (Abbe), ny * 4.
    kColIm,      ///< One full-height lane column (Abbe), ny * 4.
    kBlurX,      ///< Separable blur factors per upsample band column (SOCS).
    kBlurY,      ///< Separable blur factors per upsample band row (SOCS).
    kSlotCount
  };

  /// Slot buffer with room for at least n doubles (grow-only).
  double* buf(Slot s, std::size_t n) {
    std::vector<double>& b = bufs_[static_cast<std::size_t>(s)];
    if (b.size() < n) b.resize(n);
    return b.data();
  }

 private:
  std::array<std::vector<double>, kSlotCount> bufs_;
};

/// The calling thread's arena (one per OS thread, created on first use).
/// Pool worker threads persist across a run, so their arenas reach steady
/// state after the first window of each shape.
ScratchArena& tls_scratch_arena();

}  // namespace poc
