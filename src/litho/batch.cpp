#include "src/litho/batch.h"

#include "src/common/check.h"

namespace poc {

ScratchArena& tls_scratch_arena() {
  thread_local ScratchArena arena;
  return arena;
}

std::vector<Image2D> aerial_image_blurred_batch(
    const Image2D* const* masks, std::size_t count, const OpticalSettings& opt,
    double defocus_nm, double blur_sigma_nm,
    const std::vector<SourcePoint>& source, const ImagingOptions& imaging,
    ScratchArena& arena) {
  std::vector<Image2D> out(count);
  if (count == 0) return out;
  if (imaging.mode != ImagingMode::kSocs) {
    // Abbe runs its lanes within a window, not across windows: one call
    // per mask, in batch order.
    for (std::size_t w = 0; w < count; ++w) {
      out[w] = aerial_image_blurred(*masks[w], opt, defocus_nm, blur_sigma_nm,
                                    source, imaging);
    }
    return out;
  }
  aerial_image_blurred_socs_batch(masks, count, opt, defocus_nm,
                                  blur_sigma_nm, source, imaging.socs, arena,
                                  out.data());
  return out;
}

}  // namespace poc
