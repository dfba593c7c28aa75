// Tests for the batched SoA window-imaging engine (src/litho/batch.h):
// bit-identity of every lane against the scalar SOCS path across batch
// sizes, kernel branches (parity-packed and generic), blur settings and
// window origins; arena reuse across geometry changes; the Abbe fallback;
// the zero-allocation guarantee of a warm batched inner loop, and the
// one-allocation (its result) bound of a warm Abbe call (the allocation
// probe in src/common/alloc_probe.h counts operator-new calls).
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/alloc_probe.h"
#include "src/litho/batch.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"
#include "src/litho/optics.h"

namespace poc {
namespace {

std::vector<Rect> line_array(DbUnit width, DbUnit pitch, int n,
                             DbUnit x0 = -700) {
  std::vector<Rect> lines;
  for (int i = 0; i < n; ++i) {
    const DbUnit x = x0 + static_cast<DbUnit>(i) * pitch;
    lines.push_back({x, -600, x + width, 600});
  }
  return lines;
}

/// Distinct same-window masks: varied line arrays rasterized over one
/// window at one pixel size, so the whole set shares a grid shape.
std::vector<Image2D> make_masks(std::size_t count, const Rect& window,
                                double pixel_nm) {
  std::vector<Image2D> masks;
  for (std::size_t i = 0; i < count; ++i) {
    const DbUnit w = 80 + 10 * static_cast<DbUnit>(i % 5);
    const DbUnit pitch = 220 + 40 * static_cast<DbUnit>(i % 3);
    masks.push_back(rasterize_mask(
        line_array(w, pitch, 5 + static_cast<int>(i % 3)), window, pixel_nm));
  }
  return masks;
}

bool bit_equal(const Image2D& a, const Image2D& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny() || a.pixel() != b.pixel() ||
      a.origin_x() != b.origin_x() || a.origin_y() != b.origin_y()) {
    return false;
  }
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// Runs the batched engine over `masks` in sub-batches of `batch` and
/// checks every output against the scalar mode-selecting overload.
void expect_batches_match_scalar(const std::vector<Image2D>& masks,
                                 const OpticalSettings& opt, double defocus_nm,
                                 double blur_sigma_nm,
                                 const ImagingOptions& imaging,
                                 std::size_t batch) {
  const std::vector<SourcePoint> source = sample_source(opt);
  ScratchArena arena;
  for (std::size_t base = 0; base < masks.size(); base += batch) {
    const std::size_t count = std::min(batch, masks.size() - base);
    std::vector<const Image2D*> ptrs(count);
    for (std::size_t w = 0; w < count; ++w) ptrs[w] = &masks[base + w];
    const std::vector<Image2D> got = aerial_image_blurred_batch(
        ptrs.data(), count, opt, defocus_nm, blur_sigma_nm, source, imaging,
        arena);
    ASSERT_EQ(got.size(), count);
    for (std::size_t w = 0; w < count; ++w) {
      const Image2D ref = aerial_image_blurred(
          masks[base + w], opt, defocus_nm, blur_sigma_nm, source, imaging);
      EXPECT_TRUE(bit_equal(got[w], ref))
          << "batch=" << batch << " window=" << base + w;
    }
  }
}

TEST(BatchSocs, ParityPackedBitIdenticalAcrossBatchSizes) {
  // Nominal focus, default optics: parity-pure kernels, the packed branch.
  const Rect window{-900, -700, 990, 700};
  const std::vector<Image2D> masks = make_masks(8, window, 8.0);
  const OpticalSettings opt;
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}, 0};
  for (const std::size_t batch : {1u, 2u, 3u, 8u}) {
    expect_batches_match_scalar(masks, opt, 0.0, 22.0, imaging, batch);
  }
}

TEST(BatchSocs, GenericKernelsBitIdentical) {
  // Aberrations + defocus break parity purity: the generic complex-kernel
  // branch must match the scalar accumulate_coherent loop bit for bit.
  const Rect window{-900, -700, 990, 700};
  const std::vector<Image2D> masks = make_masks(5, window, 8.0);
  OpticalSettings opt;
  opt.z9_spherical_waves = 0.035;
  opt.z7_coma_x_waves = 0.025;
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}, 0};
  expect_batches_match_scalar(masks, opt, 80.0, 22.0, imaging, 5);
}

TEST(BatchSocs, NoBlurBitIdentical) {
  const Rect window{-900, -700, 990, 700};
  const std::vector<Image2D> masks = make_masks(4, window, 8.0);
  const OpticalSettings opt;
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}, 0};
  expect_batches_match_scalar(masks, opt, 0.0, 0.0, imaging, 4);
}

TEST(BatchSocs, MixedOriginsKeepTheirWindows) {
  // Same shape, different window origins: each output must carry its own
  // mask's origin and match the scalar image of that mask.
  const double pixel = 8.0;
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}, 0};
  std::vector<Image2D> masks;
  for (const DbUnit shift : {0, 1280, -2560}) {
    const Rect window{-900 + shift, -700, 990 + shift, 700};
    masks.push_back(
        rasterize_mask(line_array(90, 250, 5, -700 + shift), window, pixel));
  }
  ASSERT_EQ(masks[0].nx(), masks[1].nx());
  ASSERT_EQ(masks[0].nx(), masks[2].nx());
  expect_batches_match_scalar(masks, opt, 0.0, 22.0, imaging, masks.size());
}

TEST(BatchSocs, ArenaSurvivesGeometryChanges) {
  // One arena imaging two different window shapes alternately: the
  // persistent upsample spectra must reset on each geometry change and the
  // results must stay bit-identical to scalar throughout.
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}, 0};
  const std::vector<Image2D> small = make_masks(3, {-500, -400, 500, 400}, 8.0);
  const std::vector<Image2D> large = make_masks(3, {-900, -700, 990, 700}, 8.0);
  ScratchArena arena;
  for (int round = 0; round < 2; ++round) {
    for (const std::vector<Image2D>* set : {&small, &large}) {
      std::vector<const Image2D*> ptrs;
      for (const Image2D& m : *set) ptrs.push_back(&m);
      const std::vector<Image2D> got = aerial_image_blurred_batch(
          ptrs.data(), ptrs.size(), opt, 0.0, 22.0, source, imaging, arena);
      for (std::size_t w = 0; w < got.size(); ++w) {
        const Image2D ref = aerial_image_blurred((*set)[w], opt, 0.0, 22.0,
                                                 source, imaging);
        EXPECT_TRUE(bit_equal(got[w], ref)) << "round=" << round;
      }
    }
  }
}

TEST(BatchSocs, AbbeFallbackMatchesScalar) {
  const Rect window{-900, -700, 990, 700};
  const std::vector<Image2D> masks = make_masks(3, window, 8.0);
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const ImagingOptions imaging{ImagingMode::kAbbe, SocsOptions{}, 0};
  std::vector<const Image2D*> ptrs;
  for (const Image2D& m : masks) ptrs.push_back(&m);
  ScratchArena arena;
  const std::vector<Image2D> got = aerial_image_blurred_batch(
      ptrs.data(), ptrs.size(), opt, 0.0, 22.0, source, imaging, arena);
  for (std::size_t w = 0; w < masks.size(); ++w) {
    const Image2D ref =
        aerial_image_blurred(masks[w], opt, 0.0, 22.0, source, imaging);
    EXPECT_TRUE(bit_equal(got[w], ref));
  }
}

TEST(BatchSocs, WarmInnerLoopPerformsZeroHeapAllocations) {
  // The whole point of the ScratchArena: once it (and the process-wide
  // twiddle/kernel memos) are warm and the outputs are right-sized, a
  // batched compute performs no heap allocation at all.  The allocation
  // probe counts every operator-new on this thread.  Runs under every
  // sanitizer config (check.sh runs batch_test in the ASan leg, where the
  // probe's malloc forwarding is fully intercepted).
  const Rect window{-900, -700, 990, 700};
  const std::vector<Image2D> masks = make_masks(4, window, 8.0);
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  std::vector<const Image2D*> ptrs;
  for (const Image2D& m : masks) ptrs.push_back(&m);
  ScratchArena arena;
  std::vector<Image2D> out(masks.size());
  // Warm-up: grows the arena, builds twiddles and kernels, sizes outputs.
  aerial_image_blurred_socs_batch(ptrs.data(), ptrs.size(), opt, 0.0, 22.0,
                                  source, SocsOptions{}, arena, out.data());
  const std::vector<Image2D> ref = out;
  {
    alloc_probe::Scope probe;
    aerial_image_blurred_socs_batch(ptrs.data(), ptrs.size(), opt, 0.0, 22.0,
                                    source, SocsOptions{}, arena, out.data());
    EXPECT_EQ(probe.count(), 0u);
  }
  for (std::size_t w = 0; w < out.size(); ++w) {
    EXPECT_TRUE(bit_equal(out[w], ref[w]));
  }
}

TEST(AbbeLanes, WarmCallAllocatesOnlyItsResult) {
  // The Abbe engine takes every lane buffer from the calling thread's
  // arena, so once the arena and the pupil/twiddle memos are warm a call
  // allocates exactly the Image2D it returns — no per-call full-grid
  // spectrum, field or transpose buffers.
  const std::vector<Image2D> masks =
      make_masks(1, Rect{-900, -700, 990, 700}, 8.0);
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const Image2D warm =
      aerial_image_blurred(masks[0], opt, 0.0, 22.0, source, ImagingOptions{});
  std::size_t allocations = 0;
  Image2D again;
  {
    alloc_probe::Scope probe;
    again = aerial_image_blurred(masks[0], opt, 0.0, 22.0, source,
                                 ImagingOptions{});
    allocations = probe.count();
  }
  EXPECT_LE(allocations, 1u);
  EXPECT_TRUE(bit_equal(again, warm));
}

TEST(AllocProbe, CountsThisThreadsAllocations) {
  alloc_probe::Scope probe;
  const std::size_t before = probe.count();
  std::vector<double>* v = new std::vector<double>(256);
  EXPECT_GT(probe.count(), before);
  delete v;
}

}  // namespace
}  // namespace poc
