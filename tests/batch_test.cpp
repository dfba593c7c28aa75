// Tests for the imaging engines' scratch contract (src/litho/batch.h):
// LithoSimulator::latent_batch equals latent() per mask bit for bit under
// SOCS across call sizes, kernel branches (parity-packed and generic), blur
// settings and one arena reused across window shapes, and under both
// engines over masks of mixed shapes and origins; a warm call of either
// engine allocates only the image it returns (the allocation probe in
// src/common/alloc_probe.h counts operator-new calls).
#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/alloc_probe.h"
#include "src/litho/batch.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"
#include "src/litho/optics.h"
#include "src/litho/simulator.h"

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

struct Window {
  std::vector<Rect> features;
  Rect window;
};

/// Distinct same-shape windows: varied line arrays over one window rect.
std::vector<Window> make_windows(std::size_t count, const Rect& window) {
  std::vector<Window> windows;
  for (std::size_t i = 0; i < count; ++i) {
    const DbUnit w = 80 + 10 * static_cast<DbUnit>(i % 5);
    const DbUnit pitch = 220 + 40 * static_cast<DbUnit>(i % 3);
    windows.push_back(
        {line_array(w, pitch, 5 + static_cast<int>(i % 3)), window});
  }
  return windows;
}

/// make_windows rasterized at one pixel size, so the set shares a grid shape.
std::vector<Image2D> make_masks(std::size_t count, const Rect& window,
                                double pixel_nm) {
  std::vector<Image2D> masks;
  for (const Window& w : make_windows(count, window)) {
    masks.push_back(rasterize_mask(w.features, w.window, pixel_nm));
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

/// Runs latent_batch over `windows` in calls of at most `call_size` masks,
/// all through `arena`, and checks every image against latent() of the
/// features that rasterized its mask.  Each reference is computed on a new
/// thread, whose scratch arena starts empty, so an image that depends on
/// what `arena` held before cannot match.
void expect_latent_batch_matches_latent(const LithoSimulator& sim,
                                        const std::vector<Window>& windows,
                                        const Exposure& exposure,
                                        std::size_t call_size,
                                        ScratchArena& arena) {
  const LithoQuality q = LithoQuality::kStandard;
  std::vector<Image2D> want(windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::thread([&] {
      want[w] = sim.latent(windows[w].features, windows[w].window, exposure,
                           q);
    }).join();
  }
  for (std::size_t base = 0; base < windows.size(); base += call_size) {
    const std::size_t count = std::min(call_size, windows.size() - base);
    std::vector<Image2D> masks;
    for (std::size_t w = 0; w < count; ++w) {
      const Window& win = windows[base + w];
      masks.push_back(sim.rasterize(win.features, win.window, q));
    }
    std::vector<const Image2D*> ptrs;
    for (const Image2D& m : masks) ptrs.push_back(&m);
    const std::vector<Image2D> got =
        sim.latent_batch(ptrs.data(), count, exposure, q, arena);
    ASSERT_EQ(got.size(), count);
    for (std::size_t w = 0; w < count; ++w) {
      EXPECT_TRUE(bit_equal(got[w], want[base + w]))
          << "call_size=" << call_size << " window=" << base + w;
    }
  }
}

const ImagingOptions kSocsImaging{ImagingMode::kSocs, SocsOptions{}};

TEST(BatchSocs, ParityPackedBitIdenticalAcrossBatchSizes) {
  // Nominal focus, default optics: parity-pure kernels, the packed branch.
  // How many masks one call holds, and what the shared arena imaged in
  // earlier calls, must not change a bit.
  const LithoSimulator sim(OpticalSettings{}, ResistModel{}, kSocsImaging);
  const std::vector<Window> windows =
      make_windows(8, {-900, -700, 990, 700});
  ScratchArena arena;
  for (const std::size_t call_size : {1u, 2u, 3u, 8u}) {
    expect_latent_batch_matches_latent(sim, windows, {0.0, 1.0}, call_size,
                                       arena);
  }
}

TEST(BatchSocs, GenericKernelsBitIdentical) {
  // Aberrations + defocus break parity purity: the generic complex-kernel
  // branch.
  OpticalSettings opt;
  opt.z9_spherical_waves = 0.035;
  opt.z7_coma_x_waves = 0.025;
  const LithoSimulator sim(opt, ResistModel{}, kSocsImaging);
  ScratchArena arena;
  expect_latent_batch_matches_latent(
      sim, make_windows(5, {-900, -700, 990, 700}), {80.0, 1.0}, 5, arena);
}

TEST(BatchSocs, NoBlurBitIdentical) {
  ResistModel resist;
  resist.diffusion_nm = 0.0;
  const LithoSimulator sim(OpticalSettings{}, resist, kSocsImaging);
  ScratchArena arena;
  expect_latent_batch_matches_latent(
      sim, make_windows(4, {-900, -700, 990, 700}), {0.0, 1.0}, 4, arena);
}

TEST(BatchSocs, ArenaSurvivesGeometryChanges) {
  // One arena imaging two different window shapes alternately: slots sized
  // for one geometry must leave nothing behind that reaches the other's
  // images.
  const LithoSimulator sim(OpticalSettings{}, ResistModel{}, kSocsImaging);
  const std::vector<Window> small = make_windows(3, {-500, -400, 500, 400});
  const std::vector<Window> large = make_windows(3, {-900, -700, 990, 700});
  ScratchArena arena;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    for (const std::vector<Window>* set : {&small, &large}) {
      expect_latent_batch_matches_latent(sim, *set, {0.0, 1.0}, set->size(),
                                         arena);
    }
  }
}

TEST(LatentBatch, MixedShapesAndOriginsMatchLatent) {
  // latent_batch takes pre-rasterized masks of any shapes and origins and
  // must return, element by element, exactly what latent() computes from
  // the features — under both imaging engines.
  const std::vector<Window> windows{
      {line_array(90, 250, 5), {-900, -700, 990, 700}},
      {line_array(90, 250, 3, -300), {-500, -400, 500, 400}},
      {line_array(90, 250, 5, 580), {380, -700, 2270, 700}},
      {line_array(110, 300, 4, -2600), {-2800, -300, -1400, 300}},
  };
  for (const ImagingMode mode : {ImagingMode::kAbbe, ImagingMode::kSocs}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const LithoSimulator sim(OpticalSettings{}, ResistModel{},
                             ImagingOptions{mode, SocsOptions{}});
    ScratchArena arena;
    expect_latent_batch_matches_latent(sim, windows, {40.0, 1.03},
                                       windows.size(), arena);
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

TEST(SocsLanes, WarmCallAllocatesOnlyItsResult) {
  // The SOCS engine takes its lane buffers and blur tables from the
  // calling thread's arena too, so once the arena and the kernel/twiddle
  // memos are warm a call allocates exactly the Image2D it returns.
  const std::vector<Image2D> masks =
      make_masks(1, Rect{-900, -700, 990, 700}, 8.0);
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}};
  const Image2D warm =
      aerial_image_blurred(masks[0], opt, 0.0, 22.0, source, imaging);
  std::size_t allocations = 0;
  Image2D again;
  {
    alloc_probe::Scope probe;
    again = aerial_image_blurred(masks[0], opt, 0.0, 22.0, source, imaging);
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
