// Tests for contour extraction and CD measurement on synthetic fields with
// known geometry, plus end-to-end extraction on simulated latent images.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "src/cdx/cd_extract.h"
#include "src/cdx/contour.h"
#include "src/litho/simulator.h"

namespace poc {
namespace {

/// Analytic field: a smooth "valley" of half-width w centred at x = 0:
/// f(x, y) = (x / w)^2.  The 1.0-contour sits exactly at |x| = w.
Image2D valley_field(double w, std::size_t n = 128, double pixel = 4.0) {
  Image2D img(n, n, pixel, -pixel * static_cast<double>(n) / 2.0,
              -pixel * static_cast<double>(n) / 2.0);
  for (std::size_t iy = 0; iy < n; ++iy) {
    for (std::size_t ix = 0; ix < n; ++ix) {
      const double x = img.x_of(ix);
      img.at(ix, iy) = (x / w) * (x / w);
    }
  }
  return img;
}

/// Radial cone: f = r / r0; the 1.0-contour is a circle of radius r0.
Image2D cone_field(double r0, std::size_t n = 128, double pixel = 4.0) {
  Image2D img(n, n, pixel, -pixel * static_cast<double>(n) / 2.0,
              -pixel * static_cast<double>(n) / 2.0);
  for (std::size_t iy = 0; iy < n; ++iy) {
    for (std::size_t ix = 0; ix < n; ++ix) {
      img.at(ix, iy) = std::hypot(img.x_of(ix), img.y_of(iy)) / r0;
    }
  }
  return img;
}

TEST(FirstCrossing, FindsAndRefines) {
  const Image2D img = valley_field(60.0);
  const auto hit = first_crossing(img, 1.0, {0.0, 0.0}, {200.0, 0.0}, 2.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(*hit, 60.0, 0.3);
}

TEST(FirstCrossing, NoCrossingReturnsNull) {
  const Image2D img = valley_field(60.0);
  EXPECT_FALSE(first_crossing(img, 1.0, {0.0, 0.0}, {30.0, 0.0}, 2.0));
  EXPECT_FALSE(first_crossing(img, 1.0, {0.0, 0.0}, {0.0, 0.0}, 2.0));
}

TEST(FirstCrossing, WorksInBothDirections) {
  const Image2D img = valley_field(50.0);
  const auto left = first_crossing(img, 1.0, {0.0, 0.0}, {-200.0, 0.0}, 2.0);
  ASSERT_TRUE(left.has_value());
  EXPECT_NEAR(*left, 50.0, 0.3);
}

TEST(PrintedWidth, MeasuresValleyWidth) {
  const Image2D img = valley_field(45.0);
  const auto w = printed_width(img, 1.0, {0.0, 0.0}, true, 300.0);
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR(*w, 90.0, 0.5);
}

TEST(PrintedWidth, CentreAboveThresholdMeansNotPrinted) {
  const Image2D img = valley_field(45.0);
  EXPECT_FALSE(printed_width(img, 1.0, {100.0, 0.0}, true, 300.0));
}

TEST(PrintedWidth, VerticalDirection) {
  const Image2D img = cone_field(80.0);
  const auto w = printed_width(img, 1.0, {0.0, 0.0}, false, 300.0);
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR(*w, 160.0, 1.0);
}

TEST(TraceContours, CircleIsClosedWithRightLength) {
  const Image2D img = cone_field(100.0);
  const auto paths = trace_contours(img, 1.0);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].closed);
  const double circumference = 2.0 * 3.14159265 * 100.0;
  EXPECT_NEAR(paths[0].length(), circumference, circumference * 0.02);
}

TEST(TraceContours, TwoSeparateFeatures) {
  Image2D img(128, 64, 4.0, -256.0, -128.0);
  for (std::size_t iy = 0; iy < 64; ++iy) {
    for (std::size_t ix = 0; ix < 128; ++ix) {
      const double x = img.x_of(ix);
      const double y = img.y_of(iy);
      const double d1 = std::hypot(x + 120.0, y) / 40.0;
      const double d2 = std::hypot(x - 120.0, y) / 40.0;
      img.at(ix, iy) = std::min(d1, d2);
    }
  }
  const auto paths = trace_contours(img, 1.0);
  EXPECT_EQ(paths.size(), 2u);
  for (const auto& p : paths) EXPECT_TRUE(p.closed);
}

TEST(TraceContours, EmptyWhenNoCrossing) {
  Image2D img(32, 32, 4.0, 0.0, 0.0);
  for (double& v : img.data()) v = 2.0;
  EXPECT_TRUE(trace_contours(img, 1.0).empty());
}

TEST(GateCdProfile, Statistics) {
  GateCdProfile p;
  p.drawn_cd_nm = 90.0;
  p.slice_cd_nm = {88.0, 90.0, 92.0};
  p.slice_width_nm = 200.0;
  EXPECT_TRUE(p.printed());
  EXPECT_DOUBLE_EQ(p.mean_cd(), 90.0);
  EXPECT_DOUBLE_EQ(p.min_cd(), 88.0);
  EXPECT_DOUBLE_EQ(p.max_cd(), 92.0);
  EXPECT_DOUBLE_EQ(p.residual_nm(), 0.0);
  p.slice_cd_nm.push_back(0.0);  // a pinched slice
  EXPECT_FALSE(p.printed());
  EXPECT_DOUBLE_EQ(p.mean_cd(), 90.0);  // unprinted slices excluded
}

TEST(ExtractGateCd, OnAnalyticValley) {
  // Valley of half-width 45 -> printed CD 90 at every slice.
  const Image2D img = valley_field(45.0, 256, 4.0);
  const Rect gate{-45, -200, 45, 200};
  const GateCdProfile prof = extract_gate_cd(img, 1.0, gate, true);
  EXPECT_TRUE(prof.printed());
  EXPECT_EQ(prof.slice_cd_nm.size(), 7u);
  EXPECT_NEAR(prof.mean_cd(), 90.0, 0.5);
  EXPECT_DOUBLE_EQ(prof.drawn_cd_nm, 90.0);
}

TEST(ExtractGateCd, CustomSliceCount) {
  const Image2D img = valley_field(45.0, 256, 4.0);
  CdExtractOptions opts;
  opts.num_slices = 11;
  const GateCdProfile prof =
      extract_gate_cd(img, 1.0, {-45, -200, 45, 200}, true, opts);
  EXPECT_EQ(prof.slice_cd_nm.size(), 11u);
}

TEST(ExtractGateCd, OnSimulatedLatentImage) {
  LithoSimulator sim;
  std::vector<Rect> lines;
  for (int k = -2; k <= 2; ++k) {
    lines.push_back({k * 250, -500, k * 250 + 90, 500});
  }
  const Rect window{-700, -700, 790, 700};
  const Image2D latent = sim.latent(lines, window, {}, LithoQuality::kStandard);
  const Rect gate{0, -300, 90, 300};  // centre line
  const GateCdProfile prof =
      extract_gate_cd(latent, sim.print_threshold(), gate, true);
  EXPECT_TRUE(prof.printed());
  // Uncorrected 90 nm line: prints, CD within a plausible band.
  EXPECT_GT(prof.mean_cd(), 40.0);
  EXPECT_LT(prof.mean_cd(), 120.0);
  // Mid-line slices vary little.
  EXPECT_LT(prof.max_cd() - prof.min_cd(), 6.0);
}

TEST(ExtractWireCd, StraightWire) {
  const Image2D img = valley_field(60.0, 256, 4.0);
  const Rect wire{-60, -300, 60, 300};
  const auto cd = extract_wire_cd(img, 1.0, wire, true);
  ASSERT_TRUE(cd.has_value());
  EXPECT_NEAR(*cd, 120.0, 1.0);
}

TEST(ExtractWireCd, MissingWireReturnsNull) {
  Image2D img(64, 64, 4.0, -128.0, -128.0);
  for (double& v : img.data()) v = 2.0;  // nothing prints
  EXPECT_FALSE(extract_wire_cd(img, 1.0, {-20, -100, 20, 100}, true));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A latent image as the window cache stores it: local frame, origin at a
/// negative half-integer (the window corner minus the grid's centring
/// offset), holding a noisy vertical valley so cut-lines find crossings.
Image2D random_local_latent(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> size(24, 80);
  std::uniform_int_distribution<int> half(0, 12);
  std::uniform_int_distribution<int> width_px(2, 5);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  const std::size_t nx = size(rng);
  const std::size_t ny = size(rng);
  const double pixel = rng() % 2 == 0 ? 8.0 : 10.0;
  const double ox = -(half(rng) + 0.5);
  const double oy = -(half(rng) + 0.5);
  Image2D img(nx, ny, pixel, ox, oy);
  const double centre = img.x_of(nx / 2);
  const double w = pixel * width_px(rng);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double u = (img.x_of(ix) - centre) / w;
      img.at(ix, iy) = u * u + noise(rng);
    }
  }
  return img;
}

/// A layout coordinate in [floor(lo), hi + 1) whose fraction carries all
/// 53 random bits (uniform_real_distribution would leave the low bits of
/// a coordinate near 0 zero, at the resolution of lo).
double coordinate(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_int_distribution<std::int64_t> whole(
      static_cast<std::int64_t>(std::floor(lo)),
      static_cast<std::int64_t>(std::floor(hi)));
  return static_cast<double>(whole(rng)) +
         std::ldexp(static_cast<double>(rng() >> 11), -53);
}

TEST(ImageView, RebasedViewMatchesRebasedCopyBitForBit) {
  // A window-cache hit is read in place through ImageView(entry, o + a)
  // instead of being copied into an Image2D whose origin is o + a.  Both
  // must give the same bits for every sample, crossing and gate CD, at
  // integer anchors of either sign, small and near 1e6 nm.  A view that
  // rounded twice, (x - a) - o, would part from x - (o + a) only for
  // points with more fraction bits than x - a keeps, in windows near the
  // layout origin, where x - a and x - (o + a) straddle a power of two;
  // hence full-precision coordinates and the small anchors.
  std::mt19937_64 rng(0x1a7e17);
  const std::int64_t anchors[] = {0,    3,     -7,     -64,      -200,
                                  -600, -4096, 999999, -1000000, 1048573};
  constexpr double kThreshold = 0.5;
  std::size_t printed = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const Image2D entry = random_local_latent(rng);
    const double pixel = entry.pixel();
    const double span_x = pixel * static_cast<double>(entry.nx() - 1);
    const double span_y = pixel * static_cast<double>(entry.ny() - 1);
    for (const std::int64_t ax : anchors) {
      const std::int64_t ay = trial - ax / 3;
      const double ox = entry.origin_x() + static_cast<double>(ax);
      const double oy = entry.origin_y() + static_cast<double>(ay);
      const ImageView view(entry, ox, oy);
      Image2D copy(entry.nx(), entry.ny(), pixel, ox, oy);
      copy.data() = entry.data();

      // Points up to a pixel outside the grid exercise the edge clamp.
      const auto ux = [&] { return coordinate(rng, ox - pixel, ox + span_x); };
      const auto uy = [&] { return coordinate(rng, oy - pixel, oy + span_y); };
      for (int i = 0; i < 256; ++i) {
        const double x = ux();
        const double y = uy();
        ASSERT_TRUE(same_bits(view.sample(x, y), copy.sample(x, y)))
            << "sample at (" << x << ", " << y << "), anchor " << ax;
      }
      for (int i = 0; i < 16; ++i) {
        const ContourPoint p0{ux(), uy()};
        const ContourPoint p1{ux(), uy()};
        const auto a = first_crossing(view, kThreshold, p0, p1, pixel / 2.0);
        const auto b = first_crossing(copy, kThreshold, p0, p1, pixel / 2.0);
        ASSERT_EQ(a.has_value(), b.has_value()) << "anchor " << ax;
        if (a) {
          ASSERT_TRUE(same_bits(*a, *b)) << "crossing, anchor " << ax;
        }
      }

      // The gate straddles the valley: integer layout coordinates, as the
      // flow's gate regions are.
      const double centre = copy.x_of(entry.nx() / 2);
      const Rect gate{static_cast<DbUnit>(std::lround(centre - 2.0 * pixel)),
                      static_cast<DbUnit>(std::lround(oy + 4.0 * pixel)),
                      static_cast<DbUnit>(std::lround(centre + 2.0 * pixel)),
                      static_cast<DbUnit>(
                          std::lround(oy + span_y - 4.0 * pixel))};
      for (const bool vertical : {true, false}) {
        const GateCdProfile pv =
            extract_gate_cd(view, kThreshold, gate, vertical);
        const GateCdProfile pc =
            extract_gate_cd(copy, kThreshold, gate, vertical);
        ASSERT_EQ(pv.slice_cd_nm.size(), pc.slice_cd_nm.size());
        ASSERT_EQ(std::memcmp(pv.slice_cd_nm.data(), pc.slice_cd_nm.data(),
                              pv.slice_cd_nm.size() * sizeof(double)),
                  0)
            << "gate CDs, anchor " << ax << (vertical ? " vertical" : "");
        ASSERT_TRUE(same_bits(pv.drawn_cd_nm, pc.drawn_cd_nm));
        ASSERT_TRUE(same_bits(pv.slice_width_nm, pc.slice_width_nm));
        if (pv.printed()) ++printed;
      }
    }
  }
  // The oracle compares measured CDs, not only failed-to-print zeros.
  EXPECT_GT(printed, 0u);
}

}  // namespace
}  // namespace poc
