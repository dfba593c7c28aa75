// Tests for the lithography simulator: mask rasterization exactness,
// imaging normalization/symmetry, partial-coherence behaviours the flow
// depends on (iso-dense bias, defocus contrast loss, dose sensitivity) and
// the resist model.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>

#include <gtest/gtest.h>

#include "src/cdx/contour.h"
#include "src/common/check.h"
#include "src/common/fft.h"
#include "src/common/rng.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"
#include "src/litho/optics.h"
#include "src/litho/pupil_cache.h"
#include "src/litho/resist.h"
#include "src/litho/simulator.h"
#include "src/litho/tcc.h"

namespace poc {
namespace {

double measure_cd(const Image2D& latent, double threshold, double x_center,
                  double y = 0.0) {
  const auto w = printed_width(latent, threshold, {x_center, y}, true, 400.0);
  return w.value_or(0.0);
}

std::vector<Rect> line_array(DbUnit width, DbUnit pitch, int count,
                             DbUnit half_len = 500) {
  std::vector<Rect> rects;
  for (int k = -(count / 2); k <= count / 2; ++k) {
    const DbUnit x = k * pitch;
    rects.push_back({x, -half_len, x + width, half_len});
  }
  return rects;
}

TEST(Mask, CoverageConservesArea) {
  const Rect window{0, 0, 400, 400};
  const std::vector<Rect> features{{100, 100, 190, 300}};
  const Image2D m = rasterize_mask(features, window, 8.0);
  double blocked = 0.0;
  for (double v : m.data()) blocked += (1.0 - v);
  blocked *= m.pixel() * m.pixel();
  EXPECT_NEAR(blocked, 90.0 * 200.0, 1.0);  // sub-pixel exact coverage
}

TEST(Mask, GridIsPow2AndCoversWindow) {
  const Image2D m = rasterize_mask({}, {0, 0, 1000, 3000}, 10.0);
  EXPECT_TRUE(is_pow2(m.nx()));
  EXPECT_TRUE(is_pow2(m.ny()));
  EXPECT_LE(m.origin_x(), 0.0);
  EXPECT_LE(m.origin_y(), 0.0);
  EXPECT_GE(m.origin_x() + m.pixel() * (m.nx() - 1), 1000.0);
  EXPECT_GE(m.origin_y() + m.pixel() * (m.ny() - 1), 3000.0);
}

TEST(Mask, TransmissionBounds) {
  const Image2D m =
      rasterize_mask(line_array(90, 250, 5), {-600, -600, 600, 600}, 8.0);
  EXPECT_GE(m.min_value(), 0.0);
  EXPECT_LE(m.max_value(), 1.0);
  // Centre of a chrome line fully blocked.
  EXPECT_NEAR(m.sample(45.0, 0.0), 0.0, 1e-9);
}

TEST(Image, BilinearSampling) {
  Image2D img(4, 4, 10.0, 0.0, 0.0);
  img.at(1, 1) = 1.0;
  EXPECT_DOUBLE_EQ(img.sample(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(img.sample(15.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(img.sample(15.0, 15.0), 0.25);
  EXPECT_TRUE(img.in_bounds(0.0, 0.0));
  EXPECT_FALSE(img.in_bounds(31.0, 0.0));
}

TEST(Image, CrossSection) {
  Image2D img(8, 8, 5.0, 0.0, 0.0);
  for (std::size_t i = 0; i < 8; ++i) img.at(i, 2) = static_cast<double>(i);
  const auto xs = img.cross_section_x(10.0, 0.0, 35.0, 8);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 7.0);
}

TEST(Source, CoherentPointWhenSigmaZero) {
  OpticalSettings opt;
  opt.sigma_inner = 0.0;
  opt.sigma_outer = 0.0;
  const auto pts = sample_source(opt);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].weight, 1.0);
}

TEST(Source, AnnularWeightsNormalized) {
  OpticalSettings opt;
  const auto pts = sample_source(opt);
  EXPECT_EQ(pts.size(), opt.source_rings * opt.source_spokes);
  double total = 0.0;
  for (const auto& p : pts) {
    total += p.weight;
    const double r = std::hypot(p.sx, p.sy);
    EXPECT_GE(r, opt.sigma_inner - 1e-9);
    EXPECT_LE(r, opt.sigma_outer + 1e-9);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Pupil, CutoffAndDefocusPhase) {
  OpticalSettings opt;
  const double fc = opt.cutoff_freq();
  EXPECT_EQ(pupil_value(opt, fc * 1.01, 0.0, 0.0), Cplx(0.0, 0.0));
  EXPECT_EQ(pupil_value(opt, 0.0, 0.0, 0.0), Cplx(1.0, 0.0));
  // In focus, everything inside the pupil passes unchanged.
  EXPECT_EQ(pupil_value(opt, fc * 0.5, 0.0, 0.0), Cplx(1.0, 0.0));
  // Defocus: unit magnitude, nonzero phase off-axis, zero phase at DC.
  const Cplx p = pupil_value(opt, fc * 0.8, 0.0, 150.0);
  EXPECT_NEAR(std::abs(p), 1.0, 1e-12);
  EXPECT_GT(std::abs(std::arg(p)), 0.01);
  EXPECT_NEAR(std::arg(pupil_value(opt, 0.0, 0.0, 150.0)), 0.0, 1e-12);
}

TEST(Pupil, AberrationsUnitMagnitudeAndZeroAtCalibratedPoints) {
  OpticalSettings opt;
  opt.z9_spherical_waves = 0.05;
  const double fc = opt.cutoff_freq();
  // Pure phase: magnitude 1 inside the pupil.
  for (double frac : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(std::abs(pupil_value(opt, fc * frac, 0.0, 0.0)), 1.0, 1e-12);
  }
  // Z9 = 6r^4-6r^2+1 vanishes at rho = sqrt((3±sqrt(3))/6).
  const double rho_zero = std::sqrt((3.0 - std::sqrt(3.0)) / 6.0);
  const Cplx at_zero = pupil_value(opt, fc * rho_zero, 0.0, 0.0);
  EXPECT_NEAR(std::arg(at_zero), 0.0, 1e-9);
  // At pupil centre Z9 = +1: phase = 2 pi * 0.05.
  EXPECT_NEAR(std::arg(pupil_value(opt, 0.0, 0.0, 0.0)),
              2.0 * 3.14159265358979 * 0.05, 1e-6);
}

TEST(Pupil, ComaIsOddInFx) {
  OpticalSettings opt;
  opt.z7_coma_x_waves = 0.03;
  const double fc = opt.cutoff_freq();
  const Cplx plus = pupil_value(opt, fc * 0.7, 0.0, 0.0);
  const Cplx minus = pupil_value(opt, -fc * 0.7, 0.0, 0.0);
  EXPECT_NEAR(std::arg(plus), -std::arg(minus), 1e-12);
  // And even in fy (cos(theta) term only).
  EXPECT_NEAR(std::arg(pupil_value(opt, 0.0, fc * 0.7, 0.0)), 0.0, 1e-12);
}

TEST(Imaging, SphericalAberrationBreaksFocusSymmetry) {
  // Z9 couples to defocus: +/-100 nm images differ with aberration, match
  // without.
  std::vector<Rect> lines;
  for (int k = -2; k <= 2; ++k) lines.push_back({k * 250, -400, k * 250 + 90, 400});
  const Rect window{-650, -550, 740, 550};
  const Image2D mask = rasterize_mask(lines, window, 8.0);
  OpticalSettings clean;
  OpticalSettings aber = clean;
  aber.z9_spherical_waves = 0.05;
  const auto centre_dip = [&](const OpticalSettings& o, double z) {
    return aerial_image(mask, o, z).sample(45.0, 0.0);
  };
  EXPECT_NEAR(centre_dip(clean, 100.0), centre_dip(clean, -100.0), 1e-9);
  EXPECT_GT(std::abs(centre_dip(aber, 100.0) - centre_dip(aber, -100.0)),
            0.003);
}

TEST(Imaging, ComaShiftsPatternPlacement) {
  // An isolated line images off-centre under x-coma.
  const std::vector<Rect> line{{0, -400, 90, 400}};
  const Rect window{-650, -550, 740, 550};
  const Image2D mask = rasterize_mask(line, window, 8.0);
  OpticalSettings aber;
  aber.z7_coma_x_waves = 0.05;
  const Image2D img = aerial_image(mask, aber, 0.0);
  // Find the printed line centre via the two threshold crossings.
  const auto left = first_crossing(img, 0.4, {45.0, 0.0}, {-200.0, 0.0}, 2.0);
  const auto right = first_crossing(img, 0.4, {45.0, 0.0}, {300.0, 0.0}, 2.0);
  ASSERT_TRUE(left && right);
  const double centre = 45.0 + (*right - *left) / 2.0;
  EXPECT_GT(std::abs(centre - 45.0), 0.5);  // placement error, nm
}

TEST(Imaging, OpenFrameIntensityIsOne) {
  const Image2D mask = rasterize_mask({}, {0, 0, 500, 500}, 10.0);
  const Image2D aerial = aerial_image(mask, OpticalSettings{}, 0.0);
  EXPECT_NEAR(aerial.min_value(), 1.0, 1e-6);
  EXPECT_NEAR(aerial.max_value(), 1.0, 1e-6);
}

TEST(Imaging, DarkUnderWideChrome) {
  // A very wide feature: centre is fully dark.
  const Image2D mask =
      rasterize_mask({{-400, -400, 400, 400}}, {-600, -600, 600, 600}, 10.0);
  const Image2D aerial = aerial_image(mask, OpticalSettings{}, 0.0);
  EXPECT_LT(aerial.sample(0.0, 0.0), 0.02);
}

TEST(Imaging, SymmetricMaskGivesSymmetricImage) {
  const std::vector<Rect> lines = line_array(90, 250, 3);
  const Rect window{-500, -500, 590, 500};
  const Image2D mask = rasterize_mask(lines, window, 8.0);
  const Image2D aerial = aerial_image(mask, OpticalSettings{}, 0.0);
  // The line array is symmetric about x = 45.
  for (double dx : {50.0, 100.0, 180.0}) {
    EXPECT_NEAR(aerial.sample(45.0 - dx, 0.0), aerial.sample(45.0 + dx, 0.0),
                0.01)
        << dx;
  }
}

/// Textbook Abbe reference: per source point, filter the full-grid mask
/// spectrum by the shifted pupil and inverse-transform at full resolution.
/// The production path (spectral cropping + Fourier upsampling) must agree
/// to numerical precision.
Image2D reference_abbe(const Image2D& mask, const OpticalSettings& opt,
                       double defocus_nm) {
  const std::size_t nx = mask.nx();
  const std::size_t ny = mask.ny();
  std::vector<Cplx> spectrum(nx * ny);
  for (std::size_t i = 0; i < nx * ny; ++i) spectrum[i] = mask.data()[i];
  fft_2d(spectrum, nx, ny, false);
  const double dfx = 1.0 / (static_cast<double>(nx) * mask.pixel());
  const double dfy = 1.0 / (static_cast<double>(ny) * mask.pixel());
  const double tilt = opt.na / opt.wavelength_nm;
  Image2D out(nx, ny, mask.pixel(), mask.origin_x(), mask.origin_y());
  std::vector<Cplx> field(nx * ny);
  for (const SourcePoint& sp : sample_source(opt)) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double fy = static_cast<double>(fft_freq_index(iy, ny)) * dfy;
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const double fx = static_cast<double>(fft_freq_index(ix, nx)) * dfx;
        field[iy * nx + ix] =
            spectrum[iy * nx + ix] *
            pupil_value(opt, fx + sp.sx * tilt, fy + sp.sy * tilt, defocus_nm);
      }
    }
    fft_2d(field, nx, ny, true);
    for (std::size_t i = 0; i < nx * ny; ++i) {
      out.data()[i] += sp.weight * std::norm(field[i]);
    }
  }
  return out;
}

TEST(Imaging, OptimizedPathMatchesTextbookReference) {
  std::vector<Rect> features{{-200, -300, -110, 300},
                             {40, -300, 130, 300},
                             {-50, -80, 40, 60}};
  const Image2D mask = rasterize_mask(features, {-500, -450, 520, 480}, 8.0);
  OpticalSettings opt;
  opt.source_rings = 2;
  opt.source_spokes = 6;
  for (double defocus : {0.0, 120.0}) {
    const Image2D fast = aerial_image(mask, opt, defocus);
    const Image2D ref = reference_abbe(mask, opt, defocus);
    double worst = 0.0;
    for (std::size_t i = 0; i < fast.data().size(); ++i) {
      worst = std::max(worst, std::abs(fast.data()[i] - ref.data()[i]));
    }
    EXPECT_LT(worst, 1e-9) << "defocus " << defocus;
  }
}

TEST(Imaging, BlurredVariantMatchesSeparateBlur) {
  const std::vector<Rect> lines = line_array(90, 300, 3);
  const Rect window{-500, -500, 590, 500};
  const Image2D mask = rasterize_mask(lines, window, 8.0);
  OpticalSettings opt;
  Image2D a = aerial_image(mask, opt, 50.0);
  gaussian_blur(a, 25.0);
  const Image2D b = aerial_image_blurred(mask, opt, 50.0, 25.0);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  EXPECT_LT(worst, 1e-6);
}

/// Spectral layout both frozen engines below derive from the mask grid:
/// the coherent band |kx| <= kx_max, |ky| <= ky_max and the coarse grid it
/// is synthesized on.
struct FrozenLayout {
  std::size_t nx = 0, ny = 0, ncx = 0, ncy = 0;
  SpectralGrid grid;
  double crop_scale = 0.0;
  double up_scale = 0.0;
};

FrozenLayout frozen_layout(const Image2D& mask, const OpticalSettings& opt) {
  FrozenLayout f;
  f.nx = mask.nx();
  f.ny = mask.ny();
  const double dfx = 1.0 / (static_cast<double>(f.nx) * mask.pixel());
  const double dfy = 1.0 / (static_cast<double>(f.ny) * mask.pixel());
  const double reach = opt.cutoff_freq() * (1.0 + opt.sigma_outer) * 1.001;
  const long long kx_max = std::min<long long>(
      static_cast<long long>(f.nx) / 2 - 1,
      static_cast<long long>(reach / dfx) + 1);
  const long long ky_max = std::min<long long>(
      static_cast<long long>(f.ny) / 2 - 1,
      static_cast<long long>(reach / dfy) + 1);
  f.ncx = std::min(f.nx, next_pow2(static_cast<std::size_t>(4 * kx_max + 2)));
  f.ncy = std::min(f.ny, next_pow2(static_cast<std::size_t>(4 * ky_max + 2)));
  f.grid = SpectralGrid{dfx, dfy, kx_max, ky_max};
  f.crop_scale = static_cast<double>(f.ncx) * static_cast<double>(f.ncy) /
                 (static_cast<double>(f.nx) * static_cast<double>(f.ny));
  f.up_scale = static_cast<double>(f.nx) * static_cast<double>(f.ny) /
               (static_cast<double>(f.ncx) * static_cast<double>(f.ncy));
  return f;
}

/// Row-major storage index of signed frequency (kx, ky) on a w x h grid.
std::size_t frozen_at(long long kx, long long ky, std::size_t w,
                      std::size_t h) {
  const std::size_t ix = kx >= 0 ? static_cast<std::size_t>(kx)
                                 : w - static_cast<std::size_t>(-kx);
  const std::size_t iy = ky >= 0 ? static_cast<std::size_t>(ky)
                                 : h - static_cast<std::size_t>(-ky);
  return iy * w + ix;
}

/// Frozen copy of the scalar Abbe engine the lane-parallel one replaced,
/// built only from public fft_2d and pupil_tables: full-grid forward
/// transform, per source point a zero-filled coarse field + full inverse +
/// std::norm accumulate, then a full-grid upsample inverse with the fused
/// blur exponent.  aerial_image_blurred (kAbbe) must match it bit for bit.
Image2D frozen_scalar_abbe(const Image2D& mask, const OpticalSettings& opt,
                           double defocus_nm, double blur_sigma_nm,
                           const std::vector<SourcePoint>& source) {
  const FrozenLayout f = frozen_layout(mask, opt);
  const std::size_t nx = f.nx, ny = f.ny, ncx = f.ncx, ncy = f.ncy;
  const long long kx_max = f.grid.kx_max;
  const long long ky_max = f.grid.ky_max;

  std::vector<Cplx> spectrum(nx * ny);
  for (std::size_t i = 0; i < nx * ny; ++i) spectrum[i] = mask.data()[i];
  fft_2d(spectrum, nx, ny, /*inverse=*/false);

  std::vector<double> intensity(ncx * ncy, 0.0);
  std::vector<Cplx> field(ncx * ncy);
  const auto pupils = pupil_tables(opt, source, defocus_nm, f.grid);
  for (std::size_t s = 0; s < source.size(); ++s) {
    std::fill(field.begin(), field.end(), Cplx(0.0, 0.0));
    std::size_t idx = 0;
    for (long long ky = -ky_max; ky <= ky_max; ++ky) {
      for (long long kx = -kx_max; kx <= kx_max; ++kx) {
        const Cplx p = pupils->tables[s][idx++];
        if (p == Cplx(0.0, 0.0)) continue;
        field[frozen_at(kx, ky, ncx, ncy)] =
            spectrum[frozen_at(kx, ky, nx, ny)] * p * f.crop_scale;
      }
    }
    fft_2d(field, ncx, ncy, /*inverse=*/true);
    for (std::size_t i = 0; i < ncx * ncy; ++i) {
      intensity[i] += source[s].weight * std::norm(field[i]);
    }
  }

  std::vector<Cplx> coarse(ncx * ncy);
  for (std::size_t i = 0; i < ncx * ncy; ++i) coarse[i] = intensity[i];
  fft_2d(coarse, ncx, ncy, /*inverse=*/false);
  const double two_pi2_s2 = 2.0 * std::numbers::pi * std::numbers::pi *
                            blur_sigma_nm * blur_sigma_nm;
  const long long cx = static_cast<long long>(ncx) / 2 - 1;
  const long long cy = static_cast<long long>(ncy) / 2 - 1;
  std::vector<Cplx> full(nx * ny, Cplx(0.0, 0.0));
  for (long long ky = -cy; ky <= cy; ++ky) {
    const double fy = static_cast<double>(ky) * f.grid.dfy;
    for (long long kx = -cx; kx <= cx; ++kx) {
      const double fx = static_cast<double>(kx) * f.grid.dfx;
      const double blur =
          blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * (fx * fx + fy * fy))
                              : 1.0;
      full[frozen_at(kx, ky, nx, ny)] =
          coarse[frozen_at(kx, ky, ncx, ncy)] * (f.up_scale * blur);
    }
  }
  fft_2d(full, nx, ny, /*inverse=*/true);
  Image2D out(nx, ny, mask.pixel(), mask.origin_x(), mask.origin_y());
  for (std::size_t i = 0; i < nx * ny; ++i) out.data()[i] = full[i].real();
  return out;
}

/// Frozen copy of the scalar SOCS engine the lane-parallel one replaced,
/// built only from the public scalar band transforms and socs_kernels:
/// packed real-input band transform of the mask, one band-column-first
/// inverse per coherent system (two parity-packed kernels per transform at
/// nominal, else one generic kernel with a zero-skipping scatter), a full
/// forward transform of the coarse intensity, and a packed real-output band
/// inverse with separable blur factors.  aerial_image_blurred (kSocs) must
/// match it bit for bit.
Image2D frozen_scalar_socs(const Image2D& mask, const OpticalSettings& opt,
                           double defocus_nm, double blur_sigma_nm,
                           const std::vector<SourcePoint>& source,
                           const SocsOptions& socs) {
  const FrozenLayout f = frozen_layout(mask, opt);
  const std::size_t nx = f.nx, ny = f.ny, ncx = f.ncx, ncy = f.ncy;
  const SpectralGrid& grid = f.grid;
  const std::size_t kx_max = static_cast<std::size_t>(grid.kx_max);

  const std::vector<Cplx> spectrum =
      rfft_2d_band(mask.data(), nx, ny, kx_max);
  std::vector<double> intensity(ncx * ncy, 0.0);
  std::vector<Cplx> field(ncx * ncy);
  const auto kernels = socs_kernels(opt, source, defocus_nm, grid, socs);
  const std::size_t nk = kernels->kernels.size();
  if (kernels->parity_packable()) {
    for (std::size_t k = 0; k < nk; k += 2) {
      const bool pair = k + 1 < nk;
      std::fill(field.begin(), field.end(), Cplx(0.0, 0.0));
      const std::vector<Cplx>& phi1 = kernels->kernels[k];
      const std::vector<Cplx>* phi2 = pair ? &kernels->kernels[k + 1] : nullptr;
      const bool odd1 = kernels->parity[k] == 2;
      const bool odd2 = pair && kernels->parity[k + 1] == 2;
      std::size_t idx = 0;
      for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
        for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx, ++idx) {
          const Cplx m = spectrum[frozen_at(kx, ky, nx, ny)] * f.crop_scale;
          Cplx h1 = m * phi1[idx].real();
          if (odd1) h1 = Cplx(h1.imag(), -h1.real());
          Cplx h2(0.0, 0.0);
          if (pair) {
            h2 = m * (*phi2)[idx].real();
            if (odd2) h2 = Cplx(h2.imag(), -h2.real());
          }
          field[frozen_at(kx, ky, ncx, ncy)] =
              Cplx(h1.real() - h2.imag(), h1.imag() + h2.real());
        }
      }
      fft_2d_band_inverse(field, ncx, ncy, kx_max);
      const double w1 = kernels->weights[k];
      if (pair) {
        const double w2 = kernels->weights[k + 1];
        for (std::size_t i = 0; i < ncx * ncy; ++i) {
          const double re = field[i].real();
          const double im = field[i].imag();
          intensity[i] += w1 * re * re + w2 * im * im;
        }
      } else {
        for (std::size_t i = 0; i < ncx * ncy; ++i) {
          const double re = field[i].real();
          intensity[i] += w1 * re * re;
        }
      }
    }
  } else {
    for (std::size_t k = 0; k < nk; ++k) {
      std::fill(field.begin(), field.end(), Cplx(0.0, 0.0));
      std::size_t idx = 0;
      for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
        for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx) {
          const Cplx p = kernels->kernels[k][idx++];
          if (p == Cplx(0.0, 0.0)) continue;
          field[frozen_at(kx, ky, ncx, ncy)] =
              spectrum[frozen_at(kx, ky, nx, ny)] * p * f.crop_scale;
        }
      }
      fft_2d_band_inverse(field, ncx, ncy, kx_max);
      for (std::size_t i = 0; i < ncx * ncy; ++i) {
        intensity[i] += kernels->weights[k] * std::norm(field[i]);
      }
    }
  }

  std::vector<Cplx> coarse(ncx * ncy);
  for (std::size_t i = 0; i < ncx * ncy; ++i) coarse[i] = intensity[i];
  fft_2d(coarse, ncx, ncy, /*inverse=*/false);
  const double two_pi2_s2 = 2.0 * std::numbers::pi * std::numbers::pi *
                            blur_sigma_nm * blur_sigma_nm;
  const long long cx = static_cast<long long>(ncx) / 2 - 1;
  const long long cy = static_cast<long long>(ncy) / 2 - 1;
  std::vector<double> bx(static_cast<std::size_t>(2 * cx + 1));
  std::vector<double> by(static_cast<std::size_t>(2 * cy + 1));
  for (long long kx = -cx; kx <= cx; ++kx) {
    const double fx = static_cast<double>(kx) * grid.dfx;
    bx[static_cast<std::size_t>(kx + cx)] =
        blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fx * fx) : 1.0;
  }
  for (long long ky = -cy; ky <= cy; ++ky) {
    const double fy = static_cast<double>(ky) * grid.dfy;
    by[static_cast<std::size_t>(ky + cy)] =
        blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fy * fy) : 1.0;
  }
  std::vector<Cplx> full(nx * ny, Cplx(0.0, 0.0));
  for (long long ky = -cy; ky <= cy; ++ky) {
    const double wy = f.up_scale * by[static_cast<std::size_t>(ky + cy)];
    for (long long kx = -cx; kx <= cx; ++kx) {
      full[frozen_at(kx, ky, nx, ny)] =
          coarse[frozen_at(kx, ky, ncx, ncy)] *
          (wy * bx[static_cast<std::size_t>(kx + cx)]);
    }
  }
  const std::vector<double> real_img =
      irfft_2d_band(full, nx, ny, static_cast<std::size_t>(cx));
  Image2D out(nx, ny, mask.pixel(), mask.origin_x(), mask.origin_y());
  out.data() = real_img;
  return out;
}

/// Random transmission in [0, 1] with runs of exact 0 and 1, like a
/// rasterized mask's chrome and clear areas.
Image2D random_mask(std::size_t nx, std::size_t ny, double pixel,
                    std::uint64_t seed) {
  Image2D m(nx, ny, pixel, -100.0, 50.0);
  Rng rng(seed);
  for (double& v : m.data()) v = std::clamp(rng.uniform(-0.5, 1.5), 0.0, 1.0);
  return m;
}

TEST(Imaging, AbbeMatchesFrozenScalarEngineBitForBit) {
  struct Shape {
    std::size_t nx, ny;
    double pixel;
  };
  // nx > ny, nx < ny, and a 20 nm grid small enough that the coarse grid
  // is the whole grid (ncx == nx, ncy == ny).
  const Shape shapes[] = {{128, 64, 8.0}, {64, 128, 8.0}, {32, 32, 20.0}};
  // 1 (coherent point), 6 (draft), 16 (standard) and 36 (fine) source
  // points: full and partial four-source tiles.
  struct Src {
    std::size_t rings, spokes;
    bool coherent;
  };
  const Src sources[] = {{1, 1, true}, {1, 6, false}, {2, 8, false},
                         {3, 12, false}};
  std::uint64_t seed = 1;
  for (const Shape& sh : shapes) {
    const Image2D mask = random_mask(sh.nx, sh.ny, sh.pixel, seed++);
    for (const Src& src : sources) {
      for (const bool aberrated : {false, true}) {
        OpticalSettings opt;
        opt.source_rings = src.rings;
        opt.source_spokes = src.spokes;
        if (src.coherent) opt.sigma_inner = opt.sigma_outer = 0.0;
        if (aberrated) {
          opt.z9_spherical_waves = 0.04;
          opt.z7_coma_x_waves = 0.03;
        }
        const std::vector<SourcePoint> source = sample_source(opt);
        for (const double defocus : {0.0, 120.0}) {
          for (const double blur : {0.0, 25.0}) {
            const Image2D want =
                frozen_scalar_abbe(mask, opt, defocus, blur, source);
            const Image2D got = aerial_image_blurred(
                mask, opt, defocus, blur, source, ImagingOptions{});
            ASSERT_EQ(got.nx(), want.nx());
            ASSERT_EQ(got.ny(), want.ny());
            EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                  want.data().size() * sizeof(double)),
                      0)
                << sh.nx << "x" << sh.ny << " sources=" << source.size()
                << " aberrated=" << aberrated << " defocus=" << defocus
                << " blur=" << blur;
          }
        }
      }
    }
  }
}

TEST(Imaging, SocsMatchesFrozenScalarEngineBitForBit) {
  struct Shape {
    std::size_t nx, ny;
    double pixel;
  };
  // nx > ny, nx < ny, a 20 nm grid whose coarse grid is the whole grid
  // (ncx == nx), and 16 x 4 grids with fewer than four row pairs: at 20 nm
  // the band holds only ky = 0 (the image is constant along y), at 40 nm it
  // reaches |ky| = 1.
  const Shape shapes[] = {{128, 64, 8.0},
                          {64, 128, 8.0},
                          {32, 32, 20.0},
                          {16, 4, 20.0},
                          {16, 4, 40.0}};
  // 6 (draft), 16 (standard) and 36 (fine) source points.
  struct Src {
    std::size_t rings, spokes;
  };
  const Src sources[] = {{1, 6}, {2, 8}, {3, 12}};
  // Nominal optics take the parity-packed branch; defocus and aberrations
  // the generic one.
  enum class Optics { kNominal, kDefocus, kAberrated };
  SocsOptions five;
  five.max_kernels = 5;  // an odd budget leaves the last kernel unpaired
  const SocsOptions budgets[] = {SocsOptions{}, five};
  std::uint64_t seed = 100;
  for (const Shape& sh : shapes) {
    const Image2D mask = random_mask(sh.nx, sh.ny, sh.pixel, seed++);
    for (const Src& src : sources) {
      for (const Optics optics :
           {Optics::kNominal, Optics::kDefocus, Optics::kAberrated}) {
        OpticalSettings opt;
        opt.source_rings = src.rings;
        opt.source_spokes = src.spokes;
        if (optics == Optics::kAberrated) {
          opt.z9_spherical_waves = 0.04;
          opt.z7_coma_x_waves = 0.03;
        }
        const double defocus = optics == Optics::kDefocus ? 120.0 : 0.0;
        const std::vector<SourcePoint> source = sample_source(opt);
        for (const SocsOptions& socs : budgets) {
          const ImagingOptions imaging{ImagingMode::kSocs, socs};
          for (const double blur : {0.0, 25.0}) {
            const Image2D want =
                frozen_scalar_socs(mask, opt, defocus, blur, source, socs);
            const Image2D got = aerial_image_blurred(mask, opt, defocus, blur,
                                                     source, imaging);
            ASSERT_EQ(got.nx(), want.nx());
            ASSERT_EQ(got.ny(), want.ny());
            EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                  want.data().size() * sizeof(double)),
                      0)
                << sh.nx << "x" << sh.ny << " sources=" << source.size()
                << " optics=" << static_cast<int>(optics)
                << " max_kernels=" << socs.max_kernels << " blur=" << blur;
          }
        }
      }
    }
  }
}

TEST(Resist, BlurPreservesMeanReducesPeak) {
  Image2D img(64, 64, 8.0, 0.0, 0.0);
  img.at(32, 32) = 1.0;
  const double mean_before = 1.0 / (64.0 * 64.0);
  gaussian_blur(img, 30.0);
  double sum = 0.0;
  for (double v : img.data()) sum += v;
  EXPECT_NEAR(sum / (64.0 * 64.0), mean_before, 1e-12);
  EXPECT_LT(img.at(32, 32), 0.1);
  EXPECT_GT(img.at(32, 32), img.at(32, 40));  // still peaked at centre
}

TEST(Resist, ZeroSigmaIsNoop) {
  Image2D img(16, 16, 8.0, 0.0, 0.0);
  img.at(3, 3) = 2.0;
  gaussian_blur(img, 0.0);
  EXPECT_DOUBLE_EQ(img.at(3, 3), 2.0);
}

TEST(Resist, LatentScalesWithDose) {
  Image2D img(16, 16, 8.0, 0.0, 0.0);
  for (double& v : img.data()) v = 0.5;
  const ResistModel resist;
  const Image2D latent = resist.latent_image(img, 1.1);
  EXPECT_NEAR(latent.at(8, 8), 0.55, 1e-9);
}

// ---------- behavioural anchors the flow relies on ----------

class LithoBehaviour : public ::testing::Test {
 protected:
  LithoSimulator sim_;
  const Rect window_{-700, -600, 790, 600};
  double th() const { return sim_.print_threshold(); }
};

TEST_F(LithoBehaviour, IsoDenseBiasExists) {
  const Image2D dense =
      sim_.latent(line_array(90, 250, 7), window_, {}, LithoQuality::kStandard);
  const Image2D iso =
      sim_.latent({{0, -500, 90, 500}}, window_, {}, LithoQuality::kStandard);
  const double cd_dense = measure_cd(dense, th(), 45.0);
  const double cd_iso = measure_cd(iso, th(), 45.0);
  EXPECT_GT(cd_dense, 0.0);
  EXPECT_GT(cd_iso, 0.0);
  // Annular illumination prints dense lines wider than isolated ones here;
  // the existence of a multi-nm bias is what OPC must correct.
  EXPECT_GT(std::abs(cd_dense - cd_iso), 3.0);
}

TEST_F(LithoBehaviour, DefocusShrinksProcessWindow) {
  const auto lines = line_array(90, 250, 7);
  const double cd0 = measure_cd(
      sim_.latent(lines, window_, {0.0, 1.0}, LithoQuality::kStandard), th(),
      45.0);
  const double cd_def = measure_cd(
      sim_.latent(lines, window_, {150.0, 1.0}, LithoQuality::kStandard), th(),
      45.0);
  EXPECT_GT(cd0, 0.0);
  // Through focus the printed CD moves by several nm (Bossung curvature).
  EXPECT_GT(std::abs(cd_def - cd0), 1.0);
}

TEST_F(LithoBehaviour, FocusSymmetry) {
  const auto lines = line_array(90, 250, 5);
  const double cd_plus = measure_cd(
      sim_.latent(lines, window_, {100.0, 1.0}, LithoQuality::kStandard), th(),
      45.0);
  const double cd_minus = measure_cd(
      sim_.latent(lines, window_, {-100.0, 1.0}, LithoQuality::kStandard),
      th(), 45.0);
  // A thin-mask scalar model is symmetric in defocus.
  EXPECT_NEAR(cd_plus, cd_minus, 0.5);
}

TEST_F(LithoBehaviour, HigherDoseThinsLines) {
  const auto lines = line_array(90, 250, 5);
  const double cd_lo = measure_cd(
      sim_.latent(lines, window_, {0.0, 0.95}, LithoQuality::kStandard), th(),
      45.0);
  const double cd_hi = measure_cd(
      sim_.latent(lines, window_, {0.0, 1.05}, LithoQuality::kStandard), th(),
      45.0);
  EXPECT_GT(cd_lo, cd_hi + 2.0);
}

TEST_F(LithoBehaviour, LineEndPullback) {
  // A vertical line ending at y = 0; the printed end retreats from drawn.
  const std::vector<Rect> line{{0, -800, 90, 0}};
  const Rect window{-600, -1200, 690, 500};
  const Image2D latent =
      sim_.latent(line, window, {}, LithoQuality::kStandard);
  // Find the printed line end along the line's axis.
  const auto end = first_crossing(latent, th(), {45.0, -400.0}, {45.0, 300.0},
                                  4.0);
  ASSERT_TRUE(end.has_value());
  const double printed_end_y = -400.0 + *end;
  EXPECT_LT(printed_end_y, -8.0);  // pulled back by several nm
}

TEST_F(LithoBehaviour, QualityLevelsAgreeOnCd) {
  const auto lines = line_array(90, 250, 5);
  const double cd_draft = measure_cd(
      sim_.latent(lines, window_, {}, LithoQuality::kDraft), th(), 45.0);
  const double cd_fine = measure_cd(
      sim_.latent(lines, window_, {}, LithoQuality::kFine), th(), 45.0);
  EXPECT_NEAR(cd_draft, cd_fine, 3.5);
}

TEST(QualityParams, Presets) {
  EXPECT_GT(quality_params(LithoQuality::kDraft).pixel_nm,
            quality_params(LithoQuality::kFine).pixel_nm);
  EXPECT_LT(quality_params(LithoQuality::kDraft).source_spokes *
                quality_params(LithoQuality::kDraft).source_rings,
            quality_params(LithoQuality::kFine).source_spokes *
                quality_params(LithoQuality::kFine).source_rings);
}

}  // namespace
}  // namespace poc
