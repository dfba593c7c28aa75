// Unit tests for src/common: FFT, statistics, linear algebra, tables,
// RNG determinism and the contract-check macros.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/fft.h"
#include "src/common/linalg.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace poc {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(to_db(89.6), 90);
  EXPECT_EQ(to_db(-89.6), -90);
  EXPECT_DOUBLE_EQ(to_nm(250), 250.0);
  EXPECT_DOUBLE_EQ(nm_to_um(1500.0), 1.5);
  EXPECT_DOUBLE_EQ(um_to_nm(0.09), 90.0);
  // 1 kohm * 1 fF = 1 ps.
  EXPECT_DOUBLE_EQ(rc_to_ps(1000.0, 1.0), 1.0);
}

TEST(Check, ExpectsThrows) {
  EXPECT_THROW(POC_EXPECTS(false), CheckError);
  EXPECT_NO_THROW(POC_EXPECTS(true));
  EXPECT_THROW(POC_ENSURES(1 == 2), CheckError);
}

TEST(Fft, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(256));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(100));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(129), 256u);
  EXPECT_EQ(next_pow2(256), 256u);
}

TEST(Fft, RoundTrip1D) {
  Rng rng(7);
  std::vector<Cplx> data(64);
  for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = data;
  fft_1d(data, false);
  fft_1d(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-12);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-12);
  }
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<Cplx> data(32, Cplx(0, 0));
  data[0] = 1.0;
  fft_1d(data, false);
  for (const auto& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<Cplx> data(n);
  const std::size_t k0 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(k0 * i) /
                         static_cast<double>(n);
    data[i] = {std::cos(phase), std::sin(phase)};
  }
  fft_1d(data, false);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = k == k0 ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(data[k]), expected, 1e-9) << "bin " << k;
  }
}

TEST(Fft, ParsevalHolds2D) {
  Rng rng(11);
  const std::size_t nx = 16, ny = 8;
  std::vector<Cplx> data(nx * ny);
  double time_energy = 0.0;
  for (auto& c : data) {
    c = {rng.uniform(-1, 1), 0.0};
    time_energy += std::norm(c);
  }
  fft_2d(data, nx, ny, false);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(nx * ny), 1e-9);
}

TEST(Fft, RoundTrip2D) {
  Rng rng(3);
  const std::size_t nx = 32, ny = 16;
  std::vector<Cplx> data(nx * ny);
  for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = data;
  fft_2d(data, nx, ny, false);
  fft_2d(data, nx, ny, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-12);
  }
}

TEST(Fft, NonPow2Rejected) {
  std::vector<Cplx> data(48);
  EXPECT_THROW(fft_1d(data, false), CheckError);
}

TEST(Fft, FreqIndexSignedMapping) {
  EXPECT_EQ(fft_freq_index(0, 8), 0);
  EXPECT_EQ(fft_freq_index(3, 8), 3);
  EXPECT_EQ(fft_freq_index(4, 8), -4);
  EXPECT_EQ(fft_freq_index(7, 8), -1);
}

TEST(Fft, BandInverseMatchesFullOnBandLimitedSpectrum) {
  Rng rng(11);
  const std::size_t nx = 32, ny = 16, kx_max = 5;
  std::vector<Cplx> spec(nx * ny, Cplx(0.0, 0.0));
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const long long kx = fft_freq_index(x, nx);
      if (std::llabs(kx) > static_cast<long long>(kx_max)) continue;
      spec[y * nx + x] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  auto full = spec;
  auto band = spec;
  fft_2d(full, nx, ny, true);
  fft_2d_band_inverse(band, nx, ny, kx_max);
  for (std::size_t i = 0; i < nx * ny; ++i) {
    EXPECT_NEAR(std::abs(band[i] - full[i]), 0.0, 1e-12);
  }
}

TEST(Fft, PackedRealForwardMatchesComplexTransform) {
  Rng rng(17);
  const std::size_t nx = 32, ny = 16, kx_max = 6;
  std::vector<double> img(nx * ny);
  for (auto& v : img) v = rng.uniform(0, 1);
  std::vector<Cplx> full(nx * ny);
  for (std::size_t i = 0; i < nx * ny; ++i) full[i] = img[i];
  fft_2d(full, nx, ny, false);
  const std::vector<Cplx> packed = rfft_2d_band(img, nx, ny, kx_max);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const long long kx = fft_freq_index(x, nx);
      if (std::llabs(kx) > static_cast<long long>(kx_max)) continue;
      EXPECT_NEAR(std::abs(packed[y * nx + x] - full[y * nx + x]), 0.0,
                  1e-11);
    }
  }
}

TEST(Fft, PackedRealInverseMatchesComplexTransform) {
  // Build a band-limited Hermitian spectrum from a real image, then check
  // the packed real inverse against the plain complex inverse.
  Rng rng(19);
  const std::size_t nx = 32, ny = 16, kx_max = 6;
  std::vector<double> img(nx * ny);
  for (auto& v : img) v = rng.uniform(-1, 1);
  std::vector<Cplx> spec(nx * ny);
  for (std::size_t i = 0; i < nx * ny; ++i) spec[i] = img[i];
  fft_2d(spec, nx, ny, false);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const long long kx = fft_freq_index(x, nx);
      if (std::llabs(kx) > static_cast<long long>(kx_max)) {
        spec[y * nx + x] = Cplx(0.0, 0.0);
      }
    }
  }
  auto full = spec;
  fft_2d(full, nx, ny, true);
  const std::vector<double> packed = irfft_2d_band(spec, nx, ny, kx_max);
  for (std::size_t i = 0; i < nx * ny; ++i) {
    EXPECT_NEAR(packed[i], full[i].real(), 1e-11);
    EXPECT_NEAR(full[i].imag(), 0.0, 1e-11);
  }
}

/// A value for the lane oracle: mostly ordinary magnitudes, mixed with
/// signed zeros, subnormals and magnitudes near 1e+-300.  Even 1024 terms
/// near 1e300 sum far below the overflow threshold, so every lane stays
/// finite.
double hostile_value(Rng& rng) {
  const double sign = rng.chance(0.5) ? -1.0 : 1.0;
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return sign * 0.0;
    case 1:
      return sign * std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.uniform_int(1, 1 << 20));
    case 2:
      return sign * 1e300 * rng.uniform(0.5, 1.0);
    case 3:
      return sign * 1e-300 * rng.uniform(0.5, 1.0);
    default:
      return rng.uniform(-1.0, 1.0);
  }
}

TEST(Fft, SoaLanesMatchScalarBitForBit) {
  // Each fft_soa lane against fft_1d of that span alone, byte for byte
  // (signed zeros included): odd and even stage counts, both directions,
  // and the strides the imaging engines use (packed lanes; gaps between
  // elements; the Abbe field rows, 59 band rows apart).  The doubles
  // between one element's lanes and the next element's must come back
  // untouched, and each buffer ends at the last lane so a read past it
  // lands in the sanitizer's red zone.
  constexpr int kTrials = 40;
  constexpr double kGap = 12345.678;
  Rng rng(23);
  std::size_t spans = 0, differing = 0, gaps_written = 0;
  std::string first;
  for (std::size_t n = 1; n <= 1024; n *= 2) {
    for (const bool inverse : {false, true}) {
      for (const std::size_t stride :
           {kFftLanes, 3 * kFftLanes, 59 * kFftLanes}) {
        for (int trial = 0; trial < kTrials; ++trial) {
          const std::size_t size = (n - 1) * stride + kFftLanes;
          std::vector<double> re(size, kGap), im(size, kGap);
          std::vector<std::vector<Cplx>> ref(kFftLanes,
                                             std::vector<Cplx>(n));
          for (std::size_t e = 0; e < n; ++e) {
            for (std::size_t w = 0; w < kFftLanes; ++w) {
              re[e * stride + w] = hostile_value(rng);
              im[e * stride + w] = hostile_value(rng);
              ref[w][e] = {re[e * stride + w], im[e * stride + w]};
            }
          }
          fft_soa(re.data(), im.data(), n, inverse, stride);
          for (std::size_t w = 0; w < kFftLanes; ++w) {
            fft_1d(ref[w], inverse);
            std::vector<Cplx> lane(n);
            for (std::size_t e = 0; e < n; ++e) {
              lane[e] = {re[e * stride + w], im[e * stride + w]};
            }
            ++spans;
            if (std::memcmp(lane.data(), ref[w].data(),
                            n * sizeof(Cplx)) != 0 &&
                differing++ == 0) {
              first = "n=" + std::to_string(n) +
                      (inverse ? " inverse" : " forward") +
                      " stride=" + std::to_string(stride) +
                      " trial=" + std::to_string(trial) +
                      " lane=" + std::to_string(w);
            }
          }
          for (std::size_t i = 0; i < size; ++i) {
            if (i % stride >= kFftLanes && (re[i] != kGap || im[i] != kGap)) {
              ++gaps_written;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(spans, 11u * 2 * 3 * kTrials * kFftLanes);
  EXPECT_EQ(differing, 0u) << "of " << spans << " lane spans; first: "
                           << first;
  EXPECT_EQ(gaps_written, 0u);
}

TEST(Fft, MatchesNaiveDftOracle) {
  // fft_1d against the O(n^2) DFT summed in long double from directly
  // evaluated twiddles, an oracle that shares no code with the FFT.  Bound
  // per output element: c * eps * log2(n) * ||x||_2 forward, 1/n of that
  // inverse (for power-of-two n the 1/n scale is exact).  The FFT's twiddle
  // tables come from a repeated-multiplication recurrence whose error grows
  // with the twiddle index, so the worst observed ratio climbs with n, to
  // about 21 at n = 1024; c = 32 covers that.  A wrong twiddle, index or
  // sign misses the bound by ten orders of magnitude.
  constexpr long double kC = 32;
  const long double eps = std::numeric_limits<double>::epsilon();
  using CplxL = std::complex<long double>;
  Rng rng(29);
  for (std::size_t n = 1, log2n = 0; n <= 1024; n *= 2, ++log2n) {
    std::vector<Cplx> x(n);
    long double norm2 = 0;
    for (auto& v : x) {
      v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      norm2 += static_cast<long double>(std::norm(v));
    }
    std::vector<CplxL> twiddle(n);  // exp(-2 pi i m / n)
    for (std::size_t m = 0; m < n; ++m) {
      const long double angle = -2 * std::numbers::pi_v<long double> *
                                static_cast<long double>(m) /
                                static_cast<long double>(n);
      twiddle[m] = {std::cos(angle), std::sin(angle)};
    }
    for (const bool inverse : {false, true}) {
      std::vector<Cplx> y = x;
      fft_1d(y, inverse);
      long double worst = 0;
      for (std::size_t k = 0; k < n; ++k) {
        CplxL sum = 0;
        for (std::size_t j = 0; j < n; ++j) {
          const CplxL w = twiddle[(j * k) % n];
          sum += CplxL(x[j].real(), x[j].imag()) * (inverse ? std::conj(w) : w);
        }
        if (inverse) sum /= static_cast<long double>(n);
        const CplxL got(y[k].real(), y[k].imag());
        worst = std::max(worst, std::abs(got - sum));
      }
      const long double bound = kC * eps * static_cast<long double>(log2n) *
                                std::sqrt(norm2) /
                                (inverse ? static_cast<long double>(n) : 1);
      EXPECT_LE(worst, bound) << "n=" << n
                              << (inverse ? " inverse" : " forward");
    }
  }
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeMatchesCombined) {
  Rng rng(5);
  RunningStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.normal(3.0, 2.0);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-12);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, RanksWithTies) {
  const std::vector<double> v{10.0, 20.0, 20.0, 30.0};
  const auto r = ranks_of(v);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanPerfectAndInverted) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{10, 20, 30, 40, 50};
  const std::vector<double> c{50, 40, 30, 20, 10};
  EXPECT_NEAR(spearman(a, b), 1.0, 1e-12);
  EXPECT_NEAR(spearman(a, c), -1.0, 1e-12);
}

TEST(Stats, KendallKnownValue) {
  // One adjacent swap in 4 elements: tau = (5 - 1) / 6.
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{1, 3, 2, 4};
  EXPECT_NEAR(kendall_tau(a, b), 4.0 / 6.0, 1e-12);
}

TEST(Stats, PearsonOfLinearIsOne) {
  std::vector<double> a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(i);
    b.push_back(3.0 * i - 7.0);
  }
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
}

TEST(Stats, HistogramBinsAndClamping) {
  const std::vector<double> v{-10.0, 0.1, 0.9, 0.9, 2.5, 99.0};
  const Histogram h = Histogram::build(v, 0.0, 3.0, 3);
  ASSERT_EQ(h.bins.size(), 3u);
  EXPECT_EQ(h.bins[0], 4u);  // clamped -10, plus 0.1, 0.9, 0.9
  EXPECT_EQ(h.bins[1], 0u);
  EXPECT_EQ(h.bins[2], 2u);  // 2.5 and clamped 99
  EXPECT_FALSE(h.render().empty());
}

TEST(Linalg, SolveKnownSystem) {
  // 2x + y = 5; x - y = 1 -> x = 2, y = 1.
  std::vector<double> a{2, 1, 1, -1};
  std::vector<double> b{5, 1};
  ASSERT_TRUE(solve_dense(a, b, 2));
  EXPECT_NEAR(b[0], 2.0, 1e-12);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
}

TEST(Linalg, SingularDetected) {
  std::vector<double> a{1, 2, 2, 4};
  std::vector<double> b{3, 6};
  EXPECT_FALSE(solve_dense(a, b, 2));
}

TEST(Linalg, SolveRandomAgainstResidual) {
  Rng rng(13);
  const std::size_t n = 6;
  std::vector<double> a(n * n), b(n);
  for (auto& v : a) v = rng.uniform(-2, 2);
  for (auto& v : b) v = rng.uniform(-2, 2);
  const auto a0 = a;
  const auto b0 = b;
  ASSERT_TRUE(solve_dense(a, b, n));
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += a0[r * n + c] * b[c];
    EXPECT_NEAR(s, b0[r], 1e-9);
  }
}

TEST(Linalg, LeastSquaresRecoversLine) {
  // y = 2x + 1 with exact data.
  std::vector<double> x, y;
  for (int i = 0; i < 10; ++i) {
    x.push_back(1.0);
    x.push_back(i);
    y.push_back(2.0 * i + 1.0);
  }
  const auto beta = least_squares(x, y, 10, 2);
  EXPECT_NEAR(beta[0], 1.0, 1e-9);
  EXPECT_NEAR(beta[1], 2.0, 1e-9);
}

TEST(JacobiHermitian, DiagonalPassesThroughSorted) {
  // Already diagonal: eigenvalues are the diagonal, sorted descending.
  std::vector<Cplx> a{{2.0, 0.0}, {0.0, 0.0}, {0.0, 0.0},
                      {0.0, 0.0}, {7.0, 0.0}, {0.0, 0.0},
                      {0.0, 0.0}, {0.0, 0.0}, {-1.0, 0.0}};
  const HermitianEigen e = jacobi_hermitian(a, 3);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 7.0, 1e-14);
  EXPECT_NEAR(e.values[1], 2.0, 1e-14);
  EXPECT_NEAR(e.values[2], -1.0, 1e-14);
  // Eigenvectors are permuted unit vectors.
  EXPECT_NEAR(std::abs(e.vectors[0 * 3 + 1]), 1.0, 1e-14);
  EXPECT_NEAR(std::abs(e.vectors[1 * 3 + 0]), 1.0, 1e-14);
  EXPECT_NEAR(std::abs(e.vectors[2 * 3 + 2]), 1.0, 1e-14);
}

TEST(JacobiHermitian, KnownRealSymmetric2x2) {
  // [[2, 1], [1, 2]] -> eigenvalues 3 and 1, eigenvectors (1,1) and (1,-1).
  std::vector<Cplx> a{{2.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  const HermitianEigen e = jacobi_hermitian(a, 2);
  EXPECT_NEAR(e.values[0], 3.0, 1e-14);
  EXPECT_NEAR(e.values[1], 1.0, 1e-14);
  const double inv_sq2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(e.vectors[0 * 2 + 0]), inv_sq2, 1e-12);
  EXPECT_NEAR(std::abs(e.vectors[0 * 2 + 1]), inv_sq2, 1e-12);
  // The (3.0) eigenvector has equal components, the (1.0) one opposite.
  EXPECT_NEAR(std::abs(e.vectors[0 * 2 + 0] + e.vectors[0 * 2 + 1]),
              std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(e.vectors[1 * 2 + 0] + e.vectors[1 * 2 + 1]), 0.0,
              1e-12);
}

TEST(JacobiHermitian, KnownComplexHermitian2x2) {
  // [[1, i], [-i, 1]]: eigenvalues 2 and 0.
  std::vector<Cplx> a{{1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}, {1.0, 0.0}};
  const HermitianEigen e = jacobi_hermitian(a, 2);
  EXPECT_NEAR(e.values[0], 2.0, 1e-14);
  EXPECT_NEAR(e.values[1], 0.0, 1e-14);
}

TEST(JacobiHermitian, RandomHermitianEigenEquation) {
  // Residual test on a dense complex Hermitian matrix: A v = lambda v,
  // orthonormal vectors, eigenvalue sum equals the trace.
  Rng rng(29);
  const std::size_t n = 9;
  std::vector<Cplx> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i * n + i] = Cplx(rng.uniform(-2, 2), 0.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      a[i * n + j] = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
      a[j * n + i] = std::conj(a[i * n + j]);
    }
  }
  const HermitianEigen e = jacobi_hermitian(a, n);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a[i * n + i].real();
    sum += e.values[i];
    if (i > 0) {
      EXPECT_GE(e.values[i - 1], e.values[i]);  // sorted descending
    }
  }
  EXPECT_NEAR(trace, sum, 1e-10);
  for (std::size_t k = 0; k < n; ++k) {
    // |A v_k - lambda_k v_k| small.
    for (std::size_t i = 0; i < n; ++i) {
      Cplx av(0.0, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        av += a[i * n + j] * e.vectors[k * n + j];
      }
      const Cplx resid = av - e.values[k] * e.vectors[k * n + i];
      EXPECT_LT(std::abs(resid), 1e-11);
    }
    // Orthonormality against every other vector.
    for (std::size_t m = 0; m < n; ++m) {
      Cplx dot(0.0, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        dot += std::conj(e.vectors[k * n + i]) * e.vectors[m * n + i];
      }
      EXPECT_NEAR(std::abs(dot), k == m ? 1.0 : 0.0, 1e-11);
    }
  }
}

TEST(JacobiHermitian, DeterministicAcrossCalls) {
  std::vector<Cplx> a{{3.0, 0.0}, {1.0, 2.0}, {0.5, -0.25},
                      {1.0, -2.0}, {-1.0, 0.0}, {0.0, 1.0},
                      {0.5, 0.25}, {0.0, -1.0}, {2.0, 0.0}};
  const HermitianEigen e1 = jacobi_hermitian(a, 3);
  const HermitianEigen e2 = jacobi_hermitian(a, 3);
  EXPECT_EQ(e1.values, e2.values);
  EXPECT_EQ(e1.vectors, e2.vectors);
}

TEST(Rng, DeterministicStreams) {
  Rng a(123), b(123), c(124);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  EXPECT_NE(a.uniform(), c.uniform());
  Rng d(55);
  Rng child = d.fork();
  EXPECT_GE(child.uniform(0, 1), 0.0);
}

TEST(Rng, ForkedStreamsStatisticallyIndependent) {
  // Repeated forks from one parent must give decorrelated streams: the old
  // XOR-of-a-draw derivation handed mt19937_64 a sequence of related seeds
  // whose early outputs correlate.  splitmix64 avalanches each draw into
  // an unrelated seed.  Check pairwise correlation of adjacent children
  // and of each child against the parent.
  Rng parent(2026);
  constexpr int kChildren = 12;
  constexpr int kDraws = 4000;
  std::vector<std::vector<double>> streams;
  for (int c = 0; c < kChildren; ++c) {
    Rng child = parent.fork();
    std::vector<double> draws(kDraws);
    for (double& d : draws) d = child.uniform(-1.0, 1.0);
    streams.push_back(std::move(draws));
  }
  const double bound = 4.0 / std::sqrt(static_cast<double>(kDraws));
  for (int c = 0; c + 1 < kChildren; ++c) {
    EXPECT_LT(std::abs(pearson(streams[c], streams[c + 1])), bound)
        << "children " << c << " and " << c + 1;
  }
  // Mean/variance of each child stream look uniform(-1, 1).
  for (int c = 0; c < kChildren; ++c) {
    RunningStats s;
    for (double d : streams[c]) s.add(d);
    EXPECT_NEAR(s.mean(), 0.0, 0.05) << "child " << c;
    EXPECT_NEAR(s.stddev(), 1.0 / std::sqrt(3.0), 0.05) << "child " << c;
  }
}

TEST(Rng, CounterDerivedStreamsReproducibleAndIndependent) {
  // Rng::stream(seed, index) is the parallel engine's per-work-item
  // seeding: the same (seed, index) must reproduce exactly, different
  // indices must decorrelate, and adjacent indices must not collide.
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  EXPECT_DOUBLE_EQ(a.normal(), b.normal());
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());

  constexpr int kStreams = 16;
  constexpr int kDraws = 4000;
  std::vector<std::vector<double>> streams;
  for (int i = 0; i < kStreams; ++i) {
    Rng r = Rng::stream(99, static_cast<std::uint64_t>(i));
    std::vector<double> draws(kDraws);
    for (double& d : draws) d = r.uniform(-1.0, 1.0);
    streams.push_back(std::move(draws));
  }
  const double bound = 4.0 / std::sqrt(static_cast<double>(kDraws));
  for (int i = 0; i + 1 < kStreams; ++i) {
    EXPECT_LT(std::abs(pearson(streams[i], streams[i + 1])), bound)
        << "streams " << i << " and " << i + 1;
    EXPECT_NE(streams[i][0], streams[i + 1][0]);
  }
}

TEST(Rng, SplitMix64KnownVectors) {
  // Reference outputs of the standard SplitMix64 finalizer so the seeding
  // scheme cannot silently drift (it is part of the determinism contract).
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(splitmix64(2), 0x975835de1c9756ceULL);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"x", Table::num(1.5, 1)});
  t.add_row({"longer_name", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("longer_name"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_THROW(t.add_row({"only_one"}), CheckError);
}

}  // namespace
}  // namespace poc
