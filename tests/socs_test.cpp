// Tests for the SOCS fast imaging path (src/litho/tcc.h): TCC operator
// properties (Hermitian, PSD, trace), the Gram-factorized eigendecomposition
// against the explicit operator, kernel truncation behaviour, the headline
// accuracy contract — SOCS CDs within 0.1 nm of the Abbe reference at
// nominal conditions across iso/dense pitches (and within a relaxed budget
// under defocus and aberrations) — and the OPC mask-agreement oracle that
// lets the OPC model run on SOCS while sign-off stays on Abbe.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cdx/contour.h"
#include "src/common/rng.h"
#include "src/core/flow.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"
#include "src/litho/optics.h"
#include "src/litho/pupil_cache.h"
#include "src/litho/simulator.h"
#include "src/litho/tcc.h"
#include "src/netlist/generators.h"
#include "src/opc/opc_engine.h"
#include "src/par/thread_pool.h"

namespace poc {
namespace {

/// Small spectral layout for the explicit-operator property tests (the
/// imaging path itself uses much larger grids through the Gram route).
SpectralGrid small_grid() {
  // Steps matching a 256-pixel, 8 nm window: df = 1/2048 cycles/nm; the
  // band covers the pupil support for the default optics.
  return SpectralGrid{1.0 / 2048.0, 1.0 / 2048.0, 10, 10};
}

double max_abs(const std::vector<Cplx>& v) {
  double m = 0.0;
  for (const Cplx& c : v) m = std::max(m, std::abs(c));
  return m;
}

TEST(Tcc, MatrixIsHermitian) {
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();
  const std::vector<Cplx> t = tcc_matrix(opt, source, 80.0, grid);
  const std::size_t n = grid.size();
  ASSERT_EQ(t.size(), n * n);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(t[i * n + i].imag(), 0.0, 1e-15);
    EXPECT_GE(t[i * n + i].real(), -1e-15);  // diagonal of a PSD operator
    for (std::size_t j = i + 1; j < n; ++j) {
      worst = std::max(worst,
                       std::abs(t[i * n + j] - std::conj(t[j * n + i])));
    }
  }
  EXPECT_LT(worst, 1e-14);
}

TEST(Tcc, MatrixIsPositiveSemidefinite) {
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();
  const std::vector<Cplx> t = tcc_matrix(opt, source, 40.0, grid);
  const std::size_t n = grid.size();
  // x^H T x >= 0 for a spread of deterministic pseudo-random vectors.
  Rng rng(23);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<Cplx> x(n);
    for (auto& c : x) c = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    Cplx quad(0.0, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      Cplx row(0.0, 0.0);
      for (std::size_t j = 0; j < n; ++j) row += t[i * n + j] * x[j];
      quad += std::conj(x[i]) * row;
    }
    EXPECT_NEAR(quad.imag(), 0.0, 1e-10);
    EXPECT_GT(quad.real(), -1e-10);
  }
}

TEST(Tcc, TraceMatchesWeightedPupilEnergy) {
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();
  const std::vector<Cplx> t = tcc_matrix(opt, source, 0.0, grid);
  const std::size_t n = grid.size();
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += t[i * n + i].real();

  const auto kernels =
      socs_kernels(opt, source, 0.0, grid, SocsOptions{64, 1.0});
  EXPECT_NEAR(kernels->trace, trace, 1e-10 * std::max(1.0, trace));
}

TEST(Socs, FullRankKernelsReconstructTcc) {
  // With every kernel retained, sum_k lambda_k phi_k phi_k^H must equal the
  // explicit TCC — this exercises the Jacobi solver, the Gram factorization
  // and the kernel lift in one equation.
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();
  const std::vector<Cplx> t = tcc_matrix(opt, source, 60.0, grid);
  const std::size_t n = grid.size();
  const auto kernels =
      socs_kernels(opt, source, 60.0, grid, SocsOptions{64, 1.0});
  ASSERT_LE(kernels->kernels.size(), source.size());

  std::vector<Cplx> recon(n * n, Cplx(0.0, 0.0));
  for (std::size_t k = 0; k < kernels->kernels.size(); ++k) {
    const std::vector<Cplx>& phi = kernels->kernels[k];
    const double lambda = kernels->weights[k];
    for (std::size_t i = 0; i < n; ++i) {
      const Cplx li = lambda * phi[i];
      for (std::size_t j = 0; j < n; ++j) {
        recon[i * n + j] += li * std::conj(phi[j]);
      }
    }
  }
  const double scale = std::max(1.0, max_abs(t));
  double worst = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) {
    worst = std::max(worst, std::abs(recon[i] - t[i]));
  }
  EXPECT_LT(worst / scale, 1e-10);
}

TEST(Socs, KernelsAreOrthonormalAndOrdered) {
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();
  const auto kernels =
      socs_kernels(opt, source, 0.0, grid, SocsOptions{12, 0.9995});
  ASSERT_FALSE(kernels->kernels.empty());
  const std::size_t n = grid.size();
  for (std::size_t k = 0; k < kernels->kernels.size(); ++k) {
    if (k > 0) {
      EXPECT_GE(kernels->weights[k - 1], kernels->weights[k]);
    }
    EXPECT_GT(kernels->weights[k], 0.0);
    for (std::size_t m = k; m < kernels->kernels.size(); ++m) {
      Cplx dot(0.0, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        dot += std::conj(kernels->kernels[k][i]) * kernels->kernels[m][i];
      }
      EXPECT_NEAR(std::abs(dot), k == m ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Socs, TruncationHonoursKnobs) {
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();

  const auto capped = socs_kernels(opt, source, 0.0, grid, SocsOptions{3, 1.0});
  EXPECT_EQ(capped->kernels.size(), 3u);
  EXPECT_LE(capped->captured, capped->trace + 1e-9);

  // Discretized-source TCC spectra have a flat tail (~99.9% needs nearly
  // every kernel), so the energy knob is exercised at a draft-grade budget
  // where truncation genuinely bites.
  const auto by_energy =
      socs_kernels(opt, source, 0.0, grid, SocsOptions{64, 0.90});
  EXPECT_GE(by_energy->captured, 0.90 * by_energy->trace - 1e-9);
  EXPECT_LT(by_energy->kernels.size(), source.size());
}

TEST(Socs, ParityPackedAtNominalGenericOffNominal) {
  // At zero defocus with no aberrations the pupil is exactly real and the
  // ring source is 180-degree symmetric, so every kernel must come out of
  // the parity-blocked build: exactly real, parity-pure, and packable two
  // per transform.  Any pupil phase (defocus here) falls back to the
  // generic complex path.
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();

  const auto nominal = socs_kernels(opt, source, 0.0, grid, SocsOptions{});
  ASSERT_TRUE(nominal->parity_packable());
  const std::size_t n = grid.size();
  for (std::size_t k = 0; k < nominal->kernels.size(); ++k) {
    const std::vector<Cplx>& phi = nominal->kernels[k];
    const double sign = nominal->parity[k] == 1 ? 1.0 : -1.0;
    for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
      for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx) {
        const Cplx v = phi[grid.index(kx, ky)];
        ASSERT_EQ(v.imag(), 0.0);
        // Parity purity within rounding of the lift accumulation.
        EXPECT_NEAR(phi[grid.index(-kx, -ky)].real(), sign * v.real(), 1e-12);
      }
    }
    double norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm2 += std::norm(phi[i]);
    EXPECT_NEAR(norm2, 1.0, 1e-9);
  }

  const auto defocused = socs_kernels(opt, source, 40.0, grid, SocsOptions{});
  EXPECT_FALSE(defocused->parity_packable());
}

TEST(Socs, KernelsMemoizedAndDeterministic) {
  const OpticalSettings opt;
  const std::vector<SourcePoint> source = sample_source(opt);
  const SpectralGrid grid = small_grid();
  const SocsOptions socs{12, 0.9995};
  const auto first = socs_kernels(opt, source, 25.0, grid, socs);
  const auto again = socs_kernels(opt, source, 25.0, grid, socs);
  EXPECT_EQ(first.get(), again.get());  // memo hit shares the value

  // Concurrent lookups (cold or warm) must all observe one coherent value:
  // the builds race but first-insert-wins publishes a single winner.
  std::vector<std::shared_ptr<const SocsKernels>> seen(4);
  {
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      pool.emplace_back([&, i] {
        seen[i] = socs_kernels(opt, source, 25.0, grid, socs);
      });
    }
    for (auto& th : pool) th.join();
  }
  for (const auto& k : seen) {
    ASSERT_TRUE(k);
    EXPECT_EQ(k->weights, first->weights);
    for (std::size_t i = 0; i < k->kernels.size(); ++i) {
      EXPECT_EQ(k->kernels[i], first->kernels[i]);
    }
  }
}

// --- SOCS vs Abbe accuracy sweep -----------------------------------------

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

struct SweepCase {
  const char* name;
  std::vector<Rect> features;
};

std::vector<SweepCase> sweep_cases() {
  return {
      {"pitch250", line_array(90, 250, 7)},
      {"pitch400", line_array(90, 400, 5)},
      {"pitch800", line_array(90, 800, 3)},
      {"iso", line_array(90, 250, 1)},
  };
}

TEST(SocsVsAbbe, CdWithinTenthNanometreAtNominal) {
  // The acceptance contract: max |CD_SOCS - CD_Abbe| <= 0.1 nm at nominal
  // exposure across dense-through-iso pitches, at the default kernel knobs
  // and the sign-off extraction quality.
  const LithoSimulator abbe;
  LithoSimulator socs;
  socs.set_imaging({ImagingMode::kSocs, SocsOptions{}});
  const Rect window{-900, -700, 990, 700};
  double worst = 0.0;
  for (const SweepCase& c : sweep_cases()) {
    const Image2D ref =
        abbe.latent(c.features, window, {}, LithoQuality::kStandard);
    const Image2D fast =
        socs.latent(c.features, window, {}, LithoQuality::kStandard);
    const double cd_ref = measure_cd(ref, abbe.print_threshold(), 45.0);
    const double cd_fast = measure_cd(fast, socs.print_threshold(), 45.0);
    ASSERT_GT(cd_ref, 0.0) << c.name;
    EXPECT_NEAR(cd_fast, cd_ref, 0.1) << c.name;
    worst = std::max(worst, std::abs(cd_fast - cd_ref));
  }
  // Leave headroom visible in the log when the tolerance tightens.
  RecordProperty("worst_cd_delta_nm", testing::PrintToString(worst));
}

TEST(SocsVsAbbe, CdTracksUnderDefocusAndAberrations) {
  // Off-nominal legs of the sweep: defocus and z7/z9 aberrations change the
  // pupil (and therefore the kernels); SOCS must keep tracking Abbe.  The
  // budget is looser than at nominal — defocused edges have lower slope, so
  // the same intensity truncation error moves the contour further.
  OpticalSettings aberrated;
  aberrated.z9_spherical_waves = 0.035;
  aberrated.z7_coma_x_waves = 0.025;
  const Rect window{-900, -700, 990, 700};
  const ResistModel resist;
  for (const double defocus : {0.0, 80.0}) {
    for (const bool with_aberrations : {false, true}) {
      const OpticalSettings opt =
          with_aberrations ? aberrated : OpticalSettings{};
      const LithoSimulator abbe(opt, resist);
      const LithoSimulator socs(opt, resist,
                                {ImagingMode::kSocs, SocsOptions{}});
      for (const SweepCase& c : sweep_cases()) {
        const Exposure exposure{defocus, 1.0};
        const Image2D ref =
            abbe.latent(c.features, window, exposure, LithoQuality::kStandard);
        const Image2D fast =
            socs.latent(c.features, window, exposure, LithoQuality::kStandard);
        const double cd_ref = measure_cd(ref, abbe.print_threshold(), 45.0);
        const double cd_fast = measure_cd(fast, socs.print_threshold(), 45.0);
        if (cd_ref <= 0.0) {
          // The reference says this condition fails to print (heavy defocus
          // plus aberrations can kill the feature); SOCS must agree rather
          // than invent a contour.
          EXPECT_LE(cd_fast, 0.0)
              << c.name << " defocus=" << defocus
              << " ab=" << with_aberrations;
          continue;
        }
        EXPECT_NEAR(cd_fast, cd_ref, 0.25)
            << c.name << " defocus=" << defocus << " ab=" << with_aberrations;
      }
    }
  }
}

TEST(SocsVsAbbe, AerialIntensityErrorBounded) {
  // Field-level check (stronger than CD at one probe): the SOCS aerial
  // image stays close to Abbe everywhere on the grid, at every quality.
  const Rect window{-900, -700, 990, 700};
  const std::vector<Rect> lines = line_array(90, 250, 7);
  const LithoSimulator abbe;
  LithoSimulator socs;
  socs.set_imaging({ImagingMode::kSocs, SocsOptions{}});
  for (const LithoQuality q :
       {LithoQuality::kDraft, LithoQuality::kStandard, LithoQuality::kFine}) {
    const Image2D ref = abbe.aerial(lines, window, 0.0, q);
    const Image2D fast = socs.aerial(lines, window, 0.0, q);
    ASSERT_EQ(ref.data().size(), fast.data().size());
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.data().size(); ++i) {
      worst = std::max(worst, std::abs(ref.data()[i] - fast.data()[i]));
    }
    EXPECT_LT(worst, 2e-3) << static_cast<int>(q);
  }
}

TEST(SocsVsAbbe, ExactWhenEveryKernelKept) {
  // With energy_fraction = 1 and no kernel cap the truncation vanishes, so
  // SOCS differs from Abbe only by transform rounding — the images must
  // agree to near machine precision.  This isolates "decomposition is
  // exact" from "truncation is small".
  const Rect window{-900, -700, 990, 700};
  const std::vector<Rect> lines = line_array(90, 250, 5);
  const LithoSimulator abbe;
  LithoSimulator socs;
  socs.set_imaging({ImagingMode::kSocs, SocsOptions{1024, 1.0}});
  const Image2D ref = abbe.aerial(lines, window, 0.0, LithoQuality::kStandard);
  const Image2D fast =
      socs.aerial(lines, window, 0.0, LithoQuality::kStandard);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.data().size(); ++i) {
    worst = std::max(worst, std::abs(ref.data()[i] - fast.data()[i]));
  }
  EXPECT_LT(worst, 1e-9);
}

TEST(SocsVsAbbe, SocsImagesAreBitIdenticalAcrossCalls) {
  // The determinism contract extends to the fast path: repeated synthesis
  // (warm or cold kernel cache) returns bit-identical images.
  const Rect window{-900, -700, 990, 700};
  const std::vector<Rect> lines = line_array(90, 250, 5);
  LithoSimulator socs;
  socs.set_imaging({ImagingMode::kSocs, SocsOptions{}});
  const Image2D a = socs.latent(lines, window, {}, LithoQuality::kStandard);
  const Image2D b = socs.latent(lines, window, {}, LithoQuality::kStandard);
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

// ---------------------------------------------------------------------------
// OPC mask agreement.  The OPC model images on SOCS by default while the
// flow's sign-off extraction stays on Abbe; that split is sound only while
// both engines print the same masks.  Nothing guarantees it: the EPE probe
// reads the sign of latent - threshold, and every move rounds
// -damping * EPE to whole nm, so the masks agree only while the engines'
// last-bit differences stay far inside those decisions.  This oracle
// measures how far.

const StdCellLibrary& lib() {
  static const StdCellLibrary l = StdCellLibrary::load_or_characterize(
      (std::filesystem::temp_directory_path() / "poc_cells_test.lib")
          .string());
  return l;
}

struct OpcWindowCase {
  Rect window;
  std::vector<Polygon> targets;
};

/// Every instance window the flow corrects (same ambit, same targets) on
/// three designs: the sign-off benchmark's random logic, a repeated-cell
/// tiled block and a ripple adder.
std::vector<OpcWindowCase> opc_window_corpus() {
  const Netlist designs[] = {make_random_logic(48, 16, 0xABCD02),
                             make_tiled(6), make_ripple_adder(4)};
  const DbUnit ambit = FlowOptions{}.ambit_nm;
  std::vector<OpcWindowCase> corpus;
  for (const Netlist& nl : designs) {
    const PlacedDesign d = place_and_route(nl, lib());
    for (std::size_t i = 0; i < d.layout.num_instances(); ++i) {
      const Instance& inst = d.layout.instance(i);
      OpcWindowCase w;
      w.window = inst.transform.apply(d.layout.cell(inst.cell).boundary)
                     .inflated(ambit);
      w.targets = d.layout.flatten_layer_polys(w.window, Layer::kPoly);
      if (!w.targets.empty()) corpus.push_back(std::move(w));
    }
  }
  return corpus;
}

bool same_polygons(const std::vector<Polygon>& a,
                   const std::vector<Polygon>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (a[p].vertices() != b[p].vertices()) return false;
  }
  return true;
}

/// What one window's two corrections and its re-measured probes showed.
struct WindowAgreement {
  bool same_mask = false;  ///< corrected, srafs, every bias, iterations
  double history_delta = 0.0;  ///< per-iteration body max/rms EPE, Abbe-SOCS
  std::size_t probes = 0;      ///< re-measured probes (both qualities)
  std::size_t epe_differs = 0;
  std::size_t move_differs = 0;  ///< llround(-damping * EPE) disagreements
  double epe_delta = 0.0;        ///< worst |EPE_Abbe - EPE_SOCS|
  /// Smallest distance of damping * EPE from a rounding boundary k + 1/2.
  double round_margin = std::numeric_limits<double>::infinity();
};

WindowAgreement compare_engines(const OpcWindowCase& w) {
  const LithoSimulator sim;  // the flow's defaults: exact SOCS knobs
  OpcOptions abbe_options;
  abbe_options.imaging = ImagingMode::kAbbe;
  OpcOptions socs_options;
  socs_options.imaging = ImagingMode::kSocs;
  const OpcEngine abbe(sim, abbe_options);
  const OpcResult a = abbe.correct(w.targets, w.window);
  const OpcResult s = OpcEngine(sim, socs_options).correct(w.targets, w.window);

  WindowAgreement out;
  out.same_mask = a.iterations == s.iterations &&
                  same_polygons(a.corrected, s.corrected) &&
                  a.srafs == s.srafs &&
                  a.fragments.size() == s.fragments.size();
  for (std::size_t f = 0; out.same_mask && f < a.fragments.size(); ++f) {
    out.same_mask = a.fragments[f].bias == s.fragments[f].bias;
  }
  const std::size_t n =
      std::min(a.max_epe_history.size(), s.max_epe_history.size());
  for (std::size_t k = 0; k < n; ++k) {
    out.history_delta = std::max(
        {out.history_delta,
         std::abs(a.max_epe_history[k] - s.max_epe_history[k]),
         std::abs(a.rms_epe_history[k] - s.rms_epe_history[k])});
  }

  // Re-measure the Abbe mask under both engines at both OPC qualities.
  const double damping = abbe_options.damping;
  const std::vector<Rect> mask = a.mask_rects();
  for (const LithoQuality q : {LithoQuality::kDraft, LithoQuality::kStandard}) {
    std::vector<Fragment> fa = a.fragments;
    std::vector<Fragment> fs = a.fragments;
    abbe.measure_epe(fa, mask, w.window, {}, q, ImagingMode::kAbbe);
    abbe.measure_epe(fs, mask, w.window, {}, q, ImagingMode::kSocs);
    for (std::size_t f = 0; f < fa.size(); ++f) {
      if (fa[f].frozen) continue;
      ++out.probes;
      const double ea = fa[f].epe_nm;
      const double es = fs[f].epe_nm;
      if (ea != es) ++out.epe_differs;
      out.epe_delta = std::max(out.epe_delta, std::abs(ea - es));
      if (std::llround(-damping * ea) != std::llround(-damping * es)) {
        ++out.move_differs;
      }
      for (const double e : {ea, es}) {
        const double m = std::abs(damping * e);
        out.round_margin =
            std::min(out.round_margin, std::abs(m - std::floor(m) - 0.5));
      }
    }
  }
  return out;
}

TEST(SocsVsAbbe, OpcMasksIdenticalOnWindowCorpus) {
  // Model-based OPC on SOCS (exact energy) and on Abbe must produce the
  // same mask on every window: same corrected polygons, SRAFs, per-fragment
  // biases and iteration count.  Re-measuring each final mask under both
  // engines, at draft and standard quality, must round every probe's move
  // the same way.  EPE values themselves may differ in their last bits.
  const std::vector<OpcWindowCase> corpus = opc_window_corpus();
  ASSERT_GE(corpus.size(), 100u);
  std::vector<WindowAgreement> results(corpus.size());
  parallel_for(4, corpus.size(), /*chunk=*/1, [&](std::size_t i) {
    results[i] = compare_engines(corpus[i]);
  });

  WindowAgreement all;  // summed counts, worst deltas and margin
  std::size_t same_masks = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WindowAgreement& r = results[i];
    EXPECT_TRUE(r.same_mask) << "window " << i;
    EXPECT_EQ(r.move_differs, 0u) << "window " << i;
    same_masks += r.same_mask ? 1 : 0;
    all.history_delta = std::max(all.history_delta, r.history_delta);
    all.probes += r.probes;
    all.epe_differs += r.epe_differs;
    all.epe_delta = std::max(all.epe_delta, r.epe_delta);
    all.round_margin = std::min(all.round_margin, r.round_margin);
  }
  // The EPE traces agree to rounding noise, far below the 1 nm bias step.
  EXPECT_LT(all.history_delta, 1e-6);
  EXPECT_LT(all.epe_delta, 1e-6);
  std::printf(
      "OPC engine agreement: %zu/%zu masks identical; %zu probes, %zu EPEs "
      "differ in their last bits; worst |dEPE| %.3g nm; smallest rounding "
      "margin of damping*EPE %.3g nm; worst EPE-history delta %.3g nm\n",
      same_masks, corpus.size(), all.probes, all.epe_differs,
      all.epe_delta, all.round_margin, all.history_delta);
  RecordProperty("worst_epe_delta_nm", testing::PrintToString(all.epe_delta));
  RecordProperty("min_round_margin_nm",
                 testing::PrintToString(all.round_margin));
}

}  // namespace
}  // namespace poc
