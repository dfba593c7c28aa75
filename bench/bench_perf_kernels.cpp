// Google-benchmark micro-benchmarks for the compute kernels that dominate
// the flow's runtime: 2-D FFT, the four-lane FFT, mask rasterization,
// aerial-image formation, one model-based OPC window, per-gate CD
// extraction, a full-design STA pass, and the warm timing service's read
// and what-if queries.  These quantify the scalability claims in DESIGN.md
// (selective extraction exists because litho windows are ~1e6 x an STA
// pass).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cdx/cd_extract.h"
#include "src/common/fft.h"
#include "src/common/rng.h"
#include "src/geom/polygon_ops.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"
#include "src/opc/opc_engine.h"

namespace poc {
namespace {

void BM_Fft2D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Cplx> data(n * n);
  Rng rng(1);
  for (auto& c : data) c = {rng.uniform(), 0.0};
  for (auto _ : state) {
    fft_2d(data, n, n, false);
    fft_2d(data, n, n, true);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft2D)->Arg(128)->Arg(256)->Arg(512);

/// fft_soa on kFftLanes spans of n elements at the given element stride,
/// alternating forward and inverse so values stay bounded.  The rate
/// counter counts the conventional 5 n log2 n FLOPs per span per transform.
void run_fft_soa(benchmark::State& state, std::size_t n, std::size_t stride) {
  const std::size_t size = (n - 1) * stride + kFftLanes;
  std::vector<double> re(size), im(size);
  Rng rng(1);
  for (std::size_t i = 0; i < size; ++i) {
    re[i] = rng.uniform(-1, 1);
    im[i] = rng.uniform(-1, 1);
  }
  bool inverse = false;
  for (auto _ : state) {
    fft_soa(re.data(), im.data(), n, inverse, stride);
    inverse = !inverse;
    benchmark::DoNotOptimize(re.data());
    benchmark::DoNotOptimize(im.data());
    benchmark::ClobberMemory();
  }
  const double flops = static_cast<double>(kFftLanes) * 5.0 *
                       static_cast<double>(n) *
                       std::log2(static_cast<double>(n));
  state.counters["FLOPS"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_FftSoa(benchmark::State& state) {
  // The imaging engines' transform: four spans in packed lanes.
  run_fft_soa(state, static_cast<std::size_t>(state.range(0)), kFftLanes);
}
BENCHMARK(BM_FftSoa)->RangeMultiplier(2)->Range(32, 1024);

void BM_FftSoaStrided(benchmark::State& state) {
  // The Abbe coarse field rows: lanes 59 band rows apart.
  run_fft_soa(state, static_cast<std::size_t>(state.range(0)),
              59 * kFftLanes);
}
BENCHMARK(BM_FftSoaStrided)->Arg(128);

void BM_RasterizeMask(benchmark::State& state) {
  std::vector<Rect> lines;
  for (int k = -8; k <= 8; ++k) lines.push_back({k * 250, -1000, k * 250 + 90, 1000});
  const Rect window{-2200, -1200, 2290, 1200};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rasterize_mask(lines, window, 8.0));
  }
}
BENCHMARK(BM_RasterizeMask);

void BM_AerialImage(benchmark::State& state) {
  std::vector<Rect> lines;
  for (int k = -3; k <= 3; ++k) lines.push_back({k * 250, -600, k * 250 + 90, 600});
  const Image2D mask = rasterize_mask(lines, {-900, -700, 990, 700}, 8.0);
  OpticalSettings opt;
  opt.source_rings = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aerial_image_blurred(mask, opt, 0.0, 25.0));
  }
}
BENCHMARK(BM_AerialImage)->Arg(1)->Arg(2)->Arg(3);

void BM_AerialImageSignoff(benchmark::State& state) {
  // Abbe at the sign-off window shape: a 512x512 grid at 8 nm under the
  // standard 16-point source (2 rings x 8 spokes), the call that dominates
  // model-based OPC and the post-OPC patterning simulation.
  std::vector<Rect> lines;
  for (int k = -7; k <= 7; ++k) lines.push_back({k * 250, -1700, k * 250 + 90, 1700});
  const Image2D mask = rasterize_mask(lines, {-1900, -1900, 1990, 1900}, 8.0);
  const OpticalSettings opt;  // 2 rings x 8 spokes
  const std::vector<SourcePoint> source = sample_source(opt);
  state.SetLabel(std::to_string(mask.nx()) + "x" + std::to_string(mask.ny()) +
                 " S=" + std::to_string(source.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aerial_image_blurred(mask, opt, 0.0, 25.0, source));
  }
}
BENCHMARK(BM_AerialImageSignoff)->Unit(benchmark::kMillisecond);

void BM_AerialImageSocs(benchmark::State& state) {
  // Same mask/window/conditions as BM_AerialImage, through the SOCS fast
  // path at default (exact, untruncated) knobs — the per-window speedup the
  // Hopkins decomposition buys at each quality.
  std::vector<Rect> lines;
  for (int k = -3; k <= 3; ++k) lines.push_back({k * 250, -600, k * 250 + 90, 600});
  const Image2D mask = rasterize_mask(lines, {-900, -700, 990, 700}, 8.0);
  OpticalSettings opt;
  opt.source_rings = static_cast<std::size_t>(state.range(0));
  const std::vector<SourcePoint> source = sample_source(opt);
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aerial_image_blurred(mask, opt, 0.0, 25.0, source, imaging));
  }
}
BENCHMARK(BM_AerialImageSocs)->Arg(1)->Arg(2)->Arg(3);

void BM_AerialImageSocsSignoff(benchmark::State& state) {
  // The SOCS twin of BM_AerialImageSignoff: the same 512x512 grid at 8 nm
  // and 16-point source, at nominal focus (parity-packed kernel pairs) and
  // at Arg nm of defocus (generic complex kernels).
  std::vector<Rect> lines;
  for (int k = -7; k <= 7; ++k) lines.push_back({k * 250, -1700, k * 250 + 90, 1700});
  const Image2D mask = rasterize_mask(lines, {-1900, -1900, 1990, 1900}, 8.0);
  const OpticalSettings opt;  // 2 rings x 8 spokes
  const std::vector<SourcePoint> source = sample_source(opt);
  const double defocus_nm = static_cast<double>(state.range(0));
  const ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}};
  state.SetLabel(std::to_string(mask.nx()) + "x" + std::to_string(mask.ny()) +
                 " S=" + std::to_string(source.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aerial_image_blurred(mask, opt, defocus_nm, 25.0, source, imaging));
  }
}
BENCHMARK(BM_AerialImageSocsSignoff)->Arg(0)->Arg(30)
    ->Unit(benchmark::kMillisecond);

void BM_AerialImageSocsKernels(benchmark::State& state) {
  // Kernel-budget sweep at quality 3 (S = 24 source points): wall time vs
  // max_kernels, with the CD deviation from Abbe recorded in the label so
  // BENCH_PR3.json carries the speed/accuracy trade explicitly.
  std::vector<Rect> lines;
  for (int k = -3; k <= 3; ++k) lines.push_back({k * 250, -600, k * 250 + 90, 600});
  const Image2D mask = rasterize_mask(lines, {-900, -700, 990, 700}, 8.0);
  OpticalSettings opt;
  opt.source_rings = 3;
  const std::vector<SourcePoint> source = sample_source(opt);
  ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}};
  imaging.socs.max_kernels = static_cast<std::size_t>(state.range(0));
  imaging.socs.energy_fraction = 1.0;
  // CD at the central feature, Abbe vs truncated SOCS, measured on the
  // blurred aerial image at the 0.3 iso-level.
  const Image2D ref = aerial_image_blurred(mask, opt, 0.0, 25.0);
  const Image2D fast =
      aerial_image_blurred(mask, opt, 0.0, 25.0, source, imaging);
  auto cd_at = [](const Image2D& img, double level) {
    // Sub-sample the iso-level crossings of the central line by linear
    // interpolation so the label resolves CD deltas well below the step.
    const double y = 0.0, step = 0.25;
    bool found = false;
    double left = 0.0, right = 0.0;
    double prev = img.sample(-120.0, y);
    for (double x = -120.0 + step; x <= 120.0; x += step) {
      const double cur = img.sample(x, y);
      if (prev >= level && cur < level) {
        const double t = (prev - level) / (prev - cur);
        if (!found) left = x - step + t * step;
        found = true;
      }
      if (prev < level && cur >= level) {
        const double t = (level - prev) / (cur - prev);
        right = x - step + t * step;
      }
      prev = cur;
    }
    return found ? right - left : 0.0;
  };
  const double delta =
      std::abs(cd_at(fast, 0.3) - cd_at(ref, 0.3));
  state.SetLabel("cd_delta_nm=" + std::to_string(delta));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aerial_image_blurred(mask, opt, 0.0, 25.0, source, imaging));
  }
}
BENCHMARK(BM_AerialImageSocsKernels)
    ->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(24);

/// Fine-quality SOCS conditions for BM_AerialImageSocsFine below: kFine
/// pixel (5 nm) and source sampling (3 rings x 12 spokes).
struct FineSocsFixture {
  std::vector<Image2D> masks;
  OpticalSettings opt;
  std::vector<SourcePoint> source;
  ImagingOptions imaging{ImagingMode::kSocs, SocsOptions{}};

  explicit FineSocsFixture(std::size_t count) {
    opt.source_rings = 3;
    opt.source_spokes = 12;
    source = sample_source(opt);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<Rect> lines;
      const DbUnit w = 80 + 10 * static_cast<DbUnit>(i % 5);
      for (int k = -3; k <= 3; ++k) {
        lines.push_back({k * 250, -600, k * 250 + w, 600});
      }
      masks.push_back(rasterize_mask(lines, {-900, -700, 990, 700}, 5.0));
    }
  }
};

void BM_AerialImageSocsFine(benchmark::State& state) {
  // SOCS per window at fine quality, cycling through distinct masks.
  const FineSocsFixture fx(4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aerial_image_blurred(
        fx.masks[i % fx.masks.size()], fx.opt, 0.0, 25.0, fx.source,
        fx.imaging));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AerialImageSocsFine);

void BM_OpcWindow(benchmark::State& state) {
  const LithoSimulator sim;
  const poc::StdCellLibrary& lib = bench::library();
  const CellLayout cell = lib.layout("NAND2_X1", Tech::default_tech());
  std::vector<Polygon> targets;
  for (const Shape& s : cell.shapes) {
    if (s.layer == Layer::kPoly) targets.push_back(s.poly);
  }
  const Rect window = cell.boundary.inflated(600);
  const OpcEngine engine(sim, OpcOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.correct(targets, window));
  }
}
BENCHMARK(BM_OpcWindow)->Unit(benchmark::kMillisecond);

void BM_GateCdExtraction(benchmark::State& state) {
  const LithoSimulator sim;
  const poc::StdCellLibrary& lib = bench::library();
  const CellLayout cell = lib.layout("NAND2_X1", Tech::default_tech());
  std::vector<Rect> mask;
  for (const Shape& s : cell.shapes) {
    if (s.layer == Layer::kPoly) {
      for (const Rect& r : decompose(s.poly)) mask.push_back(r);
    }
  }
  const Rect window = cell.boundary.inflated(600);
  const Image2D latent = sim.latent(mask, window, {}, LithoQuality::kStandard);
  for (auto _ : state) {
    for (const GateInfo& g : cell.gates) {
      benchmark::DoNotOptimize(
          extract_gate_cd(latent, sim.print_threshold(), g.region, true));
    }
  }
}
BENCHMARK(BM_GateCdExtraction);

void BM_ExtractFullDesign(benchmark::State& state) {
  // Full-design post-OPC extraction — the flow's hot loop — across thread
  // counts.  Output is bit-identical for every Arg; only wall-clock moves.
  static PlacedDesign design = bench::make_design("c17");
  FlowOptions fopt;
  fopt.threads = static_cast<std::size_t>(state.range(0));
  PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
  flow.run_opc(OpcMode::kModelBased);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow.extract({}));
  }
}
BENCHMARK(BM_ExtractFullDesign)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_StaFullDesign(benchmark::State& state) {
  static PlacedDesign design = bench::make_design("rand200");
  static PostOpcFlow flow = bench::make_flow(design);
  StaEngine engine = flow.make_sta();
  const StaOptions opts = flow.options().sta;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(opts));
  }
}
BENCHMARK(BM_StaFullDesign)->Unit(benchmark::kMillisecond);

/// The rand200 flow the timing-service rows query.
PostOpcFlow& service_flow() {
  static PlacedDesign design = bench::make_design("rand200");
  static PostOpcFlow flow = bench::make_flow(design);
  return flow;
}

void BM_TimingServiceRead(benchmark::State& state) {
  // One read of the interactive loop on a warm service: worst slack plus
  // the ten worst paths.
  TimingService service = service_flow().make_timing_service();
  benchmark::DoNotOptimize(service.worst_slack());
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.worst_slack());
    benchmark::DoNotOptimize(service.paths(10));
  }
}
BENCHMARK(BM_TimingServiceRead);

void BM_TimingServiceWhatIf(benchmark::State& state) {
  // An 8-gate what-if (apply, measure, revert) on the same warm service:
  // the eight most critical gates, each 5 % slower.  One thread, so the
  // row times the what-if's own work rather than the pool's wake-ups.
  TimingService service = service_flow().make_timing_service();
  service.graph().set_threads(1);
  const std::vector<Ps> slack = service.graph().gate_slacks();
  std::vector<GateIdx> order(slack.size());
  for (GateIdx g = 0; g < order.size(); ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(), [&](GateIdx a, GateIdx b) {
    return slack[a] < slack[b];
  });
  std::vector<GateRetime> candidate;
  for (std::size_t k = 0; k < 8 && k < order.size(); ++k) {
    candidate.push_back({order[k], DelayAnnotation{1.05, 1.05, 1.0}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.whatif(candidate));
  }
}
BENCHMARK(BM_TimingServiceWhatIf);

}  // namespace
}  // namespace poc

BENCHMARK_MAIN();
