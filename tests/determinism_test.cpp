// Determinism property tests for the parallel window engine: the whole
// point of src/par is that thread count is a pure performance knob, so
// every flow product — masks, OPC stats, CD records, annotations, slacks,
// hotspot lists, Monte-Carlo samples — must be bit-identical between
// threads=1 and threads=4.  EXPECT_EQ on doubles below is deliberate:
// approximate equality would hide reduction-order bugs.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/flow.h"
#include "src/core/mc_timing.h"
#include "src/netlist/generators.h"

namespace poc {
namespace {

const StdCellLibrary& lib() {
  static const StdCellLibrary l = StdCellLibrary::load_or_characterize(
      (std::filesystem::temp_directory_path() / "poc_cells_test.lib")
          .string());
  return l;
}

FlowOptions options_with_threads(std::size_t threads) {
  FlowOptions opts;
  opts.sta.clock_period = 90.0;
  opts.threads = threads;
  return opts;
}

void expect_same_extraction(const std::vector<GateExtraction>& a,
                            const std::vector<GateExtraction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g].gate, b[g].gate);
    ASSERT_EQ(a[g].devices.size(), b[g].devices.size());
    for (std::size_t d = 0; d < a[g].devices.size(); ++d) {
      const DeviceCd& da = a[g].devices[d];
      const DeviceCd& db = b[g].devices[d];
      EXPECT_EQ(da.device, db.device);
      EXPECT_EQ(da.is_nmos, db.is_nmos);
      EXPECT_EQ(da.drawn_l_nm, db.drawn_l_nm);
      EXPECT_EQ(da.drawn_w_nm, db.drawn_w_nm);
      EXPECT_EQ(da.profile.slice_width_nm, db.profile.slice_width_nm);
      EXPECT_EQ(da.profile.drawn_cd_nm, db.profile.drawn_cd_nm);
      ASSERT_EQ(da.profile.slice_cd_nm.size(), db.profile.slice_cd_nm.size());
      for (std::size_t s = 0; s < da.profile.slice_cd_nm.size(); ++s) {
        EXPECT_EQ(da.profile.slice_cd_nm[s], db.profile.slice_cd_nm[s])
            << "gate " << g << " dev " << d << " slice " << s;
      }
      EXPECT_EQ(da.eq.width_um, db.eq.width_um);
      EXPECT_EQ(da.eq.ion_ua, db.eq.ion_ua);
      EXPECT_EQ(da.eq.ioff_ua, db.eq.ioff_ua);
      EXPECT_EQ(da.eq.l_eff_drive_nm, db.eq.l_eff_drive_nm);
      EXPECT_EQ(da.eq.l_eff_leak_nm, db.eq.l_eff_leak_nm);
      EXPECT_EQ(da.eq.functional, db.eq.functional);
    }
  }
}

/// A serial and a 4-thread flow over the same design, OPC already run.
class DeterminismFixture : public ::testing::Test {
 protected:
  static PostOpcFlow& serial() { return *flows().first; }
  static PostOpcFlow& parallel() { return *flows().second; }

  static const PlacedDesign& design() {
    static PlacedDesign d = place_and_route(make_c17(), lib());
    return d;
  }

 private:
  static std::pair<std::unique_ptr<PostOpcFlow>, std::unique_ptr<PostOpcFlow>>&
  flows() {
    static auto built = [] {
      auto s = std::make_unique<PostOpcFlow>(design(), lib(), LithoSimulator{},
                                             options_with_threads(1));
      auto p = std::make_unique<PostOpcFlow>(design(), lib(), LithoSimulator{},
                                             options_with_threads(4));
      s->run_opc(OpcMode::kModelBased);
      p->run_opc(OpcMode::kModelBased);
      return std::make_pair(std::move(s), std::move(p));
    }();
    return built;
  }
};

TEST_F(DeterminismFixture, OpcMasksAndStatsBitIdentical) {
  const OpcStats& a = serial().opc_stats();
  const OpcStats& b = parallel().opc_stats();
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.model_based_windows, b.model_based_windows);
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.max_abs_epe_nm, b.max_abs_epe_nm);
  EXPECT_EQ(a.rms_epe_sum, b.rms_epe_sum);
  for (std::size_t i = 0; i < design().layout.num_instances(); ++i) {
    const std::vector<Rect>& ma = serial().mask_for_instance(i);
    const std::vector<Rect>& mb = parallel().mask_for_instance(i);
    ASSERT_EQ(ma.size(), mb.size()) << "instance " << i;
    for (std::size_t r = 0; r < ma.size(); ++r) {
      EXPECT_EQ(ma[r], mb[r]) << "instance " << i << " rect " << r;
    }
  }
}

TEST_F(DeterminismFixture, ExtractionBitIdenticalNominalAndDefocus) {
  expect_same_extraction(serial().extract({}), parallel().extract({}));
  expect_same_extraction(serial().extract({120.0, 1.04}),
                         parallel().extract({120.0, 1.04}));
}

TEST_F(DeterminismFixture, CompareTimingBitIdentical) {
  const TimingComparison a = serial().compare_timing();
  const TimingComparison b = parallel().compare_timing();
  EXPECT_EQ(a.drawn.worst_slack, b.drawn.worst_slack);
  EXPECT_EQ(a.annotated.worst_slack, b.annotated.worst_slack);
  EXPECT_EQ(a.annotated.total_leakage_ua, b.annotated.total_leakage_ua);
  EXPECT_EQ(a.worst_slack_change_pct, b.worst_slack_change_pct);
  ASSERT_EQ(a.annotated.paths.size(), b.annotated.paths.size());
  for (std::size_t p = 0; p < a.annotated.paths.size(); ++p) {
    EXPECT_EQ(a.annotated.paths[p].signature(design().netlist),
              b.annotated.paths[p].signature(design().netlist));
    EXPECT_EQ(a.annotated.paths[p].arrival, b.annotated.paths[p].arrival);
  }
}

TEST_F(DeterminismFixture, HotspotScanBitIdentical) {
  OrcOptions orc;
  orc.epe_limit_nm = 6.0;
  const std::vector<ProcessCorner> corners{{"nominal", {0.0, 1.0}},
                                           {"stress", {150.0, 1.08}}};
  const auto a = serial().scan_hotspots(corners, orc);
  const auto b = parallel().scan_hotspots(corners, orc);
  EXPECT_EQ(a.windows_checked, b.windows_checked);
  EXPECT_EQ(a.pinches, b.pinches);
  EXPECT_EQ(a.bridges, b.bridges);
  EXPECT_EQ(a.epe_violations, b.epe_violations);
  ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
  // Violation *order* must match too: merge happens in instance order.
  for (std::size_t h = 0; h < a.hotspots.size(); ++h) {
    EXPECT_EQ(a.hotspots[h].instance, b.hotspots[h].instance);
    EXPECT_EQ(a.hotspots[h].exposure_name, b.hotspots[h].exposure_name);
  }
}

TEST_F(DeterminismFixture, MonteCarloTimingBitIdentical) {
  const std::vector<GateIdx> subset{0, 2, 4};
  const auto responses = serial().fit_responses(subset);
  const auto responses_par = parallel().fit_responses(subset);
  ASSERT_EQ(responses.size(), responses_par.size());
  for (std::size_t r = 0; r < responses.size(); ++r) {
    EXPECT_EQ(responses[r].mean_cd.c0, responses_par[r].mean_cd.c0);
    EXPECT_EQ(responses[r].mean_cd.cf, responses_par[r].mean_cd.cf);
    EXPECT_EQ(responses[r].mean_cd.cd1, responses_par[r].mean_cd.cd1);
  }

  const VariationModel model;
  const McTimingResult a =
      run_mc_timing(serial(), responses, model, 40, /*seed=*/123);
  const McTimingResult b =
      run_mc_timing(parallel(), responses, model, 40, /*seed=*/123);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    EXPECT_EQ(a.samples[s].exposure.focus_nm, b.samples[s].exposure.focus_nm);
    EXPECT_EQ(a.samples[s].exposure.dose, b.samples[s].exposure.dose);
    EXPECT_EQ(a.samples[s].worst_slack, b.samples[s].worst_slack);
    EXPECT_EQ(a.samples[s].leakage_ua, b.samples[s].leakage_ua);
  }
  EXPECT_EQ(a.slack_stats.mean(), b.slack_stats.mean());
  EXPECT_EQ(a.leak_stats.stddev(), b.leak_stats.stddev());
}

TEST(DeterminismSocs, SocsFlowBitIdenticalAcrossThreads) {
  // The SOCS fast imaging path must honour the same contract as Abbe:
  // thread count is a pure performance knob.  Both the parity-packed
  // nominal path (OPC iterations) and the generic complex path (defocused
  // extraction) run inside this flow.
  PlacedDesign design = place_and_route(make_c17(), lib());
  FlowOptions serial_opts = options_with_threads(1);
  serial_opts.imaging.mode = ImagingMode::kSocs;
  FlowOptions parallel_opts = options_with_threads(4);
  parallel_opts.imaging.mode = ImagingMode::kSocs;
  PostOpcFlow serial(design, lib(), LithoSimulator{}, serial_opts);
  PostOpcFlow parallel(design, lib(), LithoSimulator{}, parallel_opts);
  serial.run_opc(OpcMode::kModelBased);
  parallel.run_opc(OpcMode::kModelBased);
  EXPECT_EQ(serial.opc_stats().iterations, parallel.opc_stats().iterations);
  EXPECT_EQ(serial.opc_stats().rms_epe_sum, parallel.opc_stats().rms_epe_sum);
  for (std::size_t i = 0; i < design.layout.num_instances(); ++i) {
    const std::vector<Rect>& ma = serial.mask_for_instance(i);
    const std::vector<Rect>& mb = parallel.mask_for_instance(i);
    ASSERT_EQ(ma.size(), mb.size()) << "instance " << i;
    for (std::size_t r = 0; r < ma.size(); ++r) {
      EXPECT_EQ(ma[r], mb[r]) << "instance " << i << " rect " << r;
    }
  }
  expect_same_extraction(serial.extract({}), parallel.extract({}));
  expect_same_extraction(serial.extract({120.0, 1.04}),
                         parallel.extract({120.0, 1.04}));
  const TimingComparison a = serial.compare_timing();
  const TimingComparison b = parallel.compare_timing();
  EXPECT_EQ(a.annotated.worst_slack, b.annotated.worst_slack);
  EXPECT_EQ(a.worst_slack_change_pct, b.worst_slack_change_pct);
}

/// The three imaging schedules the flow runs: Abbe everywhere, SOCS for the
/// OPC model only (the default), and SOCS end to end.
struct EngineCase {
  const char* name;
  ImagingMode flow_mode;
  ImagingMode opc_mode;
};
constexpr EngineCase kEngines[] = {
    {"abbe", ImagingMode::kAbbe, ImagingMode::kAbbe},
    {"socs_opc", ImagingMode::kAbbe, ImagingMode::kSocs},
    {"socs_full", ImagingMode::kSocs, ImagingMode::kSocs},
};

FlowOptions engine_options(const EngineCase& e, std::size_t threads) {
  FlowOptions opts = options_with_threads(threads);
  opts.imaging.mode = e.flow_mode;
  opts.opc.imaging = e.opc_mode;
  return opts;
}

TEST(DeterminismEngines, FlowBitIdenticalAcrossThreads) {
  // Under every imaging schedule, masks, OPC stats, per-gate CDs and the
  // annotated worst slack are bit-identical at 1 and 4 threads.
  PlacedDesign design = place_and_route(make_c17(), lib());
  for (const EngineCase& e : kEngines) {
    SCOPED_TRACE(e.name);
    PostOpcFlow serial(design, lib(), LithoSimulator{}, engine_options(e, 1));
    PostOpcFlow parallel(design, lib(), LithoSimulator{},
                         engine_options(e, 4));
    serial.run_opc(OpcMode::kModelBased);
    parallel.run_opc(OpcMode::kModelBased);
    EXPECT_EQ(serial.opc_stats().iterations, parallel.opc_stats().iterations);
    EXPECT_EQ(serial.opc_stats().rms_epe_sum,
              parallel.opc_stats().rms_epe_sum);
    for (std::size_t i = 0; i < design.layout.num_instances(); ++i) {
      const std::vector<Rect>& ma = serial.mask_for_instance(i);
      const std::vector<Rect>& mb = parallel.mask_for_instance(i);
      ASSERT_EQ(ma.size(), mb.size()) << "instance " << i;
      for (std::size_t r = 0; r < ma.size(); ++r) {
        EXPECT_EQ(ma[r], mb[r]) << "instance " << i << " rect " << r;
      }
    }
    expect_same_extraction(serial.extract({}), parallel.extract({}));
    const TimingComparison a = serial.compare_timing();
    const TimingComparison b = parallel.compare_timing();
    EXPECT_EQ(a.annotated.worst_slack, b.annotated.worst_slack);
    EXPECT_EQ(a.annotated.total_leakage_ua, b.annotated.total_leakage_ua);
  }
}

TEST(DeterminismEngines, HotspotScanBitIdenticalAcrossThreads) {
  // The scan images two latents per (window, corner); violation lists and
  // order match at 1 and 4 threads under every imaging schedule.
  PlacedDesign design = place_and_route(make_c17(), lib());
  OrcOptions orc;
  orc.epe_limit_nm = 6.0;
  const std::vector<ProcessCorner> corners{{"nominal", {0.0, 1.0}},
                                           {"stress", {150.0, 1.08}}};
  for (const EngineCase& e : kEngines) {
    SCOPED_TRACE(e.name);
    const auto scan = [&](std::size_t threads) {
      PostOpcFlow flow(design, lib(), LithoSimulator{},
                       engine_options(e, threads));
      flow.run_opc(OpcMode::kModelBased);
      return flow.scan_hotspots(corners, orc);
    };
    const auto a = scan(1);
    const auto b = scan(4);
    EXPECT_EQ(a.windows_checked, b.windows_checked);
    EXPECT_EQ(a.pinches, b.pinches);
    EXPECT_EQ(a.bridges, b.bridges);
    EXPECT_EQ(a.epe_violations, b.epe_violations);
    ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
    for (std::size_t h = 0; h < a.hotspots.size(); ++h) {
      EXPECT_EQ(a.hotspots[h].instance, b.hotspots[h].instance);
      EXPECT_EQ(a.hotspots[h].exposure_name, b.hotspots[h].exposure_name);
      EXPECT_EQ(a.hotspots[h].violation.value_nm,
                b.hotspots[h].violation.value_nm);
    }
  }
}

TEST(DeterminismAdder4, SelectiveFlowBitIdentical) {
  // Second design (adder4), selective OPC + subset extraction: the mixed
  // rule-based / model-based path must be as deterministic as the uniform
  // one.
  PlacedDesign design = place_and_route(make_benchmark("adder4"), lib());
  PostOpcFlow serial(design, lib(), LithoSimulator{}, options_with_threads(1));
  PostOpcFlow parallel(design, lib(), LithoSimulator{},
                       options_with_threads(4));
  const auto critical = serial.tag_critical_gates(25.0);
  ASSERT_FALSE(critical.empty());
  serial.run_opc_selective(critical);
  parallel.run_opc_selective(critical);
  EXPECT_EQ(serial.opc_stats().fragments, parallel.opc_stats().fragments);
  EXPECT_EQ(serial.opc_stats().rms_epe_sum, parallel.opc_stats().rms_epe_sum);
  expect_same_extraction(serial.extract({}, critical),
                         parallel.extract({}, critical));
}

}  // namespace
}  // namespace poc
