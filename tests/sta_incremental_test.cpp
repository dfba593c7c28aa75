// Equivalence fuzz harness for the incremental TimingGraph: random DAG
// netlists (fanout trees, reconvergence) plus random perturbation
// sequences, asserting after every step that the warm incrementally-updated
// graph answers bit-identically to a from-scratch propagation over the same
// state — arrivals, requireds, slacks and top-K paths, at 1 and 4 threads.
// This is the acceptance gate for the worklist engine: any staleness bug
// (under-marking, propagation cut too early, merge-order divergence) shows
// up as a bit difference against the fresh reference.
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/netlist/generators.h"
#include "src/pex/extractor.h"
#include "src/pnr/design.h"
#include "src/sta/service.h"
#include "src/sta/timing_graph.h"
#include "src/stdcell/library.h"

#include <filesystem>

namespace poc {
namespace {

const StdCellLibrary& lib() {
  static const StdCellLibrary l = StdCellLibrary::load_or_characterize(
      (std::filesystem::temp_directory_path() / "poc_cells_test.lib")
          .string());
  return l;
}

bool bits_eq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_node_eq(const NodeTime& a, const NodeTime& b, NetIdx net,
                    const char* what) {
  ASSERT_EQ(a.valid, b.valid) << what << " validity, net " << net;
  ASSERT_TRUE(bits_eq(a.at, b.at)) << what << " at, net " << net << ": "
                                   << a.at << " vs " << b.at;
  ASSERT_TRUE(bits_eq(a.slew, b.slew))
      << what << " slew, net " << net << ": " << a.slew << " vs " << b.slew;
}

void expect_paths_eq(const std::vector<TimingPath>& a,
                     const std::vector<TimingPath>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].endpoint, b[i].endpoint) << "path " << i;
    ASSERT_EQ(a[i].endpoint_rising, b[i].endpoint_rising) << "path " << i;
    ASSERT_TRUE(bits_eq(a[i].arrival, b[i].arrival)) << "path " << i;
    ASSERT_TRUE(bits_eq(a[i].slack, b[i].slack)) << "path " << i;
    ASSERT_EQ(a[i].points.size(), b[i].points.size()) << "path " << i;
    for (std::size_t p = 0; p < a[i].points.size(); ++p) {
      ASSERT_EQ(a[i].points[p].net, b[i].points[p].net)
          << "path " << i << " point " << p;
      ASSERT_EQ(a[i].points[p].rising, b[i].points[p].rising)
          << "path " << i << " point " << p;
      ASSERT_TRUE(bits_eq(a[i].points[p].arrival, b[i].points[p].arrival))
          << "path " << i << " point " << p;
    }
  }
}

/// Asserts the warm graph's every queryable quantity is bit-identical to
/// `fresh`, a from-scratch graph over the same state.
void expect_equivalent(TimingGraph& warm, TimingGraph& fresh) {
  const Netlist& nl = warm.netlist();
  ASSERT_TRUE(bits_eq(warm.worst_arrival(), fresh.worst_arrival()));
  ASSERT_TRUE(bits_eq(warm.worst_slack(), fresh.worst_slack()));
  for (NetIdx n = 0; n < nl.num_nets(); ++n) {
    expect_node_eq(warm.arrival(n, true), fresh.arrival(n, true), n, "rise");
    expect_node_eq(warm.arrival(n, false), fresh.arrival(n, false), n, "fall");
    ASSERT_TRUE(bits_eq(warm.required(n, true), fresh.required(n, true)))
        << "req rise, net " << n;
    ASSERT_TRUE(bits_eq(warm.required(n, false), fresh.required(n, false)))
        << "req fall, net " << n;
    ASSERT_TRUE(bits_eq(warm.pin_slack(n), fresh.pin_slack(n)))
        << "pin slack, net " << n;
  }
  const std::vector<Ps> ws = warm.gate_slacks();
  const std::vector<Ps> fs = fresh.gate_slacks();
  ASSERT_EQ(ws.size(), fs.size());
  for (std::size_t g = 0; g < ws.size(); ++g) {
    ASSERT_TRUE(bits_eq(ws[g], fs[g])) << "gate slack, gate " << g;
  }
  expect_paths_eq(warm.top_paths(8), fresh.top_paths(8));
}

DelayAnnotation random_annotation(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> delay(0.8, 1.3);
  std::uniform_real_distribution<double> leak(0.9, 1.2);
  return {delay(rng), delay(rng), leak(rng)};
}

/// Runs `steps` random perturbations (1..max_gates_per_step gate-delay
/// changes each) against a warm graph at `threads`, checking bit-identity
/// with a from-scratch single-threaded reference after every step.
/// Returns the number of perturbation steps executed.
std::size_t run_fuzz(const Netlist& nl, const StaOptions& options,
                     const std::vector<NetParasitics>& parasitics,
                     std::size_t threads, std::uint64_t seed,
                     std::size_t steps, std::size_t max_gates_per_step = 4) {
  std::mt19937_64 rng(seed);
  TimingGraph warm(nl, lib(), options, threads);
  if (!parasitics.empty()) warm.set_parasitics(parasitics);

  std::vector<DelayAnnotation> current(nl.num_gates());
  std::uniform_int_distribution<std::size_t> gate_pick(0, nl.num_gates() - 1);
  std::uniform_int_distribution<std::size_t> count_pick(1, max_gates_per_step);
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<GateIdx> changed;
    for (std::size_t i = 0; i < count_pick(rng); ++i) {
      const GateIdx g = gate_pick(rng);
      current[g] = random_annotation(rng);
      changed.push_back(g);
    }
    // Alternate the two mutation entry points: the diffing bulk setter and
    // the explicit per-gate update_delays path.
    if (step % 2 == 0) {
      warm.set_annotations(current);
      warm.flush();
    } else {
      for (GateIdx g : changed) warm.set_annotation(g, current[g]);
      warm.update_delays(changed);
    }

    TimingGraph fresh(nl, lib(), options, /*threads=*/1);
    if (!parasitics.empty()) fresh.set_parasitics(parasitics);
    fresh.set_annotations(current);
    expect_equivalent(warm, fresh);
  }
  return steps;
}

StaOptions stressed_corner() {
  StaOptions o;
  o.clock_period = 450.0;
  o.input_slew = 80.0;
  o.po_load_ff = 8.0;
  o.late_derate = 1.08;
  o.path_window = 120.0;
  return o;
}

TEST(StaIncrementalFuzz, RandomDagsBitIdenticalAtOneAndFourThreads) {
  // 2 random DAGs x 2 corners x 2 thread counts x 30 steps = 240 fuzz
  // steps, on top of the structured-netlist suites below.
  std::size_t total = 0;
  for (std::uint64_t design_seed : {7u, 91u}) {
    const Netlist nl = make_random_logic(60, 8, design_seed);
    for (int corner = 0; corner < 2; ++corner) {
      const StaOptions options =
          corner == 0 ? StaOptions{} : stressed_corner();
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        total += run_fuzz(nl, options, {}, threads,
                          /*seed=*/1000 + design_seed + corner, /*steps=*/30);
      }
    }
  }
  EXPECT_GE(total, 200u);
}

TEST(StaIncrementalFuzz, FanoutTreeAndReconvergence) {
  // parity16 is a reconvergent XOR tree; decoder4 a fanout tree.  Larger
  // per-step change sets stress overlapping-cone merging.
  for (const char* name : {"parity16", "decoder4"}) {
    const Netlist nl = make_benchmark(name);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      run_fuzz(nl, {}, {}, threads, /*seed=*/5, /*steps=*/12,
               /*max_gates_per_step=*/8);
    }
  }
}

TEST(StaIncrementalFuzz, WithParasitics) {
  const Netlist nl = make_benchmark("adder8");
  const PlacedDesign design = place_and_route(nl, lib());
  const std::vector<NetParasitics> parasitics =
      Extractor(design.tech).extract_design(design);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    run_fuzz(nl, {}, parasitics, threads, /*seed=*/17, /*steps=*/10);
  }
}

TEST(StaIncrementalFuzz, CornerSwitchesOnWarmGraph) {
  // Re-target the same warm graph across corners mid-stream: set_options
  // must dirty exactly enough for bit-identity with a fresh graph.
  const Netlist nl = make_random_logic(50, 6, 3);
  std::mt19937_64 rng(99);
  TimingGraph warm(nl, lib(), {}, /*threads=*/4);
  std::vector<DelayAnnotation> current(nl.num_gates());
  std::uniform_int_distribution<std::size_t> gate_pick(0, nl.num_gates() - 1);
  const StaOptions corners[] = {StaOptions{}, stressed_corner(),
                                []() {
                                  StaOptions o;
                                  o.clock_period = 600.0;
                                  return o;
                                }()};
  for (std::size_t step = 0; step < 12; ++step) {
    const StaOptions& options = corners[step % 3];
    warm.set_options(options);
    const GateIdx g = gate_pick(rng);
    current[g] = random_annotation(rng);
    warm.set_annotation(g, current[g]);
    warm.update_delays({g});

    TimingGraph fresh(nl, lib(), options, /*threads=*/1);
    fresh.set_annotations(current);
    expect_equivalent(warm, fresh);
  }
}

TEST(StaIncrementalFuzz, ParasiticsSwitchOnWarmGraph) {
  // The graph keeps net loads, wire delays and per-gate cell timing in
  // tables that its arrival, required and path queries all read.  Switch
  // one warm graph between wired and ideal nets and between PO loads in
  // the middle of an annotation stream: every table must follow each
  // switch.  The reference takes its parasitics through the other entry
  // point (borrow_parasitics) and its PO load at construction, so a
  // switch that left a table stale cannot fail the same way on both sides.
  const Netlist nl = make_benchmark("adder8");
  const PlacedDesign design = place_and_route(nl, lib());
  const std::vector<NetParasitics> parasitics =
      Extractor(design.tech).extract_design(design);
  StaOptions heavy_po;
  heavy_po.po_load_ff = 12.0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::mt19937_64 rng(31 + threads);
    TimingGraph warm(nl, lib(), {}, threads);
    StaOptions options;
    bool wired = false;
    std::vector<DelayAnnotation> current(nl.num_gates());
    std::uniform_int_distribution<std::size_t> gate_pick(0,
                                                         nl.num_gates() - 1);
    for (std::size_t step = 0; step < 12; ++step) {
      switch (step % 4) {
        case 0:
          warm.set_parasitics(parasitics);
          wired = true;
          break;
        case 2:
          warm.borrow_parasitics(nullptr);
          wired = false;
          break;
        default:  // a PO-load switch, on wired (1) and ideal (3) nets
          options = options.po_load_ff == StaOptions{}.po_load_ff
                        ? heavy_po
                        : StaOptions{};
          warm.set_options(options);
          break;
      }
      for (int k = 0; k < 3; ++k) {
        current[gate_pick(rng)] = random_annotation(rng);
      }
      warm.set_annotations(current);
      warm.flush();

      TimingGraph fresh(nl, lib(), options, /*threads=*/1);
      if (wired) fresh.borrow_parasitics(&parasitics);
      fresh.set_annotations(current);
      expect_equivalent(warm, fresh);
    }
  }
}

TEST(StaIncrementalFuzz, FullReportMatchesStatelessEngine) {
  // The warm graph's report() against StaEngine::run — the exact object the
  // flow consumes (endpoints, paths, leakage, gate slacks).
  const Netlist nl = make_benchmark("adder8");
  std::mt19937_64 rng(21);
  TimingGraph warm(nl, lib(), {}, /*threads=*/4);
  std::vector<DelayAnnotation> current(nl.num_gates());
  std::uniform_int_distribution<std::size_t> gate_pick(0, nl.num_gates() - 1);
  StaEngine engine(nl, lib());
  for (std::size_t step = 0; step < 10; ++step) {
    current[gate_pick(rng)] = random_annotation(rng);
    warm.set_annotations(current);
    const StaReport inc = warm.report();
    engine.set_annotations(current);
    const StaReport full = engine.run({});
    ASSERT_TRUE(bits_eq(inc.worst_arrival, full.worst_arrival));
    ASSERT_TRUE(bits_eq(inc.worst_slack, full.worst_slack));
    ASSERT_TRUE(bits_eq(inc.total_leakage_ua, full.total_leakage_ua));
    ASSERT_EQ(inc.endpoints.size(), full.endpoints.size());
    for (std::size_t i = 0; i < inc.endpoints.size(); ++i) {
      ASSERT_EQ(inc.endpoints[i].net, full.endpoints[i].net);
      ASSERT_EQ(inc.endpoints[i].rising, full.endpoints[i].rising);
      ASSERT_TRUE(bits_eq(inc.endpoints[i].arrival, full.endpoints[i].arrival));
      ASSERT_TRUE(bits_eq(inc.endpoints[i].slack, full.endpoints[i].slack));
    }
    expect_paths_eq(inc.paths, full.paths);
    ASSERT_EQ(inc.gate_slack.size(), full.gate_slack.size());
    for (std::size_t g = 0; g < inc.gate_slack.size(); ++g) {
      ASSERT_TRUE(bits_eq(inc.gate_slack[g], full.gate_slack[g]));
    }
  }
}

}  // namespace
}  // namespace poc
