// Experiment T2 — the headline result: drawn-CD STA vs post-OPC-CD STA.
//
// The paper reports "substantial differences in the silicon-based timing
// simulations, both in terms of a significant reordering of speed path
// criticality and a 36.4 % increase in worst-case slack".  This bench runs
// the full flow (OPC -> extraction -> equivalent-gate back-annotation ->
// STA) on three designs and prints the same comparison: worst arrival,
// worst slack, slack change %, leakage change %, and the rank-correlation
// summary of the top speed paths.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>

#include "bench/bench_util.h"
#include "src/sta/paths.h"
#include "src/sta/timing_graph.h"

using namespace poc;

namespace {

/// An inverter chain places as rows of one identical cell: nearly every
/// litho window repeats up to translation — the structure the cache bench
/// exploits, and a uniform workload for the SOCS / containment overhead
/// sections.
PlacedDesign make_inv_chain64() {
  Netlist chain("inv_chain64");
  NetIdx prev = chain.add_net("in");
  chain.mark_primary_input(prev);
  for (int i = 0; i < 64; ++i) {
    const NetIdx out = chain.add_net("c" + std::to_string(i));
    chain.add_gate("inv" + std::to_string(i), "INV_X1", {prev}, out);
    prev = out;
  }
  chain.mark_primary_output(prev);
  return place_and_route(chain, bench::library());
}

}  // namespace

int main() {
  bench::section("T2: drawn-CD vs post-OPC-CD timing");
  Table table({"design", "gates", "clock (ps)", "drawn WNS arr", "drawn WS",
               "annot WS", "WS change %", "leak change %", "spearman",
               "top10 displaced"});

  for (const char* name : {"adder8", "mult4", "rand200"}) {
    PlacedDesign design = bench::make_design(name);
    FlowOptions fopt;
    fopt.sta.max_paths = 64;
    fopt.sta.path_window = 60.0;
    PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
    flow.run_opc(OpcMode::kModelBased);
    const TimingComparison cmp = flow.compare_timing();

    table.add_row({name, std::to_string(design.netlist.num_gates()),
                   Table::num(flow.options().sta.clock_period, 1),
                   Table::num(cmp.drawn.worst_arrival, 1),
                   Table::num(cmp.drawn.worst_slack, 1),
                   Table::num(cmp.annotated.worst_slack, 1),
                   Table::num(cmp.worst_slack_change_pct, 1),
                   Table::num(cmp.leakage_change_pct, 1),
                   Table::num(cmp.ranks.spearman, 3),
                   std::to_string(cmp.ranks.top10_displaced)});

    std::printf("[%s] worst drawn path:     %s\n", name,
                format_path(design.netlist, cmp.drawn.paths[0]).c_str());
    std::printf("[%s] worst annotated path: %s\n", name,
                format_path(design.netlist, cmp.annotated.paths[0]).c_str());
  }
  std::printf("%s", table.render().c_str());

  bench::section("T2: full-flow threads scaling (adder8)");
  {
    PlacedDesign design = bench::make_design("adder8");
    Table scale({"threads", "flow wall (ms)", "speedup", "annot WS (ps)"});
    double base_ms = 0.0;
    for (std::size_t th : {1u, 2u, 4u}) {
      FlowOptions fopt;
      fopt.sta.max_paths = 64;
      fopt.sta.path_window = 60.0;
      fopt.threads = th;
      // Cache off: this table measures engine scaling.  With the cache on,
      // a serial run replays repeated windows from it while a parallel run
      // computes identical windows concurrently (first insert wins), which
      // understates the engine and muddles both measurements.
      fopt.cache.enabled = false;
      PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
      double annot_ws = 0.0;
      const double ms = bench::wall_ms([&] {
        flow.run_opc(OpcMode::kModelBased);
        annot_ws = flow.compare_timing().annotated.worst_slack;
      });
      if (th == 1) base_ms = ms;
      // The WS column prints enough digits to show the runs agree exactly.
      scale.add_row({std::to_string(th), Table::num(ms, 1),
                     Table::num(base_ms / ms, 2), Table::num(annot_ws, 9)});
    }
    std::printf("%s", scale.render().c_str());
  }

  bench::section("T2: window cache on/off (repeated-instance design)");
  {
    PlacedDesign design = make_inv_chain64();

    Table cache_table(
        {"cache", "opc+extract wall (ms)", "speedup", "hit rate %", "annot WS"});
    double off_ms = 0.0;
    for (const bool enabled : {false, true}) {
      FlowOptions fopt;
      fopt.sta.max_paths = 16;
      fopt.cache.enabled = enabled;
      PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
      double annot_ws = 0.0;
      const double ms = bench::wall_ms([&] {
        flow.run_opc(OpcMode::kModelBased);
        const auto ext = flow.extract({});
        const auto ann = flow.annotate(ext);
        annot_ws = flow.run_sta(&ann).worst_slack;
      });
      if (!enabled) off_ms = ms;
      const double hit_rate =
          flow.cache_counters().total().hit_rate() * 100.0;
      cache_table.add_row({enabled ? "on" : "off", Table::num(ms, 1),
                           Table::num(off_ms / ms, 2),
                           Table::num(hit_rate, 1), Table::num(annot_ws, 9)});
      // Greppable proof line consumed by scripts/bench.sh.
      std::printf("CACHE_BENCH name=opc_extract_%s cache=%s wall_ms=%.3f "
                  "hit_rate=%.4f\n",
                  design.netlist.name().c_str(), enabled ? "on" : "off", ms,
                  flow.cache_counters().total().hit_rate());
    }
    std::printf("%s", cache_table.render().c_str());
  }

  bench::section("SOCS fast imaging: e2e opc+extract (inv_chain64, cache off)");
  {
    PlacedDesign design = make_inv_chain64();

    struct Config {
      const char* mode;
      ImagingMode flow_mode;
      ImagingMode opc_mode;
    };
    // abbe: the reference engine everywhere.  socs_opc (the default): OPC
    // iterations image with SOCS, extraction stays Abbe.  socs_full: OPC
    // and both flow simulators run SOCS end to end.
    const Config configs[] = {
        {"abbe", ImagingMode::kAbbe, ImagingMode::kAbbe},
        {"socs_opc", ImagingMode::kAbbe, ImagingMode::kSocs},
        {"socs_full", ImagingMode::kSocs, ImagingMode::kSocs},
    };
    Table socs_table({"mode", "opc+extract wall (ms)", "speedup", "annot WS"});
    double abbe_ms = 0.0;
    for (const Config& c : configs) {
      FlowOptions fopt;
      fopt.sta.max_paths = 16;
      fopt.cache.enabled = false;
      fopt.imaging.mode = c.flow_mode;
      fopt.opc.imaging = c.opc_mode;
      PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
      double annot_ws = 0.0;
      const double ms = bench::wall_ms([&] {
        flow.run_opc(OpcMode::kModelBased);
        const auto ext = flow.extract({});
        const auto ann = flow.annotate(ext);
        annot_ws = flow.run_sta(&ann).worst_slack;
      });
      if (c.opc_mode == ImagingMode::kAbbe) abbe_ms = ms;
      socs_table.add_row({c.mode, Table::num(ms, 1),
                          Table::num(abbe_ms / ms, 2),
                          Table::num(annot_ws, 9)});
      // Greppable proof line consumed by scripts/bench.sh.
      std::printf("SOCS_BENCH name=%s mode=%s wall_ms=%.3f ws=%.9f\n",
                  design.netlist.name().c_str(), c.mode, ms, annot_ws);
    }
    std::printf("%s", socs_table.render().c_str());
  }

  bench::section("Fault containment: fault-free overhead (inv_chain64, cache off)");
  {
    // Containment wraps every hot-loop window in a retry scope and a few
    // injection probes (one relaxed atomic load each when the harness is
    // off).  This section measures that fault-free tax: wall time with
    // recovery on vs off over the same design must agree within noise, and
    // the annotated WS must agree exactly (containment is not allowed to
    // perturb a clean run).
    PlacedDesign design = make_inv_chain64();
    Table fault_table(
        {"containment", "opc+extract wall (ms)", "overhead %", "annot WS"});
    double off_ms = 0.0;
    for (const bool enabled : {false, true}) {
      FlowOptions fopt;
      fopt.sta.max_paths = 16;
      fopt.cache.enabled = false;
      fopt.recovery.enabled = enabled;
      PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
      double annot_ws = 0.0;
      const double ms = bench::wall_ms([&] {
        flow.run_opc(OpcMode::kModelBased);
        const auto ext = flow.extract({});
        const auto ann = flow.annotate(ext);
        annot_ws = flow.run_sta(&ann).worst_slack;
      });
      if (!enabled) off_ms = ms;
      fault_table.add_row(
          {enabled ? "on" : "off", Table::num(ms, 1),
           Table::num(enabled ? (ms / off_ms - 1.0) * 100.0 : 0.0, 2),
           Table::num(annot_ws, 9)});
      // Greppable proof line consumed by scripts/bench.sh.
      std::printf("FAULT_BENCH name=%s containment=%s wall_ms=%.3f ws=%.9f\n",
                  design.netlist.name().c_str(), enabled ? "on" : "off", ms,
                  annot_ws);
    }
    std::printf("%s", fault_table.render().c_str());
  }

  bench::section("Run journal: fault-free overhead + replay (inv_chain64, cache off)");
  {
    // The write-ahead journal serializes every completed window and fsyncs
    // in batches.  This section measures that durability tax on the
    // fault-free path — wall time with the journal on vs off over the same
    // design (acceptance: < 2 % overhead) with an exactly-equal annotated
    // WS — plus a third run that resumes from the full journal, where
    // every window replays instead of recomputing.
    PlacedDesign design = make_inv_chain64();
    const std::string journal_dir =
        (std::filesystem::temp_directory_path() / "poc_bench_journal")
            .string();
    std::filesystem::remove_all(journal_dir);
    Table journal_table(
        {"journal", "opc+extract wall (ms)", "overhead %", "annot WS"});
    double off_ms = 0.0;
    for (const char* mode : {"off", "on", "resume"}) {
      FlowOptions fopt;
      fopt.sta.max_paths = 16;
      fopt.cache.enabled = false;
      fopt.journal.enabled = mode != std::string("off");
      fopt.journal.path = journal_dir;
      PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
      double annot_ws = 0.0;
      const double ms = bench::wall_ms([&] {
        flow.run_opc(OpcMode::kModelBased);
        const auto ext = flow.extract({});
        const auto ann = flow.annotate(ext);
        annot_ws = flow.run_sta(&ann).worst_slack;
      });
      if (mode == std::string("off")) off_ms = ms;
      journal_table.add_row(
          {mode, Table::num(ms, 1),
           Table::num(off_ms > 0.0 ? (ms / off_ms - 1.0) * 100.0 : 0.0, 2),
           Table::num(annot_ws, 9)});
      // Greppable proof line consumed by scripts/bench.sh.
      std::printf("JOURNAL_BENCH name=%s journal=%s wall_ms=%.3f ws=%.9f "
                  "replayed=%zu\n",
                  design.netlist.name().c_str(), mode, ms, annot_ws,
                  flow.journal_stats().replayed_hits);
    }
    std::printf("%s", journal_table.render().c_str());
    std::filesystem::remove_all(journal_dir);
  }

  bench::section("Incremental STA: full re-time vs worklist update");
  {
    // The T4 selective loop re-times after perturbing a handful of gates.
    // Pre-PR cost: a full stateless re-time (StaEngine::run — graph build,
    // full forward+backward propagation, path enumeration).  Post-PR cost:
    // a worklist update of the warm TimingGraph followed by the worst-slack
    // query.  Both sides process the identical perturbation sequence and
    // must agree on the worst slack bit-for-bit at every step.
    Table incr_table({"design", "k gates", "full (us/step)", "incr (us/step)",
                      "speedup", "ws (ps)"});
    for (const char* name : {"inv_chain64", "adder8"}) {
      PlacedDesign design = name == std::string("inv_chain64")
                                ? make_inv_chain64()
                                : bench::make_design(name);
      const Netlist& nl = design.netlist;
      const std::vector<NetParasitics> parasitics =
          Extractor(design.tech).extract_design(design);
      StaOptions sopt;
      sopt.max_paths = 16;

      for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}}) {
        if (k > nl.num_gates()) continue;
        std::mt19937_64 rng(42);
        std::uniform_int_distribution<std::size_t> gate_pick(
            0, nl.num_gates() - 1);
        std::uniform_real_distribution<double> scale(0.85, 1.25);
        std::vector<DelayAnnotation> current(nl.num_gates());

        StaEngine engine(nl, bench::library());
        engine.set_parasitics(parasitics);
        TimingGraph warm(nl, bench::library(), sopt, /*threads=*/1);
        warm.set_parasitics(parasitics);
        warm.worst_slack();  // settle the warm graph before timing it

        const std::size_t steps = 50;
        double full_ns = 0.0, incr_ns = 0.0;
        double ws_full = 0.0, ws_incr = 0.0;
        for (std::size_t step = 0; step < steps; ++step) {
          std::vector<GateIdx> changed;
          for (std::size_t i = 0; i < k; ++i) {
            const GateIdx g = gate_pick(rng);
            current[g] = {scale(rng), scale(rng), 1.0};
            changed.push_back(g);
          }
          const auto t0 = std::chrono::steady_clock::now();
          for (GateIdx g : changed) warm.set_annotation(g, current[g]);
          warm.update_delays(changed);
          ws_incr = warm.worst_slack();
          const auto t1 = std::chrono::steady_clock::now();
          engine.set_annotations(current);
          ws_full = engine.run(sopt).worst_slack;
          const auto t2 = std::chrono::steady_clock::now();
          incr_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
          full_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
          if (std::memcmp(&ws_full, &ws_incr, sizeof(double)) != 0) {
            std::fprintf(stderr,
                         "INCR_BENCH MISMATCH %s k=%zu step=%zu: %.17g vs "
                         "%.17g\n",
                         name, k, step, ws_full, ws_incr);
            return 1;
          }
        }
        const double full_us = full_ns / 1e3 / steps;
        const double incr_us = incr_ns / 1e3 / steps;
        incr_table.add_row({name, std::to_string(k), Table::num(full_us, 1),
                            Table::num(incr_us, 1),
                            Table::num(full_us / incr_us, 2),
                            Table::num(ws_incr, 9)});
        // Greppable proof lines consumed by scripts/bench.sh.
        std::printf("INCR_BENCH name=%s k=%zu mode=full wall_us=%.3f "
                    "ws=%.9f\n",
                    name, k, full_us, ws_full);
        std::printf("INCR_BENCH name=%s k=%zu mode=incr wall_us=%.3f "
                    "ws=%.9f\n",
                    name, k, incr_us, ws_incr);
      }
    }
    std::printf("%s", incr_table.render().c_str());
  }

  bench::section("SOCS fast imaging: T2 headline under full SOCS (adder8)");
  {
    PlacedDesign design = bench::make_design("adder8");
    FlowOptions fopt;
    fopt.sta.max_paths = 64;
    fopt.sta.path_window = 60.0;
    fopt.imaging.mode = ImagingMode::kSocs;
    PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
    flow.run_opc(OpcMode::kModelBased);
    const TimingComparison cmp = flow.compare_timing();
    std::printf("drawn WS %.3f  annot WS %.3f  WS change %.1f%%  "
                "spearman %.3f  top10 displaced %zu\n",
                cmp.drawn.worst_slack, cmp.annotated.worst_slack,
                cmp.worst_slack_change_pct, cmp.ranks.spearman,
                cmp.ranks.top10_displaced);
    // Greppable proof line consumed by scripts/bench.sh.
    std::printf("SOCS_T2 design=adder8 ws_change_pct=%.3f spearman=%.4f "
                "top10_displaced=%zu\n",
                cmp.worst_slack_change_pct, cmp.ranks.spearman,
                cmp.ranks.top10_displaced);
  }

  std::printf(
      "\nShape check (paper): worst-case slack magnitude shifts by tens of\n"
      "percent (paper: 36.4%% on its industrial design) because the slack is\n"
      "a small difference of large arrival numbers; path ranking visibly\n"
      "reshuffles (spearman < 1, top-10 membership changes).\n");
  return 0;
}
