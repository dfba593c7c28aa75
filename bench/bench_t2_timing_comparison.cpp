// Experiment T2 — the headline result: drawn-CD STA vs post-OPC-CD STA.
//
// The paper reports "substantial differences in the silicon-based timing
// simulations, both in terms of a significant reordering of speed path
// criticality and a 36.4 % increase in worst-case slack".  This bench runs
// the full flow (OPC -> extraction -> equivalent-gate back-annotation ->
// STA) on three designs and prints the same comparison: worst arrival,
// worst slack, slack change %, leakage change %, and the rank-correlation
// summary of the top speed paths.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/sta/paths.h"

using namespace poc;

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
  }

  std::printf(
      "\nShape check (paper): worst-case slack magnitude shifts by tens of\n"
      "percent (paper: 36.4%% on its industrial design) because the slack is\n"
      "a small difference of large arrival numbers; path ranking visibly\n"
      "reshuffles (spearman < 1, top-10 membership changes).\n");
  return 0;
}
