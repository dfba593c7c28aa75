// Experiment F3 — OPC convergence and correction-style comparison.
//
// Per-iteration max/RMS edge-placement error of the model-based engine on a
// representative cell window, the effect of the feedback damping factor
// (DESIGN.md ablation 4), and the final residual of no-OPC / rule-based /
// model-based / model+SRAF corrections on an isolated line.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/geom/polygon_ops.h"
#include "src/opc/opc_engine.h"
#include "src/opc/orc.h"
#include "src/opc/rule_opc.h"

using namespace poc;

int main() {
  const LithoSimulator sim;

  // A NAND3-like window: three fingers with landing pads plus an isolated
  // neighbour line.
  std::vector<Polygon> targets;
  const StdCellLibrary& lib = bench::library();
  const CellLayout cell = lib.layout("NAND3_X1", Tech::default_tech());
  for (const Shape& s : cell.shapes) {
    if (s.layer == Layer::kPoly) targets.push_back(s.poly);
  }
  targets.push_back(Polygon::from_rect({-500, 200, -410, 2300}));
  const Rect window = cell.boundary.inflated(650);

  const OpcOptions defaults;
  bench::section("F3: model-based OPC convergence (NAND3 window)");
  const OpcResult conv = OpcEngine(sim, defaults).correct(targets, window);
  {
    Table table({"iteration", "max |EPE| body (nm)", "rms EPE body (nm)"});
    for (std::size_t i = 0; i < conv.max_epe_history.size(); ++i) {
      table.add_row({std::to_string(i + 1),
                     Table::num(conv.max_epe_history[i], 2),
                     Table::num(conv.rms_epe_history[i], 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("fragments: %zu (corner fragments excluded from body EPE)\n",
                conv.fragments.size());
  }

  bench::section("F3: damping-factor ablation (final body EPE)");
  std::map<double, double> damped_max;  // damping -> final max |EPE| body
  {
    Table table({"damping", "iterations", "max |EPE| (nm)", "rms (nm)"});
    for (double damping : {0.3, 0.5, 0.6, 0.8, 1.0}) {
      OpcOptions opts;
      opts.damping = damping;
      OpcEngine engine(sim, opts);
      const OpcResult r = engine.correct(targets, window);
      damped_max[damping] = r.max_abs_epe_body_nm;
      table.add_row({Table::num(damping, 1), std::to_string(r.iterations),
                     Table::num(r.max_abs_epe_body_nm, 2),
                     Table::num(r.rms_epe_body_nm, 2)});
    }
    std::printf("%s", table.render().c_str());
  }

  bench::section("F3: correction styles on an isolated line (ORC at nominal)");
  std::map<std::string, double> style_max;  // style -> max |EPE|
  {
    const Polygon line = Polygon::from_rect({0, -500, 90, 500});
    const Rect iso_window{-800, -1150, 890, 1150};
    OpcEngine engine(sim, defaults);
    Table table({"style", "max |EPE| (nm)", "rms (nm)", "violations"});

    const auto report_style = [&](const char* name,
                                  const std::vector<Rect>& mask) {
      const OrcReport orc =
          run_orc(sim, engine, {line}, mask, iso_window, {});
      style_max[name] = orc.max_abs_epe_nm;
      table.add_row({name, Table::num(orc.max_abs_epe_nm, 2),
                     Table::num(orc.rms_epe_nm, 2),
                     std::to_string(orc.violations.size())});
    };

    report_style("no OPC", decompose(line));
    {
      std::vector<Fragment> frags = fragment_polygons({line});
      const auto ruled = rule_based_opc({line}, frags, RuleOpcTable{});
      std::vector<Rect> mask;
      for (const Polygon& p : ruled) {
        for (const Rect& r : decompose(p)) mask.push_back(r);
      }
      report_style("rule-based", mask);
    }
    {
      const OpcResult r = engine.correct({line}, iso_window);
      report_style("model-based", r.mask_rects());
    }
    {
      OpcOptions opts;
      opts.insert_srafs = true;
      OpcEngine with_sraf(sim, opts);
      const OpcResult r = with_sraf.correct({line}, iso_window);
      report_style("model + SRAF", r.mask_rects());
      std::printf("SRAFs inserted: %zu\n", r.srafs.size());
    }
    std::printf("%s", table.render().c_str());
  }
  // Shape check, computed from the numbers the tables print.
  std::printf("\nShape check (from the tables above):\n");
  const std::vector<double>& trace = conv.max_epe_history;
  std::string rises;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i] <= trace[i - 1]) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%zu (%.2f -> %.2f nm)",
                  rises.empty() ? "" : ", ", i + 1, trace[i - 1], trace[i]);
    rises += buf;
  }
  if (rises.empty()) {
    std::printf("- max |EPE| body drops monotonically over %zu iterations\n",
                trace.size());
  } else {
    std::printf("- max |EPE| body is not monotonic; it rises at "
                "iterations %s\n",
                rises.c_str());
  }
  if (conv.max_abs_epe_body_nm < defaults.epe_tolerance_nm) {
    std::printf("- converges in %zu of %zu iterations (max |EPE| body "
                "%.2f nm < %.2f nm)\n",
                conv.iterations, defaults.max_iterations,
                conv.max_abs_epe_body_nm, defaults.epe_tolerance_nm);
  } else {
    std::printf("- does not converge within the budget: %zu of %zu "
                "iterations, final max |EPE| body %.2f nm >= %.2f nm\n",
                conv.iterations, defaults.max_iterations,
                conv.max_abs_epe_body_nm, defaults.epe_tolerance_nm);
  }
  const double over = damped_max[1.0], moderate = damped_max[0.6];
  std::printf("- damping 1.0 ends at max |EPE| %.2f nm vs %.2f nm at 0.6: "
              "over-damped feedback %s\n",
              over, moderate,
              over > moderate ? "overshoots" : "does not overshoot");
  const double model = style_max["model-based"];
  const double rule = style_max["rule-based"];
  const double none = style_max["no OPC"];
  std::printf("- residual max |EPE|: model-based %.2f, rule-based %.2f, "
              "no OPC %.2f nm: model-based < rule-based < no OPC %s\n",
              model, rule, none,
              model < rule && rule < none ? "holds" : "does not hold");
  return 0;
}
