// Overhead bands: what the run machinery costs a healthy run.
//
// Two on/off bands, each a hard gate: the median per-pair wall overhead of
// the "on" leg must stay at or below 2.0 %, and every leg of the band must
// print the same annotated worst slack (%.9f).
//   containment  recovery on vs off: inv_chain64, cache off, default
//                threads, timed over OPC + extraction + annotation + STA;
//   self-heal    per-append heartbeats plus an armed watchdog vs neither:
//                tiled60 sharded over 2 in-process workers x 1 thread,
//                timed over the whole sharded run.
// Each band runs one discarded warm-up pair, then a fixed number of pairs
// whose leg order alternates, so slow host drift hits both legs alike.
// Pair counts come from A/A runs (both legs identical) on a shared 4-vCPU
// host: 120 containment pairs kept every A/A median within half the
// bound; 40 self-heal pairs did not there, and no count that did fit a CI
// budget (DESIGN.md, "Failure model").
//
// Usage: bench_overhead_bands   (no arguments; exit status 1 on a failed band)
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/core/flow_shard.h"

using namespace poc;

namespace {

constexpr double kBoundPct = 2.0;
constexpr std::size_t kContainmentPairs = 120;
constexpr std::size_t kSelfHealPairs = 40;

struct Leg {
  double ms = 0.0;
  double ws = 0.0;  ///< annotated worst slack
};

/// Runs one band: a discarded warm-up pair, then `pairs` pairs alternating
/// which leg goes first.  Fails on the first annotated-WS mismatch between
/// any two legs, or when the median per-pair overhead exceeds the bound.
bool run_band(const char* name, std::size_t pairs,
              const std::function<Leg(bool on)>& leg) {
  bench::section(std::string("overhead band: ") + name);
  std::string ws_ref;
  std::vector<double> overhead_pct;
  std::vector<double> off_ms;
  for (std::size_t p = 0; p <= pairs; ++p) {
    double ms[2] = {0.0, 0.0};
    for (const bool second : {false, true}) {
      const bool on = (p % 2 == 0) == second;  // even pairs run off first
      const Leg l = leg(on);
      ms[on] = l.ms;
      char ws[64];
      std::snprintf(ws, sizeof ws, "%.9f", l.ws);
      if (ws_ref.empty()) ws_ref = ws;
      if (ws_ref != ws) {
        std::printf("FAIL %s: annotated WS differs between legs: %s vs %s\n",
                    name, ws_ref.c_str(), ws);
        return false;
      }
    }
    const double pct = (ms[1] / ms[0] - 1.0) * 100.0;
    std::printf("pair %2zu%s  off %8.1f ms  on %8.1f ms  %+6.2f %%\n", p,
                p == 0 ? " (warm-up)" : "          ", ms[0], ms[1], pct);
    if (p == 0) continue;
    overhead_pct.push_back(pct);
    off_ms.push_back(ms[0]);
  }
  const double median = percentile(overhead_pct, 0.5);
  const bool ok = median <= kBoundPct;
  std::printf("%s %s: pairs=%zu median=%+.2f%% q1=%+.2f%% q3=%+.2f%% "
              "off_median_ms=%.1f ws=%s bound=%.1f%%\n",
              ok ? "PASS" : "FAIL", name, pairs, median,
              percentile(overhead_pct, 0.25), percentile(overhead_pct, 0.75),
              percentile(off_ms, 0.5), ws_ref.c_str(), kBoundPct);
  return ok;
}

/// An inverter chain places as rows of one identical cell: a uniform
/// workload whose every window runs the same OPC and extraction.
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

Leg containment_leg(const PlacedDesign& design, bool on) {
  FlowOptions fopt;
  fopt.sta.max_paths = 16;
  fopt.cache.enabled = false;
  fopt.recovery.enabled = on;
  PostOpcFlow flow = bench::make_flow(design, 0.12, fopt);
  Leg leg;
  leg.ms = bench::wall_ms([&] {
    flow.run_opc(OpcMode::kModelBased);
    const auto ext = flow.extract({});
    const auto ann = flow.annotate(ext);
    leg.ws = flow.run_sta(&ann).worst_slack;
  });
  return leg;
}

Leg selfheal_leg(const PlacedDesign& design, bool on) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("poc_overhead_band_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  FlowOptions base;
  base.sta.clock_period = 2200.0;
  base.threads = 1;
  ShardFlowOptions so;
  so.workers = 2;
  so.work_dir = dir.string();
  so.heartbeat_every_appends = on ? 1 : 0;
  so.watchdog.enabled = on;
  so.watchdog.no_progress_timeout_ms = 60000;
  Leg leg;
  leg.ms = bench::wall_ms([&] {
    leg.ws = run_sharded_flow(design, bench::library(), LithoSimulator{}, base,
                              so)
                 .comparison.annotated.worst_slack;
  });
  fs::remove_all(dir);
  return leg;
}

}  // namespace

int main() {
  const PlacedDesign chain = make_inv_chain64();
  const bool containment_ok =
      run_band("containment", kContainmentPairs,
               [&](bool on) { return containment_leg(chain, on); });
  const PlacedDesign tiled = bench::make_design("tiled60");
  const bool selfheal_ok =
      run_band("self-heal", kSelfHealPairs,
               [&](bool on) { return selfheal_leg(tiled, on); });
  return containment_ok && selfheal_ok ? 0 : 1;
}
