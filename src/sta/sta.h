// Static timing analysis over the gate-level netlist with NLDM cell tables
// and Elmore wire delays.  Per-gate delay/leakage annotations carry the
// post-OPC extracted CDs into timing — the paper's "back-annotation"
// mechanism — so the same engine runs drawn-CD and silicon-calibrated
// analyses and everything between (corners, Monte Carlo).
//
// Two entry points share one propagation implementation (the levelized
// TimingGraph in timing_graph.h):
//   * StaEngine::run() — stateless from-scratch analysis: builds a fresh
//     graph, marks everything dirty, propagates, reports.  Safe to call
//     concurrently (the Monte-Carlo loop does).
//   * TimingGraph — the warm incremental engine: keeps arrivals/requireds
//     current across update_delays() calls that re-propagate only the
//     affected cone.  The equivalence fuzz harness
//     (tests/sta_incremental_test.cpp) proves both answer bit-identically.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "src/netlist/netlist.h"
#include "src/pex/extractor.h"
#include "src/stdcell/library.h"

namespace poc {

/// Multiplicative delay/leakage factors per gate, derived from extracted
/// CDs via the equivalent-gate model (1.0 = drawn).  Falling output delay
/// is set by the NMOS pull-down drive, rising by the PMOS pull-up.
struct DelayAnnotation {
  double fall_scale = 1.0;
  double rise_scale = 1.0;
  double leak_scale = 1.0;
};

struct StaOptions {
  Ps clock_period = 800.0;
  Ps input_slew = 40.0;
  Ff po_load_ff = 4.0;        ///< external load on primary outputs
  std::size_t max_paths = 64;   ///< top-K worst paths to enumerate
  Ps path_window = 50.0;        ///< only paths within this of the worst
  /// OCV-style late derate applied to every cell delay (sign-off margin
  /// for on-chip variation not captured by the annotations).  1.0 = none.
  double late_derate = 1.0;
};

struct PathPoint {
  NetIdx net = kNoIndex;
  bool rising = false;
  Ps arrival = 0.0;  ///< cumulative along this path
};

struct TimingPath {
  std::vector<PathPoint> points;  ///< PI first, endpoint last
  NetIdx endpoint = kNoIndex;
  bool endpoint_rising = false;
  Ps arrival = 0.0;
  Ps slack = 0.0;

  /// Stable identity of the path (endpoint + traversed nets), used to match
  /// the same path across analyses when ranking reorders (experiment F4).
  std::string signature(const Netlist& nl) const;
};

struct EndpointTime {
  NetIdx net = kNoIndex;
  bool rising = false;
  Ps arrival = 0.0;
  Ps slack = 0.0;
};

struct StaReport {
  Ps worst_arrival = 0.0;
  Ps worst_slack = 0.0;
  std::vector<EndpointTime> endpoints;  ///< sorted worst-first
  std::vector<TimingPath> paths;        ///< top-K, worst-first
  double total_leakage_ua = 0.0;
  /// Per-gate slack (min over its output net transitions), for critical-
  /// gate tagging.
  std::vector<Ps> gate_slack;
};

/// Arrival time + transition slew of one (net, transition) timing node.
struct NodeTime {
  Ps at = 0.0;
  Ps slew = 0.0;
  bool valid = false;
};

/// Elmore wire delay from a net's driver to its k-th sink (0 without
/// parasitics).
Ps sta_sink_wire_delay(const std::vector<NetParasitics>& parasitics,
                       NetIdx net, std::size_t sink_ordinal);

/// Ordinal of (gate, pin) within net's sink list.
std::size_t sta_sink_ordinal(const Netlist& nl, NetIdx net, GateIdx gate,
                             std::size_t pin);

class StaEngine {
 public:
  StaEngine(const Netlist& nl, const StdCellLibrary& lib);

  /// Optional wire parasitics (indexed by net, sink order matching
  /// Net::sinks).  Without them nets are ideal (zero RC).
  void set_parasitics(std::vector<NetParasitics> parasitics);

  /// Optional per-gate annotations (indexed by gate).
  void set_annotations(std::vector<DelayAnnotation> annotations);
  void clear_annotations();

  /// From-scratch analysis: builds a TimingGraph, marks everything dirty,
  /// propagates, reports.  Stateless — safe to call concurrently.
  StaReport run(const StaOptions& options = {}) const;

  /// Gates whose slack is within `window` of the worst (the paper's
  /// critical-gate tagging step).  Runs an STA internally.
  std::vector<GateIdx> critical_gates(const StaOptions& options,
                                      Ps window) const;

  /// PERI-style slew degradation across a wire: the sink sees the driver's
  /// transition RMS-combined with the wire's own step response.
  static Ps degraded_slew(Ps driver_slew, Ps wire_elmore_ps) {
    const double wire_slew = 2.2 * wire_elmore_ps;
    return std::sqrt(driver_slew * driver_slew + wire_slew * wire_slew);
  }

  const std::vector<DelayAnnotation>& annotations() const {
    return annotations_;
  }
  const std::vector<NetParasitics>& parasitics() const { return parasitics_; }

 private:
  const Netlist* nl_;
  const StdCellLibrary* lib_;
  std::vector<NetParasitics> parasitics_;
  std::vector<DelayAnnotation> annotations_;
};

}  // namespace poc
