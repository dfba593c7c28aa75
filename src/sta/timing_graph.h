// Explicit levelized timing graph with worklist-driven incremental update —
// the engine behind both the stateless StaEngine::run() and the warm
// timing-query service (service.h).
//
// Model: one timing node per (net, transition) carrying {arrival, slew,
// valid}, one arc per (input pin -> gate output) pair in negative-unate
// NLDM form, plus per-net required times seeded at the clock period.
// Gates are bucketed by logic level (all of a gate's fanin nets level
// strictly below it), which makes the worklist passes level-synchronous:
//
//   * forward (arrivals): dirty gates are re-evaluated level by level
//     ascending; a gate whose output {at, slew, valid} is bit-unchanged
//     cuts propagation — its fanout is NOT re-enqueued.  Gates within one
//     level write disjoint output slots, so big levels evaluate in
//     parallel with bit-identical results at any thread count.
//   * backward (requireds): recomputed lazily, on the first query that
//     needs them (pin slack, gate slacks, full report).  Seeds are the
//     nets whose arrival changed since the last backward flush (their
//     outgoing arc delays moved) plus clock/options changes; propagation
//     walks net levels descending and cuts where the recomputed required
//     is bit-unchanged.
//
// Dirty-marking contract: every mutation that can change an arc delay —
// set_annotation(s), set_parasitics, set_options — marks exactly the gates
// it touches (set_annotations diffs against the current values, so
// re-applying an identical vector is a no-op).  update_delays(changed)
// marks the given gates and flushes arrivals immediately.  After any
// sequence of updates, every query answers bit-identically to a
// from-scratch propagation over the same state — the equivalence fuzz
// harness (tests/sta_incremental_test.cpp) enforces this at 1 and 4
// threads, and the property tests (tests/property_test.cpp) pin the cone
// containment / idempotence / commutativity invariants.
#pragma once

#include <cstddef>
#include <vector>

#include "src/netlist/netlist.h"
#include "src/pex/extractor.h"
#include "src/sta/sta.h"

namespace poc {

class TimingGraph {
 public:
  /// Builds the static structure (levelization, arc wiring, loads) and
  /// marks everything dirty; the first query performs the initial full
  /// propagation.  `threads` bounds the per-level parallel evaluation
  /// (0 = hardware concurrency, 1 = serial); results are bit-identical
  /// for every value.
  TimingGraph(const Netlist& nl, const StdCellLibrary& lib,
              StaOptions options = {}, std::size_t threads = 1);

  const Netlist& netlist() const { return *nl_; }
  const StaOptions& options() const { return options_; }

  // ---- configuration (each marks exactly the affected state dirty) ----

  /// Owning parasitics (indexed by net).  Rebuilds wire delays and loads;
  /// full re-propagation.
  void set_parasitics(std::vector<NetParasitics> parasitics);
  /// Non-owning variant for callers whose parasitics outlive the graph
  /// (StaEngine::run).  Pass nullptr for ideal wires.
  void borrow_parasitics(const std::vector<NetParasitics>* parasitics);

  /// Diffs against the current annotations and marks only gates whose
  /// values actually changed — the incremental entry point for post-OPC
  /// CD updates.  `annotations` must be empty (= all drawn) or per-gate.
  void set_annotations(const std::vector<DelayAnnotation>& annotations);
  void set_annotation(GateIdx gate, const DelayAnnotation& annotation);
  void clear_annotations();
  const std::vector<DelayAnnotation>& annotations() const { return ann_; }

  /// Re-times under new analysis options; dirties the minimum (clock-only
  /// changes invalidate requireds but not arrivals; path knobs nothing).
  void set_options(const StaOptions& options);

  void set_threads(std::size_t threads);
  std::size_t threads() const { return threads_; }

  // ---- incremental update ----

  /// Marks the given gates' arcs changed and re-propagates arrivals
  /// through their fanout cone now; required times follow lazily on the
  /// next query that needs them.
  void update_delays(const std::vector<GateIdx>& changed);
  void mark_dirty(GateIdx gate);
  void mark_all_dirty();
  /// Propagates pending arrival work (no-op when clean).
  void flush();

  // ---- queries (each flushes what it needs) ----

  Ps worst_arrival();
  Ps worst_slack();
  /// All valid PO transitions, worst-first (same order as StaReport).
  std::vector<EndpointTime> endpoint_slacks();
  NodeTime arrival(NetIdx net, bool rising);
  Ps required(NetIdx net, bool rising);
  /// min over valid transitions of required - arrival (clock period when
  /// the net never transitions).
  Ps pin_slack(NetIdx net);
  std::vector<Ps> gate_slacks();
  double total_leakage_ua() const;
  /// Top-k worst paths with explicit deterministic tie-breaking (see
  /// top_paths in paths.h).
  std::vector<TimingPath> top_paths(std::size_t k);
  /// Full report, bit-identical to StaEngine::run() over the same state.
  StaReport report();

  // ---- structure / introspection ----

  std::size_t num_levels() const { return gate_levels_.size(); }
  std::size_t level(GateIdx gate) const { return level_[gate]; }
  /// g plus every gate reachable forward from g (arrivals can only change
  /// inside this set when g's delays change).
  std::vector<GateIdx> fanout_cone(GateIdx gate) const;
  /// Fanin closure of the fanout cone: the only gates whose slacks can
  /// change when g's delays change.  (Required times propagate backward
  /// from re-timed arcs, so siblings feeding g's fanout are affected even
  /// though their arrivals are not.)
  std::vector<GateIdx> affected_region(GateIdx gate) const;

  struct UpdateStats {
    std::size_t forward_flushes = 0;   ///< flushes that found dirty work
    std::size_t backward_flushes = 0;
    std::size_t arrival_evals = 0;     ///< per-gate arrival recomputations
    std::size_t required_evals = 0;    ///< per-net required recomputations
  };
  const UpdateStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct GateArrival {
    NodeTime rise, fall;
  };
  struct RequiredPair {
    Ps rise = 0.0, fall = 0.0;
  };

  /// The path enumerator (paths.cpp) walks the graph's own tables.
  friend class PathEnumerator;

  void build_static();
  void rebuild_parasitic_tables();
  void seed_primary_inputs();
  GateArrival eval_arrival(GateIdx g) const;
  RequiredPair eval_required(NetIdx net) const;
  void ensure_arrivals();
  void ensure_required();
  void enqueue_forward(GateIdx g);
  void enqueue_backward(NetIdx net);
  const std::vector<NetParasitics>& parasitics() const;

  const Netlist* nl_;
  const StdCellLibrary* lib_;
  StaOptions options_;
  std::size_t threads_ = 1;

  std::vector<NetParasitics> owned_parasitics_;
  /// Borrowed parasitics (StaEngine::run); null when owning or ideal.
  const std::vector<NetParasitics>* borrowed_parasitics_ = nullptr;
  bool owns_parasitics_ = false;
  std::vector<DelayAnnotation> ann_;  ///< always num_gates, default = drawn

  // Static structure.
  std::vector<const CellTiming*> timing_;  ///< per gate, resolved once
  std::vector<NetIdx> outputs_;            ///< primary outputs, ascending
  std::vector<GateIdx> topo_;
  std::vector<std::size_t> level_;                 ///< per gate
  std::vector<std::size_t> net_level_;             ///< driver level (PI = 0)
  std::vector<std::vector<GateIdx>> gate_levels_;  ///< gates per level
  std::size_t max_net_level_ = 0;
  std::vector<std::size_t> pin_offset_;  ///< per gate, into wire_/ordinal_
  std::vector<std::size_t> ordinal_;     ///< sink ordinal per (gate, pin)
  std::vector<Ps> wire_;                 ///< wire delay per (gate, pin)
  std::vector<Ff> load_;                 ///< effective load per net

  // Timing state.
  std::vector<NodeTime> rise_, fall_;  ///< arrivals per net
  std::vector<Ps> req_rise_, req_fall_;

  // Worklists.
  std::vector<char> gate_dirty_;
  std::vector<std::vector<GateIdx>> forward_pending_;  ///< per gate level
  bool any_forward_ = false;
  std::vector<char> net_req_dirty_;
  std::vector<std::vector<NetIdx>> backward_pending_;  ///< per net level
  bool req_full_ = true;    ///< requireds never computed / invalidated
  bool any_backward_ = false;

  UpdateStats stats_;
};

}  // namespace poc
