// Path enumeration and speed-path comparison utilities.
//
// top_paths() is the timing graph's path enumerator: TimingGraph::top_paths
// and TimingGraph::report call it, and StaEngine::run reaches it through
// the graph it builds.  It reads the graph's own tables (per-gate cell
// timing, net loads, wire delays, primary outputs), so a query re-derives
// nothing the graph already holds.  compare_path_ranks/format_path serve
// the path-reordering analysis (experiment F4).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/sta/sta.h"

namespace poc {

class TimingGraph;

/// Top-K worst paths via backward DFS with arrival-bound pruning over the
/// graph's already-propagated arrivals.  All orderings break ties
/// explicitly by pin (net) id — worst-first by arrival, then lowest
/// endpoint net, rise before fall, then lexicographically by traversed net
/// ids — so the ranking is deterministic across levelization and
/// traversal-order changes.  `options` supplies max_paths, path_window,
/// late_derate and clock_period; `worst_arrival` sets the enumeration
/// cutoff (path_window below it).  The graph's arrivals must be current.
std::vector<TimingPath> top_paths(const TimingGraph& graph,
                                  const StaOptions& options,
                                  Ps worst_arrival);

struct PathRankComparison {
  std::size_t matched = 0;        ///< paths present in both runs
  double spearman = 1.0;          ///< rank correlation of arrivals
  double kendall = 1.0;
  std::size_t top10_displaced = 0;  ///< baseline top-10 paths outside the
                                    ///< annotated top-10
  std::size_t rank1_changed = 0;    ///< 1 if the most-critical path differs
  double max_rank_shift = 0.0;      ///< largest |rank_a - rank_b|
};

/// Compares two path lists (same design, different analyses).  Paths are
/// matched by full signature; unmatched paths are ignored for the rank
/// statistics but matched counts reveal coverage.
PathRankComparison compare_path_ranks(const Netlist& nl,
                                      const std::vector<TimingPath>& base,
                                      const std::vector<TimingPath>& other);

/// Human-readable one-line path description: PI -> ... -> endpoint.
std::string format_path(const Netlist& nl, const TimingPath& path,
                        std::size_t max_points = 8);

}  // namespace poc
