#include "src/sta/paths.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "src/common/stats.h"
#include "src/sta/timing_graph.h"

namespace poc {

/// Backward DFS path enumeration with arrival-bound pruning and explicit
/// deterministic tie-breaking (pin id) in every ordering.  Reads the
/// graph's tables in place: cell timing per gate, load per net, wire delay
/// per (gate, pin) and the primary-output list.
class PathEnumerator {
 public:
  PathEnumerator(const TimingGraph& graph, const StaOptions& options,
                 Ps best_arrival)
      : g_(graph), nl_(*graph.nl_), options_(options),
        cutoff_(best_arrival - options.path_window) {}

  std::vector<TimingPath> enumerate() {
    // Endpoints worst-first, so global budgets never drop the most critical
    // paths; ties by endpoint net id, rise before fall.
    struct End {
      NetIdx net;
      bool rising;
      Ps at;
    };
    std::vector<End> ends;
    for (NetIdx e : g_.outputs_) {
      for (bool rising : {true, false}) {
        const auto& node = rising ? g_.rise_[e] : g_.fall_[e];
        if (node.valid) ends.push_back({e, rising, node.at});
      }
    }
    std::sort(ends.begin(), ends.end(), [](const End& a, const End& b) {
      if (a.at != b.at) return a.at > b.at;
      if (a.net != b.net) return a.net < b.net;
      return a.rising && !b.rising;
    });
    for (const End& end : ends) {
      chain_.clear();
      endpoint_emitted_ = 0;
      walk(end.net, end.rising, 0.0);
    }
    std::sort(paths_.begin(), paths_.end(),
              [](const TimingPath& a, const TimingPath& b) {
                if (a.arrival != b.arrival) return a.arrival > b.arrival;
                return path_less(a, b);
              });
    if (paths_.size() > options_.max_paths) paths_.resize(options_.max_paths);
    for (TimingPath& p : paths_) {
      p.slack = options_.clock_period - p.arrival;
    }
    return std::move(paths_);
  }

 private:
  struct Hop {
    NetIdx net;
    bool rising;
    Ps edge_delay;  ///< delay from this net to the next hop toward endpoint
  };

  /// Total order on equal-arrival paths: endpoint net id, rise before
  /// fall, then lexicographic over traversed (net, transition) points.
  static bool path_less(const TimingPath& a, const TimingPath& b) {
    if (a.endpoint != b.endpoint) return a.endpoint < b.endpoint;
    if (a.endpoint_rising != b.endpoint_rising) return a.endpoint_rising;
    const std::size_t n = std::min(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a.points[i].net != b.points[i].net) {
        return a.points[i].net < b.points[i].net;
      }
      if (a.points[i].rising != b.points[i].rising) return a.points[i].rising;
    }
    return a.points.size() < b.points.size();
  }

  void walk(NetIdx net, bool rising, Ps suffix) {
    if (paths_.size() >= options_.max_paths * 4) return;  // global budget
    if (endpoint_emitted_ >= options_.max_paths) return;  // per endpoint
    const auto& node = rising ? g_.rise_[net] : g_.fall_[net];
    if (!node.valid || node.at + suffix < cutoff_) return;
    const Net& n = nl_.net(net);
    chain_.push_back({net, rising, 0.0});
    if (n.driver == kNoIndex) {
      emit();
      chain_.pop_back();
      return;
    }
    const GateInst& gate = nl_.gate(n.driver);
    const CellTiming& timing = *g_.timing_[n.driver];
    const DelayAnnotation& ann = g_.ann_[n.driver];
    const Ff load = g_.load_[net];
    const Ps* wire = &g_.wire_[g_.pin_offset_[n.driver]];
    // Expand fanins worst-first so the first completed path per endpoint is
    // its critical path (greedy max-contributor backtrace); ties by input
    // net id.
    struct Cand {
      NetIdx in;
      Ps edge;
      Ps through;  // in-arrival + edge delay
    };
    std::vector<Cand> cands;
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      const NetIdx in = gate.inputs[pin];
      const bool in_rising = !rising;  // negative unate
      const auto& in_node = in_rising ? g_.rise_[in] : g_.fall_[in];
      if (!in_node.valid) continue;
      const TimingArc& arc = timing.arcs[pin];
      const Ps slew_in = StaEngine::degraded_slew(in_node.slew, wire[pin]);
      const Ps d = (rising
                        ? arc.delay_rise.lookup(slew_in, load) * ann.rise_scale
                        : arc.delay_fall.lookup(slew_in, load) *
                              ann.fall_scale) *
                   options_.late_derate;
      cands.push_back({in, wire[pin] + d, in_node.at + wire[pin] + d});
    }
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.through != b.through) return a.through > b.through;
      return a.in < b.in;
    });
    for (const Cand& c : cands) {
      chain_.back().edge_delay = c.edge;
      walk(c.in, !rising, suffix + c.edge);
    }
    chain_.pop_back();
  }

  void emit() {
    TimingPath path;
    // chain_ is endpoint-first; reverse into PI-first with cumulative
    // arrivals.
    Ps cum = 0.0;
    for (std::size_t i = chain_.size(); i-- > 0;) {
      PathPoint pt;
      pt.net = chain_[i].net;
      pt.rising = chain_[i].rising;
      pt.arrival = cum;
      path.points.push_back(pt);
      if (i > 0) cum += chain_[i - 1].edge_delay;
    }
    // The final cumulative value is the path arrival at the endpoint.
    path.points.back().arrival = cum;
    path.arrival = cum;
    path.endpoint = chain_.front().net;
    path.endpoint_rising = chain_.front().rising;
    ++endpoint_emitted_;
    paths_.push_back(std::move(path));
  }

  const TimingGraph& g_;
  const Netlist& nl_;
  const StaOptions& options_;
  Ps cutoff_;
  std::vector<Hop> chain_;
  std::vector<TimingPath> paths_;
  std::size_t endpoint_emitted_ = 0;
};

std::vector<TimingPath> top_paths(const TimingGraph& graph,
                                  const StaOptions& options,
                                  Ps worst_arrival) {
  return PathEnumerator(graph, options, worst_arrival).enumerate();
}

PathRankComparison compare_path_ranks(const Netlist& nl,
                                      const std::vector<TimingPath>& base,
                                      const std::vector<TimingPath>& other) {
  PathRankComparison cmp;
  std::unordered_map<std::string, std::size_t> other_index;
  for (std::size_t i = 0; i < other.size(); ++i) {
    other_index.emplace(other[i].signature(nl), i);
  }
  std::vector<double> arr_base, arr_other;
  std::vector<std::size_t> base_pos, other_pos;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto it = other_index.find(base[i].signature(nl));
    if (it == other_index.end()) continue;
    arr_base.push_back(base[i].arrival);
    arr_other.push_back(other[it->second].arrival);
    base_pos.push_back(i);
    other_pos.push_back(it->second);
  }
  cmp.matched = arr_base.size();
  if (cmp.matched >= 2) {
    cmp.spearman = spearman(arr_base, arr_other);
    cmp.kendall = kendall_tau(arr_base, arr_other);
  }
  for (std::size_t k = 0; k < cmp.matched; ++k) {
    cmp.max_rank_shift =
        std::max(cmp.max_rank_shift,
                 std::abs(static_cast<double>(base_pos[k]) -
                          static_cast<double>(other_pos[k])));
  }
  // Top-10 displacement: of the baseline's 10 worst paths, how many are no
  // longer among the annotated run's 10 worst.
  const std::size_t top_n = std::min<std::size_t>(10, base.size());
  for (std::size_t i = 0; i < top_n; ++i) {
    const auto it = other_index.find(base[i].signature(nl));
    if (it == other_index.end() || it->second >= top_n) ++cmp.top10_displaced;
  }
  if (!base.empty() && !other.empty() &&
      base[0].signature(nl) != other[0].signature(nl)) {
    cmp.rank1_changed = 1;
  }
  return cmp;
}

std::string format_path(const Netlist& nl, const TimingPath& path,
                        std::size_t max_points) {
  std::ostringstream os;
  const std::size_t n = path.points.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > max_points && i == max_points / 2) {
      os << "... -> ";
      // Jump to the tail.
      const std::size_t skip = n - max_points;
      i += skip;
    }
    const PathPoint& p = path.points[i];
    os << nl.net(p.net).name << (p.rising ? "^" : "v");
    if (i + 1 < n) os << " -> ";
  }
  os << "  arrival=" << path.arrival << "ps slack=" << path.slack << "ps";
  return os.str();
}

}  // namespace poc
