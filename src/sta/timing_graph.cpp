#include "src/sta/timing_graph.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/par/thread_pool.h"
#include "src/sta/paths.h"

namespace poc {

namespace {

/// Levels below this evaluate serially — the parallel dispatch overhead
/// dwarfs a handful of table lookups.
constexpr std::size_t kParallelThreshold = 64;
constexpr std::size_t kParallelChunk = 16;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_node(const NodeTime& a, const NodeTime& b) {
  return a.valid == b.valid && same_bits(a.at, b.at) &&
         same_bits(a.slew, b.slew);
}

bool same_annotation(const DelayAnnotation& a, const DelayAnnotation& b) {
  return same_bits(a.fall_scale, b.fall_scale) &&
         same_bits(a.rise_scale, b.rise_scale) &&
         same_bits(a.leak_scale, b.leak_scale);
}

const std::vector<NetParasitics>& empty_parasitics() {
  static const std::vector<NetParasitics> empty;
  return empty;
}

}  // namespace

TimingGraph::TimingGraph(const Netlist& nl, const StdCellLibrary& lib,
                         StaOptions options, std::size_t threads)
    : nl_(&nl), lib_(&lib), options_(options) {
  set_threads(threads);
  ann_.assign(nl_->num_gates(), DelayAnnotation{});
  build_static();
  mark_all_dirty();
}

const std::vector<NetParasitics>& TimingGraph::parasitics() const {
  if (owns_parasitics_) return owned_parasitics_;
  return borrowed_parasitics_ != nullptr ? *borrowed_parasitics_
                                         : empty_parasitics();
}

void TimingGraph::set_threads(std::size_t threads) {
  threads_ = resolve_threads(threads == 0 ? 0 : threads);
}

void TimingGraph::build_static() {
  const std::size_t num_gates = nl_->num_gates();
  const std::size_t num_nets = nl_->num_nets();
  // Cell timing by name is a linear scan of the library: resolve it once.
  timing_.resize(num_gates);
  for (GateIdx g = 0; g < num_gates; ++g) {
    timing_[g] = &lib_->timing(nl_->gate(g).cell);
  }
  outputs_ = nl_->primary_outputs();
  topo_ = nl_->topological_order();

  // Levelize: a net's level is its driver's level (primary inputs at 0), a
  // gate sits one above its deepest fanin net.
  level_.assign(num_gates, 0);
  net_level_.assign(num_nets, 0);
  std::size_t max_gate_level = 0;
  for (GateIdx g : topo_) {
    const GateInst& gate = nl_->gate(g);
    std::size_t lvl = 0;
    for (NetIdx in : gate.inputs) lvl = std::max(lvl, net_level_[in]);
    level_[g] = lvl + 1;
    net_level_[gate.output] = lvl + 1;
    max_gate_level = std::max(max_gate_level, lvl + 1);
  }
  gate_levels_.assign(max_gate_level + 1, {});
  for (GateIdx g : topo_) gate_levels_[level_[g]].push_back(g);
  max_net_level_ = 0;
  for (NetIdx n = 0; n < num_nets; ++n) {
    max_net_level_ = std::max(max_net_level_, net_level_[n]);
  }

  // Arc wiring: sink ordinal per (gate, pin), fixed by the netlist.
  pin_offset_.assign(num_gates + 1, 0);
  for (GateIdx g = 0; g < num_gates; ++g) {
    pin_offset_[g + 1] = pin_offset_[g] + nl_->gate(g).inputs.size();
  }
  ordinal_.assign(pin_offset_[num_gates], 0);
  for (GateIdx g = 0; g < num_gates; ++g) {
    const GateInst& gate = nl_->gate(g);
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      ordinal_[pin_offset_[g] + pin] =
          sta_sink_ordinal(*nl_, gate.inputs[pin], g, pin);
    }
  }
  rebuild_parasitic_tables();

  rise_.assign(num_nets, {});
  fall_.assign(num_nets, {});
  req_rise_.assign(num_nets, options_.clock_period);
  req_fall_.assign(num_nets, options_.clock_period);

  gate_dirty_.assign(num_gates, 0);
  forward_pending_.assign(gate_levels_.size(), {});
  net_req_dirty_.assign(num_nets, 0);
  backward_pending_.assign(max_net_level_ + 1, {});
}

void TimingGraph::rebuild_parasitic_tables() {
  const std::vector<NetParasitics>& para = parasitics();
  wire_.assign(ordinal_.size(), 0.0);
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) {
    const GateInst& gate = nl_->gate(g);
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      wire_[pin_offset_[g] + pin] = sta_sink_wire_delay(
          para, gate.inputs[pin], ordinal_[pin_offset_[g] + pin]);
    }
  }
  // Effective load on each net's driver.  The addition order — wire cap,
  // sink pins in Net::sinks order, PO load, driver self-cap — is part of
  // the bit-identity contract.
  load_.assign(nl_->num_nets(), 0.0);
  for (NetIdx n = 0; n < nl_->num_nets(); ++n) {
    const Net& net = nl_->net(n);
    Ff load = 0.0;
    if (!para.empty()) load += para[n].wire_cap;
    for (const auto& [sink_gate, pin] : net.sinks) {
      load += timing_[sink_gate]->input_caps[pin];
    }
    if (net.is_primary_output) load += options_.po_load_ff;
    if (net.driver != kNoIndex) load += timing_[net.driver]->output_self_cap;
    load_[n] = load;
  }
}

void TimingGraph::set_parasitics(std::vector<NetParasitics> parasitics) {
  POC_EXPECTS(parasitics.size() == nl_->num_nets());
  owned_parasitics_ = std::move(parasitics);
  owns_parasitics_ = true;
  borrowed_parasitics_ = nullptr;
  rebuild_parasitic_tables();
  mark_all_dirty();
}

void TimingGraph::borrow_parasitics(
    const std::vector<NetParasitics>* parasitics) {
  POC_EXPECTS(parasitics == nullptr || parasitics->empty() ||
              parasitics->size() == nl_->num_nets());
  owns_parasitics_ = false;
  owned_parasitics_.clear();
  borrowed_parasitics_ =
      (parasitics != nullptr && parasitics->empty()) ? nullptr : parasitics;
  rebuild_parasitic_tables();
  mark_all_dirty();
}

void TimingGraph::set_annotations(
    const std::vector<DelayAnnotation>& annotations) {
  POC_EXPECTS(annotations.empty() ||
              annotations.size() == nl_->num_gates());
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) {
    const DelayAnnotation next =
        annotations.empty() ? DelayAnnotation{} : annotations[g];
    if (!same_annotation(ann_[g], next)) {
      ann_[g] = next;
      mark_dirty(g);
    }
  }
}

void TimingGraph::set_annotation(GateIdx gate,
                                 const DelayAnnotation& annotation) {
  POC_EXPECTS(gate < nl_->num_gates());
  if (same_annotation(ann_[gate], annotation)) return;
  ann_[gate] = annotation;
  mark_dirty(gate);
}

void TimingGraph::clear_annotations() { set_annotations({}); }

void TimingGraph::set_options(const StaOptions& options) {
  const bool delays_changed =
      !same_bits(options.input_slew, options_.input_slew) ||
      !same_bits(options.po_load_ff, options_.po_load_ff) ||
      !same_bits(options.late_derate, options_.late_derate);
  const bool clock_changed =
      !same_bits(options.clock_period, options_.clock_period);
  options_ = options;
  if (delays_changed) {
    // PO loads enter every driving gate's table lookups.
    rebuild_parasitic_tables();
    mark_all_dirty();
  } else if (clock_changed) {
    // Arrivals are untouched; only the required-time seed moved.
    req_full_ = true;
  }
}

void TimingGraph::enqueue_forward(GateIdx g) {
  if (gate_dirty_[g]) return;
  gate_dirty_[g] = 1;
  forward_pending_[level_[g]].push_back(g);
  any_forward_ = true;
}

void TimingGraph::enqueue_backward(NetIdx net) {
  if (net_req_dirty_[net]) return;
  net_req_dirty_[net] = 1;
  backward_pending_[net_level_[net]].push_back(net);
  any_backward_ = true;
}

void TimingGraph::mark_dirty(GateIdx gate) {
  POC_EXPECTS(gate < nl_->num_gates());
  enqueue_forward(gate);
  // The gate's own arc delays changed, so the required times of its input
  // nets are stale even if no arrival moves (e.g. an off-critical pin).
  for (NetIdx in : nl_->gate(gate).inputs) enqueue_backward(in);
}

void TimingGraph::mark_all_dirty() {
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) enqueue_forward(g);
  seed_primary_inputs();
  req_full_ = true;
}

void TimingGraph::seed_primary_inputs() {
  for (NetIdx n : nl_->primary_inputs()) {
    const NodeTime seed{0.0, options_.input_slew, true};
    if (!same_node(rise_[n], seed) || !same_node(fall_[n], seed)) {
      rise_[n] = seed;
      fall_[n] = seed;
      for (const auto& [sink, pin] : nl_->net(n).sinks) enqueue_forward(sink);
      enqueue_backward(n);
    }
  }
}

void TimingGraph::update_delays(const std::vector<GateIdx>& changed) {
  for (GateIdx g : changed) mark_dirty(g);
  flush();
}

void TimingGraph::flush() { ensure_arrivals(); }

TimingGraph::GateArrival TimingGraph::eval_arrival(GateIdx g) const {
  const GateInst& gate = nl_->gate(g);
  const CellTiming& timing = *timing_[g];
  const DelayAnnotation& ann = ann_[g];
  const Ff load = load_[gate.output];
  GateArrival out;
  for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
    const NetIdx in = gate.inputs[pin];
    const TimingArc& arc = timing.arcs[pin];
    const Ps wire = wire_[pin_offset_[g] + pin];
    // Negative unate: input rise -> output fall.
    if (rise_[in].valid) {
      const Ps slew_in = StaEngine::degraded_slew(rise_[in].slew, wire);
      const Ps d = arc.delay_fall.lookup(slew_in, load) * ann.fall_scale *
                   options_.late_derate;
      const Ps at = rise_[in].at + wire + d;
      if (!out.fall.valid || at > out.fall.at) {
        out.fall = {at, arc.slew_fall.lookup(slew_in, load) * ann.fall_scale,
                    true};
      }
    }
    if (fall_[in].valid) {
      const Ps slew_in = StaEngine::degraded_slew(fall_[in].slew, wire);
      const Ps d = arc.delay_rise.lookup(slew_in, load) * ann.rise_scale *
                   options_.late_derate;
      const Ps at = fall_[in].at + wire + d;
      if (!out.rise.valid || at > out.rise.at) {
        out.rise = {at, arc.slew_rise.lookup(slew_in, load) * ann.rise_scale,
                    true};
      }
    }
  }
  return out;
}

void TimingGraph::ensure_arrivals() {
  if (!any_forward_) return;
  ++stats_.forward_flushes;
  std::vector<GateArrival> results;
  for (std::size_t lvl = 0; lvl < forward_pending_.size(); ++lvl) {
    std::vector<GateIdx>& work = forward_pending_[lvl];
    if (work.empty()) continue;
    stats_.arrival_evals += work.size();
    results.resize(work.size());
    // Gates within one level read only strictly lower levels and write
    // disjoint slots, so evaluation order is irrelevant — parallelize when
    // the level is big enough to pay for the dispatch.
    const auto eval = [&](std::size_t k) { results[k] = eval_arrival(work[k]); };
    if (threads_ > 1 && work.size() >= kParallelThreshold) {
      parallel_for(threads_, work.size(), kParallelChunk, eval);
    } else {
      for (std::size_t k = 0; k < work.size(); ++k) eval(k);
    }
    // Serial merge in worklist order: push fanout of bit-changed outputs.
    for (std::size_t k = 0; k < work.size(); ++k) {
      const GateIdx g = work[k];
      gate_dirty_[g] = 0;
      const NetIdx out = nl_->gate(g).output;
      if (same_node(rise_[out], results[k].rise) &&
          same_node(fall_[out], results[k].fall)) {
        continue;  // converged: the cone ends here
      }
      rise_[out] = results[k].rise;
      fall_[out] = results[k].fall;
      // The net's own outgoing arc delays depend on its slew.
      enqueue_backward(out);
      for (const auto& [sink, pin] : nl_->net(out).sinks) {
        enqueue_forward(sink);
      }
    }
    work.clear();
  }
  any_forward_ = false;
}

TimingGraph::RequiredPair TimingGraph::eval_required(NetIdx net) const {
  RequiredPair req{options_.clock_period, options_.clock_period};
  for (const auto& [g, pin] : nl_->net(net).sinks) {
    const GateInst& gate = nl_->gate(g);
    const TimingArc& arc = timing_[g]->arcs[pin];
    const DelayAnnotation& ann = ann_[g];
    const Ff load = load_[gate.output];
    const Ps wire = wire_[pin_offset_[g] + pin];
    if (rise_[net].valid) {
      const Ps d =
          arc.delay_fall.lookup(StaEngine::degraded_slew(rise_[net].slew, wire),
                                load) *
          ann.fall_scale * options_.late_derate;
      req.rise = std::min(req.rise, req_fall_[gate.output] - d - wire);
    }
    if (fall_[net].valid) {
      const Ps d =
          arc.delay_rise.lookup(StaEngine::degraded_slew(fall_[net].slew, wire),
                                load) *
          ann.rise_scale * options_.late_derate;
      req.fall = std::min(req.fall, req_rise_[gate.output] - d - wire);
    }
  }
  return req;
}

void TimingGraph::ensure_required() {
  ensure_arrivals();
  if (req_full_) {
    // Full rebuild: seed every net and let the worklist machinery run the
    // from-scratch backward pass (descending levels, all nets).
    for (auto& bucket : backward_pending_) bucket.clear();
    std::fill(net_req_dirty_.begin(), net_req_dirty_.end(), 0);
    req_rise_.assign(nl_->num_nets(), options_.clock_period);
    req_fall_.assign(nl_->num_nets(), options_.clock_period);
    for (NetIdx n = 0; n < nl_->num_nets(); ++n) enqueue_backward(n);
    req_full_ = false;
  }
  if (!any_backward_) return;
  ++stats_.backward_flushes;
  std::vector<RequiredPair> results;
  for (std::size_t lvl = backward_pending_.size(); lvl-- > 0;) {
    std::vector<NetIdx>& work = backward_pending_[lvl];
    if (work.empty()) continue;
    stats_.required_evals += work.size();
    results.resize(work.size());
    // Nets within one level read requireds of strictly higher levels (every
    // sink gate's output sits above) and write disjoint slots.
    const auto eval = [&](std::size_t k) { results[k] = eval_required(work[k]); };
    if (threads_ > 1 && work.size() >= kParallelThreshold) {
      parallel_for(threads_, work.size(), kParallelChunk, eval);
    } else {
      for (std::size_t k = 0; k < work.size(); ++k) eval(k);
    }
    for (std::size_t k = 0; k < work.size(); ++k) {
      const NetIdx n = work[k];
      net_req_dirty_[n] = 0;
      if (same_bits(req_rise_[n], results[k].rise) &&
          same_bits(req_fall_[n], results[k].fall)) {
        continue;
      }
      req_rise_[n] = results[k].rise;
      req_fall_[n] = results[k].fall;
      const GateIdx driver = nl_->net(n).driver;
      if (driver == kNoIndex) continue;
      for (NetIdx in : nl_->gate(driver).inputs) enqueue_backward(in);
    }
    work.clear();
  }
  any_backward_ = false;
}

Ps TimingGraph::worst_arrival() {
  ensure_arrivals();
  Ps worst = 0.0;
  for (NetIdx e : outputs_) {
    for (bool rising : {true, false}) {
      const NodeTime& node = rising ? rise_[e] : fall_[e];
      if (node.valid) worst = std::max(worst, node.at);
    }
  }
  return worst;
}

Ps TimingGraph::worst_slack() {
  return options_.clock_period - worst_arrival();
}

std::vector<EndpointTime> TimingGraph::endpoint_slacks() {
  ensure_arrivals();
  std::vector<EndpointTime> endpoints;
  for (NetIdx e : outputs_) {
    for (bool rising : {true, false}) {
      const NodeTime& node = rising ? rise_[e] : fall_[e];
      if (!node.valid) continue;
      EndpointTime et;
      et.net = e;
      et.rising = rising;
      et.arrival = node.at;
      et.slack = options_.clock_period - node.at;
      endpoints.push_back(et);
    }
  }
  std::sort(endpoints.begin(), endpoints.end(),
            [](const EndpointTime& a, const EndpointTime& b) {
              if (a.arrival != b.arrival) return a.arrival > b.arrival;
              if (a.net != b.net) return a.net < b.net;
              return a.rising && !b.rising;
            });
  return endpoints;
}

NodeTime TimingGraph::arrival(NetIdx net, bool rising) {
  ensure_arrivals();
  return rising ? rise_[net] : fall_[net];
}

Ps TimingGraph::required(NetIdx net, bool rising) {
  ensure_required();
  return rising ? req_rise_[net] : req_fall_[net];
}

Ps TimingGraph::pin_slack(NetIdx net) {
  ensure_required();
  Ps slack = options_.clock_period;
  if (rise_[net].valid) {
    slack = std::min(slack, req_rise_[net] - rise_[net].at);
  }
  if (fall_[net].valid) {
    slack = std::min(slack, req_fall_[net] - fall_[net].at);
  }
  return slack;
}

std::vector<Ps> TimingGraph::gate_slacks() {
  ensure_required();
  std::vector<Ps> slacks(nl_->num_gates(), options_.clock_period);
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) {
    slacks[g] = pin_slack(nl_->gate(g).output);
  }
  return slacks;
}

double TimingGraph::total_leakage_ua() const {
  double total = 0.0;
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) {
    total += timing_[g]->leakage_ua * ann_[g].leak_scale;
  }
  return total;
}

std::vector<TimingPath> TimingGraph::top_paths(std::size_t k) {
  ensure_arrivals();
  StaOptions opts = options_;
  opts.max_paths = k;
  return poc::top_paths(*this, opts, worst_arrival());
}

StaReport TimingGraph::report() {
  ensure_arrivals();
  StaReport report;
  report.endpoints = endpoint_slacks();
  for (const EndpointTime& et : report.endpoints) {
    report.worst_arrival = std::max(report.worst_arrival, et.arrival);
  }
  report.worst_slack = options_.clock_period - report.worst_arrival;
  report.paths = poc::top_paths(*this, options_, report.worst_arrival);
  report.total_leakage_ua = total_leakage_ua();
  report.gate_slack = gate_slacks();
  return report;
}

std::vector<GateIdx> TimingGraph::fanout_cone(GateIdx gate) const {
  POC_EXPECTS(gate < nl_->num_gates());
  std::vector<char> seen(nl_->num_gates(), 0);
  std::vector<GateIdx> stack{gate};
  seen[gate] = 1;
  while (!stack.empty()) {
    const GateIdx g = stack.back();
    stack.pop_back();
    for (const auto& [sink, pin] : nl_->net(nl_->gate(g).output).sinks) {
      if (!seen[sink]) {
        seen[sink] = 1;
        stack.push_back(sink);
      }
    }
  }
  std::vector<GateIdx> cone;
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) {
    if (seen[g]) cone.push_back(g);
  }
  return cone;
}

std::vector<GateIdx> TimingGraph::affected_region(GateIdx gate) const {
  std::vector<char> seen(nl_->num_gates(), 0);
  std::vector<GateIdx> stack;
  for (GateIdx g : fanout_cone(gate)) {
    seen[g] = 1;
    stack.push_back(g);
  }
  // Fanin closure: required times flow backward out of the re-timed cone.
  while (!stack.empty()) {
    const GateIdx g = stack.back();
    stack.pop_back();
    for (NetIdx in : nl_->gate(g).inputs) {
      const GateIdx driver = nl_->net(in).driver;
      if (driver != kNoIndex && !seen[driver]) {
        seen[driver] = 1;
        stack.push_back(driver);
      }
    }
  }
  std::vector<GateIdx> region;
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) {
    if (seen[g]) region.push_back(g);
  }
  return region;
}

}  // namespace poc
