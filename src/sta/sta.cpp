#include "src/sta/sta.h"

#include <sstream>

#include "src/common/check.h"
#include "src/sta/timing_graph.h"

namespace poc {

std::string TimingPath::signature(const Netlist& nl) const {
  std::ostringstream os;
  os << (endpoint_rising ? "R:" : "F:");
  for (const PathPoint& p : points) os << nl.net(p.net).name << "/";
  return os.str();
}

Ps sta_sink_wire_delay(const std::vector<NetParasitics>& parasitics,
                       NetIdx net, std::size_t sink_ordinal) {
  if (parasitics.empty()) return 0.0;
  const NetParasitics& p = parasitics[net];
  if (sink_ordinal >= p.sinks.size()) return 0.0;
  return p.sinks[sink_ordinal].elmore_ps;
}

std::size_t sta_sink_ordinal(const Netlist& nl, NetIdx net, GateIdx gate,
                             std::size_t pin) {
  const auto& sinks = nl.net(net).sinks;
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    if (sinks[k].first == gate && sinks[k].second == pin) return k;
  }
  return 0;
}

StaEngine::StaEngine(const Netlist& nl, const StdCellLibrary& lib)
    : nl_(&nl), lib_(&lib) {}

void StaEngine::set_parasitics(std::vector<NetParasitics> parasitics) {
  POC_EXPECTS(parasitics.size() == nl_->num_nets());
  parasitics_ = std::move(parasitics);
}

void StaEngine::set_annotations(std::vector<DelayAnnotation> annotations) {
  POC_EXPECTS(annotations.size() == nl_->num_gates());
  annotations_ = std::move(annotations);
}

void StaEngine::clear_annotations() { annotations_.clear(); }

StaReport StaEngine::run(const StaOptions& options) const {
  // A fresh graph per call keeps this entry point stateless (the
  // Monte-Carlo loop calls it concurrently); the warm incremental path is
  // TimingGraph itself.
  TimingGraph graph(*nl_, *lib_, options, /*threads=*/1);
  graph.borrow_parasitics(&parasitics_);
  graph.set_annotations(annotations_);
  return graph.report();
}

std::vector<GateIdx> StaEngine::critical_gates(const StaOptions& options,
                                               Ps window) const {
  const StaReport report = run(options);
  std::vector<GateIdx> out;
  for (GateIdx g = 0; g < nl_->num_gates(); ++g) {
    if (report.gate_slack[g] <= report.worst_slack + window) out.push_back(g);
  }
  return out;
}

}  // namespace poc
