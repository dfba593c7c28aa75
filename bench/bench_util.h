// Shared helpers for the experiment-reproduction benches: cached cell
// library, flow construction with a slack-margin clock, and consistent
// report formatting.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <filesystem>
#include <string>

#include "src/common/log.h"
#include "src/common/table.h"
#include "src/core/flow.h"
#include "src/netlist/generators.h"

namespace poc::bench {

inline const StdCellLibrary& library() {
  static const StdCellLibrary lib = [] {
    set_log_level(LogLevel::kWarn);
    const std::string path =
        (std::filesystem::temp_directory_path() / "poc_cells_bench.lib")
            .string();
    return StdCellLibrary::load_or_characterize(path);
  }();
  return lib;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Wall-clock milliseconds of one fn() call — the threads-scaling tables
/// measure end-to-end latency, which is what parallelism buys.
inline double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Builds a flow whose clock gives the drawn-CD baseline the requested
/// relative slack margin (the paper's result is quoted on a design with a
/// modest positive margin, which the slack percentage amplifies).
inline PostOpcFlow make_flow(const PlacedDesign& design, double margin = 0.12,
                             FlowOptions opts = {}) {
  PostOpcFlow probe(design, library(), LithoSimulator{}, opts);
  const StaReport baseline = probe.run_sta(nullptr);
  opts.sta.clock_period = baseline.worst_arrival * (1.0 + margin);
  return PostOpcFlow(design, library(), LithoSimulator{}, opts);
}

inline PlacedDesign make_design(const std::string& benchmark) {
  const Netlist& nl = [&]() -> const Netlist& {
    static std::map<std::string, Netlist> cache;
    auto it = cache.find(benchmark);
    if (it == cache.end()) {
      it = cache.emplace(benchmark, make_benchmark(benchmark)).first;
    }
    return it->second;
  }();
  return place_and_route(nl, library());
}

}  // namespace poc::bench
