// End-to-end benchmark program for the post-OPC timing flow.  perfbench/run.py
// orchestrates it; one invocation is one measured run in a fresh process,
// so lazy set-up (SOCS kernel memo, pupil tables, FFT twiddles) is paid the
// way a user pays it and the in-memory window caches start cold.
//
// Every layer is measured from outside, by timing calls into its public
// functions; nothing in src/ is instrumented.  A run is set-up, then the
// measured work, then the output checks:
//
//   flow     sequence S, the seven public calls compare_timing makes:
//            tag_critical_gates, run_opc, run_sta_incremental(drawn),
//            extract, annotate_with_aclv, run_sta_incremental(&ann),
//            compare_path_ranks.
//   sharded  run_sharded_flow over fork/exec workers; each worker is this
//            binary re-exec'd with --worker, calling run_shard_worker.
//   service  sequence S with rule-based OPC as set-up, then the measured
//            closed-loop query stream against a TimingService.
//
// For flow and sharded the request is the whole sign-off run, so their
// query metrics are that one request's rate and latency.  --trace also
// records spans around each public call, accounts each layer's self time,
// and runs the per-layer probes after the measured work; on flow and
// sharded the probes include a short query session, so the STA layer's
// query latencies exist on every workload.
//
//   bench_e2e --prepare --lib L        characterize the cell library into L
//   bench_e2e --kind flow --lib L --design rand:48:16:0xABCD02 --seed 7
//   ... --setup-only                   stop after set-up (a setup_s sample)
//
// The last stdout line is one JSON object; run.py aggregates those.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cdx/cd_extract.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/core/flow.h"
#include "src/core/flow_shard.h"
#include "src/litho/batch.h"
#include "src/netlist/generators.h"
#include "src/pnr/design.h"
#include "src/sta/paths.h"
#include "src/sta/service.h"
#include "src/stdcell/library_io.h"

using namespace poc;

namespace {

namespace fs = std::filesystem;

/// Monotonic microseconds; CLOCK_MONOTONIC is shared by every process on
/// the host, so worker spans land on the coordinator's timeline.
double mono_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- usage

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double nivcsw = 0.0;

  double cpu_s() const { return user_s + sys_s; }
};

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

Usage usage_of(int who) {
  rusage ru = {};
  ::getrusage(who, &ru);
  return Usage{tv_s(ru.ru_utime), tv_s(ru.ru_stime),
               static_cast<double>(ru.ru_minflt),
               static_cast<double>(ru.ru_nivcsw)};
}

/// Self plus waited-for children: the sharded run's workers count too.
Usage usage_now() {
  const Usage s = usage_of(RUSAGE_SELF);
  const Usage c = usage_of(RUSAGE_CHILDREN);
  return Usage{s.user_s + c.user_s, s.sys_s + c.sys_s, s.minflt + c.minflt,
               s.nivcsw + c.nivcsw};
}

double self_maxrss_mb() {
  rusage ru = {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::string layer;  ///< tag|opc|sta|extract|annotate|rank|shard|...
  int pid = 0;        ///< 0 = this process; shard worker w = w + 1
  double ts_us = 0.0;
  double dur_us = 0.0;
  int id = 0;
  int parent = -1;
};

/// Times calls.  With tracing on it also records a span per call, nested by
/// the calls' dynamic extent, and accounts each layer's self time (a call's
/// time minus the time of the calls nested in it).  The time the tracer
/// spends on its own bookkeeping is measured too, so a traced run reports
/// its overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Runs fn(); returns its wall time in microseconds.
  template <class F>
  double timed(const char* name, const char* layer, F&& fn) {
    if (!enabled_) {
      const double t0 = mono_us();
      fn();
      return mono_us() - t0;
    }
    const double b0 = mono_us();
    int id = -1;
    if (spans_.size() < kMaxSpans) {
      id = static_cast<int>(spans_.size());
      spans_.push_back(Span{name, layer, 0, 0.0, 0.0, id, open_span()});
    }
    frames_.push_back(Frame{layer, id, 0.0});
    const double t0 = mono_us();
    try {
      fn();
    } catch (...) {
      close(t0, mono_us(), b0);
      throw;
    }
    return close(t0, mono_us(), b0);
  }

  /// Adds spans recorded by other processes (the shard workers) as
  /// children of the last recorded span of `host_layer`, under
  /// `child_layer`.  The wall time they cover moves from the host layer's
  /// self time to the child layer's.
  void add_foreign(const std::string& host_layer, std::vector<Span> spans,
                   const std::string& child_layer) {
    if (!enabled_ || spans.empty()) return;
    int parent = -1;
    for (const Span& s : spans_) {
      if (s.layer == host_layer) parent = s.id;
    }
    if (parent < 0) return;
    const double host_lo = spans_[static_cast<std::size_t>(parent)].ts_us;
    const double host_hi =
        host_lo + spans_[static_cast<std::size_t>(parent)].dur_us;
    std::vector<std::pair<double, double>> iv;
    for (Span& s : spans) {
      iv.emplace_back(std::max(s.ts_us, host_lo),
                      std::min(s.ts_us + s.dur_us, host_hi));
      s.id = static_cast<int>(spans_.size());
      s.parent = parent;
      s.layer = child_layer;
      spans_.push_back(std::move(s));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, end = -1e300;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, end);
      if (hi > from) covered += hi - from;
      end = std::max(end, hi);
    }
    self_us_[host_layer] -= covered;
    self_us_[child_layer] += covered;
  }

  double overhead_us() const { return overhead_us_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& self_us() const { return self_us_; }

 private:
  struct Frame {
    const char* layer;
    int span;
    double child_us;
  };

  int open_span() const {
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      if (it->span >= 0) return it->span;
    }
    return -1;
  }

  double close(double t0, double t1, double b0) {
    const Frame f = frames_.back();
    frames_.pop_back();
    const double dur = t1 - t0;
    self_us_[f.layer] += dur - f.child_us;
    if (!frames_.empty()) frames_.back().child_us += dur;
    if (f.span >= 0) {
      spans_[static_cast<std::size_t>(f.span)].ts_us = t0;
      spans_[static_cast<std::size_t>(f.span)].dur_us = dur;
    }
    overhead_us_ += (t0 - b0) + (mono_us() - t1);
    return dur;
  }

  /// Spans past this many are accounted but not recorded; it bounds the
  /// trace file of a long query stream.
  static constexpr std::size_t kMaxSpans = 4000;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Frame> frames_;
  std::map<std::string, double> self_us_;
  double overhead_us_ = 0.0;
};

// ---------------------------------------------------------------- output

/// Everything one run reports; serialized as the last stdout line.
struct Report {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> exact;  ///< must repeat run to run
  std::map<std::string, std::string> results;

  /// Records a failed check once, however many queries repeat it.
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(what);
    }
  }
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt9(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9f", v);
  return buf;
}

template <class V, class F>
std::string json_map(const std::map<std::string, V>& m, F&& fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_str(k) + ":" + fmt(v);
  }
  return out + "}";
}

void print_report(const Report& r, const Tracer& tracer) {
  std::string out = "{\"ok\":";
  out += r.errors.empty() ? "true" : "false";
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? "," : "") + json_str(r.errors[i]);
  }
  out += "],\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"e2e\":" + json_map(r.e2e, json_num);
  out += ",\"layer\":" + json_map(r.layer, json_num);
  out += ",\"exact\":" + json_map(r.exact, json_num);
  out += ",\"results\":" + json_map(r.results, json_str);
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    out += (i ? "," : "");
    out += "{\"name\":" + json_str(s.name) + ",\"layer\":" + json_str(s.layer) +
           ",\"pid\":" + std::to_string(s.pid) + ",\"ts\":" + json_num(s.ts_us) +
           ",\"dur\":" + json_num(s.dur_us) + ",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- helpers

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Bitwise report identity: the warm incremental graph must answer exactly
/// what a from-scratch run_sta does.
bool same_report(const StaReport& a, const StaReport& b) {
  if (a.worst_arrival != b.worst_arrival || a.worst_slack != b.worst_slack ||
      a.total_leakage_ua != b.total_leakage_ua ||
      a.gate_slack != b.gate_slack || a.endpoints.size() != b.endpoints.size() ||
      a.paths.size() != b.paths.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    const EndpointTime& x = a.endpoints[i];
    const EndpointTime& y = b.endpoints[i];
    if (x.net != y.net || x.rising != y.rising || x.arrival != y.arrival ||
        x.slack != y.slack) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].arrival != b.paths[i].arrival ||
        a.paths[i].slack != b.paths[i].slack ||
        a.paths[i].endpoint != b.paths[i].endpoint) {
      return false;
    }
  }
  return true;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Threads per flow: the reference host's nproc.  The sharded run uses
/// --workers processes of one thread each instead.
constexpr std::size_t kThreads = 4;

/// Interleaved shards give every worker the same mix of the tiled design's
/// templates, so no worker waits on a costlier contiguous range.
constexpr ShardPolicy kShardPolicy = ShardPolicy::kInterleaved;

/// Length of the probe session a traced flow or sharded run issues.
constexpr std::size_t kProbeQueries = 500;

// ---------------------------------------------------------------- args

struct Args {
  bool prepare = false;
  bool worker = false;
  bool trace = false;
  bool setup_only = false;  ///< report setup_s and stop before the work
  std::string kind = "flow";  ///< flow | sharded | service
  std::string lib;
  /// rand:<gates>:<inputs>:<netlist seed> | tiled:<tiles>
  std::string design = "rand:48:16:0xABCD02";
  std::string imaging = "abbe";  ///< abbe | socs
  /// Drives the silicon ACLV draw, the query stream and the probe windows.
  std::uint64_t seed = 1;
  std::size_t queries = 1000;  ///< service kind: query stream length
  std::size_t workers = 4;     ///< sharded kind
  std::string work_dir;        ///< sharded kind: emptied at start
  // Worker mode (filled in by the coordinator).
  double clock_ps = 0.0;
  std::uint32_t worker_id = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

std::uint64_t parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (s.empty() || *end != '\0') {
    std::fprintf(stderr, "not an unsigned integer: %s\n", s.c_str());
    std::exit(2);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--prepare") {
      a.prepare = true;
    } else if (arg == "--worker") {
      a.worker = true;
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else if (arg == "--kind") {
      a.kind = next();
    } else if (arg == "--lib") {
      a.lib = next();
    } else if (arg == "--design") {
      a.design = next();
    } else if (arg == "--imaging") {
      a.imaging = next();
    } else if (arg == "--seed") {
      a.seed = parse_u64(next());
    } else if (arg == "--queries") {
      a.queries = parse_u64(next());
    } else if (arg == "--workers") {
      a.workers = parse_u64(next());
    } else if (arg == "--work-dir") {
      a.work_dir = next();
    } else if (arg == "--clock") {
      a.clock_ps = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--worker-id") {
      a.worker_id = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--lo") {
      a.lo = parse_u64(next());
    } else if (arg == "--hi") {
      a.hi = parse_u64(next());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  const auto fail = [](const char* msg) {
    std::fprintf(stderr, "%s\n", msg);
    std::exit(2);
  };
  if (a.lib.empty()) fail("--lib is required");
  if (a.kind != "flow" && a.kind != "sharded" && a.kind != "service") {
    fail("--kind must be flow, sharded or service");
  }
  if (a.imaging != "abbe" && a.imaging != "socs") {
    fail("--imaging must be abbe or socs");
  }
  if (a.workers < 1 || a.queries < 1) {
    fail("--workers and --queries must be >= 1");
  }
  if ((a.kind == "sharded" || a.worker) && a.work_dir.empty()) {
    fail("the sharded kind needs --work-dir");
  }
  return a;
}

// ---------------------------------------------------------------- set-up

StdCellLibrary load_library(const std::string& path) {
  std::optional<StdCellLibrary> lib = try_load_library(path, CharParams{});
  if (!lib) {
    std::fprintf(stderr, "no usable cell library at %s (run --prepare)\n",
                 path.c_str());
    std::exit(2);
  }
  return std::move(*lib);
}

Netlist make_netlist(const std::string& spec) {
  std::vector<std::string> f;
  std::stringstream ss(spec);
  for (std::string part; std::getline(ss, part, ':');) f.push_back(part);
  if (f.size() == 4 && f[0] == "rand") {
    return make_random_logic(parse_u64(f[1]), parse_u64(f[2]), parse_u64(f[3]));
  }
  if (f.size() == 2 && f[0] == "tiled") return make_tiled(parse_u64(f[1]));
  std::fprintf(stderr, "bad --design %s\n", spec.c_str());
  std::exit(2);
}

FlowOptions base_options(const Args& a) {
  FlowOptions opts;
  opts.threads = kThreads;
  opts.seed = a.seed;
  opts.imaging.mode =
      a.imaging == "socs" ? ImagingMode::kSocs : ImagingMode::kAbbe;
  return opts;
}

/// Library, placed design and flow options (clock from a drawn-CD probe at
/// a 12 % margin over the worst arrival, as the experiment benches do).
struct Setup {
  StdCellLibrary lib;
  PlacedDesign design;
  FlowOptions opts;
};

Setup make_setup(const Args& a) {
  Setup s{load_library(a.lib), {}, base_options(a)};
  s.design = place_and_route(make_netlist(a.design), s.lib);
  PostOpcFlow probe(s.design, s.lib, LithoSimulator{}, s.opts);
  s.opts.sta.clock_period = probe.run_sta(nullptr).worst_arrival * 1.12;
  return s;
}

// ---------------------------------------------------------------- sequence S

struct SequenceResult {
  StaReport drawn;
  StaReport annotated;
  std::vector<DelayAnnotation> ann;
  PathRankComparison ranks;
  double ws_change_pct = 0.0;
  double opc_cpu_s = 0.0;  ///< process CPU inside run_opc
};

/// compare_timing's steps as separate public calls, each spanned.
SequenceResult run_sequence(PostOpcFlow& flow, OpcMode mode, Tracer& tr) {
  SequenceResult s;
  const FlowOptions& o = flow.options();
  tr.timed("tag_critical_gates", "tag", [&] {
    (void)flow.tag_critical_gates(0.05 * o.sta.clock_period);
  });
  const double cpu0 = usage_of(RUSAGE_SELF).cpu_s();
  tr.timed("run_opc", "opc", [&] { flow.run_opc(mode); });
  s.opc_cpu_s = usage_of(RUSAGE_SELF).cpu_s() - cpu0;
  tr.timed("run_sta_incremental(drawn)", "sta",
           [&] { s.drawn = flow.run_sta_incremental(nullptr); });
  std::vector<GateExtraction> ext;
  tr.timed("extract", "extract", [&] { ext = flow.extract(Exposure{}); });
  tr.timed("annotate_with_aclv", "annotate", [&] {
    Rng rng(o.seed);
    s.ann = flow.annotate_with_aclv(
        ext, o.silicon.enabled ? o.silicon.aclv_sigma_nm : 0.0, rng);
  });
  tr.timed("run_sta_incremental(annotated)", "sta",
           [&] { s.annotated = flow.run_sta_incremental(&s.ann); });
  tr.timed("compare_path_ranks", "rank", [&] {
    s.ranks = compare_path_ranks(flow.design().netlist, s.drawn.paths,
                                 s.annotated.paths);
  });
  if (s.drawn.worst_slack != 0.0) {
    s.ws_change_pct = (s.annotated.worst_slack - s.drawn.worst_slack) /
                      std::abs(s.drawn.worst_slack) * 100.0;
  }
  return s;
}

void record_headline(Report& r, const StaReport& drawn,
                     const StaReport& annotated, double ws_change_pct,
                     std::size_t top10_displaced) {
  r.results["ws_drawn"] = fmt9(drawn.worst_slack);
  r.results["ws_annotated"] = fmt9(annotated.worst_slack);
  r.results["ws_change_pct"] = fmt9(ws_change_pct);
  r.exact["top10_displaced"] = static_cast<double>(top10_displaced);
}

void record_opc(Report& r, const OpcStats& s) {
  r.exact["opc.windows"] = static_cast<double>(s.windows);
  r.exact["opc.iterations"] = static_cast<double>(s.iterations);
  r.exact["opc.fragments"] = static_cast<double>(s.fragments);
  r.exact["opc.max_epe_nm"] = s.max_abs_epe_nm;
}

void record_cache(Report& r, const PostOpcFlow::FlowCacheCounters& c) {
  const auto lookups = [](const CacheCounters& k) {
    return static_cast<double>(k.hits + k.disk_hits + k.misses);
  };
  r.layer["cache.opc_lookups"] = lookups(c.opc);
  r.layer["cache.opc_misses"] = static_cast<double>(c.opc.misses);
  r.layer["cache.opc_hit_rate"] = c.opc.hit_rate();
  r.layer["cache.latent_lookups"] = lookups(c.latent);
  r.layer["cache.latent_misses"] = static_cast<double>(c.latent.misses);
  r.layer["cache.latent_hit_rate"] = c.latent.hit_rate();
  const CacheCounters t = c.total();
  r.layer["cache.bytes_mb"] = static_cast<double>(t.bytes) / kMiB;
  r.layer["cache.evictions"] = static_cast<double>(t.evictions);
}

/// The run.* and disk-cache rows of a single-process run: the process is
/// its own one worker, with no journal and no disk tier.
void record_single_process(Report& r, double wall_s) {
  r.layer["run.worker_wall_max_s"] = wall_s;
  r.layer["run.worker_wall_mean_s"] = wall_s;
  r.layer["run.imbalance"] = 1.0;
  r.layer["run.coord_tail_frac"] = 0.0;
  r.exact["run.journal_records"] = 0.0;
  r.layer["run.journal_mb"] = 0.0;
  r.layer["run.replayed"] = 0.0;
  r.layer["run.residual_windows"] = 0.0;
  r.layer["run.worker_maxrss_mb"] = self_maxrss_mb();
  r.layer["cache.disk_hits"] = 0.0;
  r.layer["cache.disk_publishes"] = 0.0;
  r.layer["cache.cross_worker_hit_rate"] = 0.0;
  r.layer["cache.disk_mb"] = 0.0;
}

void check_health(Report& r, const FlowHealth& h, const std::string& what) {
  r.failed += h.faults.size();
  r.check(h.clean(), what + ": health not clean (" +
                         std::to_string(h.faults.size()) + " faults)");
}

// ---------------------------------------------------------------- session

/// The interactive re-timing loop: one client, closed loop, no think time.
/// Mix: 50 % read (worst_slack + paths(10)), 30 % retime (+-1 % on 4
/// seeded gates from tag_critical_gates(30 ps)), 20 % what-if (re-extract
/// the 8 most critical gates at one of 9 focus x dose points, annotate,
/// TimingService::whatif).  The mix is exact and the seed shuffles its
/// order: the overall median sits inside the reads, and a seed-drawn read
/// share would move it along the read latencies.
///
/// The service loads the systematic post-OPC annotations (no ACLV draw),
/// and each retime perturbs gates relative to them rather than compounding,
/// so the timing landscape the queries see is the same for every seed and
/// stays put over the stream: latency percentiles then measure the service,
/// not a random walk of the design's critical paths.
class Session {
 public:
  Session(PostOpcFlow& flow, std::uint64_t seed)
      : flow_(flow),
        service_(flow.make_timing_service()),
        rng_(seed ^ 0x5e55),
        base_(flow.annotate(flow.extract(Exposure{}))) {
    service_.load_annotations(base_);
    retime_pool_ = flow.tag_critical_gates(30.0);
    const StaReport rep = flow.run_sta(&base_);
    std::vector<GateIdx> order(rep.gate_slack.size());
    for (GateIdx g = 0; g < order.size(); ++g) order[g] = g;
    std::stable_sort(order.begin(), order.end(), [&](GateIdx x, GateIdx y) {
      return rep.gate_slack[x] < rep.gate_slack[y];
    });
    order.resize(std::min<std::size_t>(8, order.size()));
    std::sort(order.begin(), order.end());
    whatif_gates_ = order;
    for (const double focus : {-60.0, 0.0, 60.0}) {
      for (const double dose : {0.98, 1.0, 1.02}) {
        points_.push_back(Exposure{focus, dose});
      }
    }
    ws_ = service_.worst_slack();
    // Image every what-if exposure once, so the stream sees the warm
    // window cache a long-lived service has.
    for (const Exposure& e : points_) {
      (void)flow_.annotate(flow_.extract(e, whatif_gates_));
    }
  }

  /// Issues `queries` queries; returns the stream's wall time in us.
  double run(std::size_t queries, Tracer& tr, Report& r) {
    enum Kind : char { kRead, kRetime, kWhatif };
    std::vector<Kind> kinds(queries, kRead);
    const std::size_t retimes = queries * 3 / 10;
    std::fill_n(kinds.begin(), retimes, kRetime);
    std::fill_n(kinds.begin() + retimes, queries / 5, kWhatif);
    for (std::size_t i = queries; i > 1; --i) {
      std::swap(kinds[i - 1], kinds[static_cast<std::size_t>(rng_.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
    const double t0 = mono_us();
    for (const Kind kind : kinds) {
      try {
        if (kind == kRead) {
          read(tr, r);
        } else if (kind == kRetime) {
          retime(tr);
        } else {
          whatif(tr, r);
        }
      } catch (const std::exception& e) {
        if (failed_++ == 0) r.errors.push_back(std::string("query: ") + e.what());
      }
    }
    return mono_us() - t0;
  }

  /// The final answer must equal a stateless STA over the same annotations.
  void verify(Report& r) {
    const Ps ws = service_.worst_slack();
    r.check(ws == ws_, "session worst slack drifted from the last answer");
    const StaReport fresh = flow_.run_sta(&service_.graph().annotations());
    r.check(fresh.worst_slack == ws,
            "final service WS differs from run_sta on its annotations");
    r.results["service_ws"] = fmt9(ws);
  }

  /// The end-to-end query metrics, when the session is the measured work.
  void record_queries(Report& r) const {
    std::vector<double> all;
    for (const auto* v : {&read_us_, &retime_us_, &whatif_us_}) {
      all.insert(all.end(), v->begin(), v->end());
    }
    r.e2e["queries_per_s"] = static_cast<double>(all.size()) / busy_s();
    r.e2e["query_p50_us"] = percentile(all, 0.50);
    r.e2e["query_p99_us"] = percentile(all, 0.99);
  }

  /// Per-kind latencies and retime work; every query counts as attempted.
  void record(Report& r) const {
    r.layer["sta.read_p50_us"] = percentile(read_us_, 0.50);
    r.layer["sta.read_p99_us"] = percentile(read_us_, 0.99);
    r.layer["sta.retime_p50_us"] = percentile(retime_us_, 0.50);
    r.layer["sta.retime_p99_us"] = percentile(retime_us_, 0.99);
    r.layer["sta.whatif_p50_us"] = percentile(whatif_us_, 0.50);
    r.layer["sta.whatif_p99_us"] = percentile(whatif_us_, 0.99);
    r.layer["sta.whatif_extract_p50_us"] = percentile(wx_us_, 0.50);
    r.layer["sta.whatif_annotate_p50_us"] = percentile(wa_us_, 0.50);
    r.layer["sta.whatif_apply_p50_us"] = percentile(wp_us_, 0.50);
    const double retimes = std::max<double>(1.0, retime_us_.size());
    r.exact["sta.arrival_evals_per_retime"] =
        static_cast<double>(arrival_evals_) / retimes;
    r.layer["sta.gates_changed_per_retime"] =
        static_cast<double>(gates_changed_) / retimes;
    r.attempted += read_us_.size() + retime_us_.size() + whatif_us_.size() +
                   failed_;
    r.failed += failed_;
  }

  /// Time the client spent waiting on the service: the answer checks
  /// between queries are not service time.
  double busy_s() const {
    double us = 0.0;
    for (const auto* v : {&read_us_, &retime_us_, &whatif_us_}) {
      for (const double x : *v) us += x;
    }
    return us * 1e-6;
  }

  /// Extraction windows the what-ifs served.
  std::size_t windows() const {
    return whatif_us_.size() * whatif_gates_.size();
  }

 private:
  void read(Tracer& tr, Report& r) {
    Ps ws = 0.0;
    std::size_t npaths = 0;
    read_us_.push_back(tr.timed("read", "sta", [&] {
      ws = service_.worst_slack();
      npaths = service_.paths(10).size();
    }));
    r.check(ws == ws_ && npaths > 0, "a read disagrees with the last answer");
  }

  void retime(Tracer& tr) {
    std::vector<GateRetime> changes;
    for (std::size_t k = 0; k < 4 && !retime_pool_.empty(); ++k) {
      const GateIdx g = retime_pool_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(retime_pool_.size()) - 1))];
      const double scale = rng_.chance(0.5) ? 1.01 : 0.99;
      DelayAnnotation ann = base_[g];
      ann.fall_scale *= scale;
      ann.rise_scale *= scale;
      changes.push_back({g, ann});
    }
    RetimeReport rep;
    retime_us_.push_back(
        tr.timed("retime", "sta", [&] { rep = service_.retime(changes); }));
    arrival_evals_ += rep.arrival_evals;
    gates_changed_ += rep.gates_changed;
    ws_ = rep.worst_slack_after;
  }

  void whatif(Tracer& tr, Report& r) {
    const Exposure e = points_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(points_.size()) - 1))];
    WhatIfReport rep;
    whatif_us_.push_back(tr.timed("whatif", "sta", [&] {
      std::vector<GateExtraction> ext;
      wx_us_.push_back(tr.timed("whatif.extract", "extract", [&] {
        ext = flow_.extract(e, whatif_gates_);
      }));
      std::vector<DelayAnnotation> ann;
      wa_us_.push_back(tr.timed("whatif.annotate", "annotate",
                                [&] { ann = flow_.annotate(ext); }));
      wp_us_.push_back(tr.timed("whatif.apply", "sta", [&] {
        std::vector<GateRetime> candidate;
        for (const GateIdx g : whatif_gates_) candidate.push_back({g, ann[g]});
        rep = service_.whatif(candidate);
      }));
    }));
    r.check(rep.worst_slack_before == ws_ && service_.worst_slack() == ws_,
            "a what-if changed the service's worst slack");
  }

  PostOpcFlow& flow_;
  TimingService service_;
  Rng rng_;
  std::vector<DelayAnnotation> base_;
  std::vector<GateIdx> retime_pool_;
  std::vector<GateIdx> whatif_gates_;
  std::vector<Exposure> points_;
  Ps ws_ = 0.0;
  std::vector<double> read_us_, retime_us_, whatif_us_, wx_us_, wa_us_, wp_us_;
  std::uint64_t arrival_evals_ = 0;
  std::uint64_t gates_changed_ = 0;
  std::size_t failed_ = 0;
};

// ---------------------------------------------------------------- probes

/// Per-layer probes for a traced run: the litho simulator's stages on 16
/// seeded windows, CD extraction on their latents, one full annotation, a
/// stateless STA and a warm one-gate re-time.
void run_probes(PostOpcFlow& flow, const std::vector<DelayAnnotation>& ann,
                std::uint64_t seed, Report& r) {
  const PlacedDesign& design = flow.design();
  const LithoSimulator& sim = flow.silicon_sim();
  const Exposure exposure = flow.silicon_exposure({});
  const LithoQuality q = flow.options().extract_quality;
  Rng rng(seed ^ 0x9e0b);
  std::vector<GateIdx> gates;
  for (int i = 0; i < 16; ++i) {
    gates.push_back(static_cast<GateIdx>(rng.uniform_int(
        0, static_cast<std::int64_t>(design.netlist.num_gates()) - 1)));
  }
  std::vector<double> rast, aerial, latent, cdx;
  std::vector<Image2D> masks;
  double px = 0.0;
  const auto clock = [](double& acc_t0) {
    const double t = mono_us();
    const double d = t - acc_t0;
    acc_t0 = t;
    return d;
  };
  for (const GateIdx g : gates) {
    const Rect window = design.litho_window(g, flow.options().ambit_nm);
    const std::vector<Rect>& mask =
        flow.mask_for_instance(design.gate_to_instance[g]);
    double t = mono_us();
    masks.push_back(sim.rasterize(mask, window, q));
    rast.push_back(clock(t));
    px += static_cast<double>(masks.back().nx() * masks.back().ny());
    (void)sim.aerial(mask, window, exposure.focus_nm, q);
    aerial.push_back(clock(t));
    const Image2D lat = sim.latent(mask, window, exposure, q);
    latent.push_back(clock(t));
    for (const PlacedGate* pg : design.gates_of(g)) {
      (void)extract_gate_cd(lat, sim.print_threshold(), pg->region,
                            pg->vertical_poly, flow.options().cdx);
    }
    cdx.push_back(clock(t));
  }
  // The batched engine takes one mask shape per batch, as the flow's
  // chunk staging hands it windows.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<const Image2D*>>
      by_shape;
  for (const Image2D& m : masks) by_shape[{m.nx(), m.ny()}].push_back(&m);
  double t = mono_us();
  for (const auto& [shape, group] : by_shape) {
    (void)sim.latent_batch(group.data(), group.size(), exposure, q,
                           tls_scratch_arena());
  }
  const double n = static_cast<double>(gates.size());
  r.layer["litho.latent_batch_ms_per_window"] = clock(t) * 1e-3 / n;
  r.layer["litho.rasterize_ms"] = median(rast) * 1e-3;
  r.layer["litho.aerial_ms"] = median(aerial) * 1e-3;
  r.layer["litho.latent_ms"] = median(latent) * 1e-3;
  r.layer["litho.window_px"] = px / n;
  r.layer["cdx.extract_gate_cd_us"] = median(cdx);

  const std::vector<GateExtraction> ext = flow.extract(Exposure{});
  t = mono_us();
  (void)flow.annotate(ext);
  const double gates_n = static_cast<double>(design.netlist.num_gates());
  r.layer["device.annotate_us_per_gate"] = clock(t) / gates_n;
  r.layer["cdx.gates"] = gates_n;

  std::vector<double> full, incr;
  for (int i = 0; i < 3; ++i) {
    t = mono_us();
    (void)flow.run_sta(&ann);
    full.push_back(clock(t));
  }
  r.layer["sta.full_retime_ms"] = median(full) * 1e-3;
  // A one-gate change through the flow's warm incremental graph, toggled
  // back and forth so every call moves exactly one gate.
  std::vector<DelayAnnotation> bumped = ann;
  bumped[gates.front()].fall_scale *= 1.01;
  bumped[gates.front()].rise_scale *= 1.01;
  (void)flow.run_sta_incremental(&ann);
  for (int i = 0; i < 8; ++i) {
    t = mono_us();
    (void)flow.run_sta_incremental(i % 2 == 0 ? &bumped : &ann);
    incr.push_back(clock(t));
  }
  r.layer["sta.incr_retime_ms"] = median(incr) * 1e-3;
}

// ---------------------------------------------------------------- kinds

/// Resource use of the measured section: CPU and faults are deltas, so
/// set-up, the checks and the probes do not count.
class WorkMeter {
 public:
  void finish(Report& r, double wall_s, double thread_budget) const {
    const Usage u1 = usage_now();
    r.e2e["wall_s"] = wall_s;
    r.e2e["cpu_s"] = u1.cpu_s() - u0_.cpu_s();
    r.layer["proc.user_s"] = u1.user_s - u0_.user_s;
    r.layer["proc.sys_s"] = u1.sys_s - u0_.sys_s;
    r.layer["proc.minflt"] = u1.minflt - u0_.minflt;
    r.layer["proc.invol_ctxsw"] = u1.nivcsw - u0_.nivcsw;
    r.layer["par.cpu_util"] = r.e2e["cpu_s"] / (wall_s * thread_budget);
  }

 private:
  Usage u0_ = usage_now();
};

/// Phase shares of the measured section, from the tracer's self times.
void record_phases(Report& r, const Tracer& tr, double traced_wall_us) {
  if (!tr.enabled()) return;
  double covered = 0.0;
  for (const auto& [layer, us] : tr.self_us()) covered += us;
  for (const char* layer : {"tag", "opc", "extract", "annotate", "sta", "rank",
                            "shard", "shard_worker"}) {
    const auto it = tr.self_us().find(layer);
    r.layer[std::string("core.") + layer + "_frac"] =
        it == tr.self_us().end() ? 0.0 : it->second / traced_wall_us;
  }
  r.layer["core.phase_coverage"] = covered / traced_wall_us;
  r.layer["core.trace_overhead_pct"] = tr.overhead_us() / traced_wall_us * 100;
}

/// Flow and sharded runs serve one request, the whole sign-off run, so
/// their query metrics are its rate and latency.
void record_request(Report& r, double wall_s) {
  r.e2e["queries_per_s"] = 1.0 / wall_s;
  r.e2e["query_p50_us"] = wall_s * 1e6;
  r.e2e["query_p99_us"] = wall_s * 1e6;
}

/// Traced flow and sharded runs: a short query session on the result, for
/// the STA layer's per-kind latencies, then the layer probes.
void probe_layers(Report& r, PostOpcFlow& flow,
                  const std::vector<DelayAnnotation>& ann, std::uint64_t seed,
                  Tracer& tr) {
  Session session(flow, seed);
  session.run(kProbeQueries, tr, r);
  session.verify(r);
  session.record(r);
  run_probes(flow, ann, seed, r);
}

void run_flow(const Args& a, Tracer& tr, Report& r, double start_us) {
  const Setup su = make_setup(a);
  PostOpcFlow flow(su.design, su.lib, LithoSimulator{}, su.opts);
  r.e2e["setup_s"] = (mono_us() - start_us) * 1e-6;
  if (a.setup_only) return;

  const WorkMeter meter;
  const double t0 = mono_us();
  const SequenceResult s = run_sequence(flow, OpcMode::kModelBased, tr);
  const double wall_us = mono_us() - t0;
  meter.finish(r, wall_us * 1e-6, static_cast<double>(kThreads));
  record_phases(r, tr, wall_us);
  record_request(r, wall_us * 1e-6);

  const OpcStats& opc = flow.opc_stats();
  r.attempted += opc.windows;
  r.e2e["windows_per_s"] = static_cast<double>(opc.windows) / (wall_us * 1e-6);
  check_health(r, flow.health(), "flow");
  r.check(same_report(s.annotated, flow.run_sta(&s.ann)),
          "warm run_sta_incremental(&ann) differs from stateless run_sta");
  record_headline(r, s.drawn, s.annotated, s.ws_change_pct,
                  s.ranks.top10_displaced);
  record_opc(r, opc);
  record_cache(r, flow.cache_counters());
  record_single_process(r, wall_us * 1e-6);
  r.layer["opc.cpu_ms_per_miss"] =
      s.opc_cpu_s * 1e3 / std::max(1.0, r.layer["cache.opc_misses"]);
  r.e2e["peak_rss_mb"] = self_maxrss_mb();
  if (tr.enabled()) probe_layers(r, flow, s.ann, a.seed, tr);
}

void run_service(const Args& a, Tracer& tr, Report& r, double start_us) {
  const Setup su = make_setup(a);
  PostOpcFlow flow(su.design, su.lib, LithoSimulator{}, su.opts);
  // Set-up: the sign-off result the service starts from (sequence S with
  // rule-based OPC, untraced), then the service and its exposure warm-up.
  Tracer untraced(false);
  const SequenceResult s = run_sequence(flow, OpcMode::kRuleBased, untraced);
  Session session(flow, a.seed);
  r.e2e["setup_s"] = (mono_us() - start_us) * 1e-6;
  if (a.setup_only) return;

  check_health(r, flow.health(), "service set-up");
  r.check(same_report(s.annotated, flow.run_sta(&s.ann)),
          "warm run_sta_incremental(&ann) differs from stateless run_sta");
  record_headline(r, s.drawn, s.annotated, s.ws_change_pct,
                  s.ranks.top10_displaced);
  record_opc(r, flow.opc_stats());
  record_cache(r, flow.cache_counters());
  r.layer["opc.cpu_ms_per_miss"] =
      s.opc_cpu_s * 1e3 / std::max(1.0, r.layer["cache.opc_misses"]);

  const WorkMeter meter;
  const double stream_us = session.run(a.queries, tr, r);
  const double busy_s = session.busy_s();
  meter.finish(r, busy_s, static_cast<double>(kThreads));
  record_phases(r, tr, stream_us);
  r.e2e["windows_per_s"] = static_cast<double>(session.windows()) / busy_s;
  r.attempted += session.windows();
  record_single_process(r, busy_s);
  session.verify(r);
  session.record(r);
  session.record_queries(r);
  r.e2e["peak_rss_mb"] = self_maxrss_mb();
  if (tr.enabled()) run_probes(flow, s.ann, a.seed, r);
}

std::string spans_path(const std::string& work_dir, std::uint32_t worker) {
  return work_dir + "/spans.w" + std::to_string(worker);
}

void run_sharded(const Args& a, Tracer& tr, Report& r, double start_us) {
  const Setup su = make_setup(a);
  std::error_code ec;
  fs::remove_all(a.work_dir, ec);
  fs::create_directories(a.work_dir);
  ShardFlowOptions so;
  so.workers = a.workers;
  so.policy = kShardPolicy;
  so.work_dir = a.work_dir;
  so.opc_mode = OpcMode::kModelBased;
  so.share_disk_cache = true;
  char clock[64];
  std::snprintf(clock, sizeof clock, "%a", su.opts.sta.clock_period);
  so.worker_command = [a, clock = std::string(clock)](const ShardSpec& spec) {
    std::vector<std::string> argv = {
        "/proc/self/exe", "--worker", "--lib", a.lib, "--design", a.design,
        "--imaging", a.imaging, "--seed", std::to_string(a.seed),
        "--work-dir", a.work_dir, "--clock", clock,
        "--worker-id", std::to_string(spec.worker),
        "--workers", std::to_string(spec.workers),
        "--lo", std::to_string(spec.lo), "--hi", std::to_string(spec.hi)};
    if (a.trace) argv.push_back("--trace");
    return argv;
  };
  r.e2e["setup_s"] = (mono_us() - start_us) * 1e-6;
  if (a.setup_only) return;

  const WorkMeter meter;
  const double t0 = mono_us();
  ShardFlowResult res;
  tr.timed("run_sharded_flow", "shard", [&] {
    res = run_sharded_flow(su.design, su.lib, LithoSimulator{}, su.opts, so);
  });
  const double wall_us = mono_us() - t0;
  const double wall_s = wall_us * 1e-6;
  meter.finish(r, wall_s, static_cast<double>(a.workers));
  record_request(r, wall_s);
  if (tr.enabled()) {
    std::vector<Span> worker_spans;
    for (std::uint32_t w = 0; w < a.workers; ++w) {
      std::ifstream in(spans_path(a.work_dir, w));
      Span s;
      s.pid = static_cast<int>(w) + 1;
      while (in >> s.name >> s.ts_us >> s.dur_us) worker_spans.push_back(s);
    }
    tr.add_foreign("shard", std::move(worker_spans), "shard_worker");
  }
  record_phases(r, tr, wall_us);

  // Checks: a healthy run in which every worker finished and the
  // coordinator recomputed nothing.
  check_health(r, res.comparison.health, "sharded comparison");
  check_health(r, res.shard_health, "shard");
  for (const WorkerExit& ex : res.exits) {
    r.check(ex.ok(), "shard worker " + std::to_string(ex.worker) + " failed");
  }
  r.check(res.residual_windows == 0,
          "coordinator recomputed " + std::to_string(res.residual_windows) +
              " residual windows");
  record_headline(r, res.comparison.drawn, res.comparison.annotated,
                  res.comparison.worst_slack_change_pct,
                  res.comparison.ranks.top10_displaced);
  record_cache(r, res.cache);

  double wall_max = 0.0, wall_sum = 0.0, rss_sum = 0.0, rss_max = 0.0;
  double disk_hits = 0.0, lookups = 0.0, misses = 0.0, publishes = 0.0;
  for (const ShardWorkerStats& ws : res.worker_stats) {
    r.check(ws.complete, "shard worker stats incomplete");
    wall_max = std::max(wall_max, ws.wall_ms * 1e-3);
    wall_sum += ws.wall_ms * 1e-3;
    const double rss = static_cast<double>(ws.maxrss_kb) / 1024.0;
    rss_sum += rss;
    rss_max = std::max(rss_max, rss);
    disk_hits += static_cast<double>(ws.disk_hits);
    misses += static_cast<double>(ws.misses);
    lookups += static_cast<double>(ws.mem_hits + ws.disk_hits + ws.misses);
    publishes += static_cast<double>(ws.insertions);
  }
  const double wall_mean =
      wall_sum / std::max<double>(1.0, res.worker_stats.size());
  r.layer["run.worker_wall_max_s"] = wall_max;
  r.layer["run.worker_wall_mean_s"] = wall_mean;
  r.layer["run.imbalance"] = wall_mean > 0 ? wall_max / wall_mean : 0.0;
  r.layer["run.coord_tail_frac"] = (wall_s - wall_max) / wall_s;
  r.exact["run.journal_records"] = static_cast<double>(res.merge.records.size());
  double journal_bytes = 0.0;
  for (std::uint32_t w = 0; w < a.workers; ++w) {
    journal_bytes += static_cast<double>(
        dir_bytes(fs::path(shard_worker_dir(a.work_dir, w)) / "journal"));
  }
  r.layer["run.journal_mb"] = journal_bytes / kMiB;
  r.layer["run.replayed"] = static_cast<double>(res.merged_stats.replayed_hits);
  r.layer["run.residual_windows"] = static_cast<double>(res.residual_windows);
  r.layer["run.worker_maxrss_mb"] = rss_max;
  r.layer["cache.disk_hits"] = disk_hits;
  r.layer["cache.disk_publishes"] = publishes;
  r.layer["cache.cross_worker_hit_rate"] = lookups > 0 ? disk_hits / lookups : 0;
  r.layer["cache.disk_mb"] =
      static_cast<double>(dir_bytes(fs::path(a.work_dir) / "cache")) / kMiB;
  // Workers' CPU is the children's share of the section's CPU.
  r.layer["opc.cpu_ms_per_miss"] = r.e2e["cpu_s"] * 1e3 / std::max(1.0, misses);
  r.e2e["peak_rss_mb"] = self_maxrss_mb() + rss_sum;

  // A flow over the shared disk cache (every window is a disk hit) must
  // equal the merged result bit for bit in a stateless STA; it also
  // supplies the OPC counters and what the probes need.
  FlowOptions eopts = su.opts;
  eopts.cache.disk_path = a.work_dir + "/cache";
  PostOpcFlow flow(su.design, su.lib, LithoSimulator{}, eopts);
  flow.run_opc(OpcMode::kModelBased);
  Rng rng(eopts.seed);
  const std::vector<DelayAnnotation> ann = flow.annotate_with_aclv(
      flow.extract(Exposure{}),
      eopts.silicon.enabled ? eopts.silicon.aclv_sigma_nm : 0.0, rng);
  r.check(same_report(res.comparison.annotated, flow.run_sta(&ann)),
          "merged sharded result differs from a recompute");
  const OpcStats& opc = flow.opc_stats();
  record_opc(r, opc);
  r.attempted += opc.windows;
  r.e2e["windows_per_s"] = static_cast<double>(opc.windows) / wall_s;
  if (tr.enabled()) probe_layers(r, flow, ann, a.seed, tr);
}

/// Worker mode: one shard of the sharded run, re-exec'd by the coordinator.
int run_worker(const Args& a, double start_us) {
  const StdCellLibrary lib = load_library(a.lib);
  const PlacedDesign design = place_and_route(make_netlist(a.design), lib);
  FlowOptions opts = base_options(a);
  opts.sta.clock_period = a.clock_ps;
  opts.threads = 1;  // 4 workers x 1 thread fill the 4 cores
  opts.cache.disk_path = a.work_dir + "/cache";
  ShardWorkerOptions wo;
  wo.spec.worker = a.worker_id;
  wo.spec.workers = static_cast<std::uint32_t>(a.workers);
  wo.spec.policy = kShardPolicy;
  wo.spec.lo = a.lo;
  wo.spec.hi = a.hi;
  wo.work_dir = a.work_dir;
  const double t1 = mono_us();
  const bool ok = run_shard_worker(design, lib, LithoSimulator{}, opts, wo);
  const double t2 = mono_us();
  if (a.trace) {
    std::ofstream out(spans_path(a.work_dir, a.worker_id));
    out.precision(17);
    out << "worker_setup " << start_us << " " << (t1 - start_us) << "\n"
        << "run_shard_worker " << t1 << " " << (t2 - t1) << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double start_us = mono_us();
  set_log_level(LogLevel::kWarn);
  const Args a = parse_args(argc, argv);
  if (a.prepare) {
    (void)StdCellLibrary::load_or_characterize(a.lib);
    return 0;
  }
  if (a.worker) return run_worker(a, start_us);

  Tracer tracer(a.trace);
  Report report;
  try {
    if (a.kind == "flow") {
      run_flow(a, tracer, report, start_us);
    } else if (a.kind == "service") {
      run_service(a, tracer, report, start_us);
    } else {
      run_sharded(a, tracer, report, start_us);
    }
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("exception: ") + e.what());
  }
  print_report(report, tracer);
  return report.errors.empty() ? 0 : 1;
}
