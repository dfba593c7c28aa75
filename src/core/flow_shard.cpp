#include "src/core/flow_shard.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "src/common/log.h"
#include "src/par/thread_pool.h"

namespace poc {
namespace {

namespace fs = std::filesystem;

/// One phase-"shard" fault for the out-of-band health report.
FlowHealth::WindowFault shard_fault(std::uint64_t worker, FaultCode code,
                                    std::string origin, bool recovered,
                                    bool degraded) {
  FlowHealth::WindowFault f;
  f.phase = "shard";
  f.index = worker;
  f.code = code;
  f.origin = std::move(origin);
  f.attempts = 1;
  f.recovered = recovered;
  f.degraded = degraded;
  return f;
}

/// Gates whose instances the shard owns — the extraction half of the
/// shard's window space.  The gate->instance map is many-to-one, so this
/// partitions gates exactly like partition_shards partitions instances.
std::vector<GateIdx> shard_gates(const PlacedDesign& design,
                                 const ShardSpec& spec) {
  std::vector<GateIdx> gates;
  for (GateIdx g = 0; g < design.gate_to_instance.size(); ++g) {
    if (shard_owns(spec, design.gate_to_instance[g])) gates.push_back(g);
  }
  return gates;
}

/// Appends one line to the worker's stats file (heartbeat channel).  Plain
/// syscalls on purpose: heartbeats are a liveness signal, not durable
/// state, so they stay outside the injectable vfs fault domains.
void append_stats_line(const std::string& path, const char* line,
                       std::size_t len) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;
  (void)!::write(fd, line, len);
  ::close(fd);
}

/// Watchdog progress probe: the worker's stats-file size.  Heartbeat lines
/// grow it monotonically; the completion rewrite changes it once more.
std::uint64_t stats_file_size(const std::string& work_dir,
                              std::uint32_t worker) {
  struct stat st = {};
  const std::string path = work_dir + "/" + shard_stats_name(worker);
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

/// The worker's private journal directory ("<work_dir>/w00/journal").
std::string shard_journal_dir(const std::string& work_dir,
                              std::uint32_t worker) {
  return shard_worker_dir(work_dir, worker) + "/journal";
}

/// One in-process worker attempt-chain for the supervision loop.  "kill"
/// is a cooperative cancel (threads cannot be SIGKILLed): the stall loop
/// and the flow's chunk boundaries poll the per-attempt token, so a
/// killed attempt drains, seals its journal, and reports a failed exit.
struct InprocTask {
  ShardSpec spec;
  std::unique_ptr<CancelToken> token;
  std::thread thread;
  std::atomic<bool> done{false};
  std::atomic<bool> ok{false};

  ~InprocTask() {
    if (thread.joinable()) {
      if (token) token->request_cancel();
      thread.join();
    }
  }
};

}  // namespace

std::string shard_worker_dir(const std::string& work_dir,
                             std::uint32_t worker) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "w%02u", worker);
  return work_dir + "/" + buf;
}

std::string shard_stats_name(std::uint32_t worker) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "run.w%02u.stats", worker);
  return buf;
}

ShardWorkerStats parse_shard_stats(const std::string& path) {
  ShardWorkerStats s;
  std::ifstream in(path, std::ios::binary);
  if (!in) return s;
  s.present = true;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // A torn tail line (no trailing newline — the writer died mid-write) is
  // dropped; everything before it still parses.
  const std::size_t last_newline = content.rfind('\n');
  if (last_newline == std::string::npos) return s;
  content.resize(last_newline + 1);

  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "wall_ms") {
      double v = 0.0;
      if (ls >> v) s.wall_ms = v;
      continue;
    }
    std::uint64_t v = 0;
    if (!(ls >> v)) continue;  // torn or foreign line: classify, not fail
    if (key == "hb") {
      s.last_heartbeat = std::max(s.last_heartbeat, v);
    } else if (key == "worker") {
      s.worker = static_cast<std::uint32_t>(v);
    } else if (key == "windows") {
      s.windows = v;
    } else if (key == "gates") {
      s.gates = v;
    } else if (key == "records") {
      s.records = v;
    } else if (key == "maxrss_kb") {
      s.maxrss_kb = v;
    } else if (key == "mem_hits") {
      s.mem_hits = v;
    } else if (key == "disk_hits") {
      s.disk_hits = v;
    } else if (key == "misses") {
      s.misses = v;
    } else if (key == "insertions") {
      s.insertions = v;
      s.complete = true;  // final key of the completion block
    }
  }
  return s;
}

bool run_shard_worker(const PlacedDesign& design, const StdCellLibrary& lib,
                      const LithoSimulator& sim, FlowOptions base,
                      const ShardWorkerOptions& options) {
  const ShardSpec& spec = options.spec;
  const std::string worker_dir = shard_worker_dir(options.work_dir, spec.worker);
  const std::string stats_path =
      options.work_dir + "/" + shard_stats_name(spec.worker);
  const auto t0 = std::chrono::steady_clock::now();

  // The worker's private write-ahead journal is the only record it leaves:
  // every completed window lands there first, so even a SIGKILL mid-run
  // leaves everything durably finished for the coordinator to merge.
  FlowOptions opts = std::move(base);
  opts.journal.enabled = true;
  opts.journal.path = shard_journal_dir(options.work_dir, spec.worker);
  opts.journal.kill_after_appends = options.kill_after_appends;
  if (options.cancel != nullptr) opts.cancel = options.cancel;

  const std::size_t hb_every = options.heartbeat_every_appends;
  const std::size_t stall_after = options.stall_after_appends;
  if (hb_every > 0 || stall_after > 0) {
    if (hb_every > 0) {
      // Spawn leaves a visible mark: the truncating rewrite changes the
      // file size, which is the watchdog's progress signal.
      std::ofstream(stats_path, std::ios::trunc) << "hb 0\n";
    }
    const std::string stall_marker = worker_dir + "/stall.done";
    const bool stall_once = options.stall_once;
    const CancelToken* cancel = options.cancel;
    opts.journal.on_append = [=](std::size_t total) {
      if (hb_every > 0 && total % hb_every == 0) {
        char line[32];
        const int n = std::snprintf(line, sizeof line, "hb %zu\n", total);
        if (n > 0) append_stats_line(stats_path, line, static_cast<std::size_t>(n));
      }
      if (stall_after > 0 && total == stall_after) {
        if (stall_once) {
          if (::access(stall_marker.c_str(), F_OK) == 0) return;
          const int fd =
              ::open(stall_marker.c_str(), O_WRONLY | O_CREAT, 0644);
          if (fd >= 0) ::close(fd);
        }
        log_warn("SHARD_STALL worker=", spec.worker, " after=", total,
                 " appends");
        // Spin without progress.  Never throw from here: this hook runs
        // inside the recovery loop's containment try, so an exception
        // would be recorded as a window fault and poison the bit-identity
        // contract.  The in-process supervisor "kills" via the cancel
        // token — we return normally and the pool raises
        // FlowException(kCancelled) at the next chunk boundary, the
        // sanctioned drain path.  A forked worker spins until SIGKILL.
        for (;;) {
          if (cancel != nullptr && cancel->cancelled()) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    };
  }

  const std::vector<std::size_t> instances = shard_indices(spec);
  const std::vector<GateIdx> gates = shard_gates(design, spec);

  std::size_t records = 0;
  PostOpcFlow::FlowCacheCounters counters;
  {
    PostOpcFlow flow(design, lib, sim, opts);
    flow.run_opc_subset(options.opc_mode, instances);
    (void)flow.extract(options.exposure, gates);
    const RunJournal::Stats js = flow.journal_stats();
    records = js.loaded_records + js.appended_records;
    counters = flow.cache_counters();
    // Flow destruction flushes and closes the journal.
  }

  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  struct rusage ru = {};
  ::getrusage(RUSAGE_SELF, &ru);
  const CacheCounters total = counters.total();
  std::ofstream stats(stats_path, std::ios::trunc);
  stats << "worker " << spec.worker << "\n"
        << "windows " << instances.size() << "\n"
        << "gates " << gates.size() << "\n"
        << "records " << records << "\n"
        << "wall_ms " << wall_ms << "\n"
        << "maxrss_kb " << ru.ru_maxrss << "\n"
        << "mem_hits " << total.hits << "\n"
        << "disk_hits " << total.disk_hits << "\n"
        << "misses " << total.misses << "\n"
        << "insertions " << total.insertions << "\n";
  log_info("SHARD_WORKER worker=", spec.worker, " windows=", instances.size(),
           " gates=", gates.size(), " records=", records,
           " disk_hits=", total.disk_hits, " maxrss_kb=", ru.ru_maxrss);
  return stats.good();
}

ShardFlowResult run_sharded_flow(const PlacedDesign& design,
                                 const StdCellLibrary& lib,
                                 const LithoSimulator& sim, FlowOptions base,
                                 const ShardFlowOptions& options) {
  POC_EXPECTS(options.workers >= 1);
  POC_EXPECTS(!options.work_dir.empty());
  ShardFlowResult result;
  std::error_code ec;
  fs::create_directories(options.work_dir, ec);

  if (options.share_disk_cache && base.cache.enabled) {
    base.cache.disk_path = options.work_dir + "/cache";
  }

  // Config fingerprint for journal validation at merge — from a journal-less
  // flow over the same config (the fingerprint covers neither journal nor
  // cache knobs, so this matches every worker's stamp).
  Fingerprint config_fp;
  {
    FlowOptions probe = base;
    probe.journal.enabled = false;
    config_fp = PostOpcFlow(design, lib, sim, probe).config_fingerprint();
  }

  const std::vector<ShardSpec> specs = partition_shards(
      design.layout.num_instances(), options.workers, options.policy);

  SupervisorOptions sup;
  sup.watchdog = options.watchdog.enabled;
  sup.no_progress_timeout_ms = options.watchdog.no_progress_timeout_ms;
  sup.max_respawns = options.watchdog.max_respawns;
  sup.backoff_initial_ms = options.watchdog.backoff_initial_ms;
  sup.backoff_max_ms = options.watchdog.backoff_max_ms;
  // The coordinator always forwards SIGINT/SIGTERM to forked workers; the
  // in-process mode has nowhere to deliver a signal (one process).
  sup.forward_signals = options.worker_command != nullptr;
  sup.progress = [&options](std::uint32_t worker) {
    return stats_file_size(options.work_dir, worker);
  };

  // In-process worker state must outlive both supervision waves.
  std::vector<std::unique_ptr<InprocTask>> inproc;

  auto run_wave = [&](const std::vector<ShardSpec>& wave) -> SupervisionResult {
    if (options.worker_command != nullptr) {
      std::vector<WorkerCommand> commands;
      commands.reserve(wave.size());
      for (const ShardSpec& spec : wave) {
        commands.push_back({spec.worker, options.worker_command(spec)});
      }
      return supervise_worker_processes(commands, sup);
    }
    // In-process mode: one thread per worker, same shard/journal/merge
    // machinery minus process isolation.  Workers share nothing in memory
    // (each thread builds its own flow); the disk cache is the only
    // cross-worker channel, exactly as in the multi-process case.
    std::vector<SupervisedTask> tasks;
    tasks.reserve(wave.size());
    const std::size_t first = inproc.size();
    for (const ShardSpec& spec : wave) {
      inproc.push_back(std::make_unique<InprocTask>());
      inproc.back()->spec = spec;
    }
    for (std::size_t i = 0; i < wave.size(); ++i) {
      InprocTask* t = inproc[first + i].get();
      SupervisedTask task;
      task.worker = t->spec.worker;
      task.start = [&, t](std::uint32_t) {
        if (t->thread.joinable()) t->thread.join();
        t->token = std::make_unique<CancelToken>();
        t->done.store(false, std::memory_order_relaxed);
        t->ok.store(false, std::memory_order_relaxed);
        t->thread = std::thread([&, t] {
          ShardWorkerOptions wo;
          wo.spec = t->spec;
          wo.work_dir = options.work_dir;
          wo.opc_mode = options.opc_mode;
          wo.exposure = options.exposure;
          wo.heartbeat_every_appends = options.heartbeat_every_appends;
          if (t->spec.worker == options.stall_worker) {
            wo.stall_after_appends = options.stall_after_appends;
            wo.stall_once = options.stall_once;
          }
          wo.cancel = t->token.get();
          bool worker_ok = false;
          try {
            worker_ok = run_shard_worker(design, lib, sim, base, wo);
          } catch (const std::exception& e) {
            log_warn("shard worker ", t->spec.worker, " (in-process): ",
                     e.what());
          }
          t->ok.store(worker_ok, std::memory_order_relaxed);
          t->done.store(true, std::memory_order_release);
        });
        return true;
      };
      task.poll = [t](WorkerExit* ex) {
        if (!t->done.load(std::memory_order_acquire)) return false;
        if (t->thread.joinable()) t->thread.join();
        ex->worker = t->spec.worker;
        ex->pid = -1;
        ex->spawned = true;
        ex->exit_code = t->ok.load(std::memory_order_relaxed) ? 0 : 1;
        ex->signal = 0;
        return true;
      };
      task.kill = [t] {
        if (t->token) t->token->request_cancel();
      };
      task.deliver = nullptr;
      tasks.push_back(std::move(task));
    }
    return supervise_tasks(tasks, sup);
  };

  const SupervisionResult wave1 = run_wave(specs);
  result.exits = wave1.exits;
  result.interventions = wave1.interventions;

  auto final_exit_ok = [&result](std::uint32_t worker) {
    for (const WorkerExit& ex : result.exits) {
      if (ex.worker == worker) return ex.ok();
    }
    return false;
  };

  // Merge every worker's journal, read-only.
  std::vector<WorkerJournal> journals;
  journals.reserve(specs.size());
  for (const ShardSpec& spec : specs) {
    journals.push_back(
        {spec.worker, shard_journal_dir(options.work_dir, spec.worker)});
  }
  result.merge = merge_worker_journals(journals, config_fp);

  // Residual redistribution: a worker whose respawn budget ran out leaves
  // a residual window range; re-partition it across fresh sub-shards (ids
  // continuing past the original worker count) so surviving capacity —
  // not the coordinator's final pass — recomputes it.  One level only:
  // a failed sub-shard's windows fall through to the residual recompute.
  std::vector<FlowHealth::WindowFault> redistribution_faults;
  if (options.watchdog.enabled &&
      !std::all_of(specs.begin(), specs.end(), [&](const ShardSpec& s) {
        return final_exit_ok(s.worker);
      })) {
    std::size_t survivors = 0;
    for (const ShardSpec& spec : specs) {
      if (final_exit_ok(spec.worker)) ++survivors;
    }
    std::set<std::uint64_t> merged_opc;
    for (const JournalRecord& rec : result.merge.records) {
      if (rec.phase == JournalPhase::kOpc) merged_opc.insert(rec.index);
    }
    std::vector<ShardSpec> wave2;
    std::uint32_t next_id = static_cast<std::uint32_t>(options.workers);
    for (const ShardSpec& spec : specs) {
      if (final_exit_ok(spec.worker) || survivors == 0) continue;
      std::vector<std::size_t> missing;
      for (std::size_t idx : shard_indices(spec)) {
        if (merged_opc.count(idx) == 0) missing.push_back(idx);
      }
      if (missing.empty()) continue;
      const std::uint64_t res_lo = missing.front();
      const std::uint64_t res_hi = missing.back() + 1;
      std::vector<std::uint32_t> sub_ids;
      const std::size_t k = std::min(survivors, missing.size());
      for (std::size_t i = 0; i < k; ++i) sub_ids.push_back(next_id++);
      std::vector<ShardSpec> subs =
          partition_residual_range(spec, res_lo, res_hi, sub_ids);
      std::size_t windows = 0;
      for (const ShardSpec& sub : subs) windows += shard_indices(sub).size();
      result.redistributed_windows += windows;
      redistribution_faults.push_back(shard_fault(
          spec.worker, FaultCode::kStalled,
          "residual range [" + std::to_string(res_lo) + "," +
              std::to_string(res_hi) + ") redistributed across " +
              std::to_string(subs.size()) + " sub-shards (" +
              std::to_string(windows) + " windows)",
          /*recovered=*/true, /*degraded=*/false));
      wave2.insert(wave2.end(), subs.begin(), subs.end());
      log_warn("SHARD_REDISTRIBUTE worker=", spec.worker, " range=[", res_lo,
               ",", res_hi, ") sub_shards=", subs.size(),
               " windows=", windows);
    }
    if (!wave2.empty()) {
      const SupervisionResult w2 = run_wave(wave2);
      result.exits.insert(result.exits.end(), w2.exits.begin(),
                          w2.exits.end());
      // Sub-shard ids continue past the originals, so concatenation keeps
      // the (worker, attempt, kind) sort.
      result.interventions.insert(result.interventions.end(),
                                  w2.interventions.begin(),
                                  w2.interventions.end());
      for (const ShardSpec& sub : wave2) {
        journals.push_back(
            {sub.worker, shard_journal_dir(options.work_dir, sub.worker)});
      }
      result.merge = merge_worker_journals(journals, config_fp);
    }
  }

  // Out-of-band health, in deterministic order: failed final exits, then
  // coordinator interventions (already sorted), then redistributions, then
  // per-worker journal replay issues.
  for (const WorkerExit& ex : result.exits) {
    if (ex.ok()) continue;
    const std::string detail =
        !ex.spawned ? "spawn failed"
        : ex.signal != 0 ? "killed by signal " + std::to_string(ex.signal)
                         : "exit code " + std::to_string(ex.exit_code);
    log_warn("shard worker ", ex.worker, ": ", detail);
    result.shard_health.faults.push_back(
        shard_fault(ex.worker, FaultCode::kUnknown, detail,
                    /*recovered=*/false, /*degraded=*/false));
  }
  std::set<std::uint32_t> stall_killed;
  for (const WorkerIntervention& iv : result.interventions) {
    if (iv.kind == WorkerIntervention::Kind::kStallKilled) {
      stall_killed.insert(iv.worker);
    }
  }
  for (const WorkerIntervention& iv : result.interventions) {
    FaultCode code = FaultCode::kUnknown;
    bool recovered = false;
    switch (iv.kind) {
      case WorkerIntervention::Kind::kStallKilled:
        code = FaultCode::kStalled;
        recovered = final_exit_ok(iv.worker);
        break;
      case WorkerIntervention::Kind::kRespawned:
      case WorkerIntervention::Kind::kRetriesExhausted:
        code = stall_killed.count(iv.worker) ? FaultCode::kStalled
                                             : FaultCode::kUnknown;
        recovered = iv.kind == WorkerIntervention::Kind::kRespawned &&
                    final_exit_ok(iv.worker);
        break;
      case WorkerIntervention::Kind::kSignalForwarded:
      case WorkerIntervention::Kind::kSignalEscalated:
        code = FaultCode::kCancelled;
        break;
    }
    result.shard_health.faults.push_back(shard_fault(
        iv.worker, code,
        std::string(worker_intervention_name(iv.kind)) + ": " + iv.detail,
        recovered, /*degraded=*/false));
  }
  result.shard_health.faults.insert(result.shard_health.faults.end(),
                                    redistribution_faults.begin(),
                                    redistribution_faults.end());
  for (const WorkerSegmentOutcome& wo : result.merge.workers) {
    // One fault per replay issue.  A worker whose journal directory is
    // missing left nothing behind: its one issue is a degraded fault.
    for (const ReplayIssue& issue : wo.issues) {
      result.shard_health.faults.push_back(shard_fault(
          wo.worker, issue.code, issue.segment + ": " + issue.detail,
          /*recovered=*/false, /*degraded=*/!wo.found));
    }
  }

  // Per-worker stats, parsed tolerantly (a killed worker's file may be
  // absent, heartbeat-only, or torn — that classifies, never fails).
  result.worker_stats.reserve(journals.size());
  for (const WorkerJournal& journal : journals) {
    result.worker_stats.push_back(parse_shard_stats(
        options.work_dir + "/" + shard_stats_name(journal.worker)));
  }

  // Merged restore + residual recompute + one final STA.  A failed merge
  // write degrades to a full recompute (journal off) — slower, same bits.
  FlowOptions fin = base;
  fin.journal.enabled = true;
  fin.journal.path = options.work_dir + "/merged";
  fin.journal.kill_after_appends = 0;
  std::string error;
  if (!journal_io::write_sealed_segment(fin.journal.path, /*seq=*/1, config_fp,
                                        result.merge.records, &error)) {
    log_warn("shard coordinator: merged journal write failed: ", error);
    result.shard_health.faults.push_back(
        shard_fault(kNoWindowId, FaultCode::kJournalIo, error,
                    /*recovered=*/false, /*degraded=*/true));
    fin.journal.enabled = false;
  }

  // A forwarded signal means the user wants out: the durable state (worker
  // journals, merged journal) is already on disk for a future run, so
  // surface the cancellation instead of paying the final recompute.
  if (wave1.forwarded_signal != 0) {
    FlowError err;
    err.code = FaultCode::kCancelled;
    err.origin = "shard.coordinator";
    err.message = "signal " + std::to_string(wave1.forwarded_signal) +
                  " forwarded to workers; merged journal preserved at " +
                  fin.journal.path;
    throw FlowException(std::move(err));
  }

  PostOpcFlow flow(design, lib, sim, fin);
  flow.run_opc(options.opc_mode);
  result.comparison = flow.compare_timing(options.exposure);
  result.merged_stats = flow.journal_stats();
  result.residual_windows = result.merged_stats.appended_records;
  result.cache = flow.cache_counters();
  log_info("SHARD_RUN workers=", options.workers, " policy=",
           shard_policy_name(options.policy), " merged_records=",
           result.merge.records.size(), " residual_windows=",
           result.residual_windows, " redistributed_windows=",
           result.redistributed_windows, " interventions=",
           result.interventions.size(), " shard_faults=",
           result.shard_health.faults.size());
  return result;
}

}  // namespace poc
