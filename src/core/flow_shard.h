// Flow-level driver for sharded multi-process full-chip runs.
//
// A full-chip run is window-shaped (per-instance OPC, per-gate extraction),
// and windows only communicate through the journal and the content-
// addressed caches — so the run splits across *processes* the same way it
// splits across threads.  The coordinator partitions the instance index
// space into one shard per worker (src/run/shard), each worker runs the
// existing flow over its shard — private write-ahead journal, shared
// spill-to-disk window cache — and that journal is the only record it
// leaves.  The coordinator reads every worker journal read-only, merges
// the records into a single standard journal in global window-index order
// and replays it through the unmodified restore path: residual windows
// (worker died, journal tail torn) are simply journal misses and recompute
// in-process, then STA runs once.
//
// Determinism: the merged restore is bit-identical to an uninterrupted
// 1-worker run — same TimingComparison (worst slack, annotations, health)
// for any worker count, any thread count, and any kill point.  Worker
// failures are reported out-of-band in ShardFlowResult::shard_health
// (phase "shard"), never folded into the comparison's health, precisely so
// the comparison stays bit-identical across legs.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/core/flow.h"
#include "src/run/coordinator.h"
#include "src/run/shard.h"

namespace poc {

/// Per-worker directory under the run's work dir ("<work_dir>/w00").  The
/// worker's private journal lives at "<dir>/journal".
std::string shard_worker_dir(const std::string& work_dir,
                             std::uint32_t worker);

/// Worker-side stats file in the work dir ("run.w00.stats"), one
/// "key value" line each — the bench harness and smoke scripts parse them.
std::string shard_stats_name(std::uint32_t worker);

struct ShardWorkerOptions {
  ShardSpec spec;
  std::string work_dir;  ///< shared run directory (stats, cache, w<NN>/)
  OpcMode opc_mode = OpcMode::kModelBased;
  Exposure exposure;  ///< the exposure the coordinator will compare at
  /// Crash hook passed to the worker's journal (see JournalOptions): after
  /// this many appends the worker flushes and SIGKILLs itself.  Used by
  /// the failure-injection tests/CI; 0 = off.
  std::size_t kill_after_appends = 0;
  /// Heartbeat cadence: after every N journal appends the worker appends
  /// one "hb <count>" line to its stats file — the progress channel the
  /// coordinator watchdog reads (file size).  0 = no heartbeats.
  std::size_t heartbeat_every_appends = 1;
  /// Deterministic hang hook: after this many appends the worker stops
  /// making progress (spins, still alive) — the stall the watchdog must
  /// detect.  0 = off.
  std::size_t stall_after_appends = 0;
  /// Stall only once across attempts (a "stall.done" marker in the worker
  /// dir): the respawned worker resumes and completes.  False re-stalls
  /// every attempt, forcing the retries-exhausted path.
  bool stall_once = true;
  /// Cancellation for the in-process worker mode: the stall loop and the
  /// flow's chunk boundaries poll it, so a supervisor "kill" is a prompt
  /// cooperative cancel.  Null = the flow's global token.
  const CancelToken* cancel = nullptr;
};

/// Worker stats parsed back from "run.wNN.stats".  The file is written in
/// two regimes — heartbeat lines while the worker runs, one final
/// key-value block on completion — and a killed worker leaves anything
/// from nothing to a torn final block.  Parsing therefore *classifies*
/// rather than fails: `present` = the file existed, `complete` = a full
/// final block was read (an un-newline-terminated tail line is ignored,
/// unknown or torn lines are skipped).
struct ShardWorkerStats {
  bool present = false;
  bool complete = false;
  std::uint32_t worker = 0;
  std::uint64_t windows = 0;
  std::uint64_t gates = 0;
  std::uint64_t records = 0;
  double wall_ms = 0.0;
  std::uint64_t maxrss_kb = 0;
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t last_heartbeat = 0;  ///< highest "hb N" seen
};

/// Parses a worker stats file (tolerant, see ShardWorkerStats).
ShardWorkerStats parse_shard_stats(const std::string& path);

/// Runs one worker's share of the flow: OPC over the shard's instance
/// windows, extraction over the gates those instances carry, every
/// completed window journaled to the worker's private write-ahead journal
/// ("<work_dir>/wNN/journal"), then the per-worker stats file.  The journal
/// is what the coordinator merges.  Returns false when the stats file
/// could not be written.
bool run_shard_worker(const PlacedDesign& design, const StdCellLibrary& lib,
                      const LithoSimulator& sim, FlowOptions base,
                      const ShardWorkerOptions& options);

/// Watchdog knobs of the self-healing driver — a thin rename of the
/// supervision knobs (SupervisorOptions) the shard driver forwards.
struct ShardWatchdogOptions {
  bool enabled = false;
  std::uint64_t no_progress_timeout_ms = 60000;
  std::uint32_t max_respawns = 1;
  std::uint64_t backoff_initial_ms = 50;
  std::uint64_t backoff_max_ms = 1000;
};

/// Sentinel for ShardFlowOptions::stall_worker: no stall injection.
inline constexpr std::uint32_t kNoStallWorker = ~std::uint32_t{0};

struct ShardFlowOptions {
  std::size_t workers = 1;
  ShardPolicy policy = ShardPolicy::kContiguous;
  /// Run directory: worker stats files, per-worker journal dirs, the
  /// shared disk cache ("cache/"), and the merged journal ("merged/").
  /// Use a fresh directory per run.
  std::string work_dir;
  OpcMode opc_mode = OpcMode::kModelBased;
  Exposure exposure;
  /// Share the spill-to-disk window cache across workers and the final
  /// residual pass (CacheOptions::disk_path = "<work_dir>/cache").
  bool share_disk_cache = true;
  /// Builds the argv for one worker process (fork/exec path — see
  /// examples/shard_worker.cpp, which re-execs itself in worker mode).
  /// Null runs every worker in-process on its own thread instead: same
  /// shard/journal/merge machinery, no process isolation — the mode the
  /// unit tests and the TSan leg use.
  std::function<std::vector<std::string>(const ShardSpec&)> worker_command;
  /// Self-healing: heartbeat-driven stall detection, kill + bounded
  /// backoff respawn (workers resume from their sealed journal), then
  /// residual redistribution across fresh sub-shards when retries run out.
  ShardWatchdogOptions watchdog;
  /// Heartbeat cadence forwarded to every worker (in-process mode; the
  /// fork/exec path carries it on the worker argv).
  std::size_t heartbeat_every_appends = 1;
  /// Deterministic stall injection, in-process mode only: the worker with
  /// this id hangs after `stall_after_appends` journal appends.  The
  /// fork/exec path injects via worker argv instead (--stall-after).
  std::uint32_t stall_worker = kNoStallWorker;
  std::size_t stall_after_appends = 0;
  bool stall_once = true;  ///< see ShardWorkerOptions::stall_once
};

struct ShardFlowResult {
  /// The headline result, replayed from the merged journal + residual
  /// recompute.  Bit-identical across worker counts.
  TimingComparison comparison;
  /// Out-of-band shard faults (phase "shard", index = worker id): worker
  /// died, stalled or was signalled, journal missing, one per journal
  /// replay issue.  Deliberately NOT merged into comparison.health.
  FlowHealth shard_health;
  /// Per-worker journal replay detail (found flag, record counts, issues).
  MergeResult merge;
  /// Final exit status per worker attempt-chain, both modes (in-process
  /// workers report exit_code 0/1 for ok/failed).  Redistribution
  /// sub-shards append after the original workers.
  std::vector<WorkerExit> exits;
  /// Every coordinator intervention (stall kills, respawns, signal
  /// forwarding), sorted by (worker, attempt, kind) — deterministic.
  std::vector<WorkerIntervention> interventions;
  /// Parsed per-worker stats files (positional: original workers then
  /// redistribution sub-shards).  Torn/missing files classify, not fail.
  std::vector<ShardWorkerStats> worker_stats;
  /// Windows re-run on fresh sub-shards after a worker exhausted its
  /// respawn budget (the redistributed residual range's window count).
  std::size_t redistributed_windows = 0;
  /// Windows the final pass recomputed because no worker durably finished
  /// them (journal appends of the merged restore).
  std::size_t residual_windows = 0;
  /// Journal replay stats of the final pass (replayed vs appended).
  RunJournal::Stats merged_stats;
  /// Final-pass window-cache counters; disk_hits counts cross-process
  /// reuse from the shared cache.
  PostOpcFlow::FlowCacheCounters cache;
};

/// Full sharded run: partition -> spawn workers -> merge worker journals
/// (tolerating dead workers and torn tails) -> merged replay + residual
/// recompute -> one final STA.  `base` carries the flow config (the same
/// options a 1-worker PostOpcFlow run would use); its journal/cache paths
/// are overridden per the work-dir layout above.
ShardFlowResult run_sharded_flow(const PlacedDesign& design,
                                 const StdCellLibrary& lib,
                                 const LithoSimulator& sim, FlowOptions base,
                                 const ShardFlowOptions& options);

}  // namespace poc
