// Coordinator side of sharded multi-process runs: spawn worker processes,
// wait for them, read every worker's private journal back (tolerating
// death and torn tails), and merge the surviving records into one standard
// journal that the flow's existing restore path replays.
//
// The coordinator is deliberately flow-agnostic — it moves journal records
// and processes around, never window results — so it lives beside the
// journal in src/run.  The flow-level driver (src/core/flow_shard) owns
// what the windows *mean*: it partitions design indices, runs the merged
// restore, and re-times once.
//
// Failure model: a worker that dies (crash, kill -9, nonzero exit) is a
// contained fault, not a run abort.  Its journal is read like every other
// worker's, read-only, through journal_io::replay_dir — the scanner the
// journal's own reopen uses: the valid prefix merges, a tear is reported
// (and left on disk for the worker's next reopen to seal), and every
// window the worker did not durably finish is recomputed in-process by the
// merged restore (the journal simply misses those fingerprints).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "src/cache/fingerprint.h"
#include "src/run/journal.h"

namespace poc {

/// One worker process to launch: a full argv (argv[0] = binary path).
struct WorkerCommand {
  std::uint32_t worker = 0;
  std::vector<std::string> argv;
};

/// Exit status of one worker process.
struct WorkerExit {
  std::uint32_t worker = 0;
  pid_t pid = -1;
  bool spawned = false;
  int exit_code = -1;    ///< valid when signal == 0
  int signal = 0;        ///< terminating signal, 0 when exited normally
  bool ok() const { return spawned && signal == 0 && exit_code == 0; }
};

// ---------------------------------------------------------------------------
// Supervision: watchdog, bounded respawn, signal forwarding.

/// Knobs of the supervision loop.  Defaults supervise nothing: no
/// watchdog, no forwarding — a dead worker stays dead, and the windows it
/// did not journal become residual work.
struct SupervisorOptions {
  /// Detect stalled workers via the progress callback and kill/respawn
  /// them.  Requires `progress`.
  bool watchdog = false;
  /// A worker whose progress value has not changed for this long is
  /// declared stalled and killed.  Spawn counts as progress.
  std::uint64_t no_progress_timeout_ms = 60000;
  /// Supervision tick: reap exits, probe progress, fire respawns.
  std::uint64_t poll_interval_ms = 20;
  /// Respawn budget per worker after a failed exit (stall kill, crash,
  /// nonzero exit).  0 = never respawn.
  std::uint32_t max_respawns = 1;
  /// Exponential backoff before each respawn: initial delay, doubling per
  /// attempt, capped.
  std::uint64_t backoff_initial_ms = 50;
  std::uint64_t backoff_max_ms = 1000;
  /// Forward SIGINT/SIGTERM to live workers (first signal) and escalate to
  /// SIGKILL (second signal).  Pending respawns are cancelled; the loop
  /// then just reaps exits.
  bool forward_signals = false;
  /// Progress counter per worker id — any change (not just increase)
  /// resets the stall timer.  The shard driver probes the worker's stats-
  /// file size, which grows with every heartbeat line.
  std::function<std::uint64_t(std::uint32_t)> progress;
};

/// One supervisable worker: callbacks let the same loop drive forked
/// processes and in-process threads.  All callbacks are invoked from the
/// supervision loop's thread only.
struct SupervisedTask {
  std::uint32_t worker = 0;
  /// Spawns attempt `attempt` (1-based).  False = spawn failure (the task
  /// is finished with spawned=false).
  std::function<bool(std::uint32_t)> start;
  /// Polls the current attempt; fills `*exit` and returns true when it
  /// finished.  Must not block.
  std::function<bool(WorkerExit*)> poll;
  /// Hard-stops the current attempt (SIGKILL / cancel token).  The exit
  /// still arrives through poll().
  std::function<void()> kill;
  /// Delivers a forwarded signal to the current attempt (null = kill() on
  /// escalation only).
  std::function<void(int)> deliver;
};

/// One coordinator intervention, reported deterministically (details are
/// built from configuration values, never wall-clock readings).
struct WorkerIntervention {
  enum class Kind : std::uint8_t {
    kStallKilled = 0,    ///< watchdog killed a no-progress worker
    kRespawned,          ///< worker respawned after backoff
    kRetriesExhausted,   ///< final attempt failed; residual redistribution
    kSignalForwarded,    ///< SIGINT/SIGTERM forwarded to the worker
    kSignalEscalated,    ///< second signal: SIGKILL
  };
  Kind kind = Kind::kStallKilled;
  std::uint32_t worker = 0;
  std::uint32_t attempt = 0;  ///< 1-based attempt the intervention hit
  std::string detail;
};

const char* worker_intervention_name(WorkerIntervention::Kind kind);

struct SupervisionResult {
  /// Final exit per task (same order as the task list).
  std::vector<WorkerExit> exits;
  /// Every intervention, sorted by (worker, attempt, kind).
  std::vector<WorkerIntervention> interventions;
  /// Total spawn attempts per task (same order as the task list).
  std::vector<std::uint32_t> attempts;
  /// Signal observed and forwarded (0 = none).
  int forwarded_signal = 0;
};

/// Runs every task to completion under the supervision loop: spawn all,
/// reap exits, detect stalls (watchdog), respawn with exponential backoff
/// up to max_respawns, forward/escalate signals.  A task whose final
/// attempt fails is left failed — redistribution is the caller's job.
SupervisionResult supervise_tasks(std::vector<SupervisedTask>& tasks,
                                  const SupervisorOptions& options);

/// Process adapter: fork/execs commands and supervises them (stall kill =
/// SIGKILL, deliver = kill(pid, sig)).
SupervisionResult supervise_worker_processes(
    const std::vector<WorkerCommand>& commands,
    const SupervisorOptions& options);

/// One worker's private journal directory, as the coordinator reads it.
struct WorkerJournal {
  std::uint32_t worker = 0;
  std::string dir;
};

/// What the coordinator found in one worker's journal.
struct WorkerSegmentOutcome {
  std::uint32_t worker = 0;
  std::string journal_dir;
  bool found = false;        ///< the journal directory existed
  std::size_t records = 0;   ///< valid records this worker contributed
  /// Replay issues: rejected segments and records, a torn tail, or the
  /// missing directory itself.
  std::vector<ReplayIssue> issues;
};

struct MergeResult {
  /// Deduplicated records from every worker, sorted by (phase, global
  /// window index) — the same deterministic order the thread pool's merge
  /// step enforces in-process.
  std::vector<JournalRecord> records;
  std::vector<WorkerSegmentOutcome> workers;
  std::size_t duplicate_records = 0;  ///< same fingerprint from two sources
};

/// Replays every worker journal read-only (journal_io::replay_dir against
/// `config_fp`: segments from another config are rejected wholesale, a
/// torn tail keeps its valid prefix), deduplicates by fingerprint and
/// sorts by (phase, index, fingerprint).  Touches nothing on disk.
MergeResult merge_worker_journals(const std::vector<WorkerJournal>& journals,
                                  const Fingerprint& config_fp);

}  // namespace poc
