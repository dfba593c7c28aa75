// Durable-run subsystem: a write-ahead run journal for the post-OPC flow.
//
// A full-chip run is hours of window-shaped work (per-instance OPC,
// per-gate extraction, per-window ORC) that dies to preemption, OOM kills
// and Ctrl-C.  The journal makes the *process* restartable the way PR 4
// made windows fault-tolerant: every completed window appends one record —
// its content fingerprint (src/cache), its serialized result bits, and its
// containment outcome — to an append-only segment file.  On startup the
// journal replays existing segments, validates every record checksum and
// the flow-level config fingerprint, and hands matching results back to
// the flow so only the remainder is recomputed.  Because a record stores
// the exact bits a recompute would produce (doubles as IEEE-754 bit
// patterns) and outcomes are merged in window-index order, a resumed run's
// TimingComparison is bit-identical to an uninterrupted one at any thread
// count and any kill point — see "Durable runs & resume" in DESIGN.md.
//
// Durability mechanics:
//   * append-only records framed as [marker, length, body, crc64(body)];
//   * fsync batching: appends buffer in memory and hit disk every
//     flush_every_records records (and at phase boundaries via flush());
//   * segment rotation: a full active segment is fsynced, closed, and
//     atomically renamed from journal-NNNNNN.open to journal-NNNNNN.seg;
//   * on reopen, the previous active segment's valid prefix is kept, a
//     torn tail (SIGKILL mid-write) is truncated away and reported, and
//     the file is sealed by the same atomic rename; one that never got
//     its header holds no record and is deleted.
//
// Replay itself is one read-only reader, journal_io::replay_dir: the
// reopen runs it before sealing, and the shard coordinator runs it over
// every worker's journal without touching the files.
//
// Failure policy: open-time I/O errors throw FlowException(kJournalIo) —
// the caller decides whether a run may proceed without durability.  Append
// -time I/O errors never perturb flow results: the journal goes inert,
// the error lands in issues(), and the run continues undurable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/fingerprint.h"
#include "src/common/error.h"

namespace poc {

struct JournalOptions {
  bool enabled = false;
  /// Segment directory, created on open.  One journal per flow config —
  /// records from a different config are rejected at replay.
  std::string path;
  /// fsync batching: records buffered between fsyncs on the fault-free
  /// path.  1 = every record durable immediately (slowest, safest).
  std::size_t flush_every_records = 16;
  /// Active-segment rotation threshold.
  std::size_t segment_bytes = std::size_t{64} << 20;
  /// Deterministic crash hook for the recovery tests and scripts: after
  /// this many appended records the journal flushes, fsyncs, and raises
  /// SIGKILL — a kill at an exact window boundary.  0 = off.
  std::size_t kill_after_appends = 0;
  /// Progress hook, invoked after each successful append with the total
  /// appended-record count — outside the journal mutex, so the callback
  /// may itself do I/O (shard workers emit heartbeats through it).
  std::function<void(std::size_t)> on_append;
};

/// Which hot loop a record belongs to.  Part of the record fingerprint, so
/// phases can never replay each other's payloads.
enum class JournalPhase : std::uint8_t { kOpc = 1, kExtract = 2, kScan = 3 };

const char* journal_phase_name(JournalPhase phase);

/// Containment outcome journaled with a window so a replayed window
/// reconstructs the same FlowHealth entries a recompute would produce.
struct JournalOutcome {
  bool faulted = false;
  FaultCode code = FaultCode::kUnknown;
  std::string origin;
  std::string message;
  std::uint32_t attempts = 1;
  bool recovered = false;
  bool degraded = false;
};

/// One journaled window: identity (phase, index, content fingerprint),
/// result bits, and containment outcome.
struct JournalRecord {
  JournalPhase phase = JournalPhase::kOpc;
  std::uint64_t index = 0;
  Fingerprint fp;
  JournalOutcome outcome;
  std::vector<std::uint8_t> payload;
};

/// One rejected record or segment observed during replay.  The flow
/// surfaces these through FlowHealth (code kJournalMismatch /
/// kJournalIo) instead of silently skipping.
struct ReplayIssue {
  FaultCode code = FaultCode::kJournalMismatch;
  std::string segment;       ///< file name the issue was found in
  std::uint64_t offset = 0;  ///< byte offset of the offending record
  std::string detail;
};

/// Everything a read-only replay of one journal directory found: the
/// valid records of every segment, each segment's scan outcome, and every
/// rejected record or segment.
struct JournalReplay {
  struct Segment {
    std::string name;             ///< file name, e.g. journal-000003.open
    bool active = false;          ///< an unsealed .open segment
    bool torn = false;            ///< valid records end before the file does
    /// An active segment shorter than its header (a failed header write,
    /// or a kill between create and header write): it holds no record.
    bool headerless = false;
    std::size_t valid_bytes = 0;  ///< end of the last valid record
  };
  bool found = false;                  ///< the directory exists
  std::vector<Segment> segments;       ///< sequence order
  std::vector<JournalRecord> records;  ///< valid records, replay order
  std::vector<ReplayIssue> issues;     ///< in discovery order
  std::uint64_t next_seq = 1;  ///< one past the highest segment number
};

/// The journal format's reader and its one writer outside RunJournal.
/// Framing is [marker "PRC1", body length, body, crc64(body)].
namespace journal_io {

/// Replays every segment under `dir` in sequence order: the header's
/// magic, version and checksum, the config fingerprint against
/// `config_fp` (a mismatch rejects the segment wholesale), then each
/// record frame.  A checksum reject skips one record; a bad marker or a
/// partial frame ends the segment, keeping its valid prefix.  An active
/// segment shorter than its header is marked headerless, not rejected.
/// Creates, truncates, renames and syncs nothing: a missing directory
/// comes back with found = false and one kJournalIo issue.
JournalReplay replay_dir(const std::string& dir, const Fingerprint& config_fp);

/// Writes `records` as one sealed standard journal segment
/// (journal-<seq>.seg with the standard config-stamped header) under
/// `dir`, via temp-file + atomic rename.  The shard coordinator uses this
/// to materialize the merged, global-window-index-ordered journal that the
/// final restore replays.  False (with `error` set) on I/O failure.
bool write_sealed_segment(const std::string& dir, std::uint64_t seq,
                          const Fingerprint& config_fp,
                          const std::vector<JournalRecord>& records,
                          std::string* error);

}  // namespace journal_io

class RunJournal {
 public:
  /// Opens `options.path` (creating it if needed), replays every segment
  /// against `config_fp` through journal_io::replay_dir, seals the previous
  /// run's active segment (deletes it when headerless), and starts a new
  /// one for this run's appends.  Throws FlowException(kJournalIo) when the
  /// directory or active segment cannot be created.
  RunJournal(const JournalOptions& options, Fingerprint config_fp);
  ~RunJournal();

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Replayed record for `fp`, or null.  Only records loaded at open are
  /// returned — results appended by this run are served by the window
  /// caches, not the journal.  The pointer stays valid for the journal's
  /// lifetime.
  const JournalRecord* find(const Fingerprint& fp);

  /// Appends one completed window.  Deduplicates against both the replayed
  /// set and this run's appends (a window recomputed at the same content
  /// fingerprint would write identical bits).  Returns true when the
  /// record was written.  Never throws: an I/O failure parks the journal
  /// inert and is reported through issues().
  bool append(JournalRecord record);

  /// Drains the append buffer to disk and fsyncs.  Called by the flow at
  /// phase boundaries and on cancellation, so a graceful shutdown leaves a
  /// fully durable resumable state.
  void flush();

  struct Stats {
    std::size_t loaded_records = 0;    ///< valid records replayed at open
    std::size_t rejected_records = 0;  ///< checksum/truncation/config rejects
    std::size_t replayed_hits = 0;     ///< find() hits this run
    std::size_t appended_records = 0;  ///< records written this run
    std::size_t segments = 0;          ///< segment files (sealed + active)
    std::size_t fsyncs = 0;
  };
  Stats stats() const;

  /// Replay problems (rejected records, I/O failures), in discovery order.
  const std::vector<ReplayIssue>& issues() const { return issues_; }

  const std::string& path() const { return options_.path; }

 private:
  void seal_previous_segment(const JournalReplay::Segment& segment);
  void open_active_segment();
  void seal_active_locked();
  void write_buffer_locked(bool sync);
  void io_failure_locked(const std::string& what);

  JournalOptions options_;
  Fingerprint config_fp_;

  mutable std::mutex mutex_;
  /// Replayed records keyed by content fingerprint; immutable after open
  /// (unordered_map never invalidates element pointers on insert).
  std::unordered_map<Fingerprint, JournalRecord, FingerprintHash> loaded_;
  /// Fingerprints appended this run (dedup only).
  std::unordered_map<Fingerprint, bool, FingerprintHash> appended_;

  std::vector<ReplayIssue> issues_;
  Stats stats_;

  int fd_ = -1;                     ///< active segment file descriptor
  std::string active_file_;         ///< ...open path of the active segment
  std::uint64_t next_seq_ = 1;
  std::size_t active_bytes_ = 0;    ///< bytes written to the active segment
  std::vector<std::uint8_t> buffer_;  ///< records awaiting the next fsync
  std::size_t buffered_records_ = 0;
  bool inert_ = false;              ///< append I/O failed; journaling off
  std::uint64_t io_ops_ = 0;        ///< fault::Scope index per I/O batch
};

}  // namespace poc
