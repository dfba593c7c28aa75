// Disk-backed content-addressed store behind ShardedCache: the spill tier
// that lets N worker processes share one window cache.  Each entry is a
// file named by the 128-bit fingerprint, holding [magic, length, payload,
// crc64(payload)].  Publication is atomic and first-insert-wins — a writer
// fills a private temp file (a unique mkstemp name) and links it under the
// final name, so concurrent writers of the same fingerprint race benignly:
// exactly one link succeeds, the loser discards its bits, and a reader
// never observes a partially written entry.  A crash mid-publish can leave
// a ".tmp-*" file behind; readers, the quota and pruning skip every name
// that is not an ".entry".  Because entries are keyed by a fingerprint
// covering every result-affecting input, the loser's bits equal the
// winner's anyway; first-insert-wins is the same policy the in-memory
// shards apply.
//
// Failure policy mirrors the run journal: an I/O error never perturbs
// results.  get() misses, put() drops the entry, and the counters record
// what happened — the store is a pure performance layer.  A *publish* I/O
// error (EIO, ENOSPC — not a lost race) additionally takes the whole disk
// tier down for the rest of the run: the disk is misbehaving, so every
// subsequent probe/publish short-circuits to a miss/no-op with counters
// frozen, and the in-memory tier keeps serving alone.  degraded() reports
// the tier-down so the flow can surface a phase-"cache" health entry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/cache/fingerprint.h"

namespace poc {

class DiskCacheStore {
 public:
  struct Options {
    /// Size quota over the published entry files.  When a publish pushes
    /// the store past the quota, the oldest entries (mtime, then name) are
    /// pruned until it fits — first-insert-wins makes a pruned entry just
    /// a future recompute-and-republish.  0 = unbounded.
    std::uint64_t max_bytes = 0;
  };

  /// Opens (creating if needed) the store directory.  A directory that
  /// cannot be created parks the store inert: every probe misses, every
  /// publish is dropped, and ok() reports false.
  explicit DiskCacheStore(std::string dir);
  DiskCacheStore(std::string dir, const Options& options);

  DiskCacheStore(const DiskCacheStore&) = delete;
  DiskCacheStore& operator=(const DiskCacheStore&) = delete;

  bool ok() const { return ok_; }
  const std::string& dir() const { return dir_; }

  /// True once a publish I/O error has taken the disk tier down: the
  /// memory tier keeps serving, this store answers nothing.
  bool degraded() const {
    return tier_down_.load(std::memory_order_relaxed);
  }

  /// True when an entry for `fp` has been published (by any process).
  bool contains(const Fingerprint& fp) const;

  /// Loads and validates the entry for `fp`.  False on absence or on a
  /// corrupt file (bad magic/length/checksum) — corruption counts in
  /// load_failures and the caller recomputes.
  bool get(const Fingerprint& fp, std::vector<std::uint8_t>* out) const;

  /// Publishes `size` bytes under `fp` (first-insert-wins).  Returns true
  /// when this call created the entry; false when it already existed, lost
  /// the publish race, or I/O failed.
  bool put(const Fingerprint& fp, const std::uint8_t* data, std::size_t size);

  struct Counters {
    std::uint64_t probes = 0;         ///< contains() + get() calls
    std::uint64_t loads = 0;          ///< successful get()
    std::uint64_t load_failures = 0;  ///< corrupt/unreadable entries
    std::uint64_t publishes = 0;      ///< entries this process created
    std::uint64_t races_lost = 0;     ///< entry appeared first elsewhere
    std::uint64_t io_errors = 0;
    std::uint64_t pruned_entries = 0;  ///< entries evicted by the quota
    std::uint64_t pruned_bytes = 0;    ///< bytes evicted by the quota
  };
  Counters counters() const;

  /// Entry file path for `fp` (fingerprint hex under the store directory).
  std::string entry_path(const Fingerprint& fp) const;

 private:
  /// Takes the tier down after a publish I/O error.
  void publish_io_error();
  /// Evicts oldest entries (never `keep_path`) until the quota fits.
  void prune_locked(const std::string& keep_path);

  std::string dir_;
  Options options_;
  bool ok_ = false;
  std::atomic<bool> tier_down_{false};

  /// Quota bookkeeping (only maintained when max_bytes > 0).
  std::mutex quota_mutex_;
  std::uint64_t stored_bytes_ = 0;  ///< guarded by quota_mutex_

  mutable std::atomic<std::uint64_t> probes_{0};
  mutable std::atomic<std::uint64_t> loads_{0};
  mutable std::atomic<std::uint64_t> load_failures_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> races_lost_{0};
  mutable std::atomic<std::uint64_t> io_errors_{0};
  std::atomic<std::uint64_t> pruned_entries_{0};
  std::atomic<std::uint64_t> pruned_bytes_{0};
  std::atomic<std::uint64_t> op_seq_{0};  ///< fault::Scope index per publish
};

}  // namespace poc
