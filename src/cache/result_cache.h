// Sharded, thread-safe, content-addressed result cache.  Values are keyed
// by a Fingerprint (see fingerprint.h) that covers everything affecting the
// computation, so a hit returns bits identical to what a recompute would
// produce — the cache is a pure performance layer and composes with the
// determinism contract in DESIGN.md: flow results are bit-identical with
// the cache on or off, at any thread count.
//
// Concurrency model: the fingerprint space is split across independent
// shards (key -> shard by fingerprint bits).  Lookups take a shard's
// *shared* (reader) lock — the hot find path on large shards no longer
// serializes readers behind each other or behind writers on other keys —
// while inserts and evictions take the exclusive lock.  Recency is a
// per-entry atomic tick stamped from a cache-wide counter, so a shared-lock
// hit can refresh LRU order without writing any shard structure; eviction
// (under the exclusive lock) discards the minimum tick.  Single-threaded
// eviction order is exactly the classic LRU list's.  Counters stay exact:
// every find() increments exactly one of hits/disk_hits/misses (atomics),
// whatever the interleaving.  Two threads that miss on the same key both
// compute (the computation is pure, so the duplicate work is the only
// cost); the first insert wins and the loser's value is dropped.
//
// Disk tier (optional, see attach_disk): a DiskCacheStore shared by worker
// *processes*.  insert() writes entries through to disk (serialized by the
// attached codec, first-insert-wins publish), and a memory miss probes the
// store before reporting a miss — worker 3 hits on windows worker 0 already
// computed.  Spill never changes values: entries are decoded from the exact
// bits an in-process recompute would produce.
//
// Eviction is per-shard LRU over an approximate byte cost supplied by the
// caller at insert time.  Eviction only ever discards memoized results —
// it can change hit rates, never values.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/disk_store.h"
#include "src/cache/fingerprint.h"
#include "src/common/check.h"
#include "src/common/fault.h"

namespace poc {

/// Monotonic counters, readable while the cache is in use.  hits +
/// disk_hits + misses counts find() calls; insertions/evictions/rejected
/// track the write side (rejected = entries whose cost exceeds a whole
/// shard's budget, e.g. any insert into a capacity-0 cache).
struct CacheCounters {
  std::uint64_t hits = 0;       ///< served from this process's memory
  std::uint64_t disk_hits = 0;  ///< served from the shared disk store
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + disk_hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits + disk_hits) /
                              static_cast<double>(lookups);
  }

  CacheCounters& operator+=(const CacheCounters& o) {
    hits += o.hits;
    disk_hits += o.disk_hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    rejected += o.rejected;
    entries += o.entries;
    bytes += o.bytes;
    return *this;
  }
};

template <typename Value>
class ShardedCache {
 public:
  /// Serializes a value into the exact bits decode() restores.  Codecs must
  /// round-trip bit-exactly (doubles as IEEE-754 patterns) — a disk hit is
  /// indistinguishable from a recompute downstream.
  using Encode = std::function<std::vector<std::uint8_t>(const Value&)>;
  /// Null on structurally invalid bytes; the caller then recomputes.
  using Decode =
      std::function<std::shared_ptr<Value>(const std::vector<std::uint8_t>&)>;

  /// `capacity_bytes` is the total LRU budget, split evenly across
  /// `shards` (>= 1).  A capacity of 0 disables storage: every find misses
  /// and every insert is rejected, which keeps the caller's code path
  /// identical to the enabled case.
  explicit ShardedCache(std::size_t capacity_bytes, std::size_t shards = 16)
      : shards_(std::max<std::size_t>(shards, 1)),
        shard_capacity_(capacity_bytes / std::max<std::size_t>(shards, 1)) {}

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Attaches the shared spill-to-disk tier.  Both codecs are required.
  /// Call before the cache is in concurrent use (flow construction).
  void attach_disk(std::shared_ptr<DiskCacheStore> store, Encode encode,
                   Decode decode) {
    POC_EXPECTS(store != nullptr && encode != nullptr && decode != nullptr);
    disk_ = std::move(store);
    encode_ = std::move(encode);
    decode_ = std::move(decode);
  }

  const DiskCacheStore* disk_store() const { return disk_.get(); }

  /// Returns the cached value or null, refreshing LRU recency on a hit.
  /// The returned pointer stays valid after eviction (shared ownership).
  std::shared_ptr<const Value> find(const Fingerprint& fp) {
    if (auto hit = find_in_memory(fp)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
    if (auto hit = load_from_disk(fp)) {
      disk_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  /// Inserts `value` with the given approximate byte cost, evicting LRU
  /// entries as needed and (when a disk tier is attached) publishing the
  /// serialized entry write-through.  If the key is already present (a
  /// concurrent miss computed the same pure result), the existing entry is
  /// kept — first-insert-wins in memory and on disk alike.
  void insert(const Fingerprint& fp, std::shared_ptr<const Value> value,
              std::size_t cost_bytes) {
    POC_EXPECTS(value != nullptr);
    // Injection point for the fault harness (default-off): an insert that
    // throws bad_alloc exercises the callers' containment without touching
    // the shard state.
    fault::maybe_throw(fault::Kind::kCacheInsert);
    // Spill before taking any lock: encoding can be slow (latent images)
    // and the store publish is internally atomic.
    if (disk_ && !disk_->contains(fp)) {
      const std::vector<std::uint8_t> bytes = encode_(*value);
      disk_->put(fp, bytes.data(), bytes.size());
    }
    insert_in_memory(fp, std::move(value), cost_bytes);
  }

  CacheCounters counters() const {
    CacheCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.disk_hits = disk_hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.insertions = insertions_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.rejected = rejected_.load(std::memory_order_relaxed);
    for (const Shard& s : shards_) {
      std::shared_lock<std::shared_mutex> lock(s.mutex);
      c.entries += s.map.size();
      c.bytes += s.bytes;
    }
    return c;
  }

 private:
  struct Entry {
    Entry(std::shared_ptr<const Value> v, std::size_t c, std::uint64_t t)
        : value(std::move(v)), cost(c), tick(t) {}
    std::shared_ptr<const Value> value;
    std::size_t cost = 0;
    /// Last-use stamp from clock_; atomic so a shared-lock hit can refresh
    /// recency while other readers scan.  unordered_map nodes are stable,
    /// so the atomic is never moved after construction.
    std::atomic<std::uint64_t> tick;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Fingerprint, Entry, FingerprintHash> map;
    std::size_t bytes = 0;  ///< mutated under the exclusive lock only
  };

  Shard& shard_of(const Fingerprint& fp) {
    return shards_[fp.hi % shards_.size()];
  }

  std::uint64_t next_tick() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::shared_ptr<const Value> find_in_memory(const Fingerprint& fp) {
    Shard& s = shard_of(fp);
    std::shared_lock<std::shared_mutex> lock(s.mutex);
    const auto it = s.map.find(fp);
    if (it == s.map.end()) return nullptr;
    it->second.tick.store(next_tick(), std::memory_order_relaxed);
    return it->second.value;
  }

  /// Probes the disk tier and promotes a present entry into memory (no
  /// write-back spill — it is already on disk).  Null on miss/corruption.
  std::shared_ptr<const Value> load_from_disk(const Fingerprint& fp) {
    if (!disk_) return nullptr;
    std::vector<std::uint8_t> bytes;
    if (!disk_->get(fp, &bytes)) return nullptr;
    std::shared_ptr<Value> value = decode_(bytes);
    if (value == nullptr) return nullptr;
    std::shared_ptr<const Value> shared = std::move(value);
    insert_in_memory(fp, shared, bytes.size() + sizeof(Value));
    return shared;
  }

  void insert_in_memory(const Fingerprint& fp,
                        std::shared_ptr<const Value> value,
                        std::size_t cost_bytes) {
    const std::size_t cost = std::max<std::size_t>(cost_bytes, 1);
    if (cost > shard_capacity_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Shard& s = shard_of(fp);
    std::lock_guard<std::shared_mutex> lock(s.mutex);
    if (s.map.contains(fp)) return;
    s.map.emplace(std::piecewise_construct, std::forward_as_tuple(fp),
                  std::forward_as_tuple(std::move(value), cost, next_tick()));
    s.bytes += cost;
    insertions_.fetch_add(1, std::memory_order_relaxed);
    while (s.bytes > shard_capacity_) {
      // Linear min-tick scan; shards keep maps small and eviction is the
      // cold path (insert over budget), so this beats maintaining a list
      // that every shared-lock reader would have to write.
      auto victim = s.map.begin();
      for (auto it = s.map.begin(); it != s.map.end(); ++it) {
        if (it->second.tick.load(std::memory_order_relaxed) <
            victim->second.tick.load(std::memory_order_relaxed)) {
          victim = it;
        }
      }
      s.bytes -= victim->second.cost;
      s.map.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<Shard> shards_;
  std::size_t shard_capacity_;

  std::shared_ptr<DiskCacheStore> disk_;
  Encode encode_;
  Decode decode_;

  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace poc
