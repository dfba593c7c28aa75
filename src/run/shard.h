// Window-index sharding for multi-process full-chip runs.
//
// The coordinator (coordinator.h) partitions the design's window index
// space — instances, and through the gate->instance map, gates — into one
// shard per worker process.  Two policies:
//
//   * kContiguous: static split by index range.  Shard w owns the w-th
//     contiguous slice of [0, n); placement locality makes neighbouring
//     windows similar, which concentrates cache hits inside a worker.
//   * kInterleaved: round-robin by index (i % workers == w).  Repeated-
//     block designs lay identical tiles out contiguously, so interleaving
//     balances load when window cost varies along the chip.
//
// Either way every index belongs to exactly one shard, and the merged
// result is bit-identical to a 1-worker run: workers only produce journal
// records (keyed by content fingerprint, ordered by global window index at
// merge), never partial aggregates.
//
// A worker leaves one durable record behind: its private write-ahead
// journal (src/run/journal).  The coordinator replays every worker's
// journal read-only through the journal's own reader, so a torn tail keeps
// its valid prefix and the missing windows become residual work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace poc {

enum class ShardPolicy : std::uint32_t { kContiguous = 0, kInterleaved = 1 };

const char* shard_policy_name(ShardPolicy policy);

/// ShardSpec::residue sentinel: the shard's residue class is its own
/// worker id (the normal top-level partition).
inline constexpr std::uint32_t kShardResidueSelf = ~std::uint32_t{0};

/// One worker's slice of the window index space.  For kContiguous the
/// shard is [lo, hi); for kInterleaved it is {i in [lo, hi) : i % workers
/// == residue class} and lo/hi bound the range the stride walks.
///
/// `residue` decouples the stride's residue class from the worker id so a
/// dead shard's remaining range can be re-partitioned across *new* worker
/// ids that keep walking the dead worker's stride (see
/// partition_residual_range).  kShardResidueSelf (the default) means
/// "residue class == worker", which is every top-level shard.
struct ShardSpec {
  std::uint32_t worker = 0;
  std::uint32_t workers = 1;
  ShardPolicy policy = ShardPolicy::kContiguous;
  std::uint64_t lo = 0;  ///< first index covered (inclusive)
  std::uint64_t hi = 0;  ///< one past the last index covered
  std::uint32_t residue = kShardResidueSelf;  ///< interleave residue class
};

/// The interleave residue class `spec` walks: `residue` when set,
/// otherwise the worker id.
std::uint32_t shard_residue_class(const ShardSpec& spec);

/// Splits [0, n) into `workers` shards under `policy`.  Every index lands
/// in exactly one shard; contiguous shards differ in size by at most one.
std::vector<ShardSpec> partition_shards(std::size_t n, std::size_t workers,
                                        ShardPolicy policy);

/// Re-partitions the residual window range [res_lo, res_hi) of a dead
/// shard across `new_worker_ids`: the indices `dead` owns inside the range
/// are split into one sub-shard per new worker (even chunks, first chunks
/// get the remainder), each keeping the dead shard's policy, stride, and
/// residue class so the union of the sub-shards' owned indices is exactly
/// the dead shard's residual set.  Sub-shards that would own nothing are
/// dropped.
std::vector<ShardSpec> partition_residual_range(
    const ShardSpec& dead, std::uint64_t res_lo, std::uint64_t res_hi,
    const std::vector<std::uint32_t>& new_worker_ids);

/// The indices `spec` owns, ascending.
std::vector<std::size_t> shard_indices(const ShardSpec& spec);

/// True when `index` belongs to `spec`.
bool shard_owns(const ShardSpec& spec, std::size_t index);

}  // namespace poc
