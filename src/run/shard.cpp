#include "src/run/shard.h"

#include <algorithm>

#include "src/common/check.h"

namespace poc {

const char* shard_policy_name(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kContiguous:
      return "contiguous";
    case ShardPolicy::kInterleaved:
      return "interleaved";
  }
  return "invalid";
}

std::vector<ShardSpec> partition_shards(std::size_t n, std::size_t workers,
                                        ShardPolicy policy) {
  POC_EXPECTS(workers >= 1);
  std::vector<ShardSpec> shards(workers);
  const std::size_t base = n / workers;
  const std::size_t extra = n % workers;  // first `extra` shards get +1
  std::size_t next = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    ShardSpec& s = shards[w];
    s.worker = static_cast<std::uint32_t>(w);
    s.workers = static_cast<std::uint32_t>(workers);
    s.policy = policy;
    if (policy == ShardPolicy::kContiguous) {
      const std::size_t size = base + (w < extra ? 1 : 0);
      s.lo = next;
      s.hi = next + size;
      next += size;
    } else {
      // The stride walks the whole range; ownership is i % workers == w.
      s.lo = 0;
      s.hi = n;
    }
  }
  return shards;
}

std::uint32_t shard_residue_class(const ShardSpec& spec) {
  return spec.residue == kShardResidueSelf ? spec.worker : spec.residue;
}

std::vector<ShardSpec> partition_residual_range(
    const ShardSpec& dead, std::uint64_t res_lo, std::uint64_t res_hi,
    const std::vector<std::uint32_t>& new_worker_ids) {
  POC_EXPECTS(!new_worker_ids.empty());
  // The residual set: every index the dead shard owns inside the range.
  std::vector<std::uint64_t> owned;
  const std::uint64_t lo = std::max(res_lo, dead.lo);
  const std::uint64_t hi = std::min(res_hi, dead.hi);
  for (std::uint64_t i = lo; i < hi; ++i) {
    if (shard_owns(dead, static_cast<std::size_t>(i))) owned.push_back(i);
  }
  std::vector<ShardSpec> subs;
  if (owned.empty()) return subs;

  const std::size_t parts = new_worker_ids.size();
  const std::size_t base = owned.size() / parts;
  const std::size_t extra = owned.size() % parts;
  std::size_t next = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t size = base + (p < extra ? 1 : 0);
    if (size == 0) continue;
    ShardSpec s;
    s.worker = new_worker_ids[p];
    s.workers = dead.workers;
    s.policy = dead.policy;
    s.lo = owned[next];
    s.hi = owned[next + size - 1] + 1;
    s.residue = shard_residue_class(dead);
    subs.push_back(s);
    next += size;
  }
  return subs;
}

std::vector<std::size_t> shard_indices(const ShardSpec& spec) {
  std::vector<std::size_t> out;
  if (spec.policy == ShardPolicy::kContiguous) {
    out.reserve(static_cast<std::size_t>(spec.hi - spec.lo));
    for (std::uint64_t i = spec.lo; i < spec.hi; ++i) {
      out.push_back(static_cast<std::size_t>(i));
    }
  } else {
    // First owned index at or after lo in the shard's residue class.
    const std::uint64_t r = shard_residue_class(spec);
    std::uint64_t first = (spec.lo / spec.workers) * spec.workers + r;
    if (first < spec.lo) first += spec.workers;
    for (std::uint64_t i = first; i < spec.hi; i += spec.workers) {
      out.push_back(static_cast<std::size_t>(i));
    }
  }
  return out;
}

bool shard_owns(const ShardSpec& spec, std::size_t index) {
  if (index < spec.lo || index >= spec.hi) return false;
  if (spec.policy == ShardPolicy::kContiguous) return true;
  return index % spec.workers == shard_residue_class(spec);
}

}  // namespace poc
