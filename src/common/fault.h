// Deterministic fault-injection harness.  Compiled in, default-off: the
// fast path is a single relaxed atomic load, so the fault-free flow pays
// noise-level overhead (measured in BENCH_PR4.json).
//
// Injection decisions are pure functions of (seed, kind, domain, index):
// a window is identified by the hot-loop domain it runs under (OPC /
// extract / scan) plus its stable item index, never by thread id or
// execution order — so the same seed faults the same windows at 1 and 4
// threads, which is what lets tests assert exact containment behavior.
//
// Usage (tests): fault::Config cfg; cfg.enabled = true;
//   cfg.targets.push_back({Kind::kNanPixel, Domain::kExtract, 3});
//   fault::configure(cfg);  ...run flow...  fault::reset();
// Probe sites call fault::maybe_throw(kind) (or fault::should(kind) when
// the fault is data corruption rather than a throw) inside a fault::Scope
// that names the current domain/index.
#pragma once

#include <cstdint>
#include <vector>

namespace poc::fault {

/// What to inject at a probe site.
enum class Kind : std::uint8_t {
  kConvergenceStall = 0,  ///< OPC iteration refuses to converge
  kNanPixel,              ///< a NaN written into a latent image
  kCacheInsert,           ///< result-cache insert fails (bad_alloc)
  kAlloc,                 ///< allocation failure inside a window body
  // I/O faults, probed by the vfs shim (src/common/vfs) inside the
  // durability stack's I/O domains below.  Never thrown: the shim returns
  // the matching errno failure, so the caller's real error path runs.
  kIoEnospc,      ///< write(2) fails with ENOSPC
  kIoEio,         ///< write/fsync/rename/link/truncate fails with EIO
  kIoShortWrite,  ///< write(2) accepts only part of the buffer
};

/// Which hot loop the probing code is running under.  kNone (no Scope on
/// this thread) never faults: probes outside a contained loop stay inert.
enum class Domain : std::uint8_t {
  kNone = 0,
  kOpc,      ///< per-instance OPC window
  kExtract,  ///< per-gate CD extraction
  kScan,     ///< per-window ORC scan
  // I/O domains: the durability stack wraps its syscalls in a Scope naming
  // which component is touching disk, so a test can break exactly one
  // layer (journal appends, disk-cache publishes).
  kJournalIo,    ///< run-journal appends/fsyncs/seals (src/run/journal)
  kDiskCacheIo,  ///< disk-cache entry publishes (src/cache/disk_store)
};

/// Target index wildcard: fault every probe of the (kind, domain) pair
/// regardless of its index — "the disk is full", not "this one write
/// fails".  Sequence-numbered I/O probes are targeted this way.
inline constexpr std::uint64_t kAnyIndex = ~std::uint64_t{0};

/// An explicit injection target: fault `kind` when probed under
/// (`domain`, `index`).  `index` may be kAnyIndex to match every index.
struct Target {
  Kind kind;
  Domain domain;
  std::uint64_t index;
};

struct Config {
  bool enabled = false;
  std::uint64_t seed = 0;
  /// Random fault probability per (kind, domain, index) triple, on top of
  /// the explicit `targets` list.  Keyed off `seed`, not call order.
  double rate = 0.0;
  std::vector<Target> targets;
  /// Transient faults fire only the first time a given (kind, domain,
  /// index) triple is probed — a retry of the same window succeeds.
  /// Sticky (false) faults fire every time, forcing degradation.
  bool transient = false;
};

/// Installs a fault plan.  Not thread-safe against in-flight probes;
/// configure before running the flow and reset() after.
void configure(const Config& config);

/// Disables injection and clears all bookkeeping.
void reset();

/// Fast check: is any injection plan active?
bool enabled();

/// Names the (domain, index) the current thread is working on.  RAII,
/// nestable: restores the previous scope on destruction (a retry attempt
/// re-enters the same scope it left).
class Scope {
 public:
  Scope(Domain domain, std::uint64_t index);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Domain prev_domain_;
  std::uint64_t prev_index_;
};

/// Should this probe fault?  False when disabled, outside any Scope, or
/// when the (kind, domain, index) triple is not selected by the plan.
/// Records the trigger for triggered().
bool should(Kind kind);

/// should(kind) and, if selected, throws the matching exception:
/// kConvergenceStall → FlowException(kNonConvergence); kCacheInsert /
/// kAlloc → std::bad_alloc.  kNanPixel sites corrupt data instead, so
/// they use should() directly.
void maybe_throw(Kind kind);

/// A fault that actually fired, for test assertions.
struct Triggered {
  Kind kind;
  Domain domain;
  std::uint64_t index;
};

/// All faults fired since configure(), sorted by (domain, index, kind) —
/// deterministic regardless of thread interleaving.
std::vector<Triggered> triggered();

}  // namespace poc::fault
