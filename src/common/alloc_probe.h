// Scoped heap-allocation probe: counts operator-new allocations made by the
// calling thread, used to prove a warm imaging call allocates nothing but
// the image it returns once its ScratchArena is warm (see
// tests/batch_test.cpp).
//
// Instrumentation comes from the global operator new/delete overrides in
// alloc_probe.cpp, which forward to malloc/free and bump a thread-local
// counter.  The overrides live in the same translation unit as these
// functions, so any binary that uses the probe links them in; binaries that
// never reference the probe keep the default allocator.  The overrides are
// sanitizer-friendly (the underlying malloc/free is what ASan/TSan
// intercept), and the per-allocation cost is one thread-local increment.
#pragma once

#include <cstddef>

namespace poc::alloc_probe {

/// Monotone count of operator-new allocations on the calling thread since
/// thread start (only meaningful in binaries that link the probe).
std::size_t thread_allocation_count();

/// RAII window over thread_allocation_count().
class Scope {
 public:
  Scope() : start_(thread_allocation_count()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Allocations on this thread since the Scope was constructed.
  std::size_t count() const { return thread_allocation_count() - start_; }

 private:
  std::size_t start_;
};

}  // namespace poc::alloc_probe
