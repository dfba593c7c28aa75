// Injectable VFS shim for the durability stack.  Every syscall that makes
// run state durable — journal appends, fsyncs and seals, disk-cache
// publishes (write, fsync, rename, link, truncate) — goes through these
// wrappers instead of the raw syscalls, so ENOSPC, EIO and short writes
// are first-class injectable faults: a test breaks exactly one I/O domain
// (fault::Domain::{kJournalIo, kDiskCacheIo}) and asserts the degradation
// contract (journal goes inert and the run continues undurable; the disk
// cache tier goes down while the memory tier keeps serving; results stay
// bit-identical throughout).
//
// Fault-free cost is one relaxed atomic load per call (fault::enabled());
// the self-heal band of bench/bench_overhead_bands runs it in both of its
// legs.  With no fault plan installed — or outside
// an I/O fault::Scope — every wrapper is a transparent passthrough.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

namespace poc::vfs {

/// write(2).  Injectable: kIoEnospc / kIoEio fail with the matching errno;
/// kIoShortWrite accepts only half the buffer (callers must loop — that
/// loop is exactly what the fault exercises).
ssize_t write(int fd, const void* buf, std::size_t count);

/// fsync(2).  Injectable: kIoEio.
int fsync(int fd);

/// rename(2).  Injectable: kIoEio.
int rename(const char* old_path, const char* new_path);

/// link(2).  Injectable: kIoEio.
int link(const char* old_path, const char* new_path);

/// truncate(2).  Injectable: kIoEio.
int truncate(const char* path, off_t length);

/// EINTR- and short-write-tolerant full write through vfs::write.  False
/// on a real write failure (errno preserved).
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

}  // namespace poc::vfs
