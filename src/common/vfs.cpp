#include "src/common/vfs.h"

#include <cerrno>
#include <unistd.h>

#include <cstdio>

#include "src/common/fault.h"

namespace poc::vfs {
namespace {

// True when an errno-style fault should fire at this call site.  All the
// fault bookkeeping lives behind fault::enabled(), so the fault-free path
// through every wrapper is one relaxed atomic load.
bool inject(fault::Kind kind, int err) {
  if (!fault::enabled()) return false;
  if (!fault::should(kind)) return false;
  errno = err;
  return true;
}

}  // namespace

ssize_t write(int fd, const void* buf, std::size_t count) {
  if (fault::enabled()) {
    if (fault::should(fault::Kind::kIoEnospc)) {
      errno = ENOSPC;
      return -1;
    }
    if (fault::should(fault::Kind::kIoEio)) {
      errno = EIO;
      return -1;
    }
    if (count > 1 && fault::should(fault::Kind::kIoShortWrite)) {
      // Accept half the buffer for real: the caller's resume loop must
      // finish the job, and each injected call still writes >= 1 byte so
      // even a sticky short-write plan terminates.
      return ::write(fd, buf, count / 2);
    }
  }
  return ::write(fd, buf, count);
}

int fsync(int fd) {
  if (inject(fault::Kind::kIoEio, EIO)) return -1;
  return ::fsync(fd);
}

int rename(const char* old_path, const char* new_path) {
  if (inject(fault::Kind::kIoEio, EIO)) return -1;
  return ::rename(old_path, new_path);
}

int link(const char* old_path, const char* new_path) {
  if (inject(fault::Kind::kIoEio, EIO)) return -1;
  return ::link(old_path, new_path);
}

int truncate(const char* path, off_t length) {
  if (inject(fault::Kind::kIoEio, EIO)) return -1;
  return ::truncate(path, length);
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = vfs::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace poc::vfs
