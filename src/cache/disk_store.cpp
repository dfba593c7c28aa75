#include "src/cache/disk_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/common/fault.h"
#include "src/common/serialize.h"
#include "src/common/vfs.h"

namespace poc {
namespace {

namespace fs = std::filesystem;

// Entry layout: magic "POCDCHE1", payload length, payload, crc64(payload).
constexpr std::uint64_t kEntryMagic = 0x3145484344434F50ULL;  // "POCDCHE1"
constexpr std::size_t kEntryOverhead = 8 + 8 + 8;

std::string fp_hex(const Fingerprint& fp) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

bool is_entry_name(const std::string& name) {
  return name.size() > 6 && name.rfind(".entry") == name.size() - 6;
}

}  // namespace

DiskCacheStore::DiskCacheStore(std::string dir)
    : DiskCacheStore(std::move(dir), Options{}) {}

DiskCacheStore::DiskCacheStore(std::string dir, const Options& options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  ok_ = !ec;
  if (!ok_) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (options_.max_bytes == 0) return;
  // Quota accounting starts from what previous runs left behind.
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!is_entry_name(entry.path().filename().string())) continue;
    std::error_code size_ec;
    const std::uintmax_t size = entry.file_size(size_ec);
    if (!size_ec) stored_bytes_ += static_cast<std::uint64_t>(size);
  }
}

std::string DiskCacheStore::entry_path(const Fingerprint& fp) const {
  return dir_ + "/" + fp_hex(fp) + ".entry";
}

bool DiskCacheStore::contains(const Fingerprint& fp) const {
  if (!ok_ || degraded()) return false;
  probes_.fetch_add(1, std::memory_order_relaxed);
  return ::access(entry_path(fp).c_str(), F_OK) == 0;
}

bool DiskCacheStore::get(const Fingerprint& fp,
                         std::vector<std::uint8_t>* out) const {
  if (!ok_ || degraded()) return false;
  probes_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = entry_path(fp);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;  // plain miss
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof chunk)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  ::close(fd);
  if (got < 0 || bytes.size() < kEntryOverhead) {
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ByteReader r(bytes.data(), bytes.size());
  const std::uint64_t magic = r.u64();
  const std::uint64_t len = r.u64();
  if (magic != kEntryMagic || len != bytes.size() - kEntryOverhead) {
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint8_t* payload = bytes.data() + 16;
  std::uint64_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + 16 + len, sizeof stored_crc);
  if (stored_crc != crc64(payload, static_cast<std::size_t>(len))) {
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  out->assign(payload, payload + len);
  loads_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool DiskCacheStore::put(const Fingerprint& fp, const std::uint8_t* data,
                         std::size_t size) {
  if (!ok_ || degraded()) return false;
  const std::string final_path = entry_path(fp);
  if (::access(final_path.c_str(), F_OK) == 0) {
    races_lost_.fetch_add(1, std::memory_order_relaxed);
    return false;  // already published (possibly by another worker)
  }

  ByteWriter framed;
  framed.u64(kEntryMagic);
  framed.u64(size);
  framed.bytes(data, size);
  framed.u64(crc64(data, size));
  const std::vector<std::uint8_t>& bytes = framed.data();

  fault::Scope io_scope(fault::Domain::kDiskCacheIo,
                        op_seq_.fetch_add(1, std::memory_order_relaxed));

  // Fill a private temp file, then link(2) it under the final name: the
  // entry appears whole or not at all, and link refuses to replace an
  // existing entry, so concurrent writers race first-insert-wins.  mkstemp
  // gives every publish its own temp name, also two threads of one process
  // (or two stores on one directory) publishing the same fingerprint.
  std::string tmp_path = dir_ + "/.tmp-XXXXXX";
  const int fd = ::mkstemp(tmp_path.data());
  if (fd < 0) {
    publish_io_error();
    return false;
  }
  const bool wrote = ::fchmod(fd, 0644) == 0 &&
                     vfs::write_all(fd, bytes.data(), bytes.size()) &&
                     vfs::fsync(fd) == 0;
  ::close(fd);
  if (!wrote) {
    ::unlink(tmp_path.c_str());
    publish_io_error();
    return false;
  }
  const int rc = vfs::link(tmp_path.c_str(), final_path.c_str());
  const int link_errno = errno;
  ::unlink(tmp_path.c_str());
  if (rc != 0) {
    if (link_errno == EEXIST) {
      races_lost_.fetch_add(1, std::memory_order_relaxed);
    } else {
      publish_io_error();
    }
    return false;
  }

  publishes_.fetch_add(1, std::memory_order_relaxed);
  if (options_.max_bytes > 0) {
    std::lock_guard<std::mutex> lock(quota_mutex_);
    stored_bytes_ += bytes.size();
    if (stored_bytes_ > options_.max_bytes) prune_locked(final_path);
  }
  return true;
}

void DiskCacheStore::publish_io_error() {
  io_errors_.fetch_add(1, std::memory_order_relaxed);
  // The disk is misbehaving; stop touching it.  Counters freeze here so a
  // degraded run's cache accounting matches a run with no disk tier.
  tier_down_.store(true, std::memory_order_relaxed);
}

void DiskCacheStore::prune_locked(const std::string& keep_path) {
  // Oldest-first eviction: (mtime, name) ascending — the name tiebreak
  // keeps the order deterministic when a burst of publishes lands inside
  // one mtime granule.  The entry just published is never pruned.
  struct Victim {
    fs::file_time_type mtime;
    std::string path;
    std::uint64_t size;
  };
  std::vector<Victim> victims;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    const std::string path = entry.path().string();
    if (!is_entry_name(entry.path().filename().string())) continue;
    if (path == keep_path) continue;
    std::error_code stat_ec;
    const fs::file_time_type mtime = entry.last_write_time(stat_ec);
    const std::uintmax_t size = entry.file_size(stat_ec);
    if (stat_ec) continue;
    victims.push_back({mtime, path, static_cast<std::uint64_t>(size)});
  }
  std::sort(victims.begin(), victims.end(), [](const Victim& a,
                                               const Victim& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });
  for (const Victim& v : victims) {
    if (stored_bytes_ <= options_.max_bytes) break;
    if (::unlink(v.path.c_str()) != 0) continue;
    stored_bytes_ -= std::min(stored_bytes_, v.size);
    pruned_entries_.fetch_add(1, std::memory_order_relaxed);
    pruned_bytes_.fetch_add(v.size, std::memory_order_relaxed);
  }
}

DiskCacheStore::Counters DiskCacheStore::counters() const {
  Counters c;
  c.probes = probes_.load(std::memory_order_relaxed);
  c.loads = loads_.load(std::memory_order_relaxed);
  c.load_failures = load_failures_.load(std::memory_order_relaxed);
  c.publishes = publishes_.load(std::memory_order_relaxed);
  c.races_lost = races_lost_.load(std::memory_order_relaxed);
  c.io_errors = io_errors_.load(std::memory_order_relaxed);
  c.pruned_entries = pruned_entries_.load(std::memory_order_relaxed);
  c.pruned_bytes = pruned_bytes_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace poc
