#include "src/run/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
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

// Segment header: magic "POCJRNL1" (little-endian u64), format version,
// reserved word, the flow config fingerprint, and a CRC over the preceding
// fields.  32 payload bytes + 8 CRC bytes.
constexpr std::uint64_t kSegmentMagic = 0x314C4E524A434F50ULL;  // "POCJRNL1"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 40;

// Record frame: marker "PRC1" (u32), body length (u32), body, crc64(body).
constexpr std::uint32_t kRecordMarker = 0x31435250U;  // "PRC1"
constexpr std::size_t kFrameBytes = 4 + 4 + 8;        // marker + len + crc

std::string segment_name(std::uint64_t seq, bool active) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "journal-%06llu.%s",
                static_cast<unsigned long long>(seq),
                active ? "open" : "seg");
  return buf;
}

/// Sequence number parsed from a journal file name, or 0 when the name is
/// not a journal segment.
std::uint64_t parse_seq(const std::string& name, bool* active) {
  const bool is_seg = name.size() == 18 && name.rfind(".seg") == 14;
  const bool is_open = name.size() == 19 && name.rfind(".open") == 14;
  if (name.rfind("journal-", 0) != 0 || (!is_seg && !is_open)) return 0;
  std::uint64_t seq = 0;
  for (std::size_t i = 8; i < 14; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  if (active != nullptr) *active = is_open;
  return seq;
}

void encode_record(const JournalRecord& rec, ByteWriter& out) {
  ByteWriter body;
  body.u8(static_cast<std::uint8_t>(rec.phase));
  body.u8(rec.outcome.faulted ? 1 : 0);
  body.u8(rec.outcome.recovered ? 1 : 0);
  body.u8(rec.outcome.degraded ? 1 : 0);
  body.u8(static_cast<std::uint8_t>(rec.outcome.code));
  body.u32(rec.outcome.attempts);
  body.u64(rec.index);
  body.u64(rec.fp.hi);
  body.u64(rec.fp.lo);
  body.str(rec.outcome.origin);
  body.str(rec.outcome.message);
  body.str(std::string_view(reinterpret_cast<const char*>(rec.payload.data()),
                            rec.payload.size()));
  out.u32(kRecordMarker);
  out.u32(static_cast<std::uint32_t>(body.size()));
  out.bytes(body.data().data(), body.size());
  out.u64(crc64(body.data()));
}

bool decode_record_body(const std::uint8_t* data, std::size_t size,
                        JournalRecord& rec) {
  ByteReader r(data, size);
  rec.phase = static_cast<JournalPhase>(r.u8());
  rec.outcome.faulted = r.u8() != 0;
  rec.outcome.recovered = r.u8() != 0;
  rec.outcome.degraded = r.u8() != 0;
  rec.outcome.code = static_cast<FaultCode>(r.u8());
  rec.outcome.attempts = r.u32();
  rec.index = r.u64();
  rec.fp.hi = r.u64();
  rec.fp.lo = r.u64();
  rec.outcome.origin = r.str();
  rec.outcome.message = r.str();
  const std::string payload = r.str();
  rec.payload.assign(payload.begin(), payload.end());
  return r.done();
}

/// Standard segment header bytes for `config_fp` (see kHeaderBytes).
std::vector<std::uint8_t> make_segment_header(const Fingerprint& config_fp) {
  ByteWriter header;
  header.u64(kSegmentMagic);
  header.u32(kFormatVersion);
  header.u32(0);  // reserved
  header.u64(config_fp.hi);
  header.u64(config_fp.lo);
  header.u64(crc64(header.data()));
  return header.take();
}

[[noreturn]] void throw_journal_io(const std::string& what) {
  throw FlowException(
      FlowError{FaultCode::kJournalIo, kNoWindowId, "journal.open", what});
}

/// Best-effort fsync of the directory containing `path`, so a rename or
/// file creation inside it survives a crash.  Failure is non-fatal: some
/// filesystems refuse directory fsync.
void sync_directory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Appends one framed record to `out`.
void append_record_frame(std::vector<std::uint8_t>& out,
                         const JournalRecord& rec) {
  ByteWriter w;
  encode_record(rec, w);
  const std::vector<std::uint8_t>& encoded = w.data();
  out.insert(out.end(), encoded.begin(), encoded.end());
}

/// Scans record frames in data[start, size), appending every valid record
/// to `out` and one ReplayIssue per reject.  Returns the end offset of the
/// last fully valid record — the truncate-and-seal point for a torn tail.
/// Mid-stream checksum rejects skip the record and keep scanning (the
/// frame length still delimits it); a bad marker or partial frame stops.
std::size_t scan_record_frames(const std::uint8_t* data, std::size_t size,
                               std::size_t start,
                               const std::string& segment_name,
                               std::vector<JournalRecord>* out,
                               std::vector<ReplayIssue>* issues) {
  std::size_t valid_end = start;
  std::size_t pos = start;
  while (pos < size) {
    if (size - pos < kFrameBytes) {
      issues->push_back({FaultCode::kJournalMismatch, segment_name, pos,
                         "truncated record tail (partial frame)"});
      break;
    }
    ByteReader frame(data + pos, size - pos);
    const std::uint32_t marker = frame.u32();
    const std::uint32_t body_len = frame.u32();
    if (marker != kRecordMarker) {
      issues->push_back({FaultCode::kJournalMismatch, segment_name, pos,
                         "bad record marker; stopping replay of segment"});
      break;
    }
    if (frame.remaining() < static_cast<std::size_t>(body_len) + 8) {
      issues->push_back({FaultCode::kJournalMismatch, segment_name, pos,
                         "truncated record tail (body cut short)"});
      break;
    }
    const std::uint8_t* body = data + pos + 8;
    const std::uint64_t actual_crc = crc64(body, body_len);
    std::uint64_t stored_crc;
    std::memcpy(&stored_crc, body + body_len, sizeof stored_crc);
    const std::size_t record_end = pos + kFrameBytes + body_len;
    if (stored_crc != actual_crc) {
      // A flipped bit inside one record: reject it, keep replaying the
      // rest — the frame length still delimits the record.
      issues->push_back({FaultCode::kJournalMismatch, segment_name, pos,
                         "record checksum mismatch"});
      pos = record_end;
      continue;
    }
    JournalRecord rec;
    if (!decode_record_body(body, body_len, rec)) {
      issues->push_back({FaultCode::kJournalMismatch, segment_name, pos,
                         "record body failed to decode"});
      pos = record_end;
      continue;
    }
    valid_end = record_end;
    pos = record_end;
    out->push_back(std::move(rec));
  }
  return valid_end;
}

/// Replays the segment file `dir`/`segment.name` into `replay` and records
/// where its valid records end.
void replay_segment(const std::string& dir, const Fingerprint& config_fp,
                    JournalReplay::Segment& segment, JournalReplay& replay) {
  const std::string& name = segment.name;
  const std::string path = dir + "/" + name;

  // Read the whole segment: journal segments are bounded by segment_bytes
  // and replay happens once per run.
  std::vector<std::uint8_t> bytes;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      replay.issues.push_back({FaultCode::kJournalIo, name, 0,
                               std::string("cannot open segment: ") +
                                   std::strerror(errno)});
      return;
    }
    std::uint8_t chunk[1 << 16];
    ssize_t got;
    while ((got = ::read(fd, chunk, sizeof chunk)) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + got);
    }
    ::close(fd);
    if (got < 0) {
      replay.issues.push_back({FaultCode::kJournalIo, name, 0,
                               std::string("cannot read segment: ") +
                                   std::strerror(errno)});
      return;
    }
  }

  // Header: reject the whole segment when the magic/version/CRC or the
  // config fingerprint does not match — records produced under different
  // flow options must never be replayed into this run.
  const char* reject = nullptr;
  if (bytes.size() < kHeaderBytes) {
    reject = "segment shorter than its header";
  } else {
    ByteReader h(bytes.data(), kHeaderBytes);
    const std::uint64_t magic = h.u64();
    const std::uint32_t version = h.u32();
    h.u32();  // reserved
    Fingerprint fp;
    fp.hi = h.u64();
    fp.lo = h.u64();
    const std::uint64_t stored_crc = h.u64();
    if (magic != kSegmentMagic || version != kFormatVersion ||
        stored_crc != crc64(bytes.data(), kHeaderBytes - 8)) {
      reject = "bad segment header (magic/version/checksum)";
    } else if (fp != config_fp) {
      reject =
          "config fingerprint mismatch: segment was written under "
          "different flow options";
    }
  }
  if (reject != nullptr) {
    replay.issues.push_back({FaultCode::kJournalMismatch, name, 0, reject});
    return;
  }
  segment.valid_bytes =
      scan_record_frames(bytes.data(), bytes.size(), kHeaderBytes, name,
                         &replay.records, &replay.issues);
  segment.torn = segment.valid_bytes < bytes.size();
}

}  // namespace

namespace journal_io {

JournalReplay replay_dir(const std::string& dir,
                         const Fingerprint& config_fp) {
  JournalReplay replay;
  std::error_code ec;
  replay.found = fs::is_directory(dir, ec);
  if (!replay.found) {
    replay.issues.push_back(
        {FaultCode::kJournalIo, dir, 0, "journal directory missing"});
    return replay;
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    JournalReplay::Segment segment;
    segment.name = entry.path().filename().string();
    const std::uint64_t seq = parse_seq(segment.name, &segment.active);
    if (seq == 0) continue;
    replay.next_seq = std::max(replay.next_seq, seq + 1);
    replay.segments.push_back(std::move(segment));
  }
  // Sequence numbers are fixed-width, so name order is sequence order.
  std::sort(replay.segments.begin(), replay.segments.end(),
            [](const JournalReplay::Segment& a,
               const JournalReplay::Segment& b) { return a.name < b.name; });
  for (JournalReplay::Segment& segment : replay.segments) {
    replay_segment(dir, config_fp, segment, replay);
  }
  return replay;
}

bool write_sealed_segment(const std::string& dir, std::uint64_t seq,
                          const Fingerprint& config_fp,
                          const std::vector<JournalRecord>& records,
                          std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  std::vector<std::uint8_t> bytes = make_segment_header(config_fp);
  for (const JournalRecord& rec : records) append_record_frame(bytes, rec);

  const std::string final_path = dir + "/" + segment_name(seq, /*active=*/false);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot create " + tmp_path + ": " + std::strerror(errno);
    }
    return false;
  }
  fault::Scope io_scope(fault::Domain::kJournalIo, seq);
  if (!vfs::write_all(fd, bytes.data(), bytes.size())) {
    if (error != nullptr) {
      *error = "write to " + tmp_path + " failed: " + std::strerror(errno);
    }
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return false;
  }
  const bool synced = vfs::fsync(fd) == 0;
  ::close(fd);
  if (!synced || vfs::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot publish " + final_path + ": " + std::strerror(errno);
    }
    ::unlink(tmp_path.c_str());
    return false;
  }
  sync_directory(dir);
  return true;
}

}  // namespace journal_io

const char* journal_phase_name(JournalPhase phase) {
  switch (phase) {
    case JournalPhase::kOpc:
      return "opc";
    case JournalPhase::kExtract:
      return "extract";
    case JournalPhase::kScan:
      return "scan";
  }
  return "invalid";
}

RunJournal::RunJournal(const JournalOptions& options, Fingerprint config_fp)
    : options_(options), config_fp_(config_fp) {
  if (options_.flush_every_records == 0) options_.flush_every_records = 1;
  if (const char* env = std::getenv("POC_JOURNAL_KILL_AFTER")) {
    options_.kill_after_appends =
        static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }

  std::error_code ec;
  fs::create_directories(options_.path, ec);
  if (ec) {
    throw_journal_io("cannot create journal directory " + options_.path +
                     ": " + ec.message());
  }

  JournalReplay replay = journal_io::replay_dir(options_.path, config_fp_);
  issues_ = std::move(replay.issues);
  stats_.rejected_records = static_cast<std::size_t>(
      std::count_if(issues_.begin(), issues_.end(), [](const ReplayIssue& i) {
        return i.code == FaultCode::kJournalMismatch;
      }));
  for (JournalRecord& rec : replay.records) {
    const Fingerprint fp = rec.fp;
    if (loaded_.emplace(fp, std::move(rec)).second) ++stats_.loaded_records;
  }
  stats_.segments = replay.segments.size();
  next_seq_ = replay.next_seq;
  for (const JournalReplay::Segment& segment : replay.segments) {
    if (segment.active) seal_previous_segment(segment);
  }

  open_active_segment();
}

RunJournal::~RunJournal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    write_buffer_locked(/*sync=*/true);
    ::close(fd_);
    fd_ = -1;
  }
}

void RunJournal::seal_previous_segment(const JournalReplay::Segment& segment) {
  // Drop any torn tail past the last valid record, then atomically rename
  // .open -> .seg.  A crash between truncate and rename just repeats this
  // step on the next open.
  const std::string path = options_.path + "/" + segment.name;
  fault::Scope io_scope(fault::Domain::kJournalIo, io_ops_++);
  if (segment.torn &&
      vfs::truncate(path.c_str(), static_cast<off_t>(segment.valid_bytes)) !=
          0) {
    issues_.push_back({FaultCode::kJournalIo, segment.name,
                       segment.valid_bytes,
                       std::string("cannot truncate torn tail: ") +
                           std::strerror(errno)});
    return;  // keep the file as-is; replay already skipped the tail
  }
  std::string sealed_name = segment.name;
  sealed_name.replace(sealed_name.size() - 5, 5, ".seg");
  const std::string sealed_path = options_.path + "/" + sealed_name;
  if (vfs::rename(path.c_str(), sealed_path.c_str()) != 0) {
    issues_.push_back({FaultCode::kJournalIo, segment.name, 0,
                       std::string("cannot seal segment: ") +
                           std::strerror(errno)});
    return;
  }
  sync_directory(options_.path);
}

void RunJournal::open_active_segment() {
  active_file_ = options_.path + "/" + segment_name(next_seq_, /*active=*/true);
  ++next_seq_;
  fd_ = ::open(active_file_.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd_ < 0) {
    throw_journal_io("cannot create active segment " + active_file_ + ": " +
                     std::strerror(errno));
  }
  buffer_ = make_segment_header(config_fp_);
  active_bytes_ = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    write_buffer_locked(/*sync=*/true);
    if (inert_) {
      throw_journal_io("cannot write segment header to " + active_file_);
    }
  }
  sync_directory(options_.path);
  ++stats_.segments;
}

const JournalRecord* RunJournal::find(const Fingerprint& fp) {
  const auto it = loaded_.find(fp);
  if (it == loaded_.end()) return nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.replayed_hits;
  }
  return &it->second;
}

bool RunJournal::append(JournalRecord record) {
  bool written = false;
  std::size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inert_ || fd_ < 0) return false;
    if (loaded_.count(record.fp) != 0 ||
        !appended_.emplace(record.fp, true).second) {
      return false;  // already durable (replayed or appended this run)
    }

    append_record_frame(buffer_, record);
    ++buffered_records_;
    ++stats_.appended_records;
    total = stats_.appended_records;

    const bool kill_now = options_.kill_after_appends != 0 &&
                          stats_.appended_records >= options_.kill_after_appends;
    if (buffered_records_ >= options_.flush_every_records || kill_now) {
      write_buffer_locked(/*sync=*/true);
    }
    if (kill_now) {
      // Deterministic crash hook: every appended record is durable, the
      // process dies at an exact window boundary.  SIGKILL on purpose — no
      // unwinding, no flush-at-exit, exactly what a kill -9 or OOM does.
      ::raise(SIGKILL);
    }

    if (active_bytes_ >= options_.segment_bytes) seal_active_locked();
    written = !inert_;
  }
  // Progress callback outside the mutex: the callback may do its own I/O
  // (shard heartbeats) and must never deadlock against a concurrent
  // append.  Fires even if this batch's flush just went inert — the
  // window itself completed, which is what progress means.
  if (options_.on_append) options_.on_append(total);
  return written;
}

void RunJournal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  write_buffer_locked(/*sync=*/true);
}

void RunJournal::seal_active_locked() {
  write_buffer_locked(/*sync=*/true);
  if (inert_) return;
  ::close(fd_);
  fd_ = -1;
  fault::Scope io_scope(fault::Domain::kJournalIo, io_ops_++);
  std::string sealed = active_file_;
  sealed.replace(sealed.size() - 5, 5, ".seg");
  if (vfs::rename(active_file_.c_str(), sealed.c_str()) != 0) {
    io_failure_locked(std::string("cannot seal full segment: ") +
                      std::strerror(errno));
    return;
  }
  sync_directory(options_.path);

  active_file_ = options_.path + "/" + segment_name(next_seq_, /*active=*/true);
  ++next_seq_;
  fd_ = ::open(active_file_.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd_ < 0) {
    io_failure_locked("cannot create next segment " + active_file_ + ": " +
                      std::strerror(errno));
    return;
  }
  buffer_ = make_segment_header(config_fp_);
  active_bytes_ = 0;
  write_buffer_locked(/*sync=*/true);
  sync_directory(options_.path);
  ++stats_.segments;
}

void RunJournal::write_buffer_locked(bool sync) {
  if (inert_ || fd_ < 0 || buffer_.empty()) {
    buffered_records_ = 0;
    return;
  }
  fault::Scope io_scope(fault::Domain::kJournalIo, io_ops_++);
  if (!vfs::write_all(fd_, buffer_.data(), buffer_.size())) {
    io_failure_locked(std::string("write failed: ") + std::strerror(errno));
    return;
  }
  active_bytes_ += buffer_.size();
  buffer_.clear();
  buffered_records_ = 0;
  if (sync) {
    if (vfs::fsync(fd_) != 0) {
      io_failure_locked(std::string("fsync failed: ") + std::strerror(errno));
      return;
    }
    ++stats_.fsyncs;
  }
}

void RunJournal::io_failure_locked(const std::string& what) {
  // Journaling must never corrupt a run: park the journal, surface the
  // failure through issues(), let the flow finish undurable.
  inert_ = true;
  issues_.push_back({FaultCode::kJournalIo, active_file_, active_bytes_, what});
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

RunJournal::Stats RunJournal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace poc
