// Durable-run subsystem tests: byte-exact serialization and CRC-64, the
// write-ahead RunJournal (replay, checksum/config validation, torn-tail
// sealing, rotation, dedup), cooperative cancellation in the parallel
// engine, the SIGINT/SIGTERM graceful-shutdown bridge, and the flow-level
// resume contract — a killed or cancelled journaled run, resumed at any
// thread count, reproduces the uninterrupted TimingComparison bit for bit
// (EXPECT_EQ on doubles, as in determinism_test).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/disk_store.h"
#include "src/common/error.h"
#include "src/common/fault.h"
#include "src/common/serialize.h"
#include "src/core/flow.h"
#include "src/core/flow_shard.h"
#include "src/netlist/generators.h"
#include "src/par/thread_pool.h"
#include "src/run/coordinator.h"
#include "src/run/journal.h"
#include "src/run/shard.h"
#include "src/run/shutdown.h"

namespace poc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on teardown.  The kill-resume
/// death tests rely on the ctor wiping and the SIGKILLed child never
/// running the dtor, so the parent finds the child's journal intact.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<fs::path> journal_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every file in `dir` with its bytes: a byte-identity witness for code
/// that must only read a directory.
std::map<std::string, std::string> dir_snapshot(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const fs::path& p : journal_files(dir)) {
    std::ifstream in(p, std::ios::binary);
    out[p.filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serialization + checksum

TEST(Serialize, RoundTripsEveryTypeBitExactly) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.0);                      // sign bit must survive
  w.f64(0.1 + 0.2);                 // a value with no short decimal form
  w.str("journal");
  w.str("");                        // empty strings are legal

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), 0.1 + 0.2);    // bit pattern, not approximate
  EXPECT_EQ(r.str(), "journal");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Serialize, ReaderLatchesInsteadOfThrowingOnTruncation) {
  ByteWriter w;
  w.u64(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero value, latched failure
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // stays failed
  EXPECT_FALSE(r.done());
}

TEST(Serialize, ReaderRejectsOverlongString) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Crc64, MatchesKnownVectorAndSeesBitFlips) {
  // CRC-64/XZ check value for the ASCII string "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(crc64(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0x995DC9BBDF1939FAull);

  std::vector<std::uint8_t> bytes(128);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint64_t base = crc64(bytes);
  bytes[64] ^= 0x01;  // single bit flip
  EXPECT_NE(crc64(bytes), base);
  bytes[64] ^= 0x01;
  EXPECT_EQ(crc64(bytes), base);
  bytes.pop_back();  // truncation
  EXPECT_NE(crc64(bytes), base);
}

// ---------------------------------------------------------------------------
// RunJournal: append / replay / reject

JournalRecord make_record(JournalPhase phase, std::uint64_t index,
                          std::uint64_t salt) {
  JournalRecord rec;
  rec.phase = phase;
  rec.index = index;
  rec.fp = {salt * 1000003u + index, ~index};
  rec.outcome.attempts = 1;
  ByteWriter w;
  w.u64(index);
  w.f64(static_cast<double>(index) * 1.5 + 0.125);
  w.str("payload-" + std::to_string(index));
  rec.payload = w.take();
  return rec;
}

constexpr Fingerprint kConfigA{0x1111, 0x2222};
constexpr Fingerprint kConfigB{0x3333, 0x4444};

TEST(RunJournal, AppendThenReplayAcrossReopen) {
  TempDir dir("poc_run_journal_roundtrip");
  JournalOptions opts;
  opts.enabled = true;
  opts.path = dir.path.string();
  opts.flush_every_records = 2;
  {
    RunJournal j(opts, kConfigA);
    for (std::uint64_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(j.append(make_record(JournalPhase::kOpc, i, 1)));
    }
    // Same-run appends are not served back: replay is a reopen concept.
    EXPECT_EQ(j.find(make_record(JournalPhase::kOpc, 0, 1).fp), nullptr);
    // Duplicate append is dropped.
    EXPECT_FALSE(j.append(make_record(JournalPhase::kOpc, 2, 1)));
    const RunJournal::Stats s = j.stats();
    EXPECT_EQ(s.appended_records, 5u);
    EXPECT_EQ(s.loaded_records, 0u);
  }

  RunJournal j2(opts, kConfigA);
  const RunJournal::Stats s = j2.stats();
  EXPECT_EQ(s.loaded_records, 5u);
  EXPECT_EQ(s.rejected_records, 0u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const JournalRecord want = make_record(JournalPhase::kOpc, i, 1);
    const JournalRecord* got = j2.find(want.fp);
    ASSERT_NE(got, nullptr) << "record " << i;
    EXPECT_EQ(got->phase, want.phase);
    EXPECT_EQ(got->index, want.index);
    EXPECT_EQ(got->payload, want.payload);
    EXPECT_EQ(got->outcome.attempts, want.outcome.attempts);
  }
  // A replayed-then-recomputed window must not be re-written.
  EXPECT_FALSE(j2.append(make_record(JournalPhase::kOpc, 3, 1)));
  EXPECT_TRUE(j2.issues().empty());

  // The previous active segment was sealed by the reopen.
  bool saw_sealed = false;
  for (const fs::path& p : journal_files(dir.path)) {
    if (p.extension() == ".seg") saw_sealed = true;
  }
  EXPECT_TRUE(saw_sealed);
}

TEST(RunJournal, RejectsSegmentsFromDifferentConfig) {
  TempDir dir("poc_run_journal_config");
  JournalOptions opts;
  opts.enabled = true;
  opts.path = dir.path.string();
  {
    RunJournal j(opts, kConfigA);
    for (std::uint64_t i = 0; i < 3; ++i) {
      j.append(make_record(JournalPhase::kExtract, i, 2));
    }
  }
  RunJournal j2(opts, kConfigB);
  EXPECT_EQ(j2.stats().loaded_records, 0u);
  EXPECT_EQ(j2.find(make_record(JournalPhase::kExtract, 1, 2).fp), nullptr);
  ASSERT_FALSE(j2.issues().empty());
  EXPECT_EQ(j2.issues()[0].code, FaultCode::kJournalMismatch);
  EXPECT_NE(j2.issues()[0].detail.find("config fingerprint"),
            std::string::npos);
}

TEST(RunJournal, TruncatedTailIsRejectedReportedAndSealedAway) {
  TempDir dir("poc_run_journal_trunc");
  JournalOptions opts;
  opts.enabled = true;
  opts.path = dir.path.string();
  fs::path active;
  {
    RunJournal j(opts, kConfigA);
    for (std::uint64_t i = 0; i < 4; ++i) {
      j.append(make_record(JournalPhase::kScan, i, 3));
    }
    j.flush();
  }
  for (const fs::path& p : journal_files(dir.path)) {
    if (p.extension() == ".open") active = p;
  }
  ASSERT_FALSE(active.empty());
  // SIGKILL mid-write: the tail of the last record is missing.
  fs::resize_file(active, fs::file_size(active) - 7);

  RunJournal j2(opts, kConfigA);
  EXPECT_EQ(j2.stats().loaded_records, 3u);
  EXPECT_EQ(j2.stats().rejected_records, 1u);
  ASSERT_FALSE(j2.issues().empty());
  EXPECT_EQ(j2.issues()[0].code, FaultCode::kJournalMismatch);
  EXPECT_NE(j2.issues()[0].detail.find("truncated"), std::string::npos);
  EXPECT_EQ(j2.find(make_record(JournalPhase::kScan, 3, 3).fp), nullptr);
  EXPECT_NE(j2.find(make_record(JournalPhase::kScan, 2, 3).fp), nullptr);

  // The torn record must also be gone from disk (valid-prefix truncation),
  // so a third open replays cleanly.
  RunJournal j3(opts, kConfigA);
  EXPECT_EQ(j3.stats().loaded_records, 3u);
  EXPECT_EQ(j3.stats().rejected_records, 0u);
  EXPECT_TRUE(j3.issues().empty());
}

TEST(RunJournal, BitFlippedRecordIsRejectedOthersSurvive) {
  TempDir dir("poc_run_journal_flip");
  JournalOptions opts;
  opts.enabled = true;
  opts.path = dir.path.string();
  {
    RunJournal j(opts, kConfigA);
    for (std::uint64_t i = 0; i < 4; ++i) {
      j.append(make_record(JournalPhase::kOpc, i, 4));
    }
  }
  fs::path active;
  for (const fs::path& p : journal_files(dir.path)) {
    if (p.extension() == ".open") active = p;
  }
  ASSERT_FALSE(active.empty());
  {
    // Flip one bit inside the last record's body.
    std::fstream f(active, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekg(size - 16);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size - 16);
    f.write(&byte, 1);
  }

  RunJournal j2(opts, kConfigA);
  EXPECT_EQ(j2.stats().loaded_records, 3u);
  EXPECT_GE(j2.stats().rejected_records, 1u);
  bool saw_checksum_issue = false;
  for (const ReplayIssue& issue : j2.issues()) {
    if (issue.code == FaultCode::kJournalMismatch) saw_checksum_issue = true;
  }
  EXPECT_TRUE(saw_checksum_issue);
  EXPECT_NE(j2.find(make_record(JournalPhase::kOpc, 0, 4).fp), nullptr);
}

TEST(RunJournal, RotatesSegmentsAndReplaysAcrossAllOfThem) {
  TempDir dir("poc_run_journal_rotate");
  JournalOptions opts;
  opts.enabled = true;
  opts.path = dir.path.string();
  opts.segment_bytes = 128;       // force a rotation on nearly every append
  opts.flush_every_records = 1;   // rotation is checked after each flush
  {
    RunJournal j(opts, kConfigA);
    for (std::uint64_t i = 0; i < 8; ++i) {
      j.append(make_record(JournalPhase::kExtract, i, 5));
    }
    EXPECT_GE(j.stats().segments, 3u);
  }
  std::size_t sealed = 0;
  for (const fs::path& p : journal_files(dir.path)) {
    if (p.extension() == ".seg") ++sealed;
  }
  EXPECT_GE(sealed, 2u);

  RunJournal j2(opts, kConfigA);
  EXPECT_EQ(j2.stats().loaded_records, 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_NE(j2.find(make_record(JournalPhase::kExtract, i, 5).fp), nullptr);
  }
}

TEST(RunJournal, FsyncBatchingHonoursFlushInterval) {
  TempDir dir("poc_run_journal_fsync");
  JournalOptions opts;
  opts.enabled = true;
  opts.path = dir.path.string();
  opts.flush_every_records = 4;
  RunJournal j(opts, kConfigA);
  const std::size_t baseline = j.stats().fsyncs;  // header flush
  for (std::uint64_t i = 0; i < 8; ++i) {
    j.append(make_record(JournalPhase::kOpc, i, 6));
  }
  EXPECT_EQ(j.stats().fsyncs, baseline + 2);  // 8 records / 4 per batch
  j.flush();
  EXPECT_EQ(j.stats().fsyncs, baseline + 2);  // nothing buffered: no-op
}

// ---------------------------------------------------------------------------
// Cooperative cancellation in src/par

TEST(CancelToken, SerialLoopStopsAtChunkBoundary) {
  CancelToken token;
  std::vector<char> ran(12, 0);
  try {
    parallel_for(/*threads=*/1, 12, /*chunk=*/3,
                 [&](std::size_t i) {
                   ran[i] = 1;
                   if (i == 4) token.request_cancel();
                 },
                 &token);
    FAIL() << "expected FlowException(kCancelled)";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.error().code, FaultCode::kCancelled);
  }
  // The chunk in flight ([3,6)) finishes; later chunks never start.
  EXPECT_EQ(ran[4], 1);
  EXPECT_EQ(ran[5], 1);
  EXPECT_EQ(ran[6], 0);
  EXPECT_EQ(ran[11], 0);
}

TEST(CancelToken, ParallelLoopDrainsInFlightAndThrowsCancelled) {
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    CancelToken token;
    token.request_cancel();  // cancelled before the loop even starts
    std::size_t ran = 0;
    try {
      parallel_for(threads, 64, /*chunk=*/1, [&](std::size_t) { ++ran; },
                   &token);
      FAIL() << "expected FlowException(kCancelled)";
    } catch (const FlowException& e) {
      EXPECT_EQ(e.error().code, FaultCode::kCancelled);
    }
    EXPECT_EQ(ran, 0u);
  }
}

TEST(CancelToken, UnsetTokenChangesNothing) {
  CancelToken token;
  std::size_t ran = 0;
  std::mutex m;
  parallel_for(4, 32, /*chunk=*/2,
               [&](std::size_t) {
                 std::lock_guard<std::mutex> lock(m);
                 ++ran;
               },
               &token);
  EXPECT_EQ(ran, 32u);
}

TEST(CancelToken, SetAfterLastChunkDoesNotThrow) {
  CancelToken token;
  // Serial loop: the token trips inside the final chunk, after which no
  // further chunk boundary is crossed — nothing was skipped, no throw.
  std::size_t ran = 0;
  parallel_for(1, 8, /*chunk=*/4,
               [&](std::size_t i) {
                 ++ran;
                 if (i == 7) token.request_cancel();
               },
               &token);
  EXPECT_EQ(ran, 8u);
}

TEST(CancelToken, TryParallelForPropagatesCancellationUncaptured) {
  CancelToken token;
  token.request_cancel();
  EXPECT_THROW(
      try_parallel_for(2, 16, 1, [](std::size_t) {}, "test.cancel", &token),
      FlowException);
}

TEST(GracefulShutdown, SignalTripsGlobalTokenAndCancelsLoops) {
  global_cancel_token().reset();
  {
    ScopedGracefulShutdown guard;
    EXPECT_EQ(ScopedGracefulShutdown::last_signal(), 0);
    std::raise(SIGINT);  // delivered synchronously to this thread
    EXPECT_TRUE(global_cancel_token().cancelled());
    EXPECT_EQ(ScopedGracefulShutdown::last_signal(), SIGINT);
    try {
      parallel_for(1, 4, 1, [](std::size_t) {}, &global_cancel_token());
      FAIL() << "expected cancellation";
    } catch (const FlowException& e) {
      EXPECT_EQ(e.error().code, FaultCode::kCancelled);
    }
  }
  global_cancel_token().reset();
}

// ---------------------------------------------------------------------------
// Flow-level resume: bit-identical TimingComparison

const StdCellLibrary& lib() {
  static const StdCellLibrary l = StdCellLibrary::load_or_characterize(
      (fs::temp_directory_path() / "poc_cells_test.lib").string());
  return l;
}

const PlacedDesign& design() {
  static PlacedDesign d = place_and_route(make_c17(), lib());
  return d;
}

FlowOptions run_flow_options(std::size_t threads) {
  FlowOptions opts;
  opts.sta.clock_period = 90.0;
  opts.threads = threads;
  // Cache off so journal replay counters are exact; results are
  // bit-identical either way.
  opts.cache.enabled = false;
  return opts;
}

FlowOptions journaled_options(std::size_t threads, const fs::path& dir) {
  FlowOptions opts = run_flow_options(threads);
  opts.journal.enabled = true;
  opts.journal.path = dir.string();
  return opts;
}

/// Uninterrupted, journal-free ground truth.
const TimingComparison& reference_cmp() {
  static const TimingComparison ref = [] {
    PostOpcFlow flow(design(), lib(), LithoSimulator{}, run_flow_options(1));
    flow.run_opc(OpcMode::kModelBased);
    return flow.compare_timing({});
  }();
  return ref;
}

void expect_same_comparison(const TimingComparison& a,
                            const TimingComparison& b) {
  EXPECT_EQ(a.drawn.worst_slack, b.drawn.worst_slack);
  EXPECT_EQ(a.drawn.worst_arrival, b.drawn.worst_arrival);
  EXPECT_EQ(a.annotated.worst_slack, b.annotated.worst_slack);
  EXPECT_EQ(a.annotated.worst_arrival, b.annotated.worst_arrival);
  EXPECT_EQ(a.annotated.total_leakage_ua, b.annotated.total_leakage_ua);
  EXPECT_EQ(a.worst_slack_change_pct, b.worst_slack_change_pct);
  EXPECT_EQ(a.leakage_change_pct, b.leakage_change_pct);
  ASSERT_EQ(a.annotated.gate_slack.size(), b.annotated.gate_slack.size());
  for (std::size_t g = 0; g < a.annotated.gate_slack.size(); ++g) {
    EXPECT_EQ(a.annotated.gate_slack[g], b.annotated.gate_slack[g]);
  }
  EXPECT_EQ(a.ranks.rank1_changed, b.ranks.rank1_changed);
  EXPECT_EQ(a.ranks.spearman, b.ranks.spearman);
  EXPECT_EQ(a.health.degraded_gates, b.health.degraded_gates);
}

TEST(FlowResume, PartialRunResumesBitIdenticalAtAnyThreadCount) {
  TempDir dir("poc_run_resume_partial");
  // Interrupted run: OPC completes, extraction covers only half the gates
  // (as if cancellation landed mid-phase), then the process "dies".
  {
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     journaled_options(2, dir.path));
    flow.run_opc(OpcMode::kModelBased);
    const std::size_t half = design().netlist.num_gates() / 2;
    std::vector<GateIdx> subset(half);
    for (std::size_t g = 0; g < half; ++g) subset[g] = g;
    flow.extract({}, subset);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     journaled_options(threads, dir.path));
    flow.run_opc(OpcMode::kModelBased);
    const TimingComparison cmp = flow.compare_timing({});
    expect_same_comparison(cmp, reference_cmp());
    EXPECT_TRUE(cmp.health.clean());
    const RunJournal::Stats s = flow.journal_stats();
    EXPECT_GT(s.replayed_hits, 0u) << "resume must replay, not recompute";
  }
}

TEST(FlowResume, CancelledRunIsResumable) {
  TempDir dir("poc_run_resume_cancel");
  CancelToken token;
  {
    FlowOptions opts = journaled_options(4, dir.path);
    opts.cancel = &token;
    PostOpcFlow flow(design(), lib(), LithoSimulator{}, opts);
    flow.run_opc(OpcMode::kModelBased);
    token.request_cancel();  // "SIGINT" between OPC and extraction
    try {
      flow.compare_timing({});
      FAIL() << "expected FlowException(kCancelled)";
    } catch (const FlowException& e) {
      EXPECT_EQ(e.error().code, FaultCode::kCancelled);
    }
  }
  PostOpcFlow flow(design(), lib(), LithoSimulator{},
                   journaled_options(1, dir.path));
  flow.run_opc(OpcMode::kModelBased);  // replayed from the journal
  const TimingComparison cmp = flow.compare_timing({});
  expect_same_comparison(cmp, reference_cmp());
  EXPECT_GT(flow.journal_stats().replayed_hits, 0u);
}

TEST(FlowResume, KilledAtOpcBoundaryResumesBitIdentical) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("poc_run_resume_kill_opc");
  // The child SIGKILLs itself after the 3rd journal append — mid-OPC, at
  // an exact window boundary (the hook fsyncs first).  No unwinding, no
  // destructor flush: exactly what kill -9 delivers.
  EXPECT_EXIT(
      {
        FlowOptions opts = journaled_options(1, dir.path);
        opts.journal.kill_after_appends = 3;
        PostOpcFlow flow(design(), lib(), LithoSimulator{}, opts);
        flow.run_opc(OpcMode::kModelBased);
        flow.compare_timing({});
        std::exit(0);  // unreachable: the journal kills us first
      },
      ::testing::KilledBySignal(SIGKILL), "");

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     journaled_options(threads, dir.path));
    flow.run_opc(OpcMode::kModelBased);
    const TimingComparison cmp = flow.compare_timing({});
    expect_same_comparison(cmp, reference_cmp());
    EXPECT_TRUE(cmp.health.clean()) << "boundary kill leaves a clean tail";
    EXPECT_GT(flow.journal_stats().replayed_hits, 0u);
  }
}

TEST(FlowResume, KilledDuringExtractionResumesBitIdentical) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("poc_run_resume_kill_extract");
  const std::size_t opc_windows = design().layout.num_instances();
  EXPECT_EXIT(
      {
        FlowOptions opts = journaled_options(1, dir.path);
        opts.journal.kill_after_appends = opc_windows + 2;  // mid-extract
        PostOpcFlow flow(design(), lib(), LithoSimulator{}, opts);
        flow.run_opc(OpcMode::kModelBased);
        flow.compare_timing({});
        std::exit(0);
      },
      ::testing::KilledBySignal(SIGKILL), "");

  PostOpcFlow flow(design(), lib(), LithoSimulator{},
                   journaled_options(4, dir.path));
  flow.run_opc(OpcMode::kModelBased);
  const TimingComparison cmp = flow.compare_timing({});
  expect_same_comparison(cmp, reference_cmp());
  const RunJournal::Stats s = flow.journal_stats();
  EXPECT_GE(s.replayed_hits, opc_windows + 2);
}

TEST(FlowResume, HotspotScanReplaysFromJournal) {
  TempDir dir("poc_run_resume_scan");
  const std::vector<ProcessCorner> corners = {{"nominal", {0.0, 1.0}}};
  PostOpcFlow::HotspotReport first;
  {
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     journaled_options(2, dir.path));
    flow.run_opc(OpcMode::kModelBased);
    first = flow.scan_hotspots(corners);
  }
  PostOpcFlow flow(design(), lib(), LithoSimulator{},
                   journaled_options(1, dir.path));
  flow.run_opc(OpcMode::kModelBased);
  const std::size_t hits_before = flow.journal_stats().replayed_hits;
  const PostOpcFlow::HotspotReport second = flow.scan_hotspots(corners);
  EXPECT_GT(flow.journal_stats().replayed_hits, hits_before);
  EXPECT_EQ(second.windows_checked, first.windows_checked);
  EXPECT_EQ(second.pinches, first.pinches);
  EXPECT_EQ(second.bridges, first.bridges);
  EXPECT_EQ(second.epe_violations, first.epe_violations);
  ASSERT_EQ(second.hotspots.size(), first.hotspots.size());
  for (std::size_t i = 0; i < second.hotspots.size(); ++i) {
    EXPECT_EQ(second.hotspots[i].instance, first.hotspots[i].instance);
    EXPECT_EQ(second.hotspots[i].exposure_name,
              first.hotspots[i].exposure_name);
    EXPECT_EQ(second.hotspots[i].violation.value_nm,
              first.hotspots[i].violation.value_nm);
  }
}

void expect_same_hotspots(const PostOpcFlow::HotspotReport& a,
                          const PostOpcFlow::HotspotReport& b) {
  EXPECT_EQ(a.windows_checked, b.windows_checked);
  EXPECT_EQ(a.pinches, b.pinches);
  EXPECT_EQ(a.bridges, b.bridges);
  EXPECT_EQ(a.epe_violations, b.epe_violations);
  ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
  for (std::size_t i = 0; i < a.hotspots.size(); ++i) {
    EXPECT_EQ(a.hotspots[i].instance, b.hotspots[i].instance);
    EXPECT_EQ(a.hotspots[i].exposure_name, b.hotspots[i].exposure_name);
    EXPECT_EQ(a.hotspots[i].violation.kind, b.hotspots[i].violation.kind);
    EXPECT_EQ(a.hotspots[i].violation.where, b.hotspots[i].violation.where);
    EXPECT_EQ(a.hotspots[i].violation.value_nm,
              b.hotspots[i].violation.value_nm);
  }
}

TEST(FlowResume, ContainedFaultsReplayWithIdenticalHealth) {
  // A journaled run whose windows faulted in all three phases — degraded
  // and recovered alike — must resume from the journal alone: every window
  // replays, and the replayed containment outcomes rebuild the same health
  // report, entry for entry, at any thread count.
  TempDir dir("poc_run_resume_contained");
  const std::vector<ProcessCorner> corners = {{"nominal", {0.0, 1.0}}};
  const std::size_t opc_victim = 0;
  // Two gates whose instance's OPC did not degrade (those gates skip
  // extraction): one recovers on its retry, one degrades.
  const auto next_extracted_gate = [&](GateIdx g) {
    while (design().gate_to_instance[g] == opc_victim) ++g;
    return g;
  };
  const GateIdx extract_recovered = next_extracted_gate(0);
  const GateIdx extract_degraded = next_extracted_gate(extract_recovered + 1);
  const std::size_t scan_sticky = 1;
  const std::size_t scan_transient = 2;

  TimingComparison first_cmp;
  FlowHealth first_health;
  PostOpcFlow::HotspotReport first_scan;
  {
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     journaled_options(2, dir.path));
    // Config::transient applies to a whole plan, so each phase installs
    // its own.
    fault::Config opc_plan;
    opc_plan.enabled = true;
    opc_plan.targets.push_back(
        {fault::Kind::kConvergenceStall, fault::Domain::kOpc, opc_victim});
    fault::configure(opc_plan);
    flow.run_opc(OpcMode::kModelBased);

    // Both faulted gates fail their first attempt; the degraded one also
    // fails its retry, through a second kind that fires only there.  The
    // scan plan below works the same way.
    fault::Config extract_plan;
    extract_plan.enabled = true;
    extract_plan.transient = true;
    extract_plan.targets.push_back(
        {fault::Kind::kAlloc, fault::Domain::kExtract, extract_recovered});
    extract_plan.targets.push_back(
        {fault::Kind::kAlloc, fault::Domain::kExtract, extract_degraded});
    extract_plan.targets.push_back(
        {fault::Kind::kNanPixel, fault::Domain::kExtract, extract_degraded});
    fault::configure(extract_plan);
    first_cmp = flow.compare_timing({});

    fault::Config scan_plan;
    scan_plan.enabled = true;
    scan_plan.transient = true;
    scan_plan.targets.push_back(
        {fault::Kind::kAlloc, fault::Domain::kScan, scan_sticky});
    scan_plan.targets.push_back(
        {fault::Kind::kNanPixel, fault::Domain::kScan, scan_sticky});
    scan_plan.targets.push_back(
        {fault::Kind::kAlloc, fault::Domain::kScan, scan_transient});
    fault::configure(scan_plan);
    first_scan = flow.scan_hotspots(corners);
    fault::reset();
    first_health = flow.health();
  }

  // The first run really exercised containment in every phase.
  ASSERT_EQ(first_health.faults.size(), 5u);
  const FlowHealth::WindowFault& opc = first_health.faults[0];
  EXPECT_EQ(opc.phase, "opc");
  EXPECT_EQ(opc.index, opc_victim);
  EXPECT_EQ(opc.code, FaultCode::kNonConvergence);
  EXPECT_TRUE(opc.degraded);
  const std::uint64_t windows[] = {extract_recovered, extract_degraded,
                                   scan_sticky, scan_transient};
  for (std::size_t f = 1; f < 5; ++f) {
    const FlowHealth::WindowFault& w = first_health.faults[f];
    EXPECT_EQ(w.phase, f < 3 ? "extract" : "scan") << f;
    EXPECT_EQ(w.index, windows[f - 1]) << f;
    EXPECT_EQ(w.code, FaultCode::kAllocFailure) << f;
    EXPECT_EQ(w.attempts, 2u) << f;
    // Recovered, degraded, degraded, recovered.
    EXPECT_EQ(w.degraded, f == 2 || f == 3) << f;
    EXPECT_EQ(w.recovered, !w.degraded) << f;
  }
  std::vector<GateIdx> degraded_gates{extract_degraded};
  for (GateIdx g = 0; g < design().netlist.num_gates(); ++g) {
    if (design().gate_to_instance[g] == opc_victim) degraded_gates.push_back(g);
  }
  std::sort(degraded_gates.begin(), degraded_gates.end());
  EXPECT_EQ(first_cmp.health.degraded_gates, degraded_gates);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     journaled_options(threads, dir.path));
    flow.run_opc(OpcMode::kModelBased);
    const TimingComparison cmp = flow.compare_timing({});
    const PostOpcFlow::HotspotReport scan = flow.scan_hotspots(corners);
    EXPECT_EQ(flow.journal_stats().appended_records, 0u)
        << "every window must replay at threads=" << threads;
    EXPECT_EQ(flow.journal_stats().rejected_records, 0u);

    const FlowHealth health = flow.health();
    ASSERT_EQ(health.faults.size(), first_health.faults.size());
    for (std::size_t f = 0; f < health.faults.size(); ++f) {
      const FlowHealth::WindowFault& a = health.faults[f];
      const FlowHealth::WindowFault& b = first_health.faults[f];
      EXPECT_EQ(a.phase, b.phase) << f;
      EXPECT_EQ(a.index, b.index) << f;
      EXPECT_EQ(a.code, b.code) << f;
      EXPECT_EQ(a.origin, b.origin) << f;
      EXPECT_EQ(a.attempts, b.attempts) << f;
      EXPECT_EQ(a.recovered, b.recovered) << f;
      EXPECT_EQ(a.degraded, b.degraded) << f;
    }
    EXPECT_EQ(health.degraded_gates, first_health.degraded_gates);
    expect_same_comparison(cmp, first_cmp);
    expect_same_hotspots(scan, first_scan);
  }
}

// ---------------------------------------------------------------------------
// Flow-level rejection reporting (never silently skip)

/// Completes a journaled run so the directory holds a full record set.
void complete_journaled_run(const fs::path& dir) {
  PostOpcFlow flow(design(), lib(), LithoSimulator{},
                   journaled_options(2, dir));
  flow.run_opc(OpcMode::kModelBased);
  flow.compare_timing({});
}

fs::path active_segment(const fs::path& dir) {
  for (const fs::path& p : journal_files(dir)) {
    if (p.extension() == ".open") return p;
  }
  ADD_FAILURE() << "no active segment in " << dir;
  return {};
}

TEST(FlowJournalRejects, ConfigFingerprintMismatchIsReportedInHealth) {
  TempDir dir("poc_run_reject_config");
  complete_journaled_run(dir.path);

  FlowOptions opts = journaled_options(1, dir.path);
  opts.seed = 43;  // any config change invalidates the journal wholesale
  PostOpcFlow flow(design(), lib(), LithoSimulator{}, opts);
  EXPECT_EQ(flow.journal_stats().loaded_records, 0u);
  const FlowHealth h = flow.health();
  ASSERT_FALSE(h.faults.empty());
  bool saw_mismatch = false;
  for (const FlowHealth::WindowFault& f : h.faults) {
    if (f.phase == "journal" && f.code == FaultCode::kJournalMismatch) {
      saw_mismatch = true;
    }
  }
  EXPECT_TRUE(saw_mismatch);
  // The run itself proceeds on recompute: no replay, correct results.
  flow.run_opc(OpcMode::kModelBased);
  EXPECT_EQ(flow.journal_stats().replayed_hits, 0u);
}

TEST(FlowJournalRejects, TruncatedTailIsReportedAndTimingUnaffected) {
  TempDir dir("poc_run_reject_trunc");
  complete_journaled_run(dir.path);
  const fs::path active = active_segment(dir.path);
  ASSERT_FALSE(active.empty());
  fs::resize_file(active, fs::file_size(active) - 5);

  PostOpcFlow flow(design(), lib(), LithoSimulator{},
                   journaled_options(1, dir.path));
  const FlowHealth h0 = flow.health();
  bool saw_mismatch = false;
  for (const FlowHealth::WindowFault& f : h0.faults) {
    if (f.phase == "journal" && f.code == FaultCode::kJournalMismatch) {
      saw_mismatch = true;
    }
  }
  EXPECT_TRUE(saw_mismatch) << "torn tail must be reported, not skipped";
  EXPECT_GE(flow.journal_stats().rejected_records, 1u);

  // Annotated timing is still bit-identical: the torn record is simply
  // recomputed.
  flow.run_opc(OpcMode::kModelBased);
  const TimingComparison cmp = flow.compare_timing({});
  EXPECT_EQ(cmp.annotated.worst_slack, reference_cmp().annotated.worst_slack);
  EXPECT_EQ(cmp.worst_slack_change_pct, reference_cmp().worst_slack_change_pct);
}

TEST(FlowJournalRejects, BitFlippedRecordIsReportedAndTimingUnaffected) {
  TempDir dir("poc_run_reject_flip");
  complete_journaled_run(dir.path);
  const fs::path active = active_segment(dir.path);
  ASSERT_FALSE(active.empty());
  {
    std::fstream f(active, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size - 24);
    char byte = 0x55;
    f.write(&byte, 1);
  }

  PostOpcFlow flow(design(), lib(), LithoSimulator{},
                   journaled_options(4, dir.path));
  bool saw_mismatch = false;
  for (const FlowHealth::WindowFault& f : flow.health().faults) {
    if (f.phase == "journal" && f.code == FaultCode::kJournalMismatch) {
      saw_mismatch = true;
    }
  }
  EXPECT_TRUE(saw_mismatch);

  flow.run_opc(OpcMode::kModelBased);
  const TimingComparison cmp = flow.compare_timing({});
  EXPECT_EQ(cmp.annotated.worst_slack, reference_cmp().annotated.worst_slack);
  EXPECT_EQ(cmp.annotated.total_leakage_ua,
            reference_cmp().annotated.total_leakage_ua);
}

// ---------------------------------------------------------------------------
// Sharded multi-process runs: partitioning, worker-journal merge, failure
// containment, and the bit-identity contract across worker counts.

TEST(ShardPartition, EveryIndexOwnedByExactlyOneShard) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
      for (const ShardPolicy policy :
           {ShardPolicy::kContiguous, ShardPolicy::kInterleaved}) {
        const std::vector<ShardSpec> shards =
            partition_shards(n, workers, policy);
        ASSERT_EQ(shards.size(), workers);
        std::vector<int> owners(n, 0);
        for (const ShardSpec& s : shards) {
          for (const std::size_t i : shard_indices(s)) {
            ASSERT_LT(i, n);
            ++owners[i];
            EXPECT_TRUE(shard_owns(s, i));
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(owners[i], 1)
              << "index " << i << " n=" << n << " workers=" << workers
              << " policy=" << shard_policy_name(policy);
          // shard_owns must agree with shard_indices for every shard.
          int claims = 0;
          for (const ShardSpec& s : shards) claims += shard_owns(s, i) ? 1 : 0;
          EXPECT_EQ(claims, 1);
        }
      }
    }
  }
}

TEST(ShardPartition, ContiguousShardSizesDifferByAtMostOne) {
  const std::vector<ShardSpec> shards =
      partition_shards(10, 4, ShardPolicy::kContiguous);
  std::size_t min_sz = 10, max_sz = 0;
  for (const ShardSpec& s : shards) {
    const std::size_t sz = static_cast<std::size_t>(s.hi - s.lo);
    min_sz = std::min(min_sz, sz);
    max_sz = std::max(max_sz, sz);
  }
  EXPECT_LE(max_sz - min_sz, 1u);
}

JournalRecord synth_record(JournalPhase phase, std::uint64_t index,
                           std::uint64_t salt) {
  JournalRecord rec;
  rec.phase = phase;
  rec.index = index;
  rec.fp.hi = 0x5EED5EED00000000ull + salt;
  rec.fp.lo = index * 1315423911ull + salt;
  rec.payload.assign(24 + index % 7,
                     static_cast<std::uint8_t>(index * 31 + salt));
  return rec;
}

TEST(ShardMerge, ShuffledArrivalsMergeInGlobalWindowOrderAndDedup) {
  TempDir dir("poc_shard_merge_order");
  Fingerprint cfg;
  cfg.hi = 0xC0FFEEull;
  cfg.lo = 42;

  // Workers journal records in whatever order their threads finished; the
  // merge must impose (phase, global window index) order regardless.  The
  // two workers also overlap on one fingerprint (a window both computed):
  // dedup is first-insert-wins, same as the in-memory cache.
  const std::vector<JournalRecord> w0 = {
      synth_record(JournalPhase::kOpc, 4, 0),
      synth_record(JournalPhase::kOpc, 0, 0),
      synth_record(JournalPhase::kExtract, 2, 0),
  };
  const std::vector<JournalRecord> w1 = {
      synth_record(JournalPhase::kOpc, 3, 1),
      synth_record(JournalPhase::kOpc, 1, 1),
      synth_record(JournalPhase::kOpc, 4, 0),  // duplicate of w0's first
  };
  const std::vector<WorkerJournal> journals = {
      {0, (dir.path / "w00").string()}, {1, (dir.path / "w01").string()}};
  for (const WorkerJournal& wj : journals) {
    JournalOptions opts;
    opts.enabled = true;
    opts.path = wj.dir;
    RunJournal journal(opts, cfg);
    for (const JournalRecord& rec : wj.worker == 0 ? w0 : w1) {
      EXPECT_TRUE(journal.append(rec));
    }
  }
  const auto before0 = dir_snapshot(journals[0].dir);
  const auto before1 = dir_snapshot(journals[1].dir);

  const MergeResult merge = merge_worker_journals(journals, cfg);
  EXPECT_EQ(merge.duplicate_records, 1u);
  ASSERT_EQ(merge.records.size(), 5u);
  ASSERT_EQ(merge.workers.size(), 2u);
  for (const WorkerSegmentOutcome& wo : merge.workers) {
    EXPECT_TRUE(wo.found);
    EXPECT_EQ(wo.records, 3u);
    EXPECT_TRUE(wo.issues.empty());
  }
  for (std::size_t i = 1; i < merge.records.size(); ++i) {
    const JournalRecord& a = merge.records[i - 1];
    const JournalRecord& b = merge.records[i];
    const bool ordered =
        a.phase < b.phase || (a.phase == b.phase && a.index <= b.index);
    EXPECT_TRUE(ordered) << "merge order violated at record " << i;
  }
  // OPC windows 0,1,3,4 then the extraction record — global index order
  // inside each phase, exactly what the single-process merge step emits.
  EXPECT_EQ(merge.records[0].index, 0u);
  EXPECT_EQ(merge.records[1].index, 1u);
  EXPECT_EQ(merge.records[2].index, 3u);
  EXPECT_EQ(merge.records[3].index, 4u);
  EXPECT_EQ(merge.records[4].phase, JournalPhase::kExtract);
  EXPECT_EQ(merge.records[1].payload, w1[1].payload);

  // Merging only reads: both journals are byte-identical afterwards, their
  // active segments still unsealed.
  EXPECT_EQ(dir_snapshot(journals[0].dir), before0);
  EXPECT_EQ(dir_snapshot(journals[1].dir), before1);
}

TEST(DiskCacheStore, ConcurrentPublishIsFirstInsertWins) {
  TempDir dir("poc_disk_store_race");
  Fingerprint fp;
  fp.hi = 0xD15C0000ull;
  fp.lo = 77;
  const std::vector<std::uint8_t> first(256, 0xAA);
  const std::vector<std::uint8_t> second(256, 0xBB);

  // Sequential: the second publish of a fingerprint loses and the winner's
  // bytes stay — entries are immutable once published.
  {
    DiskCacheStore store((dir.path / "seq").string());
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE(store.put(fp, first.data(), first.size()));
    EXPECT_FALSE(store.put(fp, second.data(), second.size()));
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(store.get(fp, &got));
    EXPECT_EQ(got, first);
    EXPECT_EQ(store.counters().publishes, 1u);
    EXPECT_EQ(store.counters().races_lost, 1u);
  }

  // Two writers racing on one fingerprint: exactly one entry appears,
  // whole, and the loser is accounted — never torn, never replaced.
  for (int round = 0; round < 8; ++round) {
    DiskCacheStore store((dir.path / ("race" + std::to_string(round))).string());
    ASSERT_TRUE(store.ok());
    std::atomic<int> wins{0};
    std::thread a([&] {
      if (store.put(fp, first.data(), first.size())) wins.fetch_add(1);
    });
    std::thread b([&] {
      if (store.put(fp, second.data(), second.size())) wins.fetch_add(1);
    });
    a.join();
    b.join();
    EXPECT_EQ(wins.load(), 1);
    const DiskCacheStore::Counters c = store.counters();
    EXPECT_EQ(c.publishes, 1u);
    EXPECT_EQ(c.races_lost, 1u);
    EXPECT_EQ(c.io_errors, 0u);
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(store.get(fp, &got));
    EXPECT_TRUE(got == first || got == second) << "entry must be whole";
  }

  // Two stores on one directory — in-process shard workers share their
  // cache directory this way — racing on one fingerprint: the same one
  // winner, and no temp file is left behind.
  for (int round = 0; round < 8; ++round) {
    const fs::path shared = dir.path / ("shared" + std::to_string(round));
    DiskCacheStore store_a(shared.string());
    DiskCacheStore store_b(shared.string());
    ASSERT_TRUE(store_a.ok() && store_b.ok());
    std::atomic<int> wins{0};
    std::thread a([&] {
      if (store_a.put(fp, first.data(), first.size())) wins.fetch_add(1);
    });
    std::thread b([&] {
      if (store_b.put(fp, second.data(), second.size())) wins.fetch_add(1);
    });
    a.join();
    b.join();
    EXPECT_EQ(wins.load(), 1);
    const DiskCacheStore::Counters ca = store_a.counters();
    const DiskCacheStore::Counters cb = store_b.counters();
    EXPECT_EQ(ca.publishes + cb.publishes, 1u);
    EXPECT_EQ(ca.races_lost + cb.races_lost, 1u);
    EXPECT_EQ(ca.io_errors + cb.io_errors, 0u);
    std::vector<std::uint8_t> got_a;
    std::vector<std::uint8_t> got_b;
    ASSERT_TRUE(store_a.get(fp, &got_a));
    ASSERT_TRUE(store_b.get(fp, &got_b));
    EXPECT_EQ(got_a, got_b);
    EXPECT_TRUE(got_a == first || got_a == second) << "entry must be whole";
    EXPECT_EQ(journal_files(shared).size(), 1u) << "only the entry remains";
  }
}

TEST(ShardFlow, InProcessWorkersBitIdenticalAcrossWorkerCounts) {
  // worker_command unset runs every worker on its own thread — the same
  // shard/journal/merge machinery as fork/exec, and the leg TSan covers.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    TempDir dir("poc_shard_inproc_" + std::to_string(workers));
    ShardFlowOptions so;
    so.workers = workers;
    so.work_dir = dir.path.string();
    const ShardFlowResult result = run_sharded_flow(
        design(), lib(), LithoSimulator{}, run_flow_options(2), so);
    expect_same_comparison(result.comparison, reference_cmp());
    EXPECT_TRUE(result.comparison.health.clean());
    EXPECT_TRUE(result.shard_health.faults.empty());
    EXPECT_EQ(result.residual_windows, 0u)
        << "a clean run must replay every window from the merged journal";
    EXPECT_EQ(result.merge.duplicate_records, 0u);
    ASSERT_EQ(result.merge.workers.size(), workers);
    for (const WorkerSegmentOutcome& wo : result.merge.workers) {
      EXPECT_TRUE(wo.found);
      EXPECT_TRUE(wo.issues.empty()) << "worker " << wo.worker;
      EXPECT_GT(wo.records, 0u);
    }
    // The worker journals are the only per-worker records: no segment
    // copies beside the stats files.
    for (const fs::path& p : journal_files(dir.path)) {
      const std::string name = p.filename().string();
      EXPECT_FALSE(name.rfind("run.w", 0) == 0 && p.extension() == ".seg")
          << name;
    }
  }
}

TEST(ShardFlow, InterleavedPolicyMatchesContiguous) {
  TempDir dir("poc_shard_interleaved");
  ShardFlowOptions so;
  so.workers = 2;
  so.policy = ShardPolicy::kInterleaved;
  so.work_dir = dir.path.string();
  const ShardFlowResult result = run_sharded_flow(
      design(), lib(), LithoSimulator{}, run_flow_options(1), so);
  expect_same_comparison(result.comparison, reference_cmp());
  EXPECT_TRUE(result.shard_health.faults.empty());
  EXPECT_EQ(result.residual_windows, 0u);
}

TEST(ShardFlow, SharedDiskCachePublishesWindowEntries) {
  TempDir dir("poc_shard_diskcache");
  FlowOptions base = run_flow_options(2);
  base.cache.enabled = true;  // the disk tier hangs off the window caches
  ShardFlowOptions so;
  so.workers = 2;
  so.work_dir = dir.path.string();
  const ShardFlowResult result =
      run_sharded_flow(design(), lib(), LithoSimulator{}, base, so);
  expect_same_comparison(result.comparison, reference_cmp());
  // Workers spilled completed windows into the shared content-addressed
  // store under <work_dir>/cache — that is what a second worker (or a
  // rerun) hits instead of recomputing.
  EXPECT_TRUE(fs::exists(dir.path / "cache" / "opc"));
  EXPECT_FALSE(fs::is_empty(dir.path / "cache" / "opc"));
}

TEST(ShardFlow, TornWorkerSegmentRecomputesResidualBitIdentical) {
  TempDir dir("poc_shard_torn_residual");
  const std::vector<ShardSpec> shards = partition_shards(
      design().layout.num_instances(), 2, ShardPolicy::kContiguous);
  for (const ShardSpec& spec : shards) {
    ShardWorkerOptions wo;
    wo.spec = spec;
    wo.work_dir = dir.path.string();
    ASSERT_TRUE(run_shard_worker(design(), lib(), LithoSimulator{},
                                 run_flow_options(2), wo));
  }

  // Tear worker 1's active journal segment mid-frame: the worker died in
  // the middle of its last append.
  const fs::path journal1 =
      fs::path(shard_worker_dir(dir.path.string(), 1)) / "journal";
  fs::path active;
  for (const fs::path& p : journal_files(journal1)) {
    if (p.extension() == ".open") active = p;
  }
  ASSERT_FALSE(active.empty());
  fs::resize_file(active, fs::file_size(active) - 7);
  const std::uintmax_t torn_size = fs::file_size(active);
  const auto before = dir_snapshot(journal1);

  Fingerprint config_fp;
  {
    PostOpcFlow probe(design(), lib(), LithoSimulator{}, run_flow_options(1));
    config_fp = probe.config_fingerprint();
  }
  const std::vector<WorkerJournal> journals = {
      {0, shard_worker_dir(dir.path.string(), 0) + "/journal"},
      {1, journal1.string()}};
  const MergeResult merge = merge_worker_journals(journals, config_fp);
  ASSERT_EQ(merge.workers.size(), 2u);
  EXPECT_TRUE(merge.workers[0].issues.empty());
  ASSERT_FALSE(merge.workers[1].issues.empty()) << "the tear must be reported";
  EXPECT_NE(merge.workers[1].issues[0].detail.find("truncated"),
            std::string::npos);
  EXPECT_GT(merge.workers[1].records, 0u)
      << "the valid prefix must survive the tear";
  // The coordinator reads, never seals: the torn file is left as it was
  // for the worker's own next reopen to truncate.
  EXPECT_EQ(fs::file_size(active), torn_size);
  EXPECT_EQ(dir_snapshot(journal1), before);

  std::string error;
  ASSERT_TRUE(journal_io::write_sealed_segment(
      (dir.path / "merged").string(), 1, config_fp, merge.records, &error))
      << error;
  PostOpcFlow fin(design(), lib(), LithoSimulator{},
                  journaled_options(2, dir.path / "merged"));
  fin.run_opc(OpcMode::kModelBased);
  const TimingComparison cmp = fin.compare_timing({});
  expect_same_comparison(cmp, reference_cmp());
  EXPECT_TRUE(cmp.health.clean());
  const RunJournal::Stats s = fin.journal_stats();
  EXPECT_GT(s.replayed_hits, 0u) << "surviving records must replay";
  EXPECT_GT(s.appended_records, 0u)
      << "the torn-off windows must recompute as residual work";

  // Losing the journal entirely (the worker never started) degrades
  // further but stays bit-identical: the missing directory is one
  // kJournalIo issue, and every one of that worker's windows becomes
  // residual work.
  fs::remove_all(dir.path / "w01");
  const MergeResult merge2 = merge_worker_journals(journals, config_fp);
  EXPECT_FALSE(merge2.workers[1].found);
  EXPECT_EQ(merge2.workers[1].records, 0u);
  ASSERT_EQ(merge2.workers[1].issues.size(), 1u);
  EXPECT_EQ(merge2.workers[1].issues[0].code, FaultCode::kJournalIo);
  EXPECT_FALSE(fs::exists(dir.path / "w01")) << "the reader creates nothing";
  EXPECT_LT(merge2.records.size(), merge.records.size());
  ASSERT_TRUE(journal_io::write_sealed_segment(
      (dir.path / "merged2").string(), 1, config_fp, merge2.records, &error))
      << error;
  PostOpcFlow fin2(design(), lib(), LithoSimulator{},
                   journaled_options(1, dir.path / "merged2"));
  fin2.run_opc(OpcMode::kModelBased);
  expect_same_comparison(fin2.compare_timing({}), reference_cmp());
  EXPECT_GE(fin2.journal_stats().appended_records,
            s.appended_records);
}

// ---------------------------------------------------------------------------
// PR 10: self-healing sharded runs + injectable I/O faults

TEST(ShardResidual, ResidualPartitionCoversResidueExactlyOnce) {
  // Contiguous dead shard [20,60): the residual [33,60) re-partitioned
  // across two fresh worker ids covers each residual index exactly once
  // (sorted-equal against the expected set rules out both gaps and
  // overlaps), nothing outside the range.
  ShardSpec dead;
  dead.worker = 1;
  dead.workers = 3;
  dead.policy = ShardPolicy::kContiguous;
  dead.lo = 20;
  dead.hi = 60;
  {
    const std::vector<ShardSpec> subs =
        partition_residual_range(dead, 33, 60, {5, 6});
    ASSERT_EQ(subs.size(), 2u);
    std::vector<std::size_t> covered;
    for (const ShardSpec& sub : subs) {
      EXPECT_EQ(sub.policy, dead.policy);
      const std::vector<std::size_t> idx = shard_indices(sub);
      EXPECT_FALSE(idx.empty()) << "empty sub-shards must be dropped";
      covered.insert(covered.end(), idx.begin(), idx.end());
    }
    std::sort(covered.begin(), covered.end());
    std::vector<std::size_t> expected;
    for (std::size_t i = 33; i < 60; ++i) expected.push_back(i);
    EXPECT_EQ(covered, expected);
  }

  // Interleaved: the sub-shards keep walking the dead worker's stride and
  // residue class even though their own worker ids differ.
  ShardSpec idead;
  idead.worker = 1;
  idead.workers = 4;
  idead.policy = ShardPolicy::kInterleaved;
  idead.lo = 0;
  idead.hi = 101;
  {
    const std::vector<ShardSpec> subs =
        partition_residual_range(idead, 40, 101, {4, 5, 6});
    ASSERT_FALSE(subs.empty());
    std::vector<std::size_t> covered;
    for (const ShardSpec& sub : subs) {
      EXPECT_EQ(shard_residue_class(sub), 1u)
          << "sub-shards must keep the dead worker's residue class";
      const std::vector<std::size_t> idx = shard_indices(sub);
      covered.insert(covered.end(), idx.begin(), idx.end());
    }
    std::sort(covered.begin(), covered.end());
    std::vector<std::size_t> expected;
    for (std::size_t i = 40; i < 101; ++i) {
      if (i % 4 == 1) expected.push_back(i);
    }
    EXPECT_EQ(covered, expected);
  }

  // An empty residual range needs no sub-shards.
  EXPECT_TRUE(partition_residual_range(dead, 42, 42, {9}).empty());
}

TEST(ShardStats, TornStatsFilesClassifyInsteadOfFailing) {
  TempDir dir("poc_shard_stats_torn");
  const auto write_file = [&](const std::string& name,
                              const std::string& content) {
    std::ofstream out(dir.path / name, std::ios::binary);
    out << content;
    return (dir.path / name).string();
  };

  // Missing file: absent, nothing else claimed.
  EXPECT_FALSE(parse_shard_stats((dir.path / "none").string()).present);

  // Heartbeats only — a worker killed mid-run: present, not complete, the
  // highest heartbeat survives.
  const ShardWorkerStats hb =
      parse_shard_stats(write_file("hb_only", "hb 0\nhb 4\nhb 9\n"));
  EXPECT_TRUE(hb.present);
  EXPECT_FALSE(hb.complete);
  EXPECT_EQ(hb.last_heartbeat, 9u);

  // A file torn mid-write with no newline at all parses as present/empty.
  const ShardWorkerStats torn_head = parse_shard_stats(write_file("torn0", "hb"));
  EXPECT_TRUE(torn_head.present);
  EXPECT_EQ(torn_head.last_heartbeat, 0u);

  // Torn final block: the un-newline-terminated tail line is dropped, a
  // malformed value line is skipped, everything before still parses.
  const ShardWorkerStats torn = parse_shard_stats(write_file(
      "torn1",
      "hb 3\nworker 1\nwindows 17\nbogus notanumber\nwall_ms 12.5\nrecords 2"));
  EXPECT_TRUE(torn.present);
  EXPECT_FALSE(torn.complete) << "no insertions line = no complete block";
  EXPECT_EQ(torn.worker, 1u);
  EXPECT_EQ(torn.windows, 17u);
  EXPECT_DOUBLE_EQ(torn.wall_ms, 12.5);
  EXPECT_EQ(torn.records, 0u) << "the torn tail line must be dropped";
  EXPECT_EQ(torn.last_heartbeat, 3u);

  // Complete block: every field lands, heartbeat lines coexist.
  const ShardWorkerStats full = parse_shard_stats(write_file(
      "full",
      "hb 2\nworker 3\nwindows 10\ngates 5\nrecords 15\nwall_ms 3.25\n"
      "maxrss_kb 1000\nmem_hits 1\ndisk_hits 2\nmisses 4\ninsertions 6\n"));
  EXPECT_TRUE(full.present);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.worker, 3u);
  EXPECT_EQ(full.windows, 10u);
  EXPECT_EQ(full.gates, 5u);
  EXPECT_EQ(full.records, 15u);
  EXPECT_DOUBLE_EQ(full.wall_ms, 3.25);
  EXPECT_EQ(full.maxrss_kb, 1000u);
  EXPECT_EQ(full.mem_hits, 1u);
  EXPECT_EQ(full.disk_hits, 2u);
  EXPECT_EQ(full.misses, 4u);
  EXPECT_EQ(full.insertions, 6u);
}

// TSan stretches a window's wall time 5-20x, and on a single-vCPU gate a
// no-progress timeout that is comfortable natively will stall-kill
// *healthy* workers mid-window.  The injected stall stays silent forever,
// so a longer timeout only delays detection — it can never miss it.
#if defined(__SANITIZE_THREAD__)
#define POC_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POC_TSAN_BUILD 1
#endif
#endif
#ifndef POC_TSAN_BUILD
#define POC_TSAN_BUILD 0
#endif
constexpr std::uint64_t kSelfHealTimeoutMs = POC_TSAN_BUILD ? 20000 : 2500;

TEST(ShardSelfHeal, StalledWorkerDetectedRespawnedResumesBitIdentical) {
  // A worker that hangs mid-run (deterministic stall hook after its first
  // journal append) must be detected via its silent heartbeat channel,
  // killed, and respawned; the respawn resumes from the sealed private
  // journal and the whole run stays bit-identical to the unfaulted
  // single-worker reference — at 2 and at 4 workers.
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    TempDir dir("poc_shard_selfheal_" + std::to_string(workers));
    ShardFlowOptions so;
    so.workers = workers;
    so.work_dir = dir.path.string();
    so.watchdog.enabled = true;
    so.watchdog.no_progress_timeout_ms = kSelfHealTimeoutMs;
    so.watchdog.poll_interval_ms = 25;
    so.watchdog.max_respawns = 3;
    so.watchdog.backoff_initial_ms = 10;
    so.watchdog.backoff_max_ms = 50;
    so.stall_worker = 0;
    so.stall_after_appends = 1;
    so.stall_once = true;  // the respawned attempt completes

    const ShardFlowResult result = run_sharded_flow(
        design(), lib(), LithoSimulator{}, run_flow_options(1), so);

    expect_same_comparison(result.comparison, reference_cmp());
    EXPECT_TRUE(result.comparison.health.clean())
        << "shard interventions must never leak into the comparison";
    for (const WorkerExit& ex : result.exits) {
      EXPECT_TRUE(ex.ok()) << "worker " << ex.worker;
    }
    EXPECT_EQ(result.redistributed_windows, 0u)
        << "a successful respawn needs no redistribution";

    std::size_t stall_kills = 0;
    std::size_t respawns = 0;
    for (const WorkerIntervention& iv : result.interventions) {
      if (iv.worker != 0) continue;
      stall_kills += iv.kind == WorkerIntervention::Kind::kStallKilled;
      respawns += iv.kind == WorkerIntervention::Kind::kRespawned;
    }
    EXPECT_GE(stall_kills, 1u);
    EXPECT_GE(respawns, 1u);

    bool stall_reported = false;
    for (const FlowHealth::WindowFault& f : result.shard_health.faults) {
      EXPECT_EQ(f.phase, "shard");
      EXPECT_FALSE(f.degraded);
      if (f.index == 0 && f.code == FaultCode::kStalled && f.recovered) {
        stall_reported = true;
      }
    }
    EXPECT_TRUE(stall_reported)
        << "the healed stall must surface as a recovered kStalled fault";

    ASSERT_EQ(result.worker_stats.size(), workers);
    for (const ShardWorkerStats& stats : result.worker_stats) {
      EXPECT_TRUE(stats.present);
      EXPECT_TRUE(stats.complete);
    }
  }
}

TEST(ShardSelfHeal, RetriesExhaustedRedistributeResidualAcrossSurvivors) {
  // A worker that stalls on every attempt burns its respawn budget; the
  // coordinator then re-partitions its unfinished window range across
  // fresh sub-shards run by surviving capacity — and the result is still
  // bit-identical.
  TempDir dir("poc_shard_redistribute");
  ShardFlowOptions so;
  so.workers = 2;
  so.work_dir = dir.path.string();
  so.watchdog.enabled = true;
  so.watchdog.no_progress_timeout_ms = kSelfHealTimeoutMs;
  so.watchdog.poll_interval_ms = 25;
  so.watchdog.max_respawns = 1;
  so.watchdog.backoff_initial_ms = 10;
  so.watchdog.backoff_max_ms = 50;
  so.stall_worker = 0;
  so.stall_after_appends = 1;
  so.stall_once = false;  // re-stall every attempt: the budget must run out

  const ShardFlowResult result = run_sharded_flow(
      design(), lib(), LithoSimulator{}, run_flow_options(1), so);

  expect_same_comparison(result.comparison, reference_cmp());
  EXPECT_GT(result.redistributed_windows, 0u);

  // Worker 0's final exit failed; the redistribution sub-shard (id >= 2)
  // ran and completed.
  ASSERT_GE(result.exits.size(), 3u);
  bool w0_failed = false;
  bool sub_shard_ok = false;
  for (const WorkerExit& ex : result.exits) {
    if (ex.worker == 0) w0_failed = !ex.ok();
    if (ex.worker >= 2 && ex.ok()) sub_shard_ok = true;
  }
  EXPECT_TRUE(w0_failed);
  EXPECT_TRUE(sub_shard_ok);

  std::size_t stall_kills = 0;
  std::size_t respawns = 0;
  std::size_t exhausted = 0;
  for (const WorkerIntervention& iv : result.interventions) {
    if (iv.worker != 0) continue;
    stall_kills += iv.kind == WorkerIntervention::Kind::kStallKilled;
    respawns += iv.kind == WorkerIntervention::Kind::kRespawned;
    exhausted += iv.kind == WorkerIntervention::Kind::kRetriesExhausted;
  }
  EXPECT_GE(stall_kills, 2u) << "both attempts must be stall-killed";
  EXPECT_GE(respawns, 1u);
  EXPECT_EQ(exhausted, 1u);

  bool redistribution_reported = false;
  for (const FlowHealth::WindowFault& f : result.shard_health.faults) {
    if (f.index == 0 && f.code == FaultCode::kStalled && f.recovered &&
        f.origin.find("redistributed") != std::string::npos) {
      redistribution_reported = true;
    }
  }
  EXPECT_TRUE(redistribution_reported);

  // Positional stats: two originals plus the sub-shard(s).
  EXPECT_GT(result.worker_stats.size(), 2u);
}

TEST(FlowJournalFaults, StickyEnospcKeepsResultsLosesDurabilityOnly) {
  // Every journal write fails with ENOSPC for the whole run: the flow must
  // complete bit-identically (the journal is a pure durability layer) and
  // report the lost durability as a degraded phase-"journal" health entry.
  TempDir dir("poc_run_journal_enospc");
  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back(
      {fault::Kind::kIoEnospc, fault::Domain::kJournalIo, fault::kAnyIndex});
  fault::configure(cfg);
  TimingComparison cmp;
  FlowHealth health;
  {
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     journaled_options(2, dir.path));
    flow.run_opc(OpcMode::kModelBased);
    cmp = flow.compare_timing({});
    health = flow.health();
  }
  fault::reset();

  expect_same_comparison(cmp, reference_cmp());
  EXPECT_TRUE(cmp.health.degraded_gates.empty());
  bool reported = false;
  for (const FlowHealth::WindowFault& f : health.faults) {
    if (f.phase == "journal" && f.code == FaultCode::kJournalIo &&
        f.degraded) {
      reported = true;
    }
  }
  EXPECT_TRUE(reported)
      << "an undurable run must carry a degraded journal health entry";

  // Whatever the failed appends left on disk must not mislead a later run:
  // it replays what is valid, recomputes the rest, same bits.
  PostOpcFlow again(design(), lib(), LithoSimulator{},
                    journaled_options(1, dir.path));
  again.run_opc(OpcMode::kModelBased);
  expect_same_comparison(again.compare_timing({}), reference_cmp());
}

TEST(FlowCacheFaults, DiskTierEioDegradesToMemoryTierBitIdentical) {
  // EIO on the first disk-cache publish takes the disk tier down; the
  // memory tier keeps serving alone.  Results and the memory-tier cache
  // accounting must be exactly those of a run that never had a disk tier.
  TempDir dir("poc_run_cache_eio");
  FlowOptions mem = run_flow_options(1);
  mem.cache.enabled = true;
  PostOpcFlow memory_only(design(), lib(), LithoSimulator{}, mem);
  memory_only.run_opc(OpcMode::kModelBased);
  const TimingComparison mem_cmp = memory_only.compare_timing({});

  FlowOptions dsk = run_flow_options(1);
  dsk.cache.enabled = true;
  dsk.cache.disk_path = (dir.path / "cache").string();
  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back(
      {fault::Kind::kIoEio, fault::Domain::kDiskCacheIo, fault::kAnyIndex});
  fault::configure(cfg);
  PostOpcFlow faulted(design(), lib(), LithoSimulator{}, dsk);
  faulted.run_opc(OpcMode::kModelBased);
  const TimingComparison fault_cmp = faulted.compare_timing({});
  const FlowHealth health = faulted.health();
  fault::reset();

  expect_same_comparison(fault_cmp, reference_cmp());
  expect_same_comparison(fault_cmp, mem_cmp);

  const PostOpcFlow::FlowCacheCounters cm = memory_only.cache_counters();
  const PostOpcFlow::FlowCacheCounters cf = faulted.cache_counters();
  const auto expect_same_counters = [](const CacheCounters& a,
                                       const CacheCounters& b,
                                       const char* which) {
    EXPECT_EQ(a.hits, b.hits) << which;
    EXPECT_EQ(a.misses, b.misses) << which;
    EXPECT_EQ(a.insertions, b.insertions) << which;
    EXPECT_EQ(a.disk_hits, 0u) << which
                               << ": a downed tier must serve nothing";
  };
  expect_same_counters(cf.opc, cm.opc, "opc");
  expect_same_counters(cf.latent, cm.latent, "latent");
  expect_same_counters(cf.orc, cm.orc, "orc");

  bool cache_fault = false;
  for (const FlowHealth::WindowFault& f : health.faults) {
    if (f.phase == "cache" && f.code == FaultCode::kCacheIo) {
      cache_fault = true;
    }
  }
  EXPECT_TRUE(cache_fault)
      << "the tier-down must surface as a phase-\"cache\" health entry";
}

TEST(SupervisorSignals, ForwardsFirstSignalAndEscalatesRepeats) {
  // Leg 1: one SIGTERM is forwarded to every live worker; default-handler
  // workers die by that signal, nothing escalates.
  {
    std::vector<WorkerCommand> cmds;
    // exec: the signals must reach sleep itself, not a shell that forked
    // it (an orphaned sleep would outlive the test and hold ctest's pipe).
    cmds.push_back({0, {"/bin/sh", "-c", "exec sleep 30"}});
    cmds.push_back({1, {"/bin/sh", "-c", "exec sleep 30"}});
    SupervisorOptions so;
    so.watchdog = true;
    so.no_progress_timeout_ms = 600000;  // the watchdog must stay out
    so.poll_interval_ms = 10;
    so.max_respawns = 0;
    so.forward_signals = true;
    std::atomic<int> probes{0};
    so.progress = [&probes](std::uint32_t) -> std::uint64_t {
      // The probe doubles as a deterministic tick source: a few ticks in
      // (workers long since spawned), the "user" hits ctrl-C once.
      if (probes.fetch_add(1) == 6) (void)std::raise(SIGTERM);
      return 1;
    };
    const SupervisionResult r = supervise_worker_processes(cmds, so);
    EXPECT_EQ(r.forwarded_signal, SIGTERM);
    ASSERT_EQ(r.exits.size(), 2u);
    for (const WorkerExit& ex : r.exits) {
      EXPECT_TRUE(ex.spawned);
      EXPECT_EQ(ex.signal, SIGTERM) << "worker " << ex.worker;
    }
    std::size_t forwarded = 0;
    std::size_t escalated = 0;
    for (const WorkerIntervention& iv : r.interventions) {
      forwarded += iv.kind == WorkerIntervention::Kind::kSignalForwarded;
      escalated += iv.kind == WorkerIntervention::Kind::kSignalEscalated;
    }
    EXPECT_EQ(forwarded, 2u);
    EXPECT_EQ(escalated, 0u);
  }

  // Leg 2: a TERM-immune worker ignores the forwarded signal; the second
  // signal escalates to SIGKILL.  Back-to-back raises must escalate in
  // steps, not collapse into one delivery.
  {
    std::vector<WorkerCommand> cmds;
    // An ignored disposition survives exec, so sleep stays TERM-immune.
    cmds.push_back({0, {"/bin/sh", "-c", "trap '' TERM; exec sleep 30"}});
    SupervisorOptions so;
    so.watchdog = true;
    so.no_progress_timeout_ms = 600000;
    so.poll_interval_ms = 10;
    so.max_respawns = 0;
    so.forward_signals = true;
    std::atomic<int> probes{0};
    so.progress = [&probes](std::uint32_t) -> std::uint64_t {
      if (probes.fetch_add(1) == 6) {
        (void)std::raise(SIGTERM);
        (void)std::raise(SIGTERM);
      }
      return 1;
    };
    const SupervisionResult r = supervise_worker_processes(cmds, so);
    EXPECT_EQ(r.forwarded_signal, SIGTERM);
    ASSERT_EQ(r.exits.size(), 1u);
    EXPECT_EQ(r.exits[0].signal, SIGKILL);
    std::size_t forwarded = 0;
    std::size_t escalated = 0;
    for (const WorkerIntervention& iv : r.interventions) {
      forwarded += iv.kind == WorkerIntervention::Kind::kSignalForwarded;
      escalated += iv.kind == WorkerIntervention::Kind::kSignalEscalated;
    }
    EXPECT_EQ(forwarded, 1u);
    EXPECT_EQ(escalated, 1u);
  }
}

}  // namespace
}  // namespace poc
