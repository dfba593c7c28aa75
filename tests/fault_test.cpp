// Fault containment tests: the structured error channel (Expected /
// FlowError / capture_flow_error), the deterministic fault-injection
// harness (src/common/fault.h), the error-capturing parallel loop, and the
// flow-level retry/degrade policy reported through FlowHealth.
//
// The injection harness keys decisions off (seed, kind, domain, index),
// never thread id or call order, so every containment assertion below is
// made at 1 *and* 4 threads and expects bit-identical outcomes —
// EXPECT_EQ on doubles is deliberate, as in determinism_test.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <ios>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/error.h"
#include "src/common/fault.h"
#include "src/common/vfs.h"
#include "src/core/flow.h"
#include "src/netlist/generators.h"
#include "src/par/thread_pool.h"

namespace poc {
namespace {

namespace fs = std::filesystem;

/// Installs a fault plan for the enclosing scope and always cleans up, so
/// a failing assertion cannot leak an active plan into the next test.
struct ScopedFault {
  explicit ScopedFault(const fault::Config& cfg) { fault::configure(cfg); }
  ~ScopedFault() { fault::reset(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

// ---------------------------------------------------------------------------
// Expected<T> / capture_flow_error unit tests

TEST(Expected, HoldsValueOrError) {
  Expected<int> ok = 42;
  EXPECT_TRUE(ok.has_value());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);

  Expected<int> bad = FlowError{FaultCode::kMeasurement, 3, "test.site", "m"};
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, FaultCode::kMeasurement);
  EXPECT_EQ(bad.error().window, 3u);
  EXPECT_EQ(bad.error().origin, "test.site");
  EXPECT_EQ(bad.value_or(7), 7);
  // Value access on an error state is a contract violation, not UB.
  EXPECT_THROW(bad.value(), CheckError);
}

TEST(FlowErrorFormat, ToStringCarriesCodeWindowAndOrigin) {
  const FlowError e{FaultCode::kNonFinite, 12, "litho.latent", "NaN"};
  const std::string s = e.to_string();
  EXPECT_NE(s.find("non_finite"), std::string::npos);
  EXPECT_NE(s.find("window=12"), std::string::npos);
  EXPECT_NE(s.find("litho.latent"), std::string::npos);
  EXPECT_NE(s.find("NaN"), std::string::npos);
}

TEST(CaptureFlowError, ClassifiesInFlightExceptions) {
  // A FlowException passes its payload through; only an unset window id is
  // filled in at the catch site.
  try {
    throw FlowException(FlowError{FaultCode::kNonConvergence, kNoWindowId,
                                  "opc.correct", "stalled"});
  } catch (...) {
    const FlowError e = capture_flow_error(9, "outer.site");
    EXPECT_EQ(e.code, FaultCode::kNonConvergence);
    EXPECT_EQ(e.window, 9u);
    EXPECT_EQ(e.origin, "opc.correct");  // original origin survives
  }
  try {
    POC_EXPECTS(1 == 2);
  } catch (...) {
    const FlowError e = capture_flow_error(1, "check.site");
    EXPECT_EQ(e.code, FaultCode::kCheckFailed);
    EXPECT_EQ(e.origin, "check.site");
  }
  try {
    throw std::bad_alloc();
  } catch (...) {
    EXPECT_EQ(capture_flow_error().code, FaultCode::kAllocFailure);
  }
  try {
    throw std::runtime_error("plain");
  } catch (...) {
    const FlowError e = capture_flow_error(2, "misc");
    EXPECT_EQ(e.code, FaultCode::kUnknown);
    EXPECT_EQ(e.message, "plain");
  }
}

TEST(Expected, MoveConstructionAndAssignmentPreserveState) {
  // Move construction out of a value state.
  Expected<std::string> src = std::string("payload");
  Expected<std::string> moved = std::move(src);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(*moved, "payload");

  // Move construction out of an error state.
  Expected<std::string> bad =
      FlowError{FaultCode::kJournalIo, 5, "journal.write", "disk full"};
  Expected<std::string> moved_bad = std::move(bad);
  ASSERT_FALSE(moved_bad.has_value());
  EXPECT_EQ(moved_bad.error().code, FaultCode::kJournalIo);
  EXPECT_EQ(moved_bad.error().window, 5u);
  EXPECT_EQ(moved_bad.error().message, "disk full");

  // Move assignment across states: error <- value, then value <- error.
  moved_bad = std::move(moved);
  ASSERT_TRUE(moved_bad.has_value());
  EXPECT_EQ(*moved_bad, "payload");
  moved_bad = Expected<std::string>(
      FlowError{FaultCode::kJournalMismatch, 7, "journal.replay", "crc"});
  ASSERT_FALSE(moved_bad.has_value());
  EXPECT_EQ(moved_bad.error().code, FaultCode::kJournalMismatch);

  // Copy construction and assignment leave the source usable.
  const Expected<std::string> orig = std::string("keep");
  Expected<std::string> copy = orig;
  EXPECT_EQ(*copy, "keep");
  EXPECT_EQ(*orig, "keep");
  copy = moved_bad;
  ASSERT_FALSE(copy.has_value());
  EXPECT_EQ(copy.error().origin, "journal.replay");
  EXPECT_EQ(moved_bad.error().origin, "journal.replay");
}

TEST(CaptureFlowError, ClassifiesJournalIoFailures) {
  // Stream-level I/O failure (iostream-based journal access paths).
  try {
    throw std::ios_base::failure("stream write failed");
  } catch (...) {
    const FlowError e = capture_flow_error(kNoWindowId, "journal.write");
    EXPECT_EQ(e.code, FaultCode::kJournalIo);
    EXPECT_EQ(e.origin, "journal.write");
  }
  // OS-level I/O failure (open/write/fsync/rename on the journal path).
  try {
    throw std::system_error(std::make_error_code(std::errc::io_error),
                            "fsync");
  } catch (...) {
    const FlowError e = capture_flow_error(kNoWindowId, "journal.fsync");
    EXPECT_EQ(e.code, FaultCode::kJournalIo);
    EXPECT_NE(e.message.find("fsync"), std::string::npos);
  }
  // A structured journal fault keeps its own code through the unwind.
  try {
    throw FlowException(FlowError{FaultCode::kJournalMismatch, kNoWindowId,
                                  "journal.replay", "bad checksum"});
  } catch (...) {
    EXPECT_EQ(capture_flow_error().code, FaultCode::kJournalMismatch);
  }
}

TEST(FlowErrorFormat, NamesTheDurableRunFaultCodes) {
  EXPECT_STREQ(fault_code_name(FaultCode::kCancelled), "cancelled");
  EXPECT_STREQ(fault_code_name(FaultCode::kJournalIo), "journal_io");
  EXPECT_STREQ(fault_code_name(FaultCode::kJournalMismatch),
               "journal_mismatch");
}

// ---------------------------------------------------------------------------
// try_parallel_for: every failing index captured, no healthy item skipped

TEST(TryParallelFor, CapturesEveryFailingIndexAtAnyThreadCount) {
  constexpr std::size_t kN = 16;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<char> ran(kN, 0);
    const std::vector<IndexedError> errors = try_parallel_for(
        threads, kN, /*chunk=*/2,
        [&](std::size_t i) {
          ran[i] = 1;
          if (i == 3) {
            throw FlowException(
                FlowError{FaultCode::kNonFinite, i, "test.site", "boom"});
          }
          if (i == 7) throw std::runtime_error("plain");
          if (i == 11) throw std::bad_alloc();
        },
        "test.loop");

    // A plain parallel_for would abort item 3's chunk and rethrow one
    // error; here all 16 items ran and all three failures are reported.
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(ran[i], 1) << i;
    ASSERT_EQ(errors.size(), 3u) << "threads=" << threads;
    EXPECT_EQ(errors[0].index, 3u);
    EXPECT_EQ(errors[0].error.code, FaultCode::kNonFinite);
    EXPECT_EQ(errors[0].error.origin, "test.site");
    EXPECT_EQ(errors[1].index, 7u);
    EXPECT_EQ(errors[1].error.code, FaultCode::kUnknown);
    EXPECT_EQ(errors[1].error.origin, "test.loop");
    EXPECT_EQ(errors[1].error.window, 7u);
    EXPECT_EQ(errors[2].index, 11u);
    EXPECT_EQ(errors[2].error.code, FaultCode::kAllocFailure);
  }
}

// ---------------------------------------------------------------------------
// Fault injector unit tests

TEST(FaultInjector, DisabledAndUnscopedProbesStayInert) {
  // Default state: no plan installed.
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should(fault::Kind::kNanPixel));

  fault::Config cfg;
  cfg.enabled = true;
  cfg.rate = 1.0;  // would fault every scoped probe
  ScopedFault plan(cfg);
  // No Scope on this thread -> Domain::kNone -> never faults.
  EXPECT_FALSE(fault::should(fault::Kind::kNanPixel));
  {
    fault::Scope scope(fault::Domain::kScan, 1);
    EXPECT_TRUE(fault::should(fault::Kind::kNanPixel));
  }
  // Scope restored: inert again.
  EXPECT_FALSE(fault::should(fault::Kind::kNanPixel));
}

TEST(FaultInjector, ExplicitTargetsSelectExactTriples) {
  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back({fault::Kind::kNanPixel, fault::Domain::kExtract, 5});
  ScopedFault plan(cfg);

  {
    fault::Scope scope(fault::Domain::kExtract, 5);
    EXPECT_TRUE(fault::should(fault::Kind::kNanPixel));
    EXPECT_FALSE(fault::should(fault::Kind::kAlloc));  // wrong kind
  }
  {
    fault::Scope scope(fault::Domain::kExtract, 6);  // wrong index
    EXPECT_FALSE(fault::should(fault::Kind::kNanPixel));
  }
  {
    fault::Scope scope(fault::Domain::kOpc, 5);  // wrong domain
    EXPECT_FALSE(fault::should(fault::Kind::kNanPixel));
  }
}

TEST(FaultInjector, TransientFiresOnlyOnFirstProbe) {
  fault::Config cfg;
  cfg.enabled = true;
  cfg.transient = true;
  cfg.targets.push_back({fault::Kind::kAlloc, fault::Domain::kExtract, 3});
  ScopedFault plan(cfg);

  fault::Scope scope(fault::Domain::kExtract, 3);
  EXPECT_TRUE(fault::should(fault::Kind::kAlloc));
  EXPECT_FALSE(fault::should(fault::Kind::kAlloc));  // retry succeeds
  const auto trig = fault::triggered();
  ASSERT_EQ(trig.size(), 1u);
  EXPECT_EQ(trig[0].kind, fault::Kind::kAlloc);
  EXPECT_EQ(trig[0].domain, fault::Domain::kExtract);
  EXPECT_EQ(trig[0].index, 3u);
}

TEST(FaultInjector, MaybeThrowMapsKindsToExceptions) {
  fault::Config cfg;
  cfg.enabled = true;
  for (const fault::Kind k :
       {fault::Kind::kConvergenceStall, fault::Kind::kCacheInsert,
        fault::Kind::kAlloc}) {
    cfg.targets.push_back({k, fault::Domain::kScan, 5});
  }
  ScopedFault plan(cfg);
  fault::Scope scope(fault::Domain::kScan, 5);

  try {
    fault::maybe_throw(fault::Kind::kConvergenceStall);
    FAIL() << "expected FlowException";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.error().code, FaultCode::kNonConvergence);
    EXPECT_EQ(e.error().origin, "fault.injected");
  }
  EXPECT_THROW(fault::maybe_throw(fault::Kind::kCacheInsert), std::bad_alloc);
  EXPECT_THROW(fault::maybe_throw(fault::Kind::kAlloc), std::bad_alloc);
  // Not targeted: no throw.
  fault::maybe_throw(fault::Kind::kNanPixel);
}

TEST(FaultInjector, RateSelectionIsIdenticalAtOneAndFourThreads) {
  // The rate draw is a pure hash of (seed, kind, domain, index): probing
  // 512 indices concurrently must light up exactly the same set as probing
  // them serially.
  constexpr std::size_t kN = 512;
  fault::Config cfg;
  cfg.enabled = true;
  cfg.seed = 7;
  cfg.rate = 0.05;

  std::vector<char> fired_serial(kN, 0), fired_parallel(kN, 0);
  std::vector<fault::Triggered> trig_serial, trig_parallel;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScopedFault plan(cfg);
    std::vector<char>& fired = threads == 1 ? fired_serial : fired_parallel;
    parallel_for(threads, kN, /*chunk=*/8, [&](std::size_t i) {
      fault::Scope scope(fault::Domain::kScan, i);
      fired[i] = fault::should(fault::Kind::kNanPixel) ? 1 : 0;
    });
    (threads == 1 ? trig_serial : trig_parallel) = fault::triggered();
  }

  std::size_t hits = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(fired_serial[i], fired_parallel[i]) << "index " << i;
    hits += fired_serial[i];
  }
  EXPECT_GT(hits, 0u);   // 5 % of 512 should select something...
  EXPECT_LT(hits, kN);   // ...but nowhere near everything
  ASSERT_EQ(trig_serial.size(), trig_parallel.size());
  for (std::size_t i = 0; i < trig_serial.size(); ++i) {
    EXPECT_EQ(trig_serial[i].kind, trig_parallel[i].kind);
    EXPECT_EQ(trig_serial[i].domain, trig_parallel[i].domain);
    EXPECT_EQ(trig_serial[i].index, trig_parallel[i].index);
  }
}

// ---------------------------------------------------------------------------
// Flow-level containment: retry, degrade, FlowHealth

const StdCellLibrary& lib() {
  static const StdCellLibrary l = StdCellLibrary::load_or_characterize(
      (std::filesystem::temp_directory_path() / "poc_cells_test.lib")
          .string());
  return l;
}

/// Cache off by default: fault-injection tests must know exactly which
/// probe sites run (a cache hit skips the simulator and its probes).
FlowOptions fault_flow_options(std::size_t threads, bool cache = false) {
  FlowOptions opts;
  opts.sta.clock_period = 90.0;
  opts.threads = threads;
  opts.cache.enabled = cache;
  return opts;
}

void expect_same_devices(const GateExtraction& a, const GateExtraction& b) {
  EXPECT_EQ(a.gate, b.gate);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    const DeviceCd& da = a.devices[d];
    const DeviceCd& db = b.devices[d];
    EXPECT_EQ(da.device, db.device);
    ASSERT_EQ(da.profile.slice_cd_nm.size(), db.profile.slice_cd_nm.size());
    for (std::size_t s = 0; s < da.profile.slice_cd_nm.size(); ++s) {
      EXPECT_EQ(da.profile.slice_cd_nm[s], db.profile.slice_cd_nm[s]);
    }
    EXPECT_EQ(da.eq.ion_ua, db.eq.ion_ua);
    EXPECT_EQ(da.eq.ioff_ua, db.eq.ioff_ua);
    EXPECT_EQ(da.eq.l_eff_drive_nm, db.eq.l_eff_drive_nm);
    EXPECT_EQ(da.eq.functional, db.eq.functional);
  }
}

class FaultFlowFixture : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }

  static const PlacedDesign& design() {
    static PlacedDesign d = place_and_route(make_c17(), lib());
    return d;
  }

  /// Fault-free serial reference flow (cache off), OPC already run.
  static PostOpcFlow& reference() {
    static auto ref = [] {
      auto f = std::make_unique<PostOpcFlow>(design(), lib(), LithoSimulator{},
                                             fault_flow_options(1));
      f->run_opc(OpcMode::kModelBased);
      return f;
    }();
    return *ref;
  }

  static const std::vector<GateExtraction>& reference_extraction() {
    static const std::vector<GateExtraction> e = reference().extract({});
    return e;
  }
};

TEST_F(FaultFlowFixture, StickyExtractFaultsDegradeExactlyThoseGates) {
  // The acceptance scenario: sticky faults in k=2 extraction windows leave
  // the run alive with exactly those k gates on drawn-CD timing, every
  // other gate bit-identical to the fault-free run, at 1 and 4 threads.
  const std::vector<GateIdx> victims{1, 4};
  fault::Config cfg;
  cfg.enabled = true;
  for (const GateIdx g : victims) {
    cfg.targets.push_back({fault::Kind::kAlloc, fault::Domain::kExtract, g});
  }

  TimingComparison cmp[2];
  for (int t = 0; t < 2; ++t) {
    const std::size_t threads = t == 0 ? 1 : 4;
    ScopedFault plan(cfg);
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     fault_flow_options(threads));
    flow.run_opc(OpcMode::kModelBased);
    EXPECT_TRUE(flow.health().clean()) << "OPC phase must not fault";

    const std::vector<GateExtraction> ext = flow.extract({});
    const std::vector<GateExtraction>& ref = reference_extraction();
    ASSERT_EQ(ext.size(), ref.size());
    for (std::size_t g = 0; g < ext.size(); ++g) {
      if (g == victims[0] || g == victims[1]) {
        // Degraded slot: gate id kept (annotation stays aligned), no CDs.
        EXPECT_EQ(ext[g].gate, g);
        EXPECT_TRUE(ext[g].devices.empty());
      } else {
        expect_same_devices(ext[g], ref[g]);
      }
    }

    // Healthy gates' annotations are bit-identical; degraded gates fall
    // back to drawn-CD timing (identity scales).
    const std::vector<DelayAnnotation> ann = flow.annotate(ext);
    const std::vector<DelayAnnotation> ann_ref =
        reference().annotate(reference_extraction());
    ASSERT_EQ(ann.size(), ann_ref.size());
    for (std::size_t g = 0; g < ann.size(); ++g) {
      if (g == victims[0] || g == victims[1]) {
        EXPECT_EQ(ann[g].fall_scale, 1.0);
        EXPECT_EQ(ann[g].rise_scale, 1.0);
        EXPECT_EQ(ann[g].leak_scale, 1.0);
      } else {
        EXPECT_EQ(ann[g].fall_scale, ann_ref[g].fall_scale);
        EXPECT_EQ(ann[g].rise_scale, ann_ref[g].rise_scale);
        EXPECT_EQ(ann[g].leak_scale, ann_ref[g].leak_scale);
      }
    }

    flow.reset_health();
    cmp[t] = flow.compare_timing();
    const FlowHealth& h = cmp[t].health;
    EXPECT_EQ(h.degraded_gates, victims);
    EXPECT_EQ(h.degraded_windows, victims.size());
    EXPECT_EQ(h.recovered_windows, 0u);
    ASSERT_EQ(h.faults.size(), victims.size());
    for (std::size_t f = 0; f < h.faults.size(); ++f) {
      EXPECT_EQ(h.faults[f].phase, "extract");
      EXPECT_EQ(h.faults[f].index, victims[f]);
      EXPECT_EQ(h.faults[f].code, FaultCode::kAllocFailure);
      EXPECT_EQ(h.faults[f].attempts, 2u);  // nominal + 1 escalated retry
      EXPECT_TRUE(h.faults[f].degraded);
      EXPECT_FALSE(h.faults[f].recovered);
    }
  }
  // Thread count is still a pure performance knob under injected faults.
  EXPECT_EQ(cmp[0].drawn.worst_slack, cmp[1].drawn.worst_slack);
  EXPECT_EQ(cmp[0].annotated.worst_slack, cmp[1].annotated.worst_slack);
  EXPECT_EQ(cmp[0].worst_slack_change_pct, cmp[1].worst_slack_change_pct);
  EXPECT_EQ(cmp[0].annotated.total_leakage_ua,
            cmp[1].annotated.total_leakage_ua);
}

TEST_F(FaultFlowFixture, TransientFaultRecoversOnRetryWithoutDegradation) {
  fault::Config cfg;
  cfg.enabled = true;
  cfg.transient = true;
  cfg.targets.push_back({fault::Kind::kAlloc, fault::Domain::kExtract, 2});

  std::vector<GateExtraction> runs[2];
  for (int t = 0; t < 2; ++t) {
    const std::size_t threads = t == 0 ? 1 : 4;
    ScopedFault plan(cfg);  // fresh plan: transient bookkeeping cleared
    PostOpcFlow flow(design(), lib(), LithoSimulator{},
                     fault_flow_options(threads));
    flow.run_opc(OpcMode::kModelBased);
    runs[t] = flow.extract({});

    const FlowHealth h = flow.health();
    ASSERT_EQ(h.faults.size(), 1u);
    EXPECT_EQ(h.faults[0].phase, "extract");
    EXPECT_EQ(h.faults[0].index, 2u);
    EXPECT_TRUE(h.faults[0].recovered);
    EXPECT_FALSE(h.faults[0].degraded);
    EXPECT_EQ(h.faults[0].attempts, 2u);
    EXPECT_EQ(h.retries, 1u);
    EXPECT_EQ(h.recovered_windows, 1u);
    EXPECT_EQ(h.degraded_windows, 0u);
    EXPECT_TRUE(h.degraded_gates.empty());
    // The recovered gate has a real extraction (from the escalated retry).
    EXPECT_FALSE(runs[t][2].devices.empty());
  }
  // The escalated-retry result is itself deterministic across threads.
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t g = 0; g < runs[0].size(); ++g) {
    expect_same_devices(runs[0][g], runs[1][g]);
  }
}

TEST_F(FaultFlowFixture, OpcStickyStallFallsBackToDrawnMask) {
  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back(
      {fault::Kind::kConvergenceStall, fault::Domain::kOpc, 0});
  ScopedFault plan(cfg);

  PostOpcFlow flow(design(), lib(), LithoSimulator{}, fault_flow_options(1));
  flow.run_opc(OpcMode::kModelBased);

  FlowHealth h = flow.health();
  ASSERT_EQ(h.faults.size(), 1u);
  EXPECT_EQ(h.faults[0].phase, "opc");
  EXPECT_EQ(h.faults[0].index, 0u);
  EXPECT_EQ(h.faults[0].code, FaultCode::kNonConvergence);
  EXPECT_TRUE(h.faults[0].degraded);
  EXPECT_EQ(h.faults[0].attempts, 2u);
  // Drawn-mask fallback: the window still has a printable mask.
  EXPECT_FALSE(flow.mask_for_instance(0).empty());

  // A degraded OPC window must never feed its (uncorrected) CDs into STA:
  // every gate on that instance is excluded from extraction and lands on
  // the drawn-CD annotation.
  const std::vector<GateExtraction> ext = flow.extract({});
  h = flow.health();
  ASSERT_FALSE(h.degraded_gates.empty());
  for (const GateIdx g : h.degraded_gates) {
    EXPECT_EQ(design().gate_to_instance[g], 0u);
    EXPECT_TRUE(ext[g].devices.empty());
    EXPECT_EQ(ext[g].gate, g);
  }
  for (std::size_t g = 0; g < ext.size(); ++g) {
    if (design().gate_to_instance[g] == 0) {
      EXPECT_TRUE(std::find(h.degraded_gates.begin(), h.degraded_gates.end(),
                            g) != h.degraded_gates.end());
    } else {
      EXPECT_FALSE(ext[g].devices.empty());
    }
  }

  // The headline comparison still completes and reports the degradation.
  const TimingComparison cmp = flow.compare_timing();
  EXPECT_FALSE(cmp.health.clean());
  EXPECT_FALSE(cmp.health.degraded_gates.empty());
}

TEST_F(FaultFlowFixture, OpcRetryRunsOnAbbe) {
  // The flow images on Abbe and OPC on SOCS, truncated to two kernels so a
  // SOCS mask differs from an Abbe one.  A transient stall at instance 0
  // sends that window to the retry, which must correct it on the Abbe
  // reference at sign-off quality, whatever engine the flow itself runs.
  const auto options = [](std::size_t threads) {
    FlowOptions o = fault_flow_options(threads);
    o.imaging.socs.max_kernels = 2;
    return o;
  };
  const auto fault_free_mask = [](const FlowOptions& o) {
    PostOpcFlow flow(design(), lib(), LithoSimulator{}, o);
    flow.run_opc(OpcMode::kModelBased);
    EXPECT_TRUE(flow.health().clean());
    return flow.mask_for_instance(0);
  };
  FlowOptions abbe_standard = options(1);
  abbe_standard.opc.imaging = ImagingMode::kAbbe;
  abbe_standard.opc.sim_quality = LithoQuality::kStandard;
  FlowOptions socs_standard = options(1);
  socs_standard.opc.sim_quality = LithoQuality::kStandard;
  const std::vector<Rect> expected = fault_free_mask(abbe_standard);
  // The engines must be told apart on this window, or the test proves
  // nothing: neither the nominal truncated-SOCS mask nor a SOCS retry at
  // sign-off quality may equal the Abbe retry's.
  ASSERT_FALSE(fault_free_mask(options(1)) == expected);
  ASSERT_FALSE(fault_free_mask(socs_standard) == expected);

  fault::Config cfg;
  cfg.enabled = true;
  cfg.transient = true;
  cfg.targets.push_back(
      {fault::Kind::kConvergenceStall, fault::Domain::kOpc, 0});
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ScopedFault plan(cfg);  // fresh plan: transient bookkeeping cleared
    PostOpcFlow flow(design(), lib(), LithoSimulator{}, options(threads));
    flow.run_opc(OpcMode::kModelBased);
    const FlowHealth h = flow.health();
    ASSERT_EQ(h.faults.size(), 1u);
    EXPECT_EQ(h.faults[0].phase, "opc");
    EXPECT_TRUE(h.faults[0].recovered);
    EXPECT_TRUE(flow.mask_for_instance(0) == expected)
        << "the retried window does not carry the Abbe mask";
  }
}

void expect_same_report(const StaReport& a, const StaReport& b,
                        const Netlist& nl) {
  EXPECT_EQ(a.worst_arrival, b.worst_arrival);
  EXPECT_EQ(a.worst_slack, b.worst_slack);
  EXPECT_EQ(a.total_leakage_ua, b.total_leakage_ua);
  EXPECT_EQ(a.gate_slack, b.gate_slack);
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    EXPECT_EQ(a.endpoints[i].net, b.endpoints[i].net);
    EXPECT_EQ(a.endpoints[i].rising, b.endpoints[i].rising);
    EXPECT_EQ(a.endpoints[i].arrival, b.endpoints[i].arrival);
    EXPECT_EQ(a.endpoints[i].slack, b.endpoints[i].slack);
  }
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].signature(nl), b.paths[i].signature(nl));
    EXPECT_EQ(a.paths[i].arrival, b.paths[i].arrival);
    EXPECT_EQ(a.paths[i].slack, b.paths[i].slack);
  }
}

TEST_F(FaultFlowFixture, CleanRunBitIdenticalWithContainmentOnOrOff) {
  // Containment must not perturb a clean run: with no fault injected,
  // recovery on and off give the same masks, extraction records and
  // TimingComparison, health included, at 1 and 4 threads.
  const Netlist& nl = design().netlist;
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    std::vector<std::unique_ptr<PostOpcFlow>> flows;
    std::vector<std::vector<GateExtraction>> ext;
    std::vector<TimingComparison> cmp;
    for (const bool recovery : {true, false}) {
      FlowOptions opts = fault_flow_options(threads);
      opts.recovery.enabled = recovery;
      flows.push_back(std::make_unique<PostOpcFlow>(design(), lib(),
                                                    LithoSimulator{}, opts));
      flows.back()->run_opc(OpcMode::kModelBased);
      ext.push_back(flows.back()->extract({}));
      cmp.push_back(flows.back()->compare_timing());
    }
    for (std::size_t i = 0; i < design().layout.num_instances(); ++i) {
      EXPECT_TRUE(flows[0]->mask_for_instance(i) ==
                  flows[1]->mask_for_instance(i))
          << "instance " << i;
    }
    ASSERT_EQ(ext[0].size(), ext[1].size());
    for (std::size_t g = 0; g < ext[0].size(); ++g) {
      expect_same_devices(ext[0][g], ext[1][g]);
    }
    expect_same_report(cmp[0].drawn, cmp[1].drawn, nl);
    expect_same_report(cmp[0].annotated, cmp[1].annotated, nl);
    EXPECT_EQ(cmp[0].ranks.matched, cmp[1].ranks.matched);
    EXPECT_EQ(cmp[0].ranks.spearman, cmp[1].ranks.spearman);
    EXPECT_EQ(cmp[0].ranks.kendall, cmp[1].ranks.kendall);
    EXPECT_EQ(cmp[0].ranks.top10_displaced, cmp[1].ranks.top10_displaced);
    EXPECT_EQ(cmp[0].ranks.rank1_changed, cmp[1].ranks.rank1_changed);
    EXPECT_EQ(cmp[0].ranks.max_rank_shift, cmp[1].ranks.max_rank_shift);
    EXPECT_EQ(cmp[0].worst_slack_change_pct, cmp[1].worst_slack_change_pct);
    EXPECT_EQ(cmp[0].leakage_change_pct, cmp[1].leakage_change_pct);
    for (const TimingComparison& c : cmp) {
      EXPECT_TRUE(c.health.clean());
      EXPECT_EQ(c.health.retries, 0u);
      EXPECT_EQ(c.health.recovered_windows, 0u);
      EXPECT_EQ(c.health.degraded_windows, 0u);
      EXPECT_TRUE(c.health.degraded_gates.empty());
    }
  }
}

TEST_F(FaultFlowFixture, NanPixelRaisesStructuredNonFiniteFault) {
  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back({fault::Kind::kNanPixel, fault::Domain::kExtract, 0});
  ScopedFault plan(cfg);

  PostOpcFlow flow(design(), lib(), LithoSimulator{}, fault_flow_options(1));
  flow.run_opc(OpcMode::kModelBased);
  const std::vector<GateExtraction> ext = flow.extract({});

  const FlowHealth h = flow.health();
  ASSERT_EQ(h.faults.size(), 1u);
  // The NaN is injected as data corruption; the isfinite guard at the
  // image boundary is what turns it into a structured fault.
  EXPECT_EQ(h.faults[0].code, FaultCode::kNonFinite);
  EXPECT_EQ(h.faults[0].origin, "litho.latent");
  EXPECT_TRUE(h.faults[0].degraded);
  EXPECT_EQ(h.degraded_gates, std::vector<GateIdx>{0});
  EXPECT_TRUE(ext[0].devices.empty());
}

TEST_F(FaultFlowFixture, DisabledRecoveryRestoresFailFast) {
  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back({fault::Kind::kAlloc, fault::Domain::kExtract, 1});
  ScopedFault plan(cfg);

  FlowOptions opts = fault_flow_options(1);
  opts.recovery.enabled = false;
  PostOpcFlow flow(design(), lib(), LithoSimulator{}, opts);
  flow.run_opc(OpcMode::kModelBased);
  EXPECT_THROW(flow.extract({}), std::bad_alloc);
}

TEST_F(FaultFlowFixture, FailFastRethrowsLowestWindowErrorInEveryPhase) {
  // Fail-fast in all three hot loops: two windows fault with different
  // exception types, and the loop rethrows the lower window's original
  // exception — not a captured FlowError — whichever window holds which
  // fault and at any thread count.
  struct Case {
    const char* phase;
    fault::Domain domain;
    fault::Kind other;        ///< the fault that is not kAlloc
    FaultCode other_code;     ///< what `other` raises
    std::uint64_t lo, hi;     ///< the two faulted windows
  };
  // OPC last: a failed run_opc leaves the two faulted windows' masks
  // empty, and extraction and the scan read the masks.
  const Case cases[] = {
      {"extract", fault::Domain::kExtract, fault::Kind::kNanPixel,
       FaultCode::kNonFinite, 2, 5},
      {"scan", fault::Domain::kScan, fault::Kind::kNanPixel,
       FaultCode::kNonFinite, 1, 4},
      {"opc", fault::Domain::kOpc, fault::Kind::kConvergenceStall,
       FaultCode::kNonConvergence, 1, 3},
  };
  const std::vector<ProcessCorner> corners = {{"nominal", {0.0, 1.0}}};

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FlowOptions opts = fault_flow_options(threads);
    opts.recovery.enabled = false;
    PostOpcFlow flow(design(), lib(), LithoSimulator{}, opts);
    flow.run_opc(OpcMode::kModelBased);  // no plan yet: a clean OPC
    for (const Case& c : cases) {
      for (const bool alloc_low : {true, false}) {
        const fault::Kind low_kind = alloc_low ? fault::Kind::kAlloc : c.other;
        const fault::Kind high_kind =
            alloc_low ? c.other : fault::Kind::kAlloc;
        fault::Config cfg;
        cfg.enabled = true;
        cfg.targets.push_back({low_kind, c.domain, c.lo});
        cfg.targets.push_back({high_kind, c.domain, c.hi});
        ScopedFault plan(cfg);
        const std::string what = std::string(c.phase) + " threads=" +
                                 std::to_string(threads) +
                                 (alloc_low ? " alloc low" : " alloc high");
        try {
          if (c.domain == fault::Domain::kOpc) {
            flow.run_opc(OpcMode::kModelBased);
          } else if (c.domain == fault::Domain::kExtract) {
            (void)flow.extract({});
          } else {
            (void)flow.scan_hotspots(corners);
          }
          ADD_FAILURE() << what << ": nothing was rethrown";
        } catch (const std::bad_alloc&) {
          EXPECT_EQ(low_kind, fault::Kind::kAlloc) << what;
        } catch (const FlowException& e) {
          EXPECT_EQ(low_kind, c.other) << what;
          EXPECT_EQ(e.error().code, c.other_code) << what;
        }
        // Fail-fast records nothing: the exception is the report.
        EXPECT_TRUE(flow.health().clean()) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// I/O fault domains: wildcard targets + the vfs shim

TEST(FaultInjector, AnyIndexWildcardMatchesEveryScopedIndex) {
  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back(
      {fault::Kind::kIoEnospc, fault::Domain::kJournalIo, fault::kAnyIndex});
  ScopedFault plan(cfg);

  // "The disk is full": every index under the domain faults...
  for (const std::uint64_t index : {0ull, 1ull, 17ull, 123456789ull}) {
    fault::Scope scope(fault::Domain::kJournalIo, index);
    EXPECT_TRUE(fault::should(fault::Kind::kIoEnospc)) << index;
  }
  // ...but only that domain, and only that kind.
  {
    fault::Scope scope(fault::Domain::kDiskCacheIo, 0);
    EXPECT_FALSE(fault::should(fault::Kind::kIoEnospc));
  }
  {
    fault::Scope scope(fault::Domain::kJournalIo, 0);
    EXPECT_FALSE(fault::should(fault::Kind::kIoEio));
  }
  // No Scope: probes stay inert even against a wildcard.
  EXPECT_FALSE(fault::should(fault::Kind::kIoEnospc));
}

TEST(VfsShim, InjectsErrnoFailuresInsideScopeOnly) {
  const fs::path path = fs::temp_directory_path() / "poc_vfs_fault_probe";
  fs::remove(path);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  const char payload[] = "0123456789";

  fault::Config cfg;
  cfg.enabled = true;
  cfg.targets.push_back(
      {fault::Kind::kIoEnospc, fault::Domain::kJournalIo, fault::kAnyIndex});
  cfg.targets.push_back(
      {fault::Kind::kIoEio, fault::Domain::kDiskCacheIo, fault::kAnyIndex});
  ScopedFault plan(cfg);

  {
    fault::Scope scope(fault::Domain::kJournalIo, 0);
    errno = 0;
    EXPECT_EQ(vfs::write(fd, payload, sizeof payload), -1);
    EXPECT_EQ(errno, ENOSPC);
  }
  {
    fault::Scope scope(fault::Domain::kDiskCacheIo, 3);
    errno = 0;
    EXPECT_EQ(vfs::fsync(fd), -1);
    EXPECT_EQ(errno, EIO);
  }
  // Outside any scope the shim is a pass-through.
  EXPECT_EQ(vfs::write(fd, payload, sizeof payload),
            static_cast<ssize_t>(sizeof payload));
  EXPECT_EQ(vfs::fsync(fd), 0);
  ::close(fd);
  fs::remove(path);
}

TEST(VfsShim, StickyShortWritesStillCompleteWriteAll) {
  const fs::path path = fs::temp_directory_path() / "poc_vfs_short_write";
  fs::remove(path);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);

  fault::Config cfg;
  cfg.enabled = true;  // sticky: every write is short
  cfg.targets.push_back({fault::Kind::kIoShortWrite, fault::Domain::kJournalIo,
                         fault::kAnyIndex});
  ScopedFault plan(cfg);

  std::vector<std::uint8_t> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  {
    fault::Scope scope(fault::Domain::kJournalIo, 0);
    // Each injected call accepts only half the remainder, but always at
    // least one byte — so the retry loop terminates with the full buffer.
    EXPECT_TRUE(vfs::write_all(fd, payload.data(), payload.size()));
  }
  ::close(fd);
  ASSERT_EQ(fs::file_size(path), payload.size());
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> got((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  EXPECT_EQ(got, payload);
  fs::remove(path);
}

}  // namespace
}  // namespace poc
