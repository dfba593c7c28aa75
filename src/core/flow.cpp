#include "src/core/flow.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <unordered_map>

#include "src/cache/disk_store.h"
#include "src/cache/fingerprint.h"
#include "src/common/check.h"
#include "src/common/fault.h"
#include "src/common/log.h"
#include "src/common/serialize.h"
#include "src/geom/polygon_ops.h"
#include "src/opc/rule_opc.h"
#include "src/par/thread_pool.h"

namespace poc {
namespace {

/// Drive ratios below this are treated as broken devices (pinched gates)
/// rather than fed to the delay scaler as near-zero divisors.
constexpr double kMinDriveRatio = 0.05;

double safe_ratio(double r) { return std::max(r, kMinDriveRatio); }

/// Deterministic OpcStats merge; addition order is fixed by the caller
/// (instance order), which keeps the double sums bit-identical across
/// thread counts.
OpcStats merge_stats(OpcStats acc, const OpcStats& w) {
  acc.windows += w.windows;
  acc.model_based_windows += w.model_based_windows;
  acc.fragments += w.fragments;
  acc.iterations += w.iterations;
  acc.max_abs_epe_nm = std::max(acc.max_abs_epe_nm, w.max_abs_epe_nm);
  acc.rms_epe_sum += w.rms_epe_sum;
  return acc;
}

// Fingerprint feeders for every parameter block that can change a window
// result.  Field order is fixed — it is part of the key.

void hash_optics(FpHasher& h, const OpticalSettings& o) {
  h.f64(o.wavelength_nm)
      .f64(o.na)
      .f64(o.sigma_inner)
      .f64(o.sigma_outer)
      .u64(o.source_rings)
      .u64(o.source_spokes)
      .f64(o.z9_spherical_waves)
      .f64(o.z7_coma_x_waves);
}

void hash_imaging(FpHasher& h, const ImagingOptions& im) {
  h.u64(static_cast<std::uint64_t>(im.mode))
      .u64(im.socs.max_kernels)
      .f64(im.socs.energy_fraction);
}

void hash_sim(FpHasher& h, const LithoSimulator& sim) {
  hash_optics(h, sim.optics());
  hash_imaging(h, sim.imaging());
  h.f64(sim.resist().diffusion_nm).f64(sim.resist().threshold);
}

void hash_exposure(FpHasher& h, const Exposure& e) {
  h.f64(e.focus_nm).f64(e.dose);
}

void hash_opc_options(FpHasher& h, const OpcOptions& o) {
  const FragmentationOptions& f = o.fragmentation;
  h.i64(f.max_fragment_len)
      .i64(f.corner_len)
      .i64(f.min_edge_for_corners)
      .i64(f.line_end_max_len);
  h.u64(o.max_iterations)
      .f64(o.damping)
      .f64(o.epe_tolerance_nm)
      .i64(o.max_bias)
      .i64(o.min_bias)
      .f64(o.probe_inside_nm)
      .f64(o.probe_outside_nm)
      .u64(static_cast<std::uint64_t>(o.sim_quality))
      .u64(static_cast<std::uint64_t>(o.final_quality))
      .f64(o.handoff_epe_nm)
      .u64(o.final_iterations)
      .u64(static_cast<std::uint64_t>(o.imaging))
      .u64(o.insert_srafs ? 1 : 0)
      .f64(o.abort_epe_nm);
}

void hash_orc_options(FpHasher& h, const OrcOptions& o) {
  h.f64(o.pinch_fraction)
      .f64(o.epe_limit_nm)
      .i64(o.bridge_check_space)
      .u64(o.exclude_corner_fragments ? 1 : 0)
      .u64(static_cast<std::uint64_t>(o.quality));
}

void log_cache(const char* what, const CacheCounters& c) {
  log_info(what, " cache: ", c.hits, " hits / ", c.misses, " misses (",
           c.hit_rate() * 100.0, "% hit rate), ", c.entries, " entries, ",
           c.evictions, " evictions");
}

// The fixed retry policy (see RecoveryOptions): a contained window gets the
// nominal attempt plus one retry, which runs at the sign-off quality tier
// and on the Abbe reference engine: OPC's retry always, extraction's
// (retry_sim) instead of SOCS when the flow runs SOCS.

constexpr std::uint32_t kContainedAttempts = 2;
constexpr LithoQuality kEscalatedQuality = LithoQuality::kFine;

LithoSimulator retry_sim(const LithoSimulator& sim) {
  if (sim.imaging().mode != ImagingMode::kSocs) return sim;
  ImagingOptions im = sim.imaging();
  im.mode = ImagingMode::kAbbe;
  LithoSimulator out = sim;
  out.set_imaging(im);
  return out;
}

/// Polygons as a disjoint rectangle mask.
std::vector<Rect> polys_to_mask(const std::vector<Polygon>& polys) {
  std::vector<Rect> rects;
  for (const Polygon& p : polys) {
    for (const Rect& r : decompose(p)) rects.push_back(r);
  }
  return disjoint_union(rects);
}

/// Records `e` as the window's fault; FlowHealth reports the first one.
void set_fault(JournalOutcome& oc, const FlowError& e) {
  oc.faulted = true;
  oc.code = e.code;
  oc.origin = e.origin;
  oc.message = e.message;
}

std::vector<std::uint64_t> window_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

// ---- Run-journal payload codecs --------------------------------------------
//
// Payloads store exactly the bits the hot loops would recompute (integers
// verbatim, doubles as IEEE-754 bit patterns), so a replay is
// indistinguishable from a recompute downstream.  Decoders return false on
// any structural mismatch; the caller then recomputes the window.

void encode_rects(ByteWriter& w, const std::vector<Rect>& rects) {
  w.u32(static_cast<std::uint32_t>(rects.size()));
  for (const Rect& r : rects) {
    w.i64(r.xlo);
    w.i64(r.ylo);
    w.i64(r.xhi);
    w.i64(r.yhi);
  }
}

bool decode_rects(ByteReader& r, std::vector<Rect>& rects) {
  const std::uint32_t n = r.u32();
  rects.clear();
  rects.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    Rect rect;
    rect.xlo = r.i64();
    rect.ylo = r.i64();
    rect.xhi = r.i64();
    rect.yhi = r.i64();
    rects.push_back(rect);
  }
  return r.ok();
}

// One OPC window's mask and stats: the whole disk-cache entry, and the
// journal payload before its trailing degraded byte.
void encode_opc_window(ByteWriter& w, const std::vector<Rect>& mask,
                       const OpcStats& s) {
  encode_rects(w, mask);
  w.u64(s.windows);
  w.u64(s.model_based_windows);
  w.u64(s.fragments);
  w.u64(s.iterations);
  w.f64(s.max_abs_epe_nm);
  w.f64(s.rms_epe_sum);
}

bool decode_opc_window(ByteReader& r, std::vector<Rect>& mask, OpcStats& s) {
  if (!decode_rects(r, mask)) return false;
  s.windows = r.u64();
  s.model_based_windows = r.u64();
  s.fragments = r.u64();
  s.iterations = r.u64();
  s.max_abs_epe_nm = r.f64();
  s.rms_epe_sum = r.f64();
  return r.ok();
}

std::vector<std::uint8_t> encode_opc_payload(const std::vector<Rect>& mask,
                                             const OpcStats& s,
                                             bool degraded) {
  ByteWriter w;
  encode_opc_window(w, mask, s);
  w.u8(degraded ? 1 : 0);
  return w.take();
}

bool decode_opc_payload(const std::vector<std::uint8_t>& bytes,
                        std::vector<Rect>& mask, OpcStats& s,
                        bool& degraded) {
  ByteReader r(bytes);
  if (!decode_opc_window(r, mask, s)) return false;
  degraded = r.u8() != 0;
  return r.done();
}

std::vector<std::uint8_t> encode_extract_payload(const GateExtraction& ext) {
  ByteWriter w;
  w.u64(ext.gate);
  w.u32(static_cast<std::uint32_t>(ext.devices.size()));
  for (const DeviceCd& d : ext.devices) {
    w.str(d.device);
    w.u8(d.is_nmos ? 1 : 0);
    w.f64(d.drawn_l_nm);
    w.f64(d.drawn_w_nm);
    w.u32(static_cast<std::uint32_t>(d.profile.slice_cd_nm.size()));
    for (double cd : d.profile.slice_cd_nm) w.f64(cd);
    w.f64(d.profile.slice_width_nm);
    w.f64(d.profile.drawn_cd_nm);
    w.f64(d.eq.width_um);
    w.f64(d.eq.ion_ua);
    w.f64(d.eq.ioff_ua);
    w.f64(d.eq.l_eff_drive_nm);
    w.f64(d.eq.l_eff_leak_nm);
    w.f64(d.eq.l_mean_nm);
    w.u8(d.eq.functional ? 1 : 0);
  }
  return w.take();
}

bool decode_extract_payload(const std::vector<std::uint8_t>& bytes,
                            GateExtraction& ext) {
  ByteReader r(bytes);
  ext.gate = r.u64();
  const std::uint32_t ndev = r.u32();
  ext.devices.clear();
  for (std::uint32_t i = 0; i < ndev && r.ok(); ++i) {
    DeviceCd d;
    d.device = r.str();
    d.is_nmos = r.u8() != 0;
    d.drawn_l_nm = r.f64();
    d.drawn_w_nm = r.f64();
    const std::uint32_t nslices = r.u32();
    for (std::uint32_t s = 0; s < nslices && r.ok(); ++s) {
      d.profile.slice_cd_nm.push_back(r.f64());
    }
    d.profile.slice_width_nm = r.f64();
    d.profile.drawn_cd_nm = r.f64();
    d.eq.width_um = r.f64();
    d.eq.ion_ua = r.f64();
    d.eq.ioff_ua = r.f64();
    d.eq.l_eff_drive_nm = r.f64();
    d.eq.l_eff_leak_nm = r.f64();
    d.eq.l_mean_nm = r.f64();
    d.eq.functional = r.u8() != 0;
    ext.devices.push_back(std::move(d));
  }
  return r.done();
}

std::vector<std::uint8_t> encode_scan_payload(
    const PostOpcFlow::HotspotReport& rep) {
  ByteWriter w;
  w.u64(rep.windows_checked);
  w.u64(rep.pinches);
  w.u64(rep.bridges);
  w.u64(rep.epe_violations);
  w.u32(static_cast<std::uint32_t>(rep.hotspots.size()));
  for (const PostOpcFlow::Hotspot& h : rep.hotspots) {
    w.u64(h.instance);
    w.str(h.exposure_name);
    w.u8(static_cast<std::uint8_t>(h.violation.kind));
    w.i64(h.violation.where.x);
    w.i64(h.violation.where.y);
    w.f64(h.violation.value_nm);
  }
  return w.take();
}

bool decode_scan_payload(const std::vector<std::uint8_t>& bytes,
                         PostOpcFlow::HotspotReport& rep) {
  ByteReader r(bytes);
  rep = {};
  rep.windows_checked = r.u64();
  rep.pinches = r.u64();
  rep.bridges = r.u64();
  rep.epe_violations = r.u64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    PostOpcFlow::Hotspot h;
    h.instance = r.u64();
    h.exposure_name = r.str();
    h.violation.kind = static_cast<OrcViolation::Kind>(r.u8());
    h.violation.where.x = r.i64();
    h.violation.where.y = r.i64();
    h.violation.value_nm = r.f64();
    rep.hotspots.push_back(std::move(h));
  }
  return r.done();
}

void hash_mosfet(FpHasher& h, const MosfetParams& p) {
  h.u64(p.is_nmos ? 1 : 0)
      .f64(p.vdd)
      .f64(p.vth_long)
      .f64(p.dvt_rolloff)
      .f64(p.rolloff_lc_nm)
      .f64(p.alpha)
      .f64(p.k_ua_per_um)
      .f64(p.l_ref_nm)
      .f64(p.kv_sat)
      .f64(p.subthreshold_n)
      .f64(p.i0_leak_ua_per_um)
      .f64(p.temp_vt);
}

}  // namespace

/// Containment bookkeeping.  Worker threads only ever touch the sorted
/// degraded-gate set (order-independent); fault entries are appended by the
/// calling thread in window-index order by run_windows, so health() is
/// bit-identical at any thread count.
struct PostOpcFlow::HealthState {
  std::mutex mutex;
  std::vector<FlowHealth::WindowFault> faults;
  std::vector<GateIdx> degraded_gates;  ///< sorted, unique
};

struct PostOpcFlow::TimingState {
  std::mutex mutex;
  std::unique_ptr<TimingGraph> graph;  ///< null until first warm re-time
};

/// The three flow-level result caches.  Values are stored in the window's
/// local frame (anchor = window origin subtracted from all coordinates) and
/// translated back on a hit, so one entry serves every placement of the
/// same cell context.  Translation of integer geometry and of half-integer
/// image origins is exact, which keeps hits bit-identical to recomputes.
struct PostOpcFlow::WindowCaches {
  /// Corrected mask + per-window OPC stats, local frame.
  using OpcEntry = OpcWindowResult;
  /// ORC report with violation coordinates in the local frame.
  struct OrcEntry {
    OrcReport report;
  };

  ShardedCache<OpcEntry> opc;
  ShardedCache<Image2D> latent;
  ShardedCache<OrcEntry> orc;

  WindowCaches(std::size_t bytes_each, std::size_t shards)
      : opc(bytes_each, shards),
        latent(bytes_each, shards),
        orc(bytes_each, shards) {}
};

namespace {

// ---- Disk-tier codecs ------------------------------------------------------
//
// Same discipline as the journal payload codecs above: integers verbatim,
// doubles as IEEE-754 bit patterns, decoders return null on any structural
// mismatch (the cache then reports a miss and the window recomputes).

std::vector<std::uint8_t> encode_opc_entry(
    const PostOpcFlow::WindowCaches::OpcEntry& e) {
  ByteWriter w;
  encode_opc_window(w, e.mask, e.stats);
  return w.take();
}

std::shared_ptr<PostOpcFlow::WindowCaches::OpcEntry> decode_opc_entry(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  auto e = std::make_shared<PostOpcFlow::WindowCaches::OpcEntry>();
  return decode_opc_window(r, e->mask, e->stats) && r.done() ? e : nullptr;
}

std::vector<std::uint8_t> encode_latent_entry(const Image2D& img) {
  ByteWriter w;
  w.u64(img.nx());
  w.u64(img.ny());
  w.f64(img.pixel());
  w.f64(img.origin_x());
  w.f64(img.origin_y());
  for (double v : img.data()) w.f64(v);
  return w.take();
}

std::shared_ptr<Image2D> decode_latent_entry(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint64_t nx = r.u64();
  const std::uint64_t ny = r.u64();
  const double pixel = r.f64();
  const double ox = r.f64();
  const double oy = r.f64();
  if (!r.ok() || nx * ny != r.remaining() / sizeof(double)) return nullptr;
  auto img = std::make_shared<Image2D>(static_cast<std::size_t>(nx),
                                       static_cast<std::size_t>(ny), pixel, ox,
                                       oy);
  for (double& v : img->data()) v = r.f64();
  return r.done() ? img : nullptr;
}

std::vector<std::uint8_t> encode_orc_entry(
    const PostOpcFlow::WindowCaches::OrcEntry& e) {
  ByteWriter w;
  w.f64(e.report.max_abs_epe_nm);
  w.f64(e.report.rms_epe_nm);
  w.u32(static_cast<std::uint32_t>(e.report.violations.size()));
  for (const OrcViolation& v : e.report.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.i64(v.where.x);
    w.i64(v.where.y);
    w.f64(v.value_nm);
  }
  return w.take();
}

std::shared_ptr<PostOpcFlow::WindowCaches::OrcEntry> decode_orc_entry(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  auto e = std::make_shared<PostOpcFlow::WindowCaches::OrcEntry>();
  e->report.max_abs_epe_nm = r.f64();
  e->report.rms_epe_nm = r.f64();
  const std::uint32_t n = r.u32();
  e->report.violations.reserve(r.ok() ? n : 0);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    OrcViolation v;
    v.kind = static_cast<OrcViolation::Kind>(r.u8());
    v.where.x = r.i64();
    v.where.y = r.i64();
    v.value_nm = r.f64();
    e->report.violations.push_back(v);
  }
  return r.done() ? e : nullptr;
}

}  // namespace

PostOpcFlow::PostOpcFlow(const PlacedDesign& design, const StdCellLibrary& lib,
                         LithoSimulator sim, FlowOptions options)
    : design_(&design), lib_(&lib), sim_(sim), options_(options) {
  POC_EXPECTS(design.layout.frozen());
  timing_ = std::make_shared<TimingState>();
  // The silicon reference is the OPC model perturbed by the calibration
  // mismatch; with the mismatch disabled they are identical.
  ResistModel silicon_resist = sim.resist();
  if (options_.silicon.enabled) {
    silicon_resist.diffusion_nm += options_.silicon.diffusion_delta_nm;
    silicon_resist.threshold += options_.silicon.threshold_delta;
  }
  // One imaging engine for the flow's simulators: extraction, the hotspot
  // scan and the silicon reference honour FlowOptions::imaging.  The OPC
  // loop images on OpcOptions::imaging and takes only the SOCS truncation
  // knobs from here.
  sim_.set_imaging(options_.imaging);
  silicon_sim_ = LithoSimulator(sim.optics(), silicon_resist, options_.imaging);
  if (options_.cache.enabled) {
    caches_ = std::make_shared<WindowCaches>(
        options_.cache.capacity_mb << 20, options_.cache.shards);
    if (!options_.cache.disk_path.empty()) {
      // One store per cache kind, shared across worker processes.  Spill is
      // a pure performance layer: entries round-trip bit-exactly, so a
      // cross-worker hit is indistinguishable from an in-process recompute.
      const std::string& root = options_.cache.disk_path;
      const DiskCacheStore::Options store_options{
          options_.cache.disk_max_bytes};
      caches_->opc.attach_disk(
          std::make_shared<DiskCacheStore>(root + "/opc", store_options),
          encode_opc_entry, decode_opc_entry);
      caches_->latent.attach_disk(
          std::make_shared<DiskCacheStore>(root + "/latent", store_options),
          encode_latent_entry, decode_latent_entry);
      caches_->orc.attach_disk(
          std::make_shared<DiskCacheStore>(root + "/orc", store_options),
          encode_orc_entry, decode_orc_entry);
    }
  }
  health_state_ = std::make_shared<HealthState>();
  if (options_.journal.enabled) {
    try {
      journal_ =
          std::make_shared<RunJournal>(options_.journal, config_fingerprint());
    } catch (...) {
      // A run that cannot journal still runs — undurable, but reported.
      const FlowError err = capture_flow_error(kNoWindowId, "journal.open");
      log_warn("run journal disabled: ", err.to_string());
      FlowHealth::WindowFault f;
      f.phase = "journal";
      f.index = kNoWindowId;
      f.code = err.code;
      f.origin = err.origin;
      f.attempts = 1;
      // Same rule health() applies to append-time issues: losing the
      // journal means losing durability — a degraded mode.
      f.degraded = err.code == FaultCode::kJournalIo;
      health_state_->faults.push_back(std::move(f));
    }
    if (journal_) {
      const RunJournal::Stats js = journal_->stats();
      if (js.loaded_records > 0 || !journal_->issues().empty()) {
        log_info("run journal: replayed ", js.loaded_records,
                 " records from ", options_.journal.path, ", rejected ",
                 js.rejected_records);
      }
      // Replay and append-time issues are surfaced by health(), which reads
      // journal_->issues() live — so an append failure mid-run (ENOSPC)
      // shows up without a second mirroring pass here.
    }
  }
}

Fingerprint PostOpcFlow::config_fingerprint() const {
  FpHasher h;
  h.str("poc-run-config-v1");
  hash_sim(h, sim_);
  hash_sim(h, silicon_sim_);
  hash_opc_options(h, options_.opc);
  h.f64(options_.cdx.edge_trim_fraction)
      .u64(options_.cdx.num_slices)
      .f64(options_.cdx.reach_factor);
  h.u64(static_cast<std::uint64_t>(options_.extract_quality));
  h.i64(options_.ambit_nm);
  h.u64(options_.seed);
  h.u64(options_.silicon.enabled ? 1 : 0)
      .f64(options_.silicon.diffusion_delta_nm)
      .f64(options_.silicon.threshold_delta)
      .f64(options_.silicon.focus_bias_nm)
      .f64(options_.silicon.dose_scale)
      .f64(options_.silicon.aclv_sigma_nm);
  // Recovery shapes outcomes (retry counts, degradations), so records from
  // a differently-contained run must not replay.  The fixed retry policy
  // still hashes as the three knobs it replaced (one retry, escalated
  // quality, Abbe fallback: 1, 1, 1), so existing journals and disk caches
  // keep replaying.  threads and cache/journal knobs are deliberately
  // absent: results are bit-identical across them.
  h.u64(options_.recovery.enabled ? 1 : 0).u64(1).u64(1).u64(1);
  // Design identity: placement (cell + transform per instance) and the
  // gate map.  Window geometry itself is hashed per record; this coarse
  // gate catches a swapped design wholesale.
  const LayoutDb& layout = design_->layout;
  h.u64(layout.num_instances());
  for (std::size_t i = 0; i < layout.num_instances(); ++i) {
    const Instance& inst = layout.instance(i);
    h.u64(inst.cell);
    h.u64(static_cast<std::uint64_t>(inst.transform.orient));
    h.i64(inst.transform.offset.x).i64(inst.transform.offset.y);
  }
  h.u64(design_->netlist.num_gates());
  for (const std::size_t inst : design_->gate_to_instance) h.u64(inst);
  // Library characterization feeds the equivalent-gate records.
  const CharParams& cp = lib_->char_params();
  hash_mosfet(h, cp.nmos);
  hash_mosfet(h, cp.pmos);
  h.f64(cp.cgate_ff_per_um).f64(cp.cdiff_ff_per_um);
  return h.digest();
}

RunJournal::Stats PostOpcFlow::journal_stats() const {
  return journal_ ? journal_->stats() : RunJournal::Stats{};
}

std::vector<ReplayIssue> PostOpcFlow::journal_issues() const {
  return journal_ ? journal_->issues() : std::vector<ReplayIssue>{};
}

Fingerprint PostOpcFlow::opc_record_fp(std::size_t instance,
                                       OpcMode mode) const {
  const auto [window, targets] = instance_window(instance);
  FpHasher h;
  h.str("jopc").u64(instance).u64(static_cast<std::uint64_t>(mode));
  h.i64(window.xlo).i64(window.ylo).i64(window.xhi).i64(window.yhi);
  hash_sim(h, sim_);
  hash_opc_options(h, options_.opc);
  h.polys(targets, Point{0, 0});
  return h.digest();
}

Fingerprint PostOpcFlow::extract_record_fp(const LithoSimulator& sim,
                                           const Exposure& exposure,
                                           GateIdx gate) const {
  const std::size_t instance = design_->gate_to_instance[gate];
  const Rect window = design_->litho_window(gate, options_.ambit_nm);
  FpHasher h;
  h.str("jext").u64(gate).u64(instance);
  h.i64(window.xlo).i64(window.ylo).i64(window.xhi).i64(window.yhi);
  hash_sim(h, sim);
  hash_exposure(h, exposure);
  h.u64(static_cast<std::uint64_t>(options_.extract_quality));
  h.f64(options_.cdx.edge_trim_fraction)
      .u64(options_.cdx.num_slices)
      .f64(options_.cdx.reach_factor);
  // The extraction reads the post-OPC mask, so the record dies with it: a
  // resumed run whose OPC degraded differently can never replay a stale CD.
  h.rects(mask_for_instance(instance), Point{0, 0});
  for (const PlacedGate* pg : design_->gates_of(gate)) {
    h.rect(pg->region, Point{0, 0});
    h.u64(pg->vertical_poly ? 1 : 0);
  }
  return h.digest();
}

Fingerprint PostOpcFlow::scan_record_fp(
    std::size_t instance, const std::vector<ProcessCorner>& conditions,
    const OrcOptions& orc_options) const {
  const auto [window, targets] = instance_window(instance);
  FpHasher h;
  h.str("jscan").u64(instance);
  h.i64(window.xlo).i64(window.ylo).i64(window.xhi).i64(window.yhi);
  hash_sim(h, silicon_sim_);
  hash_sim(h, sim_);
  hash_opc_options(h, options_.opc);
  hash_orc_options(h, orc_options);
  h.polys(targets, Point{0, 0});
  h.rects(mask_for_instance(instance), Point{0, 0});
  h.u64(conditions.size());
  for (const ProcessCorner& c : conditions) {
    h.str(c.name);
    hash_exposure(h, c.exposure);
  }
  return h.digest();
}

FlowHealth PostOpcFlow::health() const {
  FlowHealth h;
  {
    std::lock_guard<std::mutex> lock(health_state_->mutex);
    h.faults = health_state_->faults;
    h.degraded_gates = health_state_->degraded_gates;
  }
  // Journal issues are read live, so an append-time failure (ENOSPC mid-
  // run parking the journal inert) surfaces the same way a replay reject
  // does: one phase-"journal" fault per issue.  kJournalIo means the run
  // lost durability — a degraded mode; kJournalMismatch records were
  // recomputed, which is containment working as designed.
  if (journal_) {
    for (const ReplayIssue& issue : journal_->issues()) {
      FlowHealth::WindowFault f;
      f.phase = "journal";
      f.index = issue.offset;
      f.code = issue.code;
      f.origin = issue.segment;
      f.attempts = 1;
      f.degraded = issue.code == FaultCode::kJournalIo;
      h.faults.push_back(std::move(f));
    }
  }
  // A disk-cache tier that went down after a publish I/O error keeps the
  // run bit-identical (the memory tier serves alone) but is a degraded
  // mode worth one phase-"cache" entry per store, in fixed order.
  if (caches_) {
    const DiskCacheStore* stores[] = {caches_->opc.disk_store(),
                                      caches_->latent.disk_store(),
                                      caches_->orc.disk_store()};
    for (const DiskCacheStore* store : stores) {
      if (store == nullptr || !store->degraded()) continue;
      FlowHealth::WindowFault f;
      f.phase = "cache";
      f.index = kNoWindowId;
      f.code = FaultCode::kCacheIo;
      f.origin = store->dir();
      f.attempts = 1;
      f.degraded = true;
      h.faults.push_back(std::move(f));
    }
  }
  for (const FlowHealth::WindowFault& f : h.faults) {
    if (f.attempts > 1) h.retries += f.attempts - 1;
    if (f.recovered) ++h.recovered_windows;
    if (f.degraded) ++h.degraded_windows;
  }
  return h;
}

void PostOpcFlow::reset_health() const {
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  health_state_->faults.clear();
  health_state_->degraded_gates.clear();
}

void PostOpcFlow::record_degraded_gate(GateIdx gate) const {
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  std::vector<GateIdx>& v = health_state_->degraded_gates;
  const auto it = std::lower_bound(v.begin(), v.end(), gate);
  if (it == v.end() || *it != gate) v.insert(it, gate);
}

PostOpcFlow::FlowCacheCounters PostOpcFlow::cache_counters() const {
  FlowCacheCounters c;
  if (caches_) {
    c.opc = caches_->opc.counters();
    c.latent = caches_->latent.counters();
    c.orc = caches_->orc.counters();
  }
  return c;
}

Exposure PostOpcFlow::silicon_exposure(const Exposure& e) const {
  if (!options_.silicon.enabled) return e;
  return {e.focus_nm + options_.silicon.focus_bias_nm,
          e.dose * options_.silicon.dose_scale};
}

StaEngine PostOpcFlow::make_sta() const {
  StaEngine engine(design_->netlist, *lib_);
  if (options_.use_parasitics && !design_->routes.empty()) {
    Extractor ex(design_->tech);
    engine.set_parasitics(ex.extract_design(*design_));
  }
  return engine;
}

StaReport PostOpcFlow::run_sta(
    const std::vector<DelayAnnotation>* annotations) const {
  StaEngine engine = make_sta();
  if (annotations != nullptr) engine.set_annotations(*annotations);
  return engine.run(options_.sta);
}

StaReport PostOpcFlow::run_sta_incremental(
    const std::vector<DelayAnnotation>* annotations) const {
  std::lock_guard<std::mutex> lock(timing_->mutex);
  if (timing_->graph == nullptr) {
    timing_->graph = std::make_unique<TimingGraph>(
        design_->netlist, *lib_, options_.sta, /*threads=*/threads());
    if (options_.use_parasitics && !design_->routes.empty()) {
      Extractor ex(design_->tech);
      timing_->graph->set_parasitics(ex.extract_design(*design_));
    }
  }
  // set_annotations diffs against the graph's current state, so only the
  // gates this re-time actually moved re-propagate.
  if (annotations != nullptr) {
    timing_->graph->set_annotations(*annotations);
  } else {
    timing_->graph->clear_annotations();
  }
  return timing_->graph->report();
}

TimingService PostOpcFlow::make_timing_service() const {
  TimingService service(design_->netlist, *lib_, options_.sta, threads());
  if (options_.use_parasitics && !design_->routes.empty()) {
    Extractor ex(design_->tech);
    service.set_parasitics(ex.extract_design(*design_));
  }
  return service;
}

std::vector<GateIdx> PostOpcFlow::tag_critical_gates(Ps slack_window) const {
  // Warm-graph re-time with drawn CDs; bit-identical to the old
  // StaEngine::critical_gates since both share TimingGraph's propagation.
  const StaReport report = run_sta_incremental(nullptr);
  std::vector<GateIdx> out;
  for (GateIdx g = 0; g < design_->netlist.num_gates(); ++g) {
    if (report.gate_slack[g] <= report.worst_slack + slack_window) {
      out.push_back(g);
    }
  }
  return out;
}

std::size_t PostOpcFlow::threads() const {
  return resolve_threads(options_.threads);
}

PostOpcFlow::InstanceWindow PostOpcFlow::instance_window(
    std::size_t instance) const {
  const Instance& inst = design_->layout.instance(instance);
  const Rect window =
      inst.transform.apply(design_->layout.cell(inst.cell).boundary)
          .inflated(options_.ambit_nm);
  return {window, design_->layout.flatten_layer_polys(window, Layer::kPoly)};
}

PostOpcFlow::OpcWindowResult PostOpcFlow::opc_window(
    std::size_t instance, OpcMode mode, const LithoSimulator& sim,
    const OpcOptions& opc_options, bool use_cache) const {
  OpcWindowResult out;
  const auto [window, targets] = instance_window(instance);
  if (targets.empty()) return out;

  // Cache key: window shape + targets in the local frame, plus everything
  // the correction depends on (mode, OPC options, the model simulator).
  // Retry attempts pass use_cache=false and skip both find and insert:
  // their escalated settings must never populate the nominal key.
  const bool cache = use_cache && caches_ != nullptr;
  const Point anchor{window.xlo, window.ylo};
  Fingerprint fp;
  if (cache) {
    FpHasher h;
    h.str("opc").u64(static_cast<std::uint64_t>(mode));
    h.i64(window.width()).i64(window.height());
    hash_sim(h, sim);
    hash_opc_options(h, opc_options);
    h.polys(targets, anchor);
    fp = h.digest();
    if (const auto hit = caches_->opc.find(fp)) {
      out.mask.reserve(hit->mask.size());
      for (const Rect& r : hit->mask) out.mask.push_back(r.translated(anchor));
      out.stats = hit->stats;
      return out;
    }
  }

  ++out.stats.windows;
  switch (mode) {
    case OpcMode::kNone:
      out.mask = polys_to_mask(targets);
      break;
    case OpcMode::kRuleBased: {
      std::vector<Fragment> frags =
          fragment_polygons(targets, opc_options.fragmentation);
      out.mask = polys_to_mask(rule_based_opc(targets, frags, RuleOpcTable{}));
      out.stats.fragments += frags.size();
      break;
    }
    case OpcMode::kModelBased: {
      OpcEngine engine(sim, opc_options);
      const OpcResult result = engine.correct(targets, window);
      out.mask = result.mask_rects();
      ++out.stats.model_based_windows;
      out.stats.fragments += result.fragments.size();
      out.stats.iterations += result.iterations;
      out.stats.max_abs_epe_nm = result.max_abs_epe_body_nm;
      out.stats.rms_epe_sum += result.rms_epe_body_nm;
      break;
    }
  }

  if (cache) {
    auto entry = std::make_shared<WindowCaches::OpcEntry>();
    const Point to_local{-anchor.x, -anchor.y};
    entry->mask.reserve(out.mask.size());
    for (const Rect& r : out.mask) entry->mask.push_back(r.translated(to_local));
    entry->stats = out.stats;
    const std::size_t cost =
        out.mask.size() * sizeof(Rect) + sizeof(WindowCaches::OpcEntry);
    caches_->opc.insert(fp, std::move(entry), cost);
  }
  return out;
}

/// What a window-shaped hot loop supplies to run_windows: its slots' window
/// ids and the hooks for what differs between OPC, extraction and the scan.
/// Every hook takes the slot index, in [0, ids.size()).
struct PostOpcFlow::WindowPhase {
  const char* name;  ///< FlowHealth phase: "opc" | "extract" | "scan"
  JournalPhase journal_phase;
  fault::Domain domain;
  std::vector<std::uint64_t> ids;  ///< per slot: instance or gate index
  /// Optional.  True leaves the slot as the hook set it: no journal record,
  /// no attempt, no outcome.
  std::function<bool(std::size_t)> skip = nullptr;
  std::function<Fingerprint(std::size_t)> record_fp;
  std::function<std::vector<std::uint8_t>(std::size_t)> encode;
  /// Restores a journaled payload into the slot; false recomputes it.
  std::function<bool(std::size_t, const std::vector<std::uint8_t>&)> decode;
  /// Fills the slot.  Attempt 0 is nominal and may use the window caches;
  /// the retry (attempt 1) must bypass them.
  std::function<void(std::size_t, std::size_t)> compute;
  /// The slot's fallback result once every attempt failed.
  std::function<void(std::size_t)> fallback;
  /// Flags the slot degraded: after the fallback, on replay of a degraded
  /// record, and for an error that escaped the attempt loop.
  std::function<void(std::size_t)> mark_degraded;
};

void PostOpcFlow::run_windows(const WindowPhase& phase) const {
  const bool contain = options_.recovery.enabled;
  const std::size_t n = phase.ids.size();
  const std::string origin = std::string("flow.") + phase.name;
  // options().cancel, or the token the SIGINT/SIGTERM bridge trips.
  const CancelToken* cancel =
      options_.cancel != nullptr ? options_.cancel : &global_cancel_token();
  std::vector<JournalOutcome> outcomes(n);
  // Flush on every exit path — including the kCancelled unwind — so a
  // graceful shutdown leaves each drained window durable on disk.
  struct JournalFlusher {
    RunJournal* j;
    ~JournalFlusher() {
      if (j != nullptr) j->flush();
    }
  } flusher{journal_.get()};

  const auto run_window = [&](std::size_t k) {
    if (phase.skip && phase.skip(k)) return;
    const std::uint64_t id = phase.ids[k];
    JournalOutcome& oc = outcomes[k];
    // A journal hit restores the window's result bits and its containment
    // outcome, so health() matches the uninterrupted run entry for entry; a
    // computed window appends both.
    Fingerprint fp;
    if (journal_) {
      fp = phase.record_fp(k);
      const JournalRecord* hit = journal_->find(fp);
      if (hit != nullptr && phase.decode(k, hit->payload)) {
        oc = hit->outcome;
        if (oc.degraded) phase.mark_degraded(k);
        return;
      }
    }
    const auto append = [&] {
      if (!journal_) return;
      JournalRecord rec;
      rec.phase = phase.journal_phase;
      rec.index = id;
      rec.fp = fp;
      rec.outcome = oc;
      rec.payload = phase.encode(k);
      journal_->append(std::move(rec));
    };
    // Fail-fast mode still names its windows for the fault harness, so an
    // injected fault aborts the run instead of being silently skipped, and
    // runs the same loop with one attempt and the original exception
    // rethrown.
    fault::Scope scope(phase.domain, id);
    const std::uint32_t attempts = contain ? kContainedAttempts : 1;
    for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
      try {
        fault::maybe_throw(fault::Kind::kAlloc);
        phase.compute(k, attempt);
        oc.attempts = attempt + 1;
        oc.recovered = attempt > 0;
        append();
        return;
      } catch (...) {
        if (!contain) throw;
        if (!oc.faulted) set_fault(oc, capture_flow_error(id, origin));
        oc.attempts = attempt + 1;
      }
    }
    oc.degraded = true;
    phase.fallback(k);
    phase.mark_degraded(k);
    append();
  };

  if (contain) {
    // The attempt loop absorbs every window fault, so try_parallel_for
    // only reports bugs in the bookkeeping around it (journal, fingerprint,
    // fallback) — still fold them in rather than lose them.
    const std::vector<IndexedError> escaped = try_parallel_for(
        threads(), n, /*chunk=*/1, run_window, origin, cancel);
    for (const IndexedError& e : escaped) {
      set_fault(outcomes[e.index], e.error);
      outcomes[e.index].degraded = true;
      phase.mark_degraded(e.index);
    }
  } else {
    parallel_for(threads(), n, /*chunk=*/1, run_window, cancel);
  }
  // Outcomes (the journal's record type, so a replay restores one as is)
  // merge into health in window-index order on this thread.
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  for (std::size_t k = 0; k < n; ++k) {
    const JournalOutcome& oc = outcomes[k];
    if (!oc.faulted) continue;
    FlowHealth::WindowFault f;
    f.phase = phase.name;
    f.index = phase.ids[k];
    f.code = oc.code;
    f.origin = oc.origin;
    f.attempts = oc.attempts;
    f.recovered = oc.recovered;
    f.degraded = oc.degraded;
    log_warn("flow ", phase.name, " window ", f.index, " fault ",
             FlowError{oc.code, f.index, oc.origin, oc.message}.to_string(),
             oc.degraded ? " -> degraded"
                         : (oc.recovered ? " -> recovered" : ""));
    health_state_->faults.push_back(std::move(f));
  }
}

void PostOpcFlow::run_opc_windows(
    const std::function<OpcMode(std::size_t)>& mode_for_instance,
    const std::vector<std::size_t>* subset) {
  const std::size_t n = design_->layout.num_instances();
  masks_.assign(n, {});
  opc_degraded_.assign(n, 0);
  // Loop space: all instances, or a shard's subset of them.  Slots stay
  // design-sized (indexed by instance); slot k maps through ids[k] so the
  // shard path shares every line below.
  const std::vector<std::uint64_t> ids =
      subset != nullptr
          ? std::vector<std::uint64_t>(subset->begin(), subset->end())
          : window_ids(n);
  // Each window writes its own mask slot; the per-window stats are merged
  // on the calling thread in instance order, so the aggregate is
  // bit-identical whatever the thread count.
  std::vector<OpcStats> per_window(n);
  // The retry: sign-off quality for the draft iterations, on the Abbe
  // reference engine.  The OPC engine is the options' own, so the retry
  // keeps the nominal simulator.
  OpcOptions retry_opc = options_.opc;
  retry_opc.sim_quality = retry_opc.final_quality;
  retry_opc.imaging = ImagingMode::kAbbe;
  run_windows({
      .name = "opc",
      .journal_phase = JournalPhase::kOpc,
      .domain = fault::Domain::kOpc,
      .ids = ids,
      .record_fp =
          [&](std::size_t k) {
            return opc_record_fp(ids[k], mode_for_instance(ids[k]));
          },
      .encode =
          [&](std::size_t k) {
            return encode_opc_payload(masks_[ids[k]], per_window[ids[k]],
                                      opc_degraded_[ids[k]] != 0);
          },
      .decode =
          [&](std::size_t k, const std::vector<std::uint8_t>& bytes) {
            bool degraded = false;
            if (!decode_opc_payload(bytes, masks_[ids[k]], per_window[ids[k]],
                                    degraded)) {
              return false;
            }
            opc_degraded_[ids[k]] = degraded ? 1 : 0;
            return true;
          },
      .compute =
          [&](std::size_t k, std::size_t attempt) {
            const std::size_t i = ids[k];
            const bool nominal = attempt == 0;
            OpcWindowResult r = opc_window(
                i, mode_for_instance(i), sim_,
                nominal ? options_.opc : retry_opc, /*use_cache=*/nominal);
            masks_[i] = std::move(r.mask);
            per_window[i] = r.stats;
          },
      // Keep the run alive on the drawn (uncorrected) mask, and flag the
      // instance so its gates fall back to drawn-CD timing instead of
      // extracting CDs from a silently-uncorrected mask.
      .fallback =
          [&](std::size_t k) {
            const std::size_t i = ids[k];
            try {
              masks_[i] = polys_to_mask(instance_window(i).targets);
            } catch (...) {
              masks_[i].clear();
            }
            per_window[i] = {};
            per_window[i].windows = 1;
          },
      .mark_degraded = [&](std::size_t k) { opc_degraded_[ids[k]] = 1; },
  });
  opc_stats_ = {};
  for (const OpcStats& w : per_window) opc_stats_ = merge_stats(opc_stats_, w);
  if (caches_) log_cache("OPC window", caches_->opc.counters());
}

void PostOpcFlow::run_opc(OpcMode mode) {
  run_opc_windows([mode](std::size_t) { return mode; });
  log_info("OPC done: ", opc_stats_.windows, " windows, ",
           opc_stats_.fragments, " fragments, max EPE ",
           opc_stats_.max_abs_epe_nm, " nm");
}

void PostOpcFlow::run_opc_subset(OpcMode mode,
                                 const std::vector<std::size_t>& instances) {
  run_opc_windows([mode](std::size_t) { return mode; }, &instances);
  log_info("OPC shard done: ", instances.size(), "/",
           design_->layout.num_instances(), " windows, ",
           opc_stats_.fragments, " fragments, max EPE ",
           opc_stats_.max_abs_epe_nm, " nm");
}

void PostOpcFlow::run_opc_selective(
    const std::vector<GateIdx>& critical_gates) {
  std::vector<bool> is_critical_instance(design_->layout.num_instances(),
                                         false);
  for (GateIdx g : critical_gates) {
    is_critical_instance[design_->gate_to_instance[g]] = true;
  }
  run_opc_windows([&is_critical_instance](std::size_t i) {
    return is_critical_instance[i] ? OpcMode::kModelBased
                                   : OpcMode::kRuleBased;
  });
  log_info("selective OPC done: ", opc_stats_.model_based_windows, "/",
           opc_stats_.windows, " windows model-based");
}

const std::vector<Rect>& PostOpcFlow::mask_for_instance(
    std::size_t instance) const {
  POC_EXPECTS(instance < masks_.size());
  return masks_[instance];
}

GateExtraction PostOpcFlow::extract_gate(GateIdx gate,
                                         const ImageView& latent,
                                         double threshold) const {
  GateExtraction ext;
  ext.gate = gate;
  const CharParams& cp = lib_->char_params();
  for (const PlacedGate* pg : design_->gates_of(gate)) {
    const Instance& inst = design_->layout.instance(pg->instance);
    const GateInfo& info =
        design_->layout.cell(inst.cell).gates[pg->gate_in_cell];
    DeviceCd dev;
    dev.device = info.device;
    dev.is_nmos = info.is_nmos;
    dev.drawn_l_nm = static_cast<double>(info.drawn_l);
    dev.drawn_w_nm = static_cast<double>(info.drawn_w);
    dev.profile = extract_gate_cd(latent, threshold, pg->region,
                                  pg->vertical_poly, options_.cdx);
    dev.eq = equivalent_gate(dev.profile, dev.drawn_w_nm,
                             dev.is_nmos ? cp.nmos : cp.pmos);
    ext.devices.push_back(std::move(dev));
  }
  return ext;
}

std::vector<GateExtraction> PostOpcFlow::extract_impl(
    const LithoSimulator& sim, const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  POC_EXPECTS(!masks_.empty());  // run_opc first
  const std::vector<std::uint64_t> gates =
      subset ? std::vector<std::uint64_t>(subset->begin(), subset->end())
             : window_ids(design_->netlist.num_gates());
  // Per-gate silicon/model litho simulation + CD extraction is the flow's
  // dominant cost; every gate is independent and writes its own slot.  The
  // slot keeps its gate id whatever happens: an empty-device record is
  // exactly the existing "gate without extraction" path in annotate
  // (drawn-CD timing), and it still consumes its ACLV noise draw so every
  // other gate's offset is unchanged.
  std::vector<GateExtraction> out(gates.size());
  for (std::size_t k = 0; k < gates.size(); ++k) out[k].gate = gates[k];
  // The retry: sign-off quality, on the Abbe reference engine when the
  // nominal path runs SOCS.
  const LithoSimulator retry = retry_sim(sim);
  run_windows({
      .name = "extract",
      .journal_phase = JournalPhase::kExtract,
      .domain = fault::Domain::kExtract,
      .ids = gates,
      // The instance's OPC window already degraded; its drawn-mask fallback
      // must not feed CDs into STA.  Cheap enough that it is re-derived on
      // resume rather than journaled.
      .skip =
          [&](std::size_t k) {
            if (!opc_degraded_[design_->gate_to_instance[gates[k]]]) {
              return false;
            }
            record_degraded_gate(gates[k]);
            return true;
          },
      .record_fp =
          [&](std::size_t k) {
            return extract_record_fp(sim, exposure, gates[k]);
          },
      .encode = [&](std::size_t k) { return encode_extract_payload(out[k]); },
      .decode =
          [&](std::size_t k, const std::vector<std::uint8_t>& bytes) {
            return decode_extract_payload(bytes, out[k]);
          },
      .compute =
          [&](std::size_t k, std::size_t attempt) {
            const GateIdx g = gates[k];
            const bool nominal = attempt == 0;
            const LithoSimulator& s = nominal ? sim : retry;
            const WindowLatent latent = latent_for_window(
                s, mask_for_instance(design_->gate_to_instance[g]),
                design_->litho_window(g, options_.ambit_nm), exposure,
                nominal ? options_.extract_quality : kEscalatedQuality,
                /*use_cache=*/nominal);
            out[k] = extract_gate(g, latent.view, s.print_threshold());
          },
      .fallback = [&](std::size_t k) { out[k].devices.clear(); },
      .mark_degraded = [&](std::size_t k) { record_degraded_gate(gates[k]); },
  });
  if (caches_) {
    const CacheCounters c = caches_->latent.counters();
    log_debug("latent cache: ", c.hits, " hits / ", c.misses, " misses (",
              c.hit_rate() * 100.0, "% hit rate)");
  }
  return out;
}

PostOpcFlow::WindowLatent PostOpcFlow::latent_for_window(
    const LithoSimulator& sim, const std::vector<Rect>& mask,
    const Rect& window, const Exposure& exposure, LithoQuality quality,
    bool use_cache) const {
  const auto fresh = [](Image2D latent) {
    auto pixels = std::make_shared<const Image2D>(std::move(latent));
    const ImageView view(*pixels);
    return WindowLatent{std::move(pixels), view};
  };
  if (!caches_ || !use_cache) {
    return fresh(sim.latent(mask, window, exposure, quality));
  }
  // The latent image depends on optics, resist diffusion (the threshold
  // only applies downstream, at contour extraction), exposure, quality and
  // the mask in the local frame.  Image origins are window.xlo/ylo minus a
  // half-integer centering offset, so rebasing them between frames is exact
  // in doubles: a translated replay equals a recompute bit for bit.
  const Point anchor{window.xlo, window.ylo};
  FpHasher h;
  h.str("latent");
  hash_optics(h, sim.optics());
  hash_imaging(h, sim.imaging());
  h.f64(sim.resist().diffusion_nm);
  hash_exposure(h, exposure);
  h.u64(static_cast<std::uint64_t>(quality));
  h.i64(window.width()).i64(window.height());
  h.rects(mask, anchor);
  const Fingerprint fp = h.digest();

  const double ax = static_cast<double>(anchor.x);
  const double ay = static_cast<double>(anchor.y);
  if (auto hit = caches_->latent.find(fp)) {
    // Read the entry in place at this window's origin: the view holds the
    // very doubles a rebased copy would, so every sample is bit-identical.
    const ImageView view(*hit, hit->origin_x() + ax, hit->origin_y() + ay);
    return WindowLatent{std::move(hit), view};
  }

  Image2D latent = sim.latent(mask, window, exposure, quality);
  auto entry = std::make_shared<Image2D>(latent.nx(), latent.ny(),
                                         latent.pixel(), latent.origin_x() - ax,
                                         latent.origin_y() - ay);
  entry->data() = latent.data();
  const std::size_t cost =
      latent.nx() * latent.ny() * sizeof(double) + sizeof(Image2D);
  caches_->latent.insert(fp, std::move(entry), cost);
  return fresh(std::move(latent));
}

std::vector<GateExtraction> PostOpcFlow::extract(
    const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  return extract_impl(silicon_sim_, silicon_exposure(exposure), subset);
}

std::vector<GateExtraction> PostOpcFlow::extract_with_model(
    const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  return extract_impl(sim_, exposure, subset);
}

namespace {

/// Recomputes the equivalent gate with a uniform CD offset (ACLV noise).
EquivalentGate eq_with_offset(const DeviceCd& dev, double offset_nm,
                              const MosfetParams& params) {
  GateCdProfile shifted = dev.profile;
  for (double& cd : shifted.slice_cd_nm) {
    if (cd > 0.0) cd = std::max(1.0, cd + offset_nm);
  }
  return equivalent_gate(shifted, dev.drawn_w_nm, params);
}

}  // namespace

std::vector<DelayAnnotation> PostOpcFlow::annotate(
    const std::vector<GateExtraction>& extractions) const {
  Rng no_noise(0);
  return annotate_with_aclv(extractions, 0.0, no_noise);
}

std::vector<DelayAnnotation> PostOpcFlow::annotate_with_aclv(
    const std::vector<GateExtraction>& extractions, double aclv_sigma_nm,
    Rng& rng) const {
  const Netlist& nl = design_->netlist;
  const CharParams& cp = lib_->char_params();
  std::vector<DelayAnnotation> ann(nl.num_gates());
  for (const GateExtraction& ext : extractions) {
    POC_EXPECTS(ext.gate < ann.size());
    const double offset =
        aclv_sigma_nm > 0.0 ? rng.normal(0.0, aclv_sigma_nm) : 0.0;
    double n_drive = 0.0, p_drive = 0.0, leak_num = 0.0, leak_den = 0.0;
    std::size_t n_count = 0, p_count = 0;
    for (const DeviceCd& dev : ext.devices) {
      const MosfetParams& mp = dev.is_nmos ? cp.nmos : cp.pmos;
      const EquivalentGate eq =
          offset == 0.0 ? dev.eq : eq_with_offset(dev, offset, mp);
      const double drive = eq.drive_ratio_vs(dev.drawn_l_nm, mp);
      const double leak = eq.leak_ratio_vs(dev.drawn_l_nm, mp);
      if (dev.is_nmos) {
        n_drive += drive;
        ++n_count;
      } else {
        p_drive += drive;
        ++p_count;
      }
      // Weight leakage ratios by the device's drawn leakage contribution.
      const double base = mp.ioff_per_um(dev.drawn_l_nm) * eq.width_um;
      leak_num += leak * base;
      leak_den += base;
    }
    DelayAnnotation& a = ann[ext.gate];
    if (n_count > 0) {
      a.fall_scale = 1.0 / safe_ratio(n_drive / static_cast<double>(n_count));
    }
    if (p_count > 0) {
      a.rise_scale = 1.0 / safe_ratio(p_drive / static_cast<double>(p_count));
    }
    if (leak_den > 0.0) a.leak_scale = leak_num / leak_den;
  }
  return ann;
}

TimingComparison PostOpcFlow::compare_timing(const Exposure& exposure) {
  TimingComparison cmp;
  // Both re-times go through the warm graph: the drawn run marks whatever
  // the previous state left dirty, the annotated run re-propagates only the
  // gates whose extracted CDs moved off drawn.  Reports stay bit-identical
  // to stateless run_sta (GoldenT2 pins this).
  cmp.drawn = run_sta_incremental(nullptr);
  const std::vector<GateExtraction> ext = extract(exposure);
  // Silicon CDs carry the across-chip random component on top of the
  // systematic residual; deterministic in the flow seed.
  Rng rng(options_.seed);
  const std::vector<DelayAnnotation> ann = annotate_with_aclv(
      ext, options_.silicon.enabled ? options_.silicon.aclv_sigma_nm : 0.0,
      rng);
  cmp.annotated = run_sta_incremental(&ann);
  cmp.ranks =
      compare_path_ranks(design_->netlist, cmp.drawn.paths,
                         cmp.annotated.paths);
  if (cmp.drawn.worst_slack != 0.0) {
    cmp.worst_slack_change_pct =
        (cmp.annotated.worst_slack - cmp.drawn.worst_slack) /
        std::abs(cmp.drawn.worst_slack) * 100.0;
  }
  if (cmp.drawn.total_leakage_ua > 0.0) {
    cmp.leakage_change_pct = (cmp.annotated.total_leakage_ua -
                              cmp.drawn.total_leakage_ua) /
                             cmp.drawn.total_leakage_ua * 100.0;
  }
  cmp.health = health();
  if (!cmp.health.clean()) {
    log_warn("flow health: ", cmp.health.faults.size(), " faulted windows, ",
             cmp.health.recovered_windows, " recovered, ",
             cmp.health.degraded_windows, " degraded (",
             cmp.health.degraded_gates.size(), " gates on drawn-CD timing)");
  }
  return cmp;
}

PostOpcFlow::HotspotReport PostOpcFlow::scan_hotspots(
    const std::vector<ProcessCorner>& conditions,
    const OrcOptions& orc_options) const {
  POC_EXPECTS(!masks_.empty());  // run_opc first
  const OpcEngine engine(sim_, options_.opc);
  const std::size_t n = design_->layout.num_instances();
  // Per-window ORC across all corners; partial reports land in per-window
  // slots and merge in instance order, so violation order and counts match
  // the serial scan exactly.  Retries (`use_cache` false) bypass the ORC
  // cache so nothing computed on the recovery path lands under the nominal
  // key.
  const auto scan_window = [&](std::size_t i, bool use_cache) {
    HotspotReport partial;
    const bool cache_window = caches_ != nullptr && use_cache;
    const auto [window, targets] = instance_window(i);
    if (targets.empty()) return partial;
    ++partial.windows_checked;
    const Point anchor{window.xlo, window.ylo};
    // Everything but the exposure is corner-invariant, so the window
    // geometry is hashed once and the hasher forked per corner.  The
    // key covers both simulators: run_orc probes pinch/bridge with the
    // silicon latent and measures EPE through the engine's model sim.
    FpHasher base;
    if (cache_window) {
      base.str("orc");
      hash_sim(base, silicon_sim_);
      hash_sim(base, sim_);
      hash_opc_options(base, options_.opc);
      hash_orc_options(base, orc_options);
      base.i64(window.width()).i64(window.height());
      base.polys(targets, anchor);
      base.rects(mask_for_instance(i), anchor);
    }
    for (const ProcessCorner& corner : conditions) {
      // Hotspots are judged against the silicon reference, not the
      // model.
      const Exposure exposure = silicon_exposure(corner.exposure);
      OrcReport orc;
      bool cached = false;
      Fingerprint fp;
      if (cache_window) {
        FpHasher h = base;
        hash_exposure(h, exposure);
        fp = h.digest();
        if (const auto hit = caches_->orc.find(fp)) {
          orc = hit->report;
          for (OrcViolation& v : orc.violations) {
            v.where = v.where + anchor;
          }
          cached = true;
        }
      }
      if (!cached) {
        orc = run_orc(silicon_sim_, engine, targets, mask_for_instance(i),
                      window, exposure, orc_options);
        if (cache_window) {
          auto entry = std::make_shared<WindowCaches::OrcEntry>();
          entry->report = orc;
          const Point to_local{-anchor.x, -anchor.y};
          for (OrcViolation& v : entry->report.violations) {
            v.where = v.where + to_local;
          }
          const std::size_t cost =
              orc.violations.size() * sizeof(OrcViolation) +
              sizeof(WindowCaches::OrcEntry);
          caches_->orc.insert(fp, std::move(entry), cost);
        }
      }
      for (const OrcViolation& v : orc.violations) {
        switch (v.kind) {
          case OrcViolation::Kind::kPinch: ++partial.pinches; break;
          case OrcViolation::Kind::kBridge: ++partial.bridges; break;
          case OrcViolation::Kind::kEpe: ++partial.epe_violations; break;
        }
        partial.hotspots.push_back({i, corner.name, v});
      }
    }
    return partial;
  };

  std::vector<HotspotReport> slots(n);
  // Degrade: the window's violations are dropped (conservative for timing,
  // not for ORC — the fault record is the signal).
  const auto drop = [&](std::size_t i) { slots[i] = {}; };
  run_windows({
      .name = "scan",
      .journal_phase = JournalPhase::kScan,
      .domain = fault::Domain::kScan,
      .ids = window_ids(n),
      .record_fp =
          [&](std::size_t i) {
            return scan_record_fp(i, conditions, orc_options);
          },
      .encode = [&](std::size_t i) { return encode_scan_payload(slots[i]); },
      .decode =
          [&](std::size_t i, const std::vector<std::uint8_t>& bytes) {
            return decode_scan_payload(bytes, slots[i]);
          },
      // The retry reruns the window uncached, with unchanged settings.
      .compute =
          [&](std::size_t i, std::size_t attempt) {
            slots[i] = scan_window(i, /*use_cache=*/attempt == 0);
          },
      .fallback = drop,
      .mark_degraded = drop,
  });

  HotspotReport report;
  for (HotspotReport& w : slots) {
    report.windows_checked += w.windows_checked;
    report.pinches += w.pinches;
    report.bridges += w.bridges;
    report.epe_violations += w.epe_violations;
    report.hotspots.insert(report.hotspots.end(),
                           std::make_move_iterator(w.hotspots.begin()),
                           std::make_move_iterator(w.hotspots.end()));
  }
  log_info("hotspot scan: ", report.hotspots.size(), " violations over ",
           report.windows_checked, " windows x ", conditions.size(),
           " conditions");
  if (caches_) log_cache("ORC", caches_->orc.counters());
  return report;
}

std::vector<PostOpcFlow::DeviceResponse> PostOpcFlow::fit_responses(
    const std::optional<std::vector<GateIdx>>& subset) const {
  const std::vector<Exposure> grid = response_fit_grid();
  POC_EXPECTS(!grid.empty());
  // Extraction per grid point; the grid point closest to nominal (focus 0,
  // dose 1) provides the slice shape.  Nearest-point selection (distances
  // normalized by typical process-window half-widths: 150 nm focus, 10 %
  // dose) keeps this correct for grids that do not sample nominal exactly
  // — the old exact-match scan silently fell back to grid[0], the extreme
  // negative-focus/low-dose corner.
  std::vector<std::vector<GateExtraction>> per_exposure;
  per_exposure.reserve(grid.size());
  for (const Exposure& e : grid) {
    per_exposure.push_back(extract(e, subset));
  }
  std::size_t nominal_idx = 0;
  double nominal_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double df = grid[i].focus_nm / 150.0;
    const double dd = (grid[i].dose - 1.0) / 0.10;
    const double dist = df * df + dd * dd;
    if (dist < nominal_dist) {
      nominal_dist = dist;
      nominal_idx = i;
    }
  }
  std::vector<DeviceResponse> out;
  const std::size_t num_gates = per_exposure.front().size();
  for (std::size_t gi = 0; gi < num_gates; ++gi) {
    const GateExtraction& nominal = per_exposure[nominal_idx][gi];
    for (std::size_t di = 0; di < nominal.devices.size(); ++di) {
      DeviceResponse resp;
      resp.gate = nominal.gate;
      resp.device = nominal.devices[di].device;
      resp.is_nmos = nominal.devices[di].is_nmos;
      resp.drawn_l_nm = nominal.devices[di].drawn_l_nm;
      resp.drawn_w_nm = nominal.devices[di].drawn_w_nm;
      std::vector<std::pair<Exposure, double>> samples;
      for (std::size_t e = 0; e < grid.size(); ++e) {
        samples.emplace_back(grid[e],
                             per_exposure[e][gi].devices[di].profile.mean_cd());
      }
      resp.mean_cd = fit_cd_response(samples);
      const GateCdProfile& prof = nominal.devices[di].profile;
      const double mean = prof.mean_cd();
      for (double cd : prof.slice_cd_nm) {
        resp.slice_offsets_nm.push_back(cd > 0.0 ? cd - mean : 0.0);
      }
      resp.slice_width_nm = prof.slice_width_nm;
      out.push_back(std::move(resp));
    }
  }
  return out;
}

std::vector<GateExtraction> PostOpcFlow::mc_extraction(
    const std::vector<DeviceResponse>& responses, const Exposure& exposure,
    double aclv_sigma_nm, Rng& rng) const {
  const CharParams& cp = lib_->char_params();
  std::vector<GateExtraction> out;
  std::unordered_map<std::size_t, std::size_t> gate_slot;
  std::unordered_map<std::size_t, double> gate_aclv;
  for (const DeviceResponse& r : responses) {
    if (!gate_slot.contains(r.gate)) {
      gate_slot[r.gate] = out.size();
      gate_aclv[r.gate] =
          aclv_sigma_nm > 0.0 ? rng.normal(0.0, aclv_sigma_nm) : 0.0;
      GateExtraction ext;
      ext.gate = r.gate;
      out.push_back(std::move(ext));
    }
    DeviceCd dev;
    dev.device = r.device;
    dev.is_nmos = r.is_nmos;
    dev.drawn_l_nm = r.drawn_l_nm;
    dev.drawn_w_nm = r.drawn_w_nm;
    const double mean = r.mean_cd.eval(exposure) + gate_aclv[r.gate];
    dev.profile.drawn_cd_nm = r.drawn_l_nm;
    dev.profile.slice_width_nm = r.slice_width_nm;
    for (double off : r.slice_offsets_nm) {
      dev.profile.slice_cd_nm.push_back(std::max(1.0, mean + off));
    }
    dev.eq = equivalent_gate(dev.profile, dev.drawn_w_nm,
                             dev.is_nmos ? cp.nmos : cp.pmos);
    out[gate_slot[r.gate]].devices.push_back(std::move(dev));
  }
  return out;
}

}  // namespace poc
