// Sharded multi-process full-chip run demo: one binary, two modes.
//
// Coordinator (default): partitions the design's instance windows into one
// shard per worker, fork/execs itself (`/proc/self/exe --worker-mode ...`)
// once per shard, merges the workers' private journals (read-only) in
// global window-index order, replays the merged journal through the
// standard restore path (residual windows recompute in-process), and runs
// STA once.
// Workers share a spill-to-disk window cache under the work dir, so a
// window computed by worker 0 is a disk hit for worker 3.
//
//   ./shard_worker --design tiled120 --workers 4        sharded run
//   ./shard_worker --workers 2 --policy interleaved     round-robin shards
//   ./shard_worker --workers 2 --kill-worker 1 --kill-after 10
//       worker 1 SIGKILLs itself after 10 journaled windows; the
//       coordinator merges what its journal holds, recomputes the residual
//       windows, and the final timing comparison is bit-identical to an
//       undisturbed run (scripts/shard_smoke.sh asserts this).
//   ./shard_worker --workers 2 --stall-worker 1 --stall-after 5
//                  --watchdog-timeout-ms 1500
//       worker 1 hangs after 5 journaled windows; the coordinator's
//       watchdog detects the silent heartbeat channel, SIGKILLs the
//       worker, respawns it (it resumes from its sealed journal), and the
//       result stays bit-identical (scripts/chaos_smoke.sh asserts this).
//       --stall-always makes every respawn re-stall, driving the
//       retries-exhausted path: the residual range is redistributed
//       across fresh sub-shards.
//   ./shard_worker --workers 2 --fault-journal-enospc   injected disk-full
//       on every journal append: the run completes undurably, same bits.
//   ./shard_worker --workers 2 --fault-disk-eio         injected EIO on
//       disk-cache publishes: the disk tier goes down, memory tier and
//       the run itself are unaffected.
//
// The per-run layout under --work-dir:
//   run.wNN.stats  worker NN's heartbeats, wall time / peak RSS / cache
//                  counters
//   wNN/journal/   worker NN's private write-ahead journal, the only record
//                  it leaves (the coordinator reads it, never writes it)
//   cache/         shared content-addressed disk cache (opc/latent/orc)
//   merged/        the merged journal the final restore replays
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/log.h"
#include "src/core/flow_shard.h"
#include "src/netlist/generators.h"
#include "src/pnr/design.h"

using namespace poc;

namespace {

struct Args {
  bool worker_mode = false;
  std::string design = "tiled120";
  std::string work_dir;
  std::size_t workers = 2;
  std::size_t threads = 0;
  ShardPolicy policy = ShardPolicy::kContiguous;
  bool fresh = false;
  bool disk_cache = true;
  bool in_process = false;
  // Failure injection: --kill-worker W (coordinator) picks the victim;
  // --kill-after N rides into that worker's argv.
  std::size_t kill_worker = static_cast<std::size_t>(-1);
  std::size_t kill_after = 0;
  // Stall injection: --stall-worker W hangs after --stall-after N appends
  // (--stall-always re-stalls every respawn attempt).
  std::size_t stall_worker = static_cast<std::size_t>(-1);
  std::size_t stall_after = 0;
  bool stall_always = false;
  // Watchdog knobs: --watchdog-timeout-ms > 0 turns self-healing on.
  std::uint64_t watchdog_timeout_ms = 0;
  std::uint32_t watchdog_retries = 1;
  std::uint64_t watchdog_poll_ms = 20;
  std::uint64_t watchdog_backoff_ms = 50;
  std::size_t heartbeat_every = 1;
  // I/O fault injection (sticky wildcards through the vfs shim).
  bool fault_journal_enospc = false;
  bool fault_disk_eio = false;
  // Worker-mode shard parameters (filled from the coordinator's argv).
  std::uint32_t worker_id = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t residue = kShardResidueSelf;  ///< sub-shard residue class
};

/// Flow config shared verbatim by the coordinator's final pass and every
/// worker — any divergence would change the config fingerprint and make
/// the coordinator reject the workers' journals.
FlowOptions make_base(const Args& args) {
  FlowOptions opts;
  opts.sta.clock_period = 2200.0;
  opts.threads = args.threads;
  if (args.disk_cache) opts.cache.disk_path = args.work_dir + "/cache";
  return opts;
}

int run_worker(const Args& args, const PlacedDesign& design,
               const StdCellLibrary& lib) {
  ShardWorkerOptions wo;
  wo.spec.worker = args.worker_id;
  wo.spec.workers = static_cast<std::uint32_t>(args.workers);
  wo.spec.policy = args.policy;
  wo.spec.lo = args.lo;
  wo.spec.hi = args.hi;
  wo.spec.residue = args.residue;
  wo.work_dir = args.work_dir;
  wo.kill_after_appends = args.kill_after;
  wo.heartbeat_every_appends = args.heartbeat_every;
  wo.stall_after_appends = args.stall_after;
  wo.stall_once = !args.stall_always;
  return run_shard_worker(design, lib, LithoSimulator{}, make_base(args), wo)
             ? 0
             : 1;
}

int run_coordinator(const Args& args, const PlacedDesign& design,
                    const StdCellLibrary& lib) {
  ShardFlowOptions so;
  so.workers = args.workers;
  so.policy = args.policy;
  so.work_dir = args.work_dir;
  so.share_disk_cache = args.disk_cache;
  so.watchdog.enabled = args.watchdog_timeout_ms > 0;
  so.watchdog.no_progress_timeout_ms = args.watchdog_timeout_ms;
  so.watchdog.poll_interval_ms = args.watchdog_poll_ms;
  so.watchdog.max_respawns = args.watchdog_retries;
  so.watchdog.backoff_initial_ms = args.watchdog_backoff_ms;
  so.heartbeat_every_appends = args.heartbeat_every;
  if (args.in_process && args.stall_after > 0) {
    so.stall_worker = static_cast<std::uint32_t>(args.stall_worker);
    so.stall_after_appends = args.stall_after;
    so.stall_once = !args.stall_always;
  }
  if (!args.in_process) {
    // Capture by value: the lambda outlives this block (run_sharded_flow
    // invokes it after the workers are partitioned).
    so.worker_command = [args](const ShardSpec& spec) {
      std::vector<std::string> argv = {
          "/proc/self/exe",
          "--worker-mode",
          "--design", args.design,
          "--work-dir", args.work_dir,
          "--worker-id", std::to_string(spec.worker),
          "--workers", std::to_string(spec.workers),
          "--policy", shard_policy_name(spec.policy),
          "--lo", std::to_string(spec.lo),
          "--hi", std::to_string(spec.hi),
          "--threads", std::to_string(args.threads),
      };
      if (!args.disk_cache) argv.push_back("--no-disk-cache");
      if (args.heartbeat_every != 1) {
        argv.push_back("--heartbeat-every");
        argv.push_back(std::to_string(args.heartbeat_every));
      }
      if (spec.residue != kShardResidueSelf) {
        argv.push_back("--residue");
        argv.push_back(std::to_string(spec.residue));
      }
      if (spec.worker == args.kill_worker && args.kill_after > 0) {
        argv.push_back("--kill-after");
        argv.push_back(std::to_string(args.kill_after));
      }
      if (spec.worker == args.stall_worker && args.stall_after > 0) {
        argv.push_back("--stall-after");
        argv.push_back(std::to_string(args.stall_after));
        if (args.stall_always) argv.push_back("--stall-always");
      }
      // The I/O fault plan rides to every worker process: the injection
      // is keyed by (kind, domain), so each process re-installs it.
      if (args.fault_journal_enospc) argv.push_back("--fault-journal-enospc");
      if (args.fault_disk_eio) argv.push_back("--fault-disk-eio");
      return argv;
    };
  }

  const ShardFlowResult result =
      run_sharded_flow(design, lib, LithoSimulator{}, make_base(args), so);

  for (const WorkerSegmentOutcome& wo : result.merge.workers) {
    std::printf("worker %02u: %zu records, %zu replay issues%s\n", wo.worker,
                wo.records, wo.issues.size(),
                wo.found ? "" : " [journal missing]");
  }
  for (const WorkerIntervention& iv : result.interventions) {
    std::printf("intervention: worker %u attempt %u %s (%s)\n", iv.worker,
                iv.attempt, worker_intervention_name(iv.kind),
                iv.detail.c_str());
  }
  for (const FlowHealth::WindowFault& f : result.shard_health.faults) {
    std::printf("shard fault: worker %llu %s (%s)\n",
                static_cast<unsigned long long>(f.index),
                fault_code_name(f.code), f.origin.c_str());
  }
  const CacheCounters cache = result.cache.total();
  std::printf("merged %zu records (%zu duplicates dropped), "
              "residual windows recomputed: %zu\n",
              result.merge.records.size(), result.merge.duplicate_records,
              result.residual_windows);
  std::printf("final pass cache: %llu mem hits, %llu disk hits, %llu misses\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.disk_hits),
              static_cast<unsigned long long>(cache.misses));
  std::printf("annotated worst slack: %.9f ps (drawn %.9f ps)\n",
              result.comparison.annotated.worst_slack,
              result.comparison.drawn.worst_slack);
  // Greppable one-liner for scripts/shard_smoke.sh and the bench harness:
  // ws must be bit-identical for any worker count and any kill point.
  std::printf("SHARD_RESULT workers=%zu policy=%s ws=%.9f residual=%zu "
              "shard_faults=%zu disk_hits=%llu interventions=%zu "
              "redistributed=%zu\n",
              args.workers, shard_policy_name(args.policy),
              result.comparison.annotated.worst_slack,
              result.residual_windows, result.shard_health.faults.size(),
              static_cast<unsigned long long>(cache.disk_hits),
              result.interventions.size(), result.redistributed_windows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);

  Args args;
  args.work_dir =
      (std::filesystem::temp_directory_path() / "poc_shard_run").string();
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--worker-mode") == 0) {
      args.worker_mode = true;
    } else if (std::strcmp(argv[i], "--design") == 0) {
      args.design = next("--design");
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      args.work_dir = next("--work-dir");
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      args.workers = static_cast<std::size_t>(std::atoll(next("--workers")));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.threads = static_cast<std::size_t>(std::atoll(next("--threads")));
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      const char* p = next("--policy");
      if (std::strcmp(p, "interleaved") == 0) {
        args.policy = ShardPolicy::kInterleaved;
      } else if (std::strcmp(p, "contiguous") == 0) {
        args.policy = ShardPolicy::kContiguous;
      } else {
        std::fprintf(stderr, "unknown policy: %s\n", p);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--fresh") == 0) {
      args.fresh = true;
    } else if (std::strcmp(argv[i], "--no-disk-cache") == 0) {
      args.disk_cache = false;
    } else if (std::strcmp(argv[i], "--in-process") == 0) {
      args.in_process = true;
    } else if (std::strcmp(argv[i], "--kill-worker") == 0) {
      args.kill_worker =
          static_cast<std::size_t>(std::atoll(next("--kill-worker")));
    } else if (std::strcmp(argv[i], "--kill-after") == 0) {
      args.kill_after =
          static_cast<std::size_t>(std::atoll(next("--kill-after")));
    } else if (std::strcmp(argv[i], "--stall-worker") == 0) {
      args.stall_worker =
          static_cast<std::size_t>(std::atoll(next("--stall-worker")));
    } else if (std::strcmp(argv[i], "--stall-after") == 0) {
      args.stall_after =
          static_cast<std::size_t>(std::atoll(next("--stall-after")));
    } else if (std::strcmp(argv[i], "--stall-always") == 0) {
      args.stall_always = true;
    } else if (std::strcmp(argv[i], "--watchdog-timeout-ms") == 0) {
      args.watchdog_timeout_ms = static_cast<std::uint64_t>(
          std::atoll(next("--watchdog-timeout-ms")));
    } else if (std::strcmp(argv[i], "--watchdog-retries") == 0) {
      args.watchdog_retries =
          static_cast<std::uint32_t>(std::atoll(next("--watchdog-retries")));
    } else if (std::strcmp(argv[i], "--watchdog-poll-ms") == 0) {
      args.watchdog_poll_ms =
          static_cast<std::uint64_t>(std::atoll(next("--watchdog-poll-ms")));
    } else if (std::strcmp(argv[i], "--watchdog-backoff-ms") == 0) {
      args.watchdog_backoff_ms = static_cast<std::uint64_t>(
          std::atoll(next("--watchdog-backoff-ms")));
    } else if (std::strcmp(argv[i], "--heartbeat-every") == 0) {
      args.heartbeat_every =
          static_cast<std::size_t>(std::atoll(next("--heartbeat-every")));
    } else if (std::strcmp(argv[i], "--fault-journal-enospc") == 0) {
      args.fault_journal_enospc = true;
    } else if (std::strcmp(argv[i], "--fault-disk-eio") == 0) {
      args.fault_disk_eio = true;
    } else if (std::strcmp(argv[i], "--residue") == 0) {
      args.residue = static_cast<std::uint32_t>(std::atoll(next("--residue")));
    } else if (std::strcmp(argv[i], "--worker-id") == 0) {
      args.worker_id =
          static_cast<std::uint32_t>(std::atoll(next("--worker-id")));
    } else if (std::strcmp(argv[i], "--lo") == 0) {
      args.lo = static_cast<std::uint64_t>(std::atoll(next("--lo")));
    } else if (std::strcmp(argv[i], "--hi") == 0) {
      args.hi = static_cast<std::uint64_t>(std::atoll(next("--hi")));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (args.workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return 2;
  }
  if (!args.worker_mode && args.fresh) {
    std::filesystem::remove_all(args.work_dir);
  }

  // The I/O fault plan applies in both modes — the coordinator rides the
  // flags onto each worker's argv so every process injects identically.
  if (args.fault_journal_enospc || args.fault_disk_eio) {
    fault::Config cfg;
    cfg.enabled = true;
    if (args.fault_journal_enospc) {
      cfg.targets.push_back({fault::Kind::kIoEnospc,
                             fault::Domain::kJournalIo, fault::kAnyIndex});
    }
    if (args.fault_disk_eio) {
      cfg.targets.push_back({fault::Kind::kIoEio, fault::Domain::kDiskCacheIo,
                             fault::kAnyIndex});
    }
    fault::configure(cfg);
  }

  // Same library file and generator in every process: characterization is
  // deterministic and the coordinator creates the .lib before spawning, so
  // workers just load it and everyone fingerprints the same config.
  const StdCellLibrary lib = StdCellLibrary::load_or_characterize(
      (std::filesystem::temp_directory_path() / "poc_cells_example.lib")
          .string());
  const PlacedDesign design =
      place_and_route(make_benchmark(args.design), lib);
  if (!args.worker_mode) {
    std::printf("design %s: %zu gates, %zu instances, work dir %s\n",
                args.design.c_str(), design.netlist.num_gates(),
                design.layout.num_instances(), args.work_dir.c_str());
  }

  return args.worker_mode ? run_worker(args, design, lib)
                          : run_coordinator(args, design, lib);
}
