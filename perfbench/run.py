#!/usr/bin/env python3
"""End-to-end benchmark of the post-OPC timing flow.

One run measures one workload for a fixed time.  It repeats fresh processes
of the bench_e2e program until the time is up, checks every output, and
prints one JSON object as its last line.  The object holds the medians of
the end-to-end metrics, or of the per-layer metrics with --trace 1.

  python3 perfbench/run.py --workload signoff_irregular --seed 3 \\
      --seconds 25 --trace 0        one run (the contract BENCHMARK.json names)
  python3 perfbench/run.py --all --runs 5 --out base.json
                                    every workload: 5 runs + 1 traced run
  python3 perfbench/run.py --compare base.json new.json
                                    verdict per (workload, e2e metric)
  python3 perfbench/run.py --smoke  tiny designs: every metric is emitted,
                                    outputs verify, phases cover the wall

The first run in a checkout builds perfbench/ (cmake) into .bench_build/
and characterizes the cell library there.  Everything the benchmark writes
stays under .bench_build/: the result file of each run under results/, the
Chrome trace of each traced run under traces/ (open it in Perfetto).
See perfbench/README.md for the workloads and the metric dictionary.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "bench_e2e"
LIBRARY = BUILD / "cells.lib"
GOLDENS = BENCH_DIR / "goldens.json"

DEFAULT_SEED = 1

# Designs are fixed per workload, so run-to-run spread measures the machine
# rather than a lottery over netlists (random designs of one size differ
# 3-4x in query latency).  The seed drives the silicon ACLV draw, the query
# stream, the retime targets and the probe windows.
WORKLOADS = {
    "signoff_irregular": {
        "kind": "flow", "design": "rand:48:16:0xABCD02", "imaging": "abbe",
    },
    "reuse_socs_tiled": {
        "kind": "flow", "design": "tiled:100", "imaging": "socs",
    },
    "sharded_tiled": {
        "kind": "sharded", "design": "tiled:20", "imaging": "abbe",
        "workers": 4,
    },
    "whatif_service": {
        "kind": "service", "design": "rand:400:24:0xABCD03",
        "imaging": "abbe", "queries": 6000,
    },
}

# The smoke leg's sizes: enough to run every code path in seconds.
SMOKE = {
    "signoff_irregular": {"design": "rand:16:8:0xABCD02"},
    "reuse_socs_tiled": {"design": "tiled:8"},
    "sharded_tiled": {"design": "tiled:8", "workers": 2},
    "whatif_service": {"design": "rand:40:16:0xABCD03", "queries": 500},
}

# Phases must add back up to the measured wall on every traced run.
MIN_PHASE_COVERAGE = 0.95
ITERATION_TIMEOUT_S = 150

# A flow's set-up takes 2-5 ms, and a fresh process runs it either at full
# speed or 1.6-1.8x slower, so a median of a run's few iterations flips
# between the two.  After the iterations, set-up-only processes add cold
# samples up to this count, within this share of the run's time.
SETUP_SAMPLES = 24
SETUP_SHARE = 0.05


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and found errors)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


# ------------------------------------------------------------------ build

def ensure_built(binary):
    """Builds bench_e2e and characterizes the cell library, once."""
    if binary is None:
        binary = BINARY
        if not binary.exists():
            if shutil.which("cmake") is None:
                raise BenchError("cmake not found")
            BUILD.mkdir(exist_ok=True)
            build_log = BUILD / "build.log"
            with open(build_log, "w") as out:
                for cmd in (
                    ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD / "cmake"),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", str(BUILD / "cmake"), "--target",
                     "bench_e2e", "-j", str(os.cpu_count() or 1)],
                ):
                    if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                        raise BenchError(f"build failed, see {build_log}")
    binary = Path(binary)
    if not binary.exists():
        raise BenchError(f"no benchmark binary at {binary}")
    if not LIBRARY.exists():
        BUILD.mkdir(exist_ok=True)
        tmp = LIBRARY.with_suffix(".tmp")
        if subprocess.run([str(binary), "--prepare", "--lib", str(tmp)],
                          stdout=subprocess.DEVNULL).returncode:
            raise BenchError("cell library characterization failed")
        os.replace(tmp, LIBRARY)
    return binary


# ------------------------------------------------------------------ runs

def iteration_command(binary, cfg, seed, trace, work_dir):
    cmd = [str(binary), "--kind", cfg["kind"], "--lib", str(LIBRARY),
           "--design", cfg["design"], "--imaging", cfg["imaging"],
           "--seed", str(seed)]
    if cfg["kind"] == "service":
        cmd += ["--queries", str(cfg["queries"])]
    if cfg["kind"] == "sharded":
        cmd += ["--workers", str(cfg["workers"]), "--work-dir", str(work_dir)]
    if trace:
        cmd.append("--trace")
    return cmd


def run_iteration(cmd, work_dir):
    """One fresh bench_e2e process; returns (wall seconds, parsed report)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the coordinator and any shard workers it forked.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"iteration exceeded {ITERATION_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    elapsed = time.monotonic() - t0
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"bench_e2e exited {proc.returncode} without a "
                         f"report: {err.strip()[-500:]}")
    if proc.returncode and report["ok"]:
        report["errors"].append(f"bench_e2e exited {proc.returncode}")
        report["ok"] = False
    return elapsed, report


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def check_goldens(workload, seed, reports, errors):
    """Seed-independent goldens always; the seed's own where recorded."""
    try:
        goldens = json.loads(GOLDENS.read_text()).get(workload, {})
    except (OSError, ValueError) as e:
        errors.append(f"cannot read {GOLDENS.name}: {e}")
        return
    merged = {**reports[0]["results"], **reports[0]["exact"]}
    expected = dict(goldens.get("all_seeds", {}))
    expected.update(goldens.get("seeds", {}).get(str(seed), {}))
    for key, want in expected.items():
        got = merged.get(key)
        if got != want:
            errors.append(f"golden {key}: got {got!r}, expected {want!r}")


def run_workload(bench, binary, workload, seed, seconds, trace, smoke=False):
    """One timed run: fresh processes until `seconds` is up; aggregated."""
    cfg = dict(WORKLOADS[workload])
    if smoke:
        cfg.update(SMOKE[workload])
    work_dir = BUILD / "work" / f"{workload}-{os.getpid()}"
    cmd = iteration_command(binary, cfg, seed, trace, work_dir)
    reports, durations = [], []
    t0 = time.monotonic()
    while True:
        elapsed, report = run_iteration(cmd, work_dir)
        durations.append(elapsed)
        reports.append(report)
        # Start another iteration only if it should end inside the budget.
        if (smoke or time.monotonic() - t0 + max(durations) >
                seconds * (1 - SETUP_SHARE)):
            break
    setups = []
    if not trace:
        t1 = time.monotonic()
        while True:
            setups.append(run_iteration(cmd + ["--setup-only"], work_dir)[1])
            if (smoke or len(reports) + len(setups) >= SETUP_SAMPLES
                    or time.monotonic() - t1 > seconds * SETUP_SHARE):
                break

    errors = [f"iteration {i}: {e}" for i, r in enumerate(reports + setups)
              for e in r["errors"]]
    for key in ("exact", "results"):
        for i, r in enumerate(reports[1:], 1):
            for name, value in r[key].items():
                if value != reports[0][key].get(name):
                    errors.append(f"{name} differs between iterations: "
                                  f"{reports[0][key].get(name)!r} vs {value!r}")
    if not smoke:
        check_goldens(workload, seed, reports, errors)

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    emitted = [{**r["exact"], **r["layer"]} if trace else r["e2e"]
               for r in reports]
    summary = {}
    for m in wanted:
        values = [e.get(m["name"]) for e in emitted]
        if m["name"] == "setup_s":
            values += [r["e2e"].get("setup_s") for r in setups]
        if any(v is None for v in values):
            errors.append(f"metric {m['name']} not emitted")
            continue
        summary[m["name"]] = summarize(values)
    if trace:
        coverage = summary.get("core.phase_coverage", {}).get("median", 0.0)
        if coverage < MIN_PHASE_COVERAGE:
            errors.append(f"core.phase_coverage {coverage:.3f} below "
                          f"{MIN_PHASE_COVERAGE}")
        write_trace(workload, seed, reports[0]["spans"])

    return {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "config": cfg, "seconds": seconds, "iterations": len(reports),
        "iteration_s": durations, "setup_only_runs": len(setups),
        "correct": not errors, "errors": errors,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": summary, "units": {m["name"]: m["unit"] for m in wanted},
        "exact": reports[0]["exact"], "results": reports[0]["results"],
    }


def write_trace(workload, seed, spans):
    """Chrome trace-event JSON (Perfetto, chrome://tracing)."""
    if not spans:
        return
    origin = min(s["ts"] for s in spans)
    events = []
    for pid in sorted({s["pid"] for s in spans}):
        name = "bench_e2e" if pid == 0 else f"shard worker {pid - 1}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
    for s in spans:
        events.append({"name": s["name"], "cat": s["layer"], "ph": "X",
                       "ts": s["ts"] - origin, "dur": s["dur"],
                       "pid": s["pid"], "tid": 0,
                       "args": {"id": s["id"], "parent": s["parent"]}})
    out = BUILD / "traces" / f"{workload}-seed{seed}.trace.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"traceEvents": events,
                               "displayTimeUnit": "ms"}))


def save_result(result):
    name = (f"{result['workload']}-seed{result['seed']}-"
            f"trace{int(result['trace'])}.json")
    out = BUILD / "results" / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))


def contract_line(result):
    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {name: {"value": s["median"], "unit": result["units"][name]}
                    for name, s in result["metrics"].items()},
    })


# ------------------------------------------------------------------ --all

def host_notes():
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version()}


def run_all(bench, binary, runs, seconds, out):
    combined = {"host": host_notes(), "seconds": seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {"runs": [], "traced": None}
        for i in range(runs):
            result = run_workload(bench, binary, workload, DEFAULT_SEED + i,
                                  seconds, trace=False)
            save_result(result)
            entry["runs"].append(result)
            ok &= result["correct"] and result["failed"] == 0
            log(f"{workload} seed {DEFAULT_SEED + i}: "
                f"{result['iterations']} iterations, correct={result['correct']}")
        traced = run_workload(bench, binary, workload, DEFAULT_SEED, seconds,
                              trace=True)
        save_result(traced)
        entry["traced"] = traced
        ok &= traced["correct"] and traced["failed"] == 0
        combined["workloads"][workload] = entry
        print_workload(bench, workload, entry)
    Path(out).write_text(json.dumps(combined, indent=1))
    log(f"wrote {out}")
    return ok


def print_workload(bench, workload, entry):
    print(f"\n== {workload}")
    for m in bench["end_to_end"]:
        q1, med, q3 = quartiles([r["metrics"][m["name"]]["median"]
                                 for r in entry["runs"]])
        print(f"  {m['name']:<32} {med:>14.6g} {m['unit']:<6} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n {len(entry['runs'])}]")
    for m in bench["per_layer"]:
        s = entry["traced"]["metrics"].get(m["name"])
        if s is not None:
            print(f"  {m['name']:<32} {s['median']:>14.6g} {m['unit']}")
    for r in entry["runs"] + [entry["traced"]]:
        for e in r["errors"]:
            print(f"  ERROR seed {r['seed']}: {e}")


# ------------------------------------------------------------------ --compare

def verdict(base, new, better, bound):
    """better | worse | unchanged | unresolved, by the metric's bound."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if spread > bound:
        every_new_better = all(sign * n < sign * b for n in new for b in base)
        return ("better" if every_new_better else "unresolved"), change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "better", change, spread
    return "unchanged", change, spread


def failed_frac(runs):
    return (sum(r["failed"] for r in runs) /
            max(1, sum(r["attempted"] for r in runs)))


def compare(bench, base_path, new_path):
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    failures = 0
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            print(f"{workload}: missing from one side")
            failures += 1
            continue
        b_runs, n_runs = base[workload]["runs"], new[workload]["runs"]
        print(f"\n== {workload}")
        for m in bench["end_to_end"]:
            b = [r["metrics"][m["name"]]["median"] for r in b_runs]
            n = [r["metrics"][m["name"]]["median"] for r in n_runs]
            v, change, spread = verdict(b, n, m["better"], m["bound"])
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            print(f"  {m['name']:<16} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] "
                  f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}] "
                  f"worsening {change:+.1%} spread {spread:.1%} "
                  f"bound {m['bound']:.0%}: {v}")
            failures += v == "worse"
        b_frac, n_frac = failed_frac(b_runs), failed_frac(n_runs)
        print(f"  failed_frac base {b_frac:.3g} new {n_frac:.3g}")
        if n_frac > b_frac:
            print("  REGRESSION: failed_frac rose")
            failures += 1
        if not all(r["correct"] for r in n_runs + [new[workload]["traced"]]):
            print("  REGRESSION: new outputs failed their checks")
            failures += 1
        by_seed = {r["seed"]: r for r in b_runs}
        for r in n_runs:
            other = by_seed.get(r["seed"])
            if other is None:
                continue
            for name, value in r["exact"].items():
                if other["exact"].get(name) != value:
                    print(f"  EXACT COUNTER {name} seed {r['seed']}: "
                          f"{other['exact'].get(name)} -> {value}")
                    failures += 1
    return failures == 0


# ------------------------------------------------------------------ --smoke

def smoke(bench, binary):
    """Tiny designs, one traced and one untraced iteration per workload."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(bench, binary, workload, DEFAULT_SEED, 0, trace,
                             smoke=True)
            status = "ok" if r["correct"] and r["failed"] == 0 else "FAIL"
            log(f"smoke {workload} trace={trace}: {status} "
                f"({len(r['metrics'])} metrics)")
            for e in r["errors"]:
                log(f"  {e}")
            ok &= status == "ok"
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", default=str(BUILD / "all.json"))
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="use this bench_e2e instead of building")
    args = p.parse_args()

    try:
        bench = load_benchmark()
        if args.compare:
            return 0 if compare(bench, *args.compare) else 1
        seconds = args.seconds or bench["run_seconds"]
        binary = ensure_built(args.binary)
        if args.smoke:
            return 0 if smoke(bench, binary) else 1
        if args.all:
            return 0 if run_all(bench, binary, args.runs, seconds,
                                args.out) else 1
        if args.workload is None:
            p.error("give --workload, --all, --compare or --smoke")
        result = run_workload(bench, binary, args.workload, args.seed,
                              seconds, args.trace)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    save_result(result)
    for e in result["errors"]:
        log(f"error: {e}")
    print(contract_line(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
