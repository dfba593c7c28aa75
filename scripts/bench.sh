#!/usr/bin/env bash
# Performance proof: runs the kernel micro-benchmarks (including the SOCS
# fast-imaging path and its kernel-budget sweep) plus the T2 bench's
# cache, SOCS and fault-containment sections, and assembles
# BENCH_PR7.json:
#   - kernels:        every google-benchmark row (name, real_time, unit,
#                     label — the SOCS kernel sweep stores cd_delta_nm in
#                     the label)
#   - socs_per_window_speedup: BM_AerialImage/q over BM_AerialImageSocs/q
#                     per quality (the >= 2x acceptance number at q = 3)
#   - cache_bench / cache_speedup: PR2 carry-forward rows from the
#                     greppable CACHE_BENCH lines
#   - socs_e2e:       SOCS_BENCH rows (abbe / socs_opc / socs_full wall
#                     time + annotated WS) with computed speedups
#   - socs_t2:        the T2 headline (WS change %, spearman, top-10
#                     displacement) reproduced under full SOCS
#   - fault_bench / fault_overhead_pct / fault_ws_identical: FAULT_BENCH
#                     rows (containment on/off over the same design) — the
#                     PR4 acceptance number is a noise-level overhead with
#                     bit-identical annotated WS
#   - journal_bench / journal_overhead_pct / journal_ws_identical /
#                     journal_resume_speedup: JOURNAL_BENCH rows (write-
#                     ahead journal off/on/resume over the same design) —
#                     the PR5 acceptance number is < 2 % fault-free
#                     overhead with a bit-identical annotated WS, and the
#                     resume row shows full-replay wall time
#   - incr_bench / incr_speedup: INCR_BENCH rows (full stateless re-time vs
#                     incremental worklist update after 1/8/64-gate
#                     perturbations, identical worst slack asserted by the
#                     bench itself) — the PR6 acceptance number is >= 5x
#                     for <= 8-gate perturbations on inv_chain64
#   - fault_overhead_ok: fault_overhead_pct <= 2.0 — the acceptance band
#                     that closes the BENCH_PR5 11.8 % watch item.  A local
#                     run only warns (single-vCPU hosts are noisy); the CI
#                     bench-smoke job hard-fails on a false flag.
#
# Shard mode (scripts/bench.sh --shards N [--workers N] [--design tiledN]):
# benches the PR8 sharded multi-process runs over the repeated-block tiled
# design and writes BENCH_PR8.json instead:
#   - shard_bench:    one row per leg (1, 2, N workers cold + N workers
#                     against the warm shared disk cache), each with
#                     end-to-end wall time, annotated WS, windows/sec and
#                     peak RSS, plus per_worker columns straight from the
#                     workers' getrusage stats files (windows/sec,
#                     maxrss_kb, mem/disk hit counters)
#   - shard_speedup:  cold 1-worker wall over cold N-worker wall — the
#                     multi-process scaling headline (> 1.5x at 4 workers
#                     on a >= 4-vCPU host; single-vCPU hosts cannot scale
#                     by construction, so locally this only warns and the
#                     CI shard-smoke job is the enforcement point)
#   - warm_cache_speedup: cold 1-worker wall over an N-worker rerun that
#                     finds every window already published in the shared
#                     spill-to-disk cache — the cross-process reuse the
#                     DiskCacheStore exists for, measurable on any host
#   - cross_worker_hit_rate: disk_hits / (disk_hits + insertions) summed
#                     over the cold N-worker leg's stats files — nonzero
#                     means worker 3 really hit windows worker 0 imaged
#   - shard_ws_identical: the annotated WS string compared across every
#                     leg (cold 1/2/N, warm) — must be bit-identical
#
# Self-heal mode (scripts/bench.sh --selfheal [--workers N] [--design
# tiledN]): measures what the PR10 supervision machinery costs a healthy
# run and writes BENCH_PR10.json:
#   - selfheal_bench: three interleaved (baseline, watchdog) run pairs of
#                     the same sharded flow — baseline with heartbeats and
#                     watchdog off (PR 8 semantics), watchdog with
#                     per-append heartbeats + the supervision loop armed
#   - selfheal_overhead_pct: best-of-3 watchdog wall over best-of-3
#                     baseline wall, minus one — the heartbeat+watchdog
#                     overhead.  Min, not median: the workload is
#                     deterministic, so the fastest run of each leg is the
#                     least noise-contaminated estimate.
#                     The injectable-VFS shim rides in BOTH legs (its
#                     fault-free path is one relaxed atomic load; the
#                     fault harness measured that class of probe at noise
#                     level in BENCH_PR4), so the delta isolates the
#                     supervision channel itself
#   - selfheal_ws_identical: annotated WS string-identical across every
#                     run of both legs — always a hard failure if false
#   - selfheal_overhead_ok: selfheal_overhead_pct <= 2.0.  A local run
#                     only warns (single-vCPU hosts are noisy); the CI
#                     chaos-smoke job hard-fails on a false flag
#
# Usage: scripts/bench.sh [jobs]
#        scripts/bench.sh --shards N [--workers N] [--design tiledN] [jobs]
#        scripts/bench.sh --selfheal [--workers N] [--design tiledN] [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--shards" ]; then
  shift
  MAX_WORKERS="${1:-4}"
  shift || true
  DESIGN=tiled60
  JOBS="$(nproc)"
  while [ $# -gt 0 ]; do
    case "$1" in
      --workers) MAX_WORKERS="$2"; shift 2 ;;
      --design)  DESIGN="$2";      shift 2 ;;
      [0-9]*)    JOBS="$1";        shift   ;;
      *) echo "unknown shard-bench argument: $1" >&2; exit 2 ;;
    esac
  done
  OUT=BENCH_PR8.json

  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target shard_worker >/dev/null
  BIN=./build/examples/shard_worker
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT

  LEG_NAMES=()
  LEG_WORKERS=()
  LEG_WALL_MS=()
  LEG_WS=()
  LEG_DIRS=()

  run_leg() {  # <name> <workers> <dir> [extra shard_worker args...]
    local name="$1" w="$2" dir="$3"
    shift 3
    echo "== shard leg: $name =="
    local t0 t1 line
    t0=$(date +%s%N)
    line=$("$BIN" --design "$DESIGN" --workers "$w" --threads 1 \
             --work-dir "$dir" "$@" | grep '^SHARD_RESULT')
    t1=$(date +%s%N)
    echo "$line"
    LEG_NAMES+=("$name")
    LEG_WORKERS+=("$w")
    LEG_WALL_MS+=("$(( (t1 - t0) / 1000000 ))")
    LEG_WS+=("$(echo "$line" | sed -n 's/.*ws=\([-0-9.]*\).*/\1/p')")
    LEG_DIRS+=("$dir")
  }

  run_leg "${DESIGN}_workers1_cold" 1 "$WORK/w1" --fresh
  run_leg "${DESIGN}_workers2_cold" 2 "$WORK/w2" --fresh
  run_leg "${DESIGN}_workers${MAX_WORKERS}_cold" "$MAX_WORKERS" "$WORK/wN" --fresh
  # Warm leg: a fresh run directory whose shared disk cache is already
  # populated (the cold N-worker leg's publishes) — every window is a
  # cross-process disk hit instead of a recompute.
  mkdir -p "$WORK/warm"
  cp -r "$WORK/wN/cache" "$WORK/warm/cache"
  run_leg "${DESIGN}_workers${MAX_WORKERS}_warm" "$MAX_WORKERS" "$WORK/warm"

  # Per-worker stats files ("key value" lines, getrusage-sourced) -> JSON
  # rows + leg aggregates (total windows, peak RSS, disk hits/insertions).
  leg_rows=""
  declare -A LEG_DISK_HITS LEG_INSERTIONS
  for i in "${!LEG_NAMES[@]}"; do
    # awk once per leg directory, emitting "per_worker" rows and aggregates.
    read -r windows peak dh ins rows < <(awk '
      BEGIN { RS = ""; FS = "\n" }
      {
        delete kv
        for (i = 1; i <= NF; ++i) { split($i, a, " "); kv[a[1]] = a[2] }
        wps = kv["wall_ms"] > 0 ? kv["windows"] / (kv["wall_ms"] / 1000.0) : 0
        row = sprintf("{\"worker\": %d, \"windows\": %d, \"wall_ms\": %.1f, " \
                      "\"windows_per_sec\": %.2f, \"maxrss_kb\": %d, " \
                      "\"mem_hits\": %d, \"disk_hits\": %d, \"misses\": %d, " \
                      "\"insertions\": %d}",
                      kv["worker"], kv["windows"], kv["wall_ms"], wps,
                      kv["maxrss_kb"], kv["mem_hits"], kv["disk_hits"],
                      kv["misses"], kv["insertions"])
        rows = rows (rows == "" ? "" : ", ") row
        windows += kv["windows"]
        if (kv["maxrss_kb"] > peak) peak = kv["maxrss_kb"]
        dh += kv["disk_hits"]; ins += kv["insertions"]
      }
      END { printf "%d %d %d %d %s\n", windows, peak, dh, ins, rows }
    ' "${LEG_DIRS[$i]}"/run.w*.stats)
    LEG_DISK_HITS[$i]="$dh"
    LEG_INSERTIONS[$i]="$ins"
    wall="${LEG_WALL_MS[$i]}"
    wps=$(awk "BEGIN { printf \"%.2f\", ($wall > 0) ? $windows / ($wall / 1000.0) : 0 }")
    row=$(printf '    {"name": "%s", "workers": %s, "real_time": %s, "time_unit": "ms", "annot_ws_ps": %s, "windows": %s, "windows_per_sec": %s, "peak_rss_kb": %s, "disk_hits": %s, "insertions": %s,\n     "per_worker": [%s]}' \
      "${LEG_NAMES[$i]}" "${LEG_WORKERS[$i]}" "$wall" "${LEG_WS[$i]}" \
      "$windows" "$wps" "$peak" "$dh" "$ins" "$rows")
    leg_rows="$leg_rows${leg_rows:+,$'\n'}$row"
  done

  # Headline aggregates.  Index 0/1/2 = cold 1/2/N workers, 3 = warm N.
  SPEEDUP_2W=$(awk "BEGIN { printf \"%.3f\", ${LEG_WALL_MS[0]} / ${LEG_WALL_MS[1]} }")
  SPEEDUP_NW=$(awk "BEGIN { printf \"%.3f\", ${LEG_WALL_MS[0]} / ${LEG_WALL_MS[2]} }")
  WARM_SPEEDUP=$(awk "BEGIN { printf \"%.3f\", ${LEG_WALL_MS[0]} / ${LEG_WALL_MS[3]} }")
  HIT_RATE=$(awk "BEGIN { d = ${LEG_DISK_HITS[2]}; i = ${LEG_INSERTIONS[2]}; printf \"%.4f\", ((d + i) > 0 ? d / (d + i) : 0) }")
  WS_IDENTICAL=true
  for ws in "${LEG_WS[@]}"; do
    [ "$ws" = "${LEG_WS[0]}" ] || WS_IDENTICAL=false
  done
  CPUS=$(nproc)
  SPEEDUP_OK=$(awk "BEGIN { print (${SPEEDUP_NW} > 1.5) ? \"true\" : \"false\" }")

  {
    printf '{\n'
    printf '  "design": "%s",\n' "$DESIGN"
    printf '  "host_cpus": %s,\n' "$CPUS"
    printf '  "shard_bench": [\n%s\n  ],\n' "$leg_rows"
    printf '  "shard_speedup_2w": %s,\n' "$SPEEDUP_2W"
    printf '  "shard_speedup": %s,\n' "$SPEEDUP_NW"
    printf '  "shard_speedup_ok": %s,\n' "$SPEEDUP_OK"
    printf '  "warm_cache_speedup": %s,\n' "$WARM_SPEEDUP"
    printf '  "cross_worker_hit_rate": %s,\n' "$HIT_RATE"
    printf '  "shard_ws_identical": %s\n' "$WS_IDENTICAL"
    printf '}\n'
  } >"$OUT"

  if [ "$WS_IDENTICAL" != "true" ]; then
    echo "ERROR: annotated worst slack differs across shard legs" >&2
    exit 1
  fi
  if [ "$SPEEDUP_OK" != "true" ]; then
    if [ "$CPUS" -ge 4 ]; then
      echo "ERROR: shard_speedup=$SPEEDUP_NW <= 1.5 on a ${CPUS}-vCPU host" >&2
      exit 1
    fi
    echo "WARNING: shard_speedup=$SPEEDUP_NW (host has only $CPUS vCPU(s);" \
         "multi-process scaling needs >= 4 — CI shard-smoke enforces the bar)" >&2
  fi
  echo "wrote $OUT"
  exit 0
fi

if [ "${1:-}" = "--selfheal" ]; then
  shift
  WORKERS=2
  DESIGN=tiled60
  JOBS="$(nproc)"
  while [ $# -gt 0 ]; do
    case "$1" in
      --workers) WORKERS="$2"; shift 2 ;;
      --design)  DESIGN="$2";  shift 2 ;;
      [0-9]*)    JOBS="$1";    shift   ;;
      *) echo "unknown selfheal-bench argument: $1" >&2; exit 2 ;;
    esac
  done
  OUT=BENCH_PR10.json

  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target shard_worker >/dev/null
  BIN=./build/examples/shard_worker
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT

  # run_leg <dir> [extra args...] — sets RUN_MS and RUN_WS.
  run_leg() {
    local dir="$1"
    shift
    local t0 t1 line
    t0=$(date +%s%N)
    line=$("$BIN" --design "$DESIGN" --workers "$WORKERS" --threads 1 \
             --fresh --work-dir "$dir" "$@" | grep '^SHARD_RESULT')
    t1=$(date +%s%N)
    RUN_MS=$(( (t1 - t0) / 1000000 ))
    RUN_WS=$(echo "$line" | sed -n 's/.*ws=\([-0-9.]*\).*/\1/p')
  }

  min3() { printf '%s\n' "$@" | sort -n | sed -n 1p; }

  # Interleaved pairs so slow drift (thermal, CI neighbors) hits both legs
  # alike.  Baseline = PR 8 semantics: no heartbeats, no watchdog.
  BASE_MS=()
  WATCH_MS=()
  ALL_WS=()
  rows=""
  for i in 1 2 3; do
    echo "== selfheal pair $i/3: baseline (no heartbeats, no watchdog) =="
    run_leg "$WORK/base$i" --heartbeat-every 0
    BASE_MS+=("$RUN_MS"); ALL_WS+=("$RUN_WS")
    rows="$rows${rows:+,$'\n'}$(printf '    {"name": "%s_baseline_run%d", "workers": %d, "real_time": %d, "time_unit": "ms", "annot_ws_ps": %s}' \
      "$DESIGN" "$i" "$WORKERS" "$RUN_MS" "$RUN_WS")"

    echo "== selfheal pair $i/3: watchdog (heartbeats + supervision) =="
    run_leg "$WORK/watch$i" --heartbeat-every 1 \
      --watchdog-timeout-ms 60000 --watchdog-poll-ms 250
    WATCH_MS+=("$RUN_MS"); ALL_WS+=("$RUN_WS")
    rows="$rows${rows:+,$'\n'}$(printf '    {"name": "%s_watchdog_run%d", "workers": %d, "real_time": %d, "time_unit": "ms", "annot_ws_ps": %s}' \
      "$DESIGN" "$i" "$WORKERS" "$RUN_MS" "$RUN_WS")"
  done

  BASE_MED=$(min3 "${BASE_MS[@]}")
  WATCH_MED=$(min3 "${WATCH_MS[@]}")
  OVERHEAD=$(awk "BEGIN { printf \"%.2f\", ($BASE_MED > 0) ? ($WATCH_MED / $BASE_MED - 1) * 100 : 0 }")
  OVERHEAD_OK=$(awk "BEGIN { print ($OVERHEAD <= 2.0) ? \"true\" : \"false\" }")
  WS_IDENTICAL=true
  for ws in "${ALL_WS[@]}"; do
    [ "$ws" = "${ALL_WS[0]}" ] || WS_IDENTICAL=false
  done

  {
    printf '{\n'
    printf '  "design": "%s",\n' "$DESIGN"
    printf '  "workers": %s,\n' "$WORKERS"
    printf '  "host_cpus": %s,\n' "$(nproc)"
    printf '  "selfheal_bench": [\n%s\n  ],\n' "$rows"
    printf '  "baseline_best_ms": %s,\n' "$BASE_MED"
    printf '  "watchdog_best_ms": %s,\n' "$WATCH_MED"
    printf '  "selfheal_overhead_pct": %s,\n' "$OVERHEAD"
    printf '  "selfheal_overhead_ok": %s,\n' "$OVERHEAD_OK"
    printf '  "selfheal_ws_identical": %s\n' "$WS_IDENTICAL"
    printf '}\n'
  } >"$OUT"

  if [ "$WS_IDENTICAL" != "true" ]; then
    echo "ERROR: annotated worst slack differs between watchdog on/off" >&2
    exit 1
  fi
  if [ "$OVERHEAD_OK" != "true" ]; then
    echo "WARNING: selfheal_overhead_pct=$OVERHEAD > 2.0 (noisy on small" \
         "hosts; CI chaos-smoke hard-fails on the JSON flag)" >&2
  fi
  echo "wrote $OUT"
  exit 0
fi

JOBS="${1:-$(nproc)}"
OUT=BENCH_PR7.json

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target bench_perf_kernels \
    bench_t2_timing_comparison >/dev/null

echo "== kernels (google-benchmark) =="
KERNELS_JSON=$(mktemp)
./build/bench/bench_perf_kernels --benchmark_format=json \
    --benchmark_out_format=json >"$KERNELS_JSON"

echo "== T2 cache + SOCS sections =="
T2_LOG=$(mktemp)
# POC_CACHE stays unset: the bench runs its cache section with the cache
# explicitly off then on over the same design (POC_CACHE=0 would force
# every flow off and void the comparison).
./build/bench/bench_t2_timing_comparison | tee "$T2_LOG"

# CACHE_BENCH name=<n> cache=<on|off> wall_ms=<ms> hit_rate=<0..1>
# SOCS_BENCH  name=<n> mode=<abbe|socs_opc|socs_full> wall_ms=<ms> ws=<ps>
# SOCS_T2     design=<d> ws_change_pct=<pct> spearman=<r> top10_displaced=<n>
# FAULT_BENCH name=<n> containment=<on|off> wall_ms=<ms> ws=<ps>
# JOURNAL_BENCH name=<n> journal=<off|on|resume> wall_ms=<ms> ws=<ps> replayed=<k>
# INCR_BENCH  name=<n> k=<gates> mode=<full|incr> wall_us=<us> ws=<ps>
awk '
  /^CACHE_BENCH / {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
    row = sprintf("    {\"name\": \"%s_%s\", \"real_time\": %s, " \
                  "\"time_unit\": \"ms\", \"hit_rate\": %s}",
                  v["name"], v["cache"], v["wall_ms"], v["hit_rate"])
    crows = crows (crows == "" ? "" : ",\n") row
    cms[v["cache"]] = v["wall_ms"]
  }
  /^SOCS_BENCH / {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
    sms[v["mode"]] = v["wall_ms"]
    srow[v["mode"]] = sprintf("    {\"name\": \"%s_%s\", \"real_time\": %s, " \
                              "\"time_unit\": \"ms\", \"annot_ws_ps\": %s}",
                              v["name"], v["mode"], v["wall_ms"], v["ws"])
  }
  /^SOCS_T2 / {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
    t2 = sprintf("  \"socs_t2\": {\"design\": \"%s\", \"ws_change_pct\": %s, " \
                 "\"spearman\": %s, \"top10_displaced\": %s},",
                 v["design"], v["ws_change_pct"], v["spearman"],
                 v["top10_displaced"])
  }
  /^FAULT_BENCH / {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
    row = sprintf("    {\"name\": \"%s_containment_%s\", \"real_time\": %s, " \
                  "\"time_unit\": \"ms\", \"annot_ws_ps\": %s}",
                  v["name"], v["containment"], v["wall_ms"], v["ws"])
    frows = frows (frows == "" ? "" : ",\n") row
    fms[v["containment"]] = v["wall_ms"]
    fws[v["containment"]] = v["ws"]
  }
  /^JOURNAL_BENCH / {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
    row = sprintf("    {\"name\": \"%s_journal_%s\", \"real_time\": %s, " \
                  "\"time_unit\": \"ms\", \"annot_ws_ps\": %s, " \
                  "\"replayed\": %s}",
                  v["name"], v["journal"], v["wall_ms"], v["ws"], v["replayed"])
    jrows = jrows (jrows == "" ? "" : ",\n") row
    jms[v["journal"]] = v["wall_ms"]
    jws[v["journal"]] = v["ws"]
  }
  /^INCR_BENCH / {
    for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
    key = v["name"] "_k" v["k"]
    row = sprintf("    {\"name\": \"%s_%s\", \"real_time\": %s, " \
                  "\"time_unit\": \"us\", \"ws_ps\": %s}",
                  key, v["mode"], v["wall_us"], v["ws"])
    irows = irows (irows == "" ? "" : ",\n") row
    ius[key "_" v["mode"]] = v["wall_us"]
    if (index(ikeys "|", "|" key "|") == 0) ikeys = ikeys "|" key
  }
  END {
    printf "{\n  \"cache_bench\": [\n%s\n  ],\n", crows
    if (cms["off"] > 0 && cms["on"] > 0)
      printf "  \"cache_speedup\": %.3f,\n", cms["off"] / cms["on"]
    srows = srow["abbe"] ",\n" srow["socs_opc"] ",\n" srow["socs_full"]
    printf "  \"socs_e2e\": [\n%s\n  ],\n", srows
    if (sms["abbe"] > 0) {
      printf "  \"socs_e2e_opc_speedup\": %.3f,\n", sms["abbe"] / sms["socs_opc"]
      printf "  \"socs_e2e_full_speedup\": %.3f,\n", sms["abbe"] / sms["socs_full"]
    }
    if (frows != "") {
      printf "  \"fault_bench\": [\n%s\n  ],\n", frows
      if (fms["off"] > 0 && fms["on"] > 0) {
        pct = (fms["on"] / fms["off"] - 1.0) * 100.0
        printf "  \"fault_overhead_pct\": %.3f,\n", pct
        printf "  \"fault_overhead_ok\": %s,\n", (pct <= 2.0) ? "true" : "false"
      }
      printf "  \"fault_ws_identical\": %s,\n", (fws["on"] == fws["off"]) ? "true" : "false"
    }
    if (jrows != "") {
      printf "  \"journal_bench\": [\n%s\n  ],\n", jrows
      if (jms["off"] > 0 && jms["on"] > 0)
        printf "  \"journal_overhead_pct\": %.3f,\n", (jms["on"] / jms["off"] - 1.0) * 100.0
      if (jms["resume"] > 0 && jms["off"] > 0)
        printf "  \"journal_resume_speedup\": %.1f,\n", jms["off"] / jms["resume"]
      printf "  \"journal_ws_identical\": %s,\n", \
             (jws["on"] == jws["off"] && jws["resume"] == jws["off"]) ? "true" : "false"
    }
    if (irows != "") {
      printf "  \"incr_bench\": [\n%s\n  ],\n", irows
      n = split(substr(ikeys, 2), keys, "|")
      printf "  \"incr_speedup\": {"
      first = 1
      for (i = 1; i <= n; ++i) {
        key = keys[i]
        if (ius[key "_full"] > 0 && ius[key "_incr"] > 0) {
          printf "%s\"%s\": %.2f", (first ? "" : ", "), key, \
                 ius[key "_full"] / ius[key "_incr"]
          first = 0
        }
      }
      printf "},\n"
    }
    if (t2 != "") print t2
  }
' "$T2_LOG" >"$OUT"

# Kernel timings reduced to name/real_time/unit (+label when present —
# the SOCS kernel sweep stores its cd_delta_nm accuracy figure there),
# followed by the per-quality Abbe-over-SOCS aerial-image speedups.
# google-benchmark prints "label" after "time_unit", so a record is only
# complete when the next "name" (or EOF) arrives — flush there.
awk '
  function flush_row() {
    if (name == "") return
    row = sprintf("    {\"name\": \"%s\", \"real_time\": %s, \"time_unit\": \"%s\"",
                  name, rt, unit)
    if (label != "") row = row sprintf(", \"label\": \"%s\"", label)
    row = row "}"
    rows = rows (rows == "" ? "" : ",\n") row
    if (name ~ /^BM_AerialImage\//)     { q = name; sub(/^.*\//, "", q); abbe[q] = rt }
    if (name ~ /^BM_AerialImageSocs\//) { q = name; sub(/^.*\//, "", q); socs[q] = rt }
    name = ""; label = ""
  }
  /"run_name":/ || /"aggregate_name":/ { next }
  /"name":/  { flush_row()
               name = $0; sub(/^.*"name": "/, "", name); sub(/".*$/, "", name) }
  /"label":/ { label = $0; sub(/^.*"label": "/, "", label); sub(/".*$/, "", label) }
  /"real_time":/ { rt = $0; sub(/^.*"real_time": /, "", rt); sub(/,.*$/, "", rt) }
  /"time_unit":/ { unit = $0; sub(/^.*"time_unit": "/, "", unit); sub(/".*$/, "", unit) }
  END {
    flush_row()
    printf "  \"kernels\": [\n%s\n  ],\n", rows
    printf "  \"socs_per_window_speedup\": {"
    first = 1
    for (q = 1; q <= 3; ++q)
      if (abbe[q] > 0 && socs[q] > 0) {
        printf "%s\"quality_%d\": %.3f", (first ? "" : ", "), q, abbe[q] / socs[q]
        first = 0
      }
    printf "}\n}\n"
  }
' "$KERNELS_JSON" >>"$OUT"

rm -f "$KERNELS_JSON" "$T2_LOG"

# Warn-and-flag fault-overhead gate (the BENCH_PR5 11.8 % watch item): the
# JSON carries fault_overhead_ok for CI's bench-smoke job to hard-fail on;
# local runs only warn, because single-vCPU hosts time noisily.
FAULT_PCT=$(sed -n 's/.*"fault_overhead_pct": \([-0-9.]*\).*/\1/p' "$OUT")
if [ -n "$FAULT_PCT" ] && awk "BEGIN{exit !($FAULT_PCT > 2.0)}"; then
  echo "WARNING: fault_overhead_pct=$FAULT_PCT is above the 2.0% acceptance band" >&2
fi

echo "wrote $OUT"
