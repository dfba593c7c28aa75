#!/usr/bin/env bash
# Shard smoke gate: proves the sharded multi-process contract end to end,
# outside the unit tests, with real fork/exec workers and a real SIGKILL.
#
#   1. reference: a 1-worker coordinator run records the ground-truth
#      annotated worst slack (string-identical at %.9f from here on);
#   2. scale: a 2-worker run over the same design must print a
#      bit-identical worst slack, and its workers' stats files should show
#      cross-worker disk-cache hits (worker 1 consuming windows worker 0
#      published);
#   3. kill: a 2-worker run where worker 1 SIGKILLs itself mid-shard (the
#      journal kill hook riding the worker argv).  The coordinator must
#      contain the death — merge what the worker's journal holds, recompute
#      the residual windows in-process, report a phase-"shard" fault — and
#      still print the identical worst slack with exit 0;
#   4. resume: rerunning the coordinator over the kill leg's work dir must
#      replay (shared disk cache + surviving journals) to the same slack;
#   5. scale: tiled60 cold at 1, 2 and 4 workers, then 4 workers over the
#      cold 4-worker leg's published disk cache.  All four legs must print
#      one worst slack, and on a host with >= 4 vCPUs the cold 4-worker leg
#      must run more than 1.5x faster than the 1-worker leg (smaller hosts
#      cannot scale by construction and only warn).
#
# Usage: scripts/shard_smoke.sh [build-dir] [design]   (design: legs 1-4)
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
DESIGN="${2:-tiled30}"
BIN="$BUILD/examples/shard_worker"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$BIN" ]]; then
  echo "shard_smoke: $BIN not built" >&2
  exit 1
fi

ws_of()    { grep -o 'ws=[0-9.-]*'        <<<"$1" | head -1 | cut -d= -f2; }
field_of() { grep -o "$2=[0-9][0-9]*" <<<"$1" | head -1 | cut -d= -f2; }

echo "== shard_smoke: leg 1 — reference, 1 worker =="
OUT=$("$BIN" --design "$DESIGN" --workers 1 --threads 1 --fresh \
      --work-dir "$WORK/w1" 2>&1) || {
  echo "$OUT"; echo "shard_smoke: 1-worker run failed" >&2; exit 1
}
echo "$OUT" | grep SHARD_RESULT
REF_WS=$(ws_of "$OUT")
[[ -n "$REF_WS" ]] || { echo "shard_smoke: no SHARD_RESULT line" >&2; exit 1; }

echo "== shard_smoke: leg 2 — 2 workers, shared disk cache =="
OUT=$("$BIN" --design "$DESIGN" --workers 2 --threads 1 --fresh \
      --work-dir "$WORK/w2" 2>&1) || {
  echo "$OUT"; echo "shard_smoke: 2-worker run failed" >&2; exit 1
}
echo "$OUT" | grep SHARD_RESULT
WS=$(ws_of "$OUT")
if [[ "$WS" != "$REF_WS" ]]; then
  echo "shard_smoke: 2-worker WS diverged: $WS != $REF_WS" >&2
  exit 1
fi
CROSS_HITS=$(awk '$1 == "disk_hits" { n += $2 } END { print n + 0 }' \
             "$WORK"/w2/run.w*.stats)
echo "cross-worker disk-cache hits: $CROSS_HITS"
if [[ "$CROSS_HITS" -eq 0 ]]; then
  # Scheduling-dependent (one worker may finish before the other starts a
  # shared window), so a warning rather than a failure.
  echo "WARNING: no cross-worker disk hits observed" >&2
fi

echo "== shard_smoke: leg 3 — SIGKILL worker 1 after 10 journaled windows =="
OUT=$("$BIN" --design "$DESIGN" --workers 2 --threads 1 --fresh \
      --work-dir "$WORK/kill" --kill-worker 1 --kill-after 10 2>&1) || {
  echo "$OUT"; echo "shard_smoke: kill-leg coordinator failed" >&2; exit 1
}
echo "$OUT" | grep -E 'SHARD_RESULT|shard fault|worker 0[01]:'
WS=$(ws_of "$OUT")
FAULTS=$(field_of "$OUT" shard_faults)
RESIDUAL=$(field_of "$OUT" residual)
if [[ "$WS" != "$REF_WS" ]]; then
  echo "shard_smoke: killed-worker WS diverged: $WS != $REF_WS" >&2
  exit 1
fi
if [[ "${FAULTS:-0}" -eq 0 ]]; then
  echo "shard_smoke: worker death must surface as phase-\"shard\" faults" >&2
  exit 1
fi
if [[ "${RESIDUAL:-0}" -eq 0 ]]; then
  echo "shard_smoke: killed worker's windows must recompute as residuals" >&2
  exit 1
fi

echo "== shard_smoke: leg 4 — resume over the kill leg's work dir =="
OUT=$("$BIN" --design "$DESIGN" --workers 2 --threads 1 \
      --work-dir "$WORK/kill" 2>&1) || {
  echo "$OUT"; echo "shard_smoke: resume run failed" >&2; exit 1
}
echo "$OUT" | grep SHARD_RESULT
WS=$(ws_of "$OUT")
if [[ "$WS" != "$REF_WS" ]]; then
  echo "shard_smoke: resumed WS diverged: $WS != $REF_WS" >&2
  exit 1
fi

echo "== shard_smoke: worst slack bit-identical across 1w / 2w / kill / resume =="

SCALE_WS=""
declare -A WALL_MS
for LEG in 1 2 4 warm; do
  W=$LEG
  ARGS=(--fresh)
  if [[ "$LEG" == warm ]]; then
    # Every window is already published in the shared disk cache.
    W=4
    ARGS=()
    mkdir -p "$WORK/s$LEG"
    cp -r "$WORK/s4/cache" "$WORK/s$LEG/cache"
  fi
  echo "== shard_smoke: leg 5 — tiled60, $W worker(s), ${LEG/[0-9]/cold} =="
  T0=$(date +%s%N)
  OUT=$("$BIN" --design tiled60 --workers "$W" --threads 1 \
        --work-dir "$WORK/s$LEG" "${ARGS[@]}" 2>&1) || {
    echo "$OUT"; echo "shard_smoke: tiled60 leg $LEG failed" >&2; exit 1
  }
  WALL_MS[$LEG]=$(( ($(date +%s%N) - T0) / 1000000 ))
  echo "$OUT" | grep SHARD_RESULT
  echo "wall ${WALL_MS[$LEG]} ms"
  WS=$(ws_of "$OUT")
  SCALE_WS=${SCALE_WS:-$WS}
  if [[ -z "$WS" || "$WS" != "$SCALE_WS" ]]; then
    echo "shard_smoke: tiled60 leg $LEG WS diverged: $WS != $SCALE_WS" >&2
    exit 1
  fi
done

SPEEDUP=$(awk "BEGIN { printf \"%.2f\", ${WALL_MS[1]} / ${WALL_MS[4]} }")
echo "== shard_smoke: tiled60 4-worker speedup ${SPEEDUP}x over 1 worker =="
if awk "BEGIN { exit !($SPEEDUP <= 1.5) }"; then
  if [[ $(nproc) -ge 4 ]]; then
    echo "shard_smoke: speedup ${SPEEDUP}x <= 1.5x on a $(nproc)-vCPU host" >&2
    exit 1
  fi
  echo "WARNING: speedup ${SPEEDUP}x <= 1.5x (host has $(nproc) vCPU(s);" \
       "the bar needs >= 4)" >&2
fi
