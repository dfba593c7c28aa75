#!/usr/bin/env bash
# Chaos smoke gate: a seeded random fault matrix over real fork/exec
# sharded runs — every leg injects one fault class at a random worker
# count and must finish with an annotated worst slack string-identical
# (%.9f) to a clean 1-worker reference run.
#
# Fault classes (one leg each, worker count drawn from {1,2,4} by a
# seeded LCG so CI failures reproduce with the printed CHAOS_SEED):
#
#   hang     — worker 0 stops heartbeating mid-shard (--stall-after); the
#              coordinator watchdog must kill it, respawn it, and the
#              respawn resumes from the sealed private journal.  Reported
#              interventions must be non-zero.
#   kill -9  — worker 0 SIGKILLs itself mid-shard (--kill-after); the
#              coordinator merges what its journal holds and recomputes the
#              residual.  Reported shard faults must be non-zero.
#   enospc   — every journal write in workers AND coordinator fails with
#              injected ENOSPC (--fault-journal-enospc): the run loses all
#              durability, degrades to recompute, and must still match.
#   eio      — every disk-cache publish fails with injected EIO
#              (--fault-disk-eio): the disk tier goes down, the memory
#              tier keeps serving, and the result must still match.
#
# Usage: scripts/chaos_smoke.sh [build-dir] [design]
#        CHAOS_SEED=<n> to reproduce a specific matrix.
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
DESIGN="${2:-tiled30}"
SEED="${CHAOS_SEED:-7}"
BIN="$BUILD/examples/shard_worker"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$BIN" ]]; then
  echo "chaos_smoke: $BIN not built" >&2
  exit 1
fi

ws_of()    { grep -o 'ws=[0-9.-]*'    <<<"$1" | head -1 | cut -d= -f2; }
field_of() { grep -o "$2=[0-9][0-9]*" <<<"$1" | head -1 | cut -d= -f2; }

# Seeded LCG: the worker count of each leg is a pure function of
# CHAOS_SEED, so any red leg reproduces exactly.
STATE=$SEED
# Sets W.  No command substitution: a $(...) subshell would throw away the
# LCG state and every leg would draw the same count.
pick_workers() {
  STATE=$(( (STATE * 1103515245 + 12345) % 2147483648 ))
  local counts=(1 2 4)
  # High bits: an LCG's low bits are far from uniform modulo small numbers.
  W="${counts[$(((STATE >> 16) % 3))]}"
}

echo "== chaos_smoke: seed=$SEED design=$DESIGN =="
echo "== chaos_smoke: reference — clean 1-worker run =="
OUT=$("$BIN" --design "$DESIGN" --workers 1 --threads 1 --fresh \
      --work-dir "$WORK/ref" 2>&1) || {
  echo "$OUT"; echo "chaos_smoke: reference run failed" >&2; exit 1
}
echo "$OUT" | grep SHARD_RESULT
REF_WS=$(ws_of "$OUT")
[[ -n "$REF_WS" ]] || { echo "chaos_smoke: no SHARD_RESULT line" >&2; exit 1; }

# run_leg <name> <require-field|none> <worker-args...>
# Runs one faulted coordinator leg; hard-fails unless it exits 0, prints a
# worst slack string-identical to the reference, never prints the
# no-window sentinel (a coordinator fault reads "coordinator"), and (when
# asked) reports a non-zero <require-field> on its SHARD_RESULT line.
run_leg() {
  local name=$1; shift
  local require=$1; shift
  echo "== chaos_smoke: $name =="
  local out
  out=$("$BIN" "$@" 2>&1)
  local rc=$?
  echo "$out" | grep -E 'SHARD_RESULT|SHARD_REDISTRIBUTE|intervention' || true
  if [[ $rc -ne 0 ]]; then
    echo "$out"
    echo "chaos_smoke: $name exited $rc" >&2
    exit 1
  fi
  if grep -q 18446744073709551615 <<<"$out"; then
    echo "chaos_smoke: $name printed the no-window sentinel as a worker id" >&2
    exit 1
  fi
  local ws
  ws=$(ws_of "$out")
  if [[ "$ws" != "$REF_WS" ]]; then
    echo "chaos_smoke: $name WS diverged: $ws != $REF_WS" >&2
    exit 1
  fi
  if [[ "$require" != "none" ]]; then
    local n
    n=$(field_of "$out" "$require")
    if [[ "${n:-0}" -eq 0 ]]; then
      echo "chaos_smoke: $name must report non-zero $require" >&2
      exit 1
    fi
  fi
}

pick_workers
run_leg "hang: stall worker 0, $W worker(s), watchdog heals" interventions \
  --design "$DESIGN" --workers "$W" --threads 1 --fresh \
  --work-dir "$WORK/hang" \
  --stall-worker 0 --stall-after 2 \
  --watchdog-timeout-ms 1500 \
  --watchdog-retries 2 --watchdog-backoff-ms 20

pick_workers
run_leg "kill -9: worker 0 dies mid-shard, $W worker(s)" shard_faults \
  --design "$DESIGN" --workers "$W" --threads 1 --fresh \
  --work-dir "$WORK/kill" \
  --kill-worker 0 --kill-after 5

pick_workers
run_leg "enospc: journal writes fail everywhere, $W worker(s)" shard_faults \
  --design "$DESIGN" --workers "$W" --threads 1 --fresh \
  --work-dir "$WORK/enospc" \
  --fault-journal-enospc

pick_workers
run_leg "eio: disk-cache publishes fail, $W worker(s)" none \
  --design "$DESIGN" --workers "$W" --threads 1 --fresh \
  --work-dir "$WORK/eio" \
  --fault-disk-eio

echo "== chaos_smoke: worst slack bit-identical across all injected faults =="
