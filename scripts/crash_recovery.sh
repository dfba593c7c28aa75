#!/usr/bin/env bash
# Crash-recovery gate: proves the durable-run contract end to end, outside
# the unit tests, with a real SIGKILL.
#
#   1. reference: an uninterrupted run in a fresh journal directory records
#      the ground-truth annotated worst slack;
#   2. crash: a fresh journaled run SIGKILLs itself mid-flow (the journal's
#      deterministic kill hook, --kill-after) — exit must be 137;
#   3. resume at 1 thread, then re-resume at 4 threads: both must replay
#      from the journal (replayed > 0) and print an annotated worst slack
#      bit-identical (string-identical at %.9f) to the reference.
#
# Usage: scripts/crash_recovery.sh [build-dir]
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
BIN="$BUILD/examples/resumable_flow"
JOURNAL=$(mktemp -d)
trap 'rm -rf "$JOURNAL"' EXIT

if [[ ! -x "$BIN" ]]; then
  echo "crash_recovery: $BIN not built" >&2
  exit 1
fi

ws_of() { grep -o 'ws=[0-9.-]*' <<<"$1" | head -1 | cut -d= -f2; }
replayed_of() { grep -o 'replayed=[0-9]*' <<<"$1" | head -1 | cut -d= -f2; }

echo "== crash_recovery: reference (uninterrupted) run =="
REF_OUT=$("$BIN" --fresh --journal "$JOURNAL/ref" --threads 4 2>&1) || {
  echo "$REF_OUT"; echo "crash_recovery: reference run failed" >&2; exit 1
}
REF_WS=$(ws_of "$REF_OUT")
echo "reference annotated WS: $REF_WS ps"
[[ -n "$REF_WS" ]] || { echo "crash_recovery: no RESUME line" >&2; exit 1; }

echo "== crash_recovery: SIGKILL mid-flow (kill hook after 17 windows) =="
"$BIN" --fresh --journal "$JOURNAL/run" --threads 4 --kill-after 17
STATUS=$?
if [[ "$STATUS" -ne 137 ]]; then
  echo "crash_recovery: expected SIGKILL exit 137, got $STATUS" >&2
  exit 1
fi
echo "killed as expected (exit 137)"

for THREADS in 1 4; do
  echo "== crash_recovery: resume at $THREADS thread(s) =="
  OUT=$("$BIN" --journal "$JOURNAL/run" --threads "$THREADS" 2>&1)
  STATUS=$?
  echo "$OUT" | grep RESUME
  if [[ "$STATUS" -ne 0 ]]; then
    echo "$OUT"; echo "crash_recovery: resume failed" >&2; exit 1
  fi
  WS=$(ws_of "$OUT")
  REPLAYED=$(replayed_of "$OUT")
  if [[ "$REPLAYED" -eq 0 ]]; then
    echo "crash_recovery: resume recomputed everything (replayed=0)" >&2
    exit 1
  fi
  if [[ "$WS" != "$REF_WS" ]]; then
    echo "crash_recovery: annotated WS diverged: $WS != $REF_WS" >&2
    exit 1
  fi
done

echo "== crash_recovery: resumed WS bit-identical at 1 and 4 threads =="
