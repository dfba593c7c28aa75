#!/usr/bin/env bash
# Vectorization gate for the SoA kernel loops.  The imaging engines'
# four-lane speedup rests on three inner loops staying autovectorized; each
# is marked in-source with a `VEC-LOOP(<name>)` comment directly above the
# loop:
#
#   fft-soa-butterfly   src/common/fft.cpp     four-lane butterfly
#   socs-kernel-apply   src/litho/imaging.cpp  SOCS per-pixel fold of a
#                                              kernel pair into the intensity
#   blur-scatter        src/litho/imaging.cpp  SOCS separable-blur scatter
#                                              across band-column lanes
#
# This script recompiles the two kernel TUs with the same flags the build
# uses (POC_KERNEL_OPTS in the top-level CMakeLists.txt) plus
# -fopt-info-vec-optimized, and fails unless the compiler reports a
# vectorized loop within a few lines below every marker.  A silent
# regression — a new alias, a reordered field, an accidental
# loop-carried dependence — turns the four-lane win back into scalar
# code without failing any test; this check is what catches it.
#
# Usage: scripts/vectorize_check.sh [c++-compiler]
set -euo pipefail

cd "$(dirname "$0")/.."
CXX="${1:-${CXX:-g++}}"

KERNEL_FLAGS=(-std=c++20 -O3 -ffp-contract=off -I.)
if "$CXX" -mavx2 -E -x c++ /dev/null >/dev/null 2>&1; then
  KERNEL_FLAGS+=(-mavx2)
fi

# How far below a VEC-LOOP marker the compiler's "loop vectorized" report
# may land (the marker sits directly above the loop statement).
WINDOW=8

STATUS=0
check_tu() {
  local tu="$1"; shift
  local report
  report=$(mktemp)
  if ! "$CXX" "${KERNEL_FLAGS[@]}" -fopt-info-vec-optimized="$report" \
       -c "$tu" -o /dev/null; then
    echo "FAIL: $tu does not compile with the kernel flags" >&2
    rm -f "$report"
    STATUS=1
    return
  fi
  local marker
  for marker in "$@"; do
    local line
    line=$(grep -n "VEC-LOOP($marker)" "$tu" | head -1 | cut -d: -f1)
    if [ -z "$line" ]; then
      echo "FAIL: marker VEC-LOOP($marker) missing from $tu" >&2
      STATUS=1
      continue
    fi
    local hit=""
    local l
    for ((l = line; l <= line + WINDOW; ++l)); do
      if grep -Eq "$tu:$l:[0-9]+: optimized: loop vectorized" "$report"; then
        hit="$l"
        break
      fi
    done
    if [ -n "$hit" ]; then
      echo "OK: $marker ($tu:$hit vectorized)"
    else
      echo "FAIL: VEC-LOOP($marker) at $tu:$line was NOT vectorized" >&2
      STATUS=1
    fi
  done
  rm -f "$report"
}

check_tu src/common/fft.cpp fft-soa-butterfly
check_tu src/litho/imaging.cpp socs-kernel-apply blur-scatter

if [ "$STATUS" -ne 0 ]; then
  echo "vectorize_check: FAILED" >&2
  exit 1
fi
echo "vectorize_check: all marked loops vectorized"
