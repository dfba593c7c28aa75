#!/usr/bin/env bash
# Vectorization gate for the four-lane imaging kernels.  The imaging
# engines' four-lane speedup rests on three kernels staying vector code.
#
# The FFT kernel behind fft_soa (src/common/fft.cpp) holds each element's
# four lanes in one GCC/Clang vector value, so there is no loop left for
# the autovectorizer; this script compiles fft.cpp with the kernel flags,
# disassembles it with objdump, and fails unless fft_soa holds packed
# vmulpd/vaddpd/vsubpd on ymm registers and no FMA (vfmadd*/vfmsub*/
# vfnm*: a contracted butterfly would round differently from the scalar
# fft_span and break bit-identity).  Where the compiler does not accept
# -mavx2, only the ymm part is skipped.
#
# Two imaging loops rely on autovectorization; each is marked in-source
# with a `VEC-LOOP(<name>)` comment directly above the loop:
#
#   socs-kernel-apply   src/litho/imaging.cpp  SOCS per-pixel fold of a
#                                              kernel pair into the intensity
#   blur-scatter        src/litho/imaging.cpp  SOCS separable-blur scatter
#                                              across band-column lanes
#
# For those the script recompiles imaging.cpp with the same flags the build
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
HAVE_AVX2=0
if "$CXX" -mavx2 -E -x c++ /dev/null >/dev/null 2>&1; then
  KERNEL_FLAGS+=(-mavx2)
  HAVE_AVX2=1
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

# Disassembly check of fft_soa, together with its kernel fft_span_lanes in
# case the compiler keeps that out of line.
check_fft_soa() {
  local tu=src/common/fft.cpp
  local obj
  obj=$(mktemp)
  if ! "$CXX" "${KERNEL_FLAGS[@]}" -c "$tu" -o "$obj"; then
    echo "FAIL: $tu does not compile with the kernel flags" >&2
    rm -f "$obj"
    STATUS=1
    return
  fi
  local dis
  dis=$(objdump -d --no-show-raw-insn "$obj" |
        awk '/^[0-9a-f]+ <_ZN3poc(7fft_soa|12_GLOBAL__N_114fft_span_lanes)E[^>]*>:$/ {f = 1; next}
             f && /^$/ {f = 0}
             f')
  rm -f "$obj"
  if [ -z "$dis" ]; then
    echo "FAIL: no fft_soa in the disassembly of $tu" >&2
    STATUS=1
    return
  fi
  local fma ok=1
  fma=$(grep -cE 'vfn?m(add|sub)' <<<"$dis" || true)
  if [ "$fma" -ne 0 ]; then
    echo "FAIL: fft_soa holds $fma FMA instructions" >&2
    ok=0
  fi
  local op count counts=""
  if [ "$HAVE_AVX2" -eq 1 ]; then
    for op in vmulpd vaddpd vsubpd; do
      count=$(grep -cE "$op[[:space:]].*%ymm" <<<"$dis" || true)
      counts+=" $op=$count"
      if [ "$count" -eq 0 ]; then
        echo "FAIL: fft_soa holds no packed $op on ymm registers" >&2
        ok=0
      fi
    done
  else
    counts=" skipped (no -mavx2)"
  fi
  if [ "$ok" -eq 1 ]; then
    echo "OK: fft_soa has no FMA; packed ymm ops:$counts"
  else
    STATUS=1
  fi
}

check_fft_soa
check_tu src/litho/imaging.cpp socs-kernel-apply blur-scatter

if [ "$STATUS" -ne 0 ]; then
  echo "vectorize_check: FAILED" >&2
  exit 1
fi
echo "vectorize_check: fft_soa packed, all marked loops vectorized"
