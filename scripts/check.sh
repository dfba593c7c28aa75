#!/usr/bin/env bash
# Full local gate: the tier-1 build + test pass, a ThreadSanitizer build
# that runs the parallel-engine tests (par_test), the fault-containment
# suite (fault_test — injected faults + retries under 4 threads), the
# durable-run suite (run_test — journal replay, cancellation, kill-resume)
# and the flow-level tests that exercise it (cache_test, core_test — now
# including the SOCS-mode flows), an AddressSanitizer build over the
# common/litho/SOCS/cache/core/fault/run tests, and the crash-recovery gate
# (scripts/crash_recovery.sh — SIGKILL a journaled run mid-flow, resume at
# 1 and 4 threads, assert the annotated worst slack is bit-identical).  The TSan step is what keeps the
# determinism contract honest —
# slot writes and the work-stealing queues must be race-free, not just
# produce the right answer on one scheduling.  The ASan step covers the
# imaging scratch-buffer reuse, the kernel/pupil cache lifetimes, the
# four-lane FFT kernel's unaligned 32-byte loads and stores at arbitrary
# strides (common_test's lane oracle), and the journal reader parsing torn
# and bit-flipped segments from disk (run_test).
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== step 1/5: regular build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== step 2/5: full test suite =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== step 3/5: TSan build + race tests (par_test, fault_test, run_test, cache_test, socs_test, core_test, sta_incremental_test, determinism_test[engines]) =="
cmake -B build-tsan -S . -DPOC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target par_test fault_test run_test cache_test socs_test core_test sta_incremental_test determinism_test
./build-tsan/tests/par_test
./build-tsan/tests/fault_test
# Death tests fork; TSan dislikes forking multithreaded processes, and the
# SIGKILL kill-resume path is already covered by step 2 and step 5.
./build-tsan/tests/run_test --gtest_filter='-*Killed*'
./build-tsan/tests/cache_test
./build-tsan/tests/socs_test
./build-tsan/tests/core_test
# Determinism at 1 and 4 threads under the abbe, socs_opc (SOCS OPC, Abbe
# extraction: the default) and socs_full schedules: the per-thread scratch
# arenas and the process-wide kernel, pupil and twiddle memos must be
# race-free.
./build-tsan/tests/determinism_test --gtest_filter='DeterminismEngines*'
# The incremental-STA equivalence fuzz harness: its 4-thread legs drive the
# TimingGraph per-level parallel evaluation, so TSan checks the disjoint-
# slot write contract while the asserts check bit-identity.
./build-tsan/tests/sta_incremental_test

echo "== step 4/5: ASan build + memory tests (common_test, litho_test, cdx_test, fault_test, socs_test, cache_test, core_test, batch_test, run_test) =="
cmake -B build-asan -S . -DPOC_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target common_test litho_test cdx_test fault_test socs_test cache_test core_test batch_test run_test
# Fft.SoaLanesMatchScalarBitForBit sizes each lane buffer to end at the last
# lane, so a kernel load or store past it lands in the red zone.
./build-asan/tests/common_test
./build-asan/tests/litho_test
# CD extraction reads cached latents in place through ImageView (a raw
# pixel pointer); core_test drives it from the flow's window cache.
./build-asan/tests/cdx_test
./build-asan/tests/fault_test
./build-asan/tests/socs_test
./build-asan/tests/cache_test
./build-asan/tests/core_test
# Arena reuse across window shapes (latent_batch over mixed shapes, both
# engines) + the warm-call allocation probes (the probe's operator-new
# override forwards to malloc, which ASan intercepts).
./build-asan/tests/batch_test
# Journal replay parses bytes from disk: the torn-tail, bit-flip and
# shard-merge tests feed the one reader damaged segments.
./build-asan/tests/run_test

echo "== step 5/5: crash-recovery gate (SIGKILL + resume, bit-identical WS) =="
cmake --build build -j "$JOBS" --target resumable_flow
scripts/crash_recovery.sh build

echo "== check.sh: all green =="
