#!/usr/bin/env bash
# Build the concurrency-sensitive tests under ThreadSanitizer and run them
# with a multi-thread OpenMP team, so data races in the parallel MDC
# frequency loop, the workspace pools, and the serving layer (operator
# cache, admission queue, solve service) are caught even on small machines.
#
# GCC's libgomp synchronises its thread pool with futexes TSan cannot see.
# The user-data fork/join edges are restored with explicit happens-before
# annotations (common/tsan.hpp), but one false-positive class is not
# annotatable: reused pool threads reading the compiler-generated outlined
# argument struct, which the master writes on its own stack at the fork,
# before any point user code runs. Those reports carry "Location is stack
# of <thread>" — main in single-service runs, a solve-service worker when
# the serving layer forks inner OpenMP teams — plus libgomp frames
# (gomp_thread_start / the ._omp_fn clone). Every shared object our
# parallel regions actually race on (pooled workspaces, spectra, tiles,
# cache entries, queue state) is heap-allocated, so this script counts a
# report as a known-benign fork handoff only when it is BOTH on a thread
# stack AND inside libgomp's fork machinery; everything else is real.
#
# Usage: tools/run_tsan_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# Honour the caller's generator choice; otherwise prefer Ninja when it is
# installed (CI exports CMAKE_GENERATOR=Ninja, dev laptops usually have it).
# A build dir configured with a different generator must not be reused with
# -G, so only pass one on first configure.
GENERATOR_ARGS=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  if [ -n "${CMAKE_GENERATOR:-}" ]; then
    GENERATOR_ARGS=(-G "$CMAKE_GENERATOR")
  elif command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
fi

TESTS=(test_mdc_parallel test_band_transform test_tlr_mvm test_shared_basis test_serve test_cluster test_frontend test_oocache test_obs test_common)

cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTLRWSE_SANITIZE=thread \
  -DTLRWSE_BUILD_BENCH=OFF \
  -DTLRWSE_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

# Force a real thread team regardless of the host's core count.
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-4}"
# exitcode=0: test binaries fail on gtest assertions only; races are
# classified below instead of aborting at the first report.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=0 exitcode=0}"

status=0
for t in "${TESTS[@]}"; do
  echo "=== TSan: $t (OMP_NUM_THREADS=$OMP_NUM_THREADS) ==="
  log="$BUILD_DIR/$t.tsan.log"
  # A hung binary (deadlocked prefetcher, stuck queue) must fail loudly,
  # not stall the job until the CI-level timeout reaps it.
  if ! timeout 600 "$BUILD_DIR/tests/$t" >"$log" 2>&1; then
    echo "FAIL: $t test failures (or 600s timeout)"
    tail -n 40 "$log"
    status=1
  fi
  counts=$(awk '
    /WARNING: ThreadSanitizer: data race/ { in_report = 1; on_stack = 0; in_gomp = 0 }
    in_report && /Location is stack of/ { on_stack = 1 }
    in_report && /gomp_thread_start|\._omp_fn/ { in_gomp = 1 }
    in_report && /^SUMMARY: ThreadSanitizer/ {
      total++; if (!(on_stack && in_gomp)) real++; in_report = 0
    }
    END { printf "%d %d", total + 0, real + 0 }' "$log")
  total=${counts% *}
  real=${counts#* }
  echo "race reports: $total total, $real real," \
       "$((total - real)) known-benign libgomp fork handoff"
  # Explicit per-test verdict: a clean run prints PASS, not just silence,
  # so CI logs show the classifier actually ran on every binary.
  if [ "$real" -gt 0 ]; then
    echo "VERDICT: FAIL  $t -- $real real data races (see $log)"
    grep -B 2 -A 30 "WARNING: ThreadSanitizer" "$log" | head -120 || true
    status=1
  else
    echo "VERDICT: PASS  $t -- 0 real races ($total reports classified)"
  fi
done
if [ "$status" -eq 0 ]; then
  echo "TSan suite: all ${#TESTS[@]} binaries clean"
else
  echo "TSan suite: failures detected"
fi
exit "$status"
