#!/usr/bin/env bash
# ConGrid tier-1 gate: full build + test suite, then a sanitizer pass over
# the reliability/chaos/observability tests (the code most exposed to
# lifetime bugs -- retransmit timers and fault hooks firing into torn-down
# objects, and the metrics instruments they report into).
#
# Usage: tier1.sh [BUILD_DIR] [ASAN_BUILD_DIR]
#   BUILD_DIR      normal build tree (default: build)
#   ASAN_BUILD_DIR sanitizer build tree (default: ${BUILD_DIR}-asan)
# CI passes distinct directories so the two trees cache independently.
#
# Usage: tier1.sh tsan [TSAN_BUILD_DIR]
#   Builds the tree under ThreadSanitizer and runs the tests that exercise
#   the wave scheduler and the thread pool (the code that actually shares
#   state across threads). CI runs this as its own job; locally it is the
#   fastest way to vet a scheduler change for races.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "tsan" ]]; then
  TSAN_DIR="${2:-build-tsan}"
  echo "== tier-1: TSan pass over the parallel engine (${TSAN_DIR}) =="
  cmake -B "${TSAN_DIR}" -S . -DCONGRID_SANITIZE=thread >/dev/null
  # test_wire joins the TSan tier for its cross-thread socket test: the
  # epoll reactor's handler runs against sends from another thread.
  # test_overlay rides along: single-threaded by design, but the overlay's
  # timer closures must stay race-free if a threaded scheduler hosts them.
  # test_obs_http scrapes /metrics from client threads while a mutator
  # thread pounds the instruments -- the exact race surface of the obs
  # HTTP plane.
  # test_dsp and test_gw run FFTs and bank scans from pool threads: the
  # per-size FFT tables and the bank's template spectra are built on first
  # use by whichever thread gets there first, as in a kPure InspiralFilter
  # wave.
  cmake --build "${TSAN_DIR}" -j --target \
    test_parallel_runtime test_rm test_core_runtime test_cas test_chaos \
    test_wire test_overlay test_obs_http test_dsp test_gw
  for t in test_parallel_runtime test_rm test_core_runtime test_cas \
           test_chaos test_wire test_overlay test_obs_http test_dsp \
           test_gw; do
    "./${TSAN_DIR}/tests/${t}"
  done
  echo "tier-1 (tsan): OK"
  exit 0
fi

BUILD_DIR="${1:-build}"
ASAN_DIR="${2:-${BUILD_DIR}-asan}"

echo "== tier-1: build + ctest (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "== tier-1: ASan/UBSan chaos pass (${ASAN_DIR}) =="
# test_wire and test_tcp_parity run the real-socket tier under ASan too:
# the epoll reactor and the zero-copy decoder path are exactly where a
# lifetime bug would hide (buffers retired mid-writev, spans into a
# decoder that reallocated).
cmake -B "${ASAN_DIR}" -S . -DCONGRID_SANITIZE=address,undefined >/dev/null
# test_overlay joins the ASan tier: lookup/find state machines erase their
# own entries from inside timer closures, the classic shape for a
# use-after-free when a late reply races a timeout. test_supervisor and
# test_core_service have the same shape: lease, bind-retry and redeploy
# timers capture job ids and fire after the job was cancelled or fenced.
cmake --build "${ASAN_DIR}" -j --target test_reliable test_chaos test_net \
  test_obs test_obs_http test_wire test_tcp_parity test_overlay \
  test_supervisor test_core_service
for t in test_reliable test_chaos test_net test_obs test_obs_http \
         test_wire test_tcp_parity test_overlay test_supervisor \
         test_core_service; do
  "./${ASAN_DIR}/tests/${t}"
done

echo "tier-1: OK"
