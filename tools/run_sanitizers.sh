#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers:
#
#   1. ASan + UBSan (-DCOLORBARS_SANITIZE=ON, which adds
#      float-cast-overflow to GCC's "undefined" group): the full suite.
#   2. TSan (-DCOLORBARS_TSAN=ON): the thread-pool, determinism, and
#      streaming-pipeline tests, which exercise every concurrent code
#      path (parallel_for regions, shared-pool resizing, concurrent
#      const reads of EmissionTrace prefix sums during frame synthesis,
#      BufferPool acquire/release from prefetch refills, concurrent
#      const OpticalChannel queries from parallel row integrals, the
#      scene path's per-ROI decode fan-out over the shared pool, the
#      simd layer's shared-LUT reads plus capture-arena reuse inside
#      parallel_for capture/reduction regions, the ISI-convolved
#      exposure integrals inside parallel row loops, and the decision
#      engines' shared-state reads on every decode path).
#
# The two instrumentations are mutually exclusive, so each gets its own
# build tree under build-asan/ and build-tsan/. Usage:
#
#   tools/run_sanitizers.sh [jobs]          both legs
#   tools/run_sanitizers.sh --tsan [jobs]   the TSan leg only (the CI tsan job)

set -euo pipefail

cd "$(dirname "$0")/.."
legs="all"
if [ "${1:-}" = "--tsan" ]; then
  legs="tsan"
  shift
fi
jobs="${1:-$(nproc)}"

# TSan must cover the concurrency surface: if a rename/move ever drops
# one of these suites from the binary, fail the run instead of silently
# shrinking coverage.
# Svc covers the trial service: the worker's heartbeat side thread
# races its job loop over the shared socket mutex, and the scheduler's
# poll loop overlaps worker lifetimes. SvcTimeout stays OUT of the TSan
# filter: its per-job deadlines are wall-clock, and TSan's slowdown
# makes legitimate jobs miss them.
tsan_required_suites=(ThreadPool Determinism BatchTrials BufferPool Pipeline Channel ChannelStages Adapt Scene SceneTracker Simd Frontend Pd Eq Isi Svc SvcWire)
tsan_filter='ThreadPool.*:Determinism.*:DeriveStreamSeed.*:BatchTrials.*:BufferPool.*:Pipeline.*:Channel.*:ChannelStages.*:Adapt.*:Scene.*:SceneTracker.*:Simd.*:Frontend.*:Pd.*:Eq.*:Isi.*:Svc.*:SvcWire.*'

build_suite() {
  local build_dir="$1" cmake_flag="$2"
  echo "=== configure ${build_dir} (${cmake_flag}) ==="
  cmake -B "${build_dir}" -S . "${cmake_flag}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" -j "${jobs}" --target colorbars_tests
}

exec_suite() {
  local build_dir="$1" gtest_filter="$2"
  echo "=== run ${build_dir} (filter: ${gtest_filter}) ==="
  "${build_dir}/tests/colorbars_tests" --gtest_filter="${gtest_filter}" \
    --gtest_brief=1
}

run_suite() {
  build_suite "$1" "$2"
  exec_suite "$1" "$3"
}

check_tsan_suites() {
  local build_dir="$1"
  local listing
  listing="$("${build_dir}/tests/colorbars_tests" --gtest_list_tests)"
  local missing=0
  for suite in "${tsan_required_suites[@]}"; do
    if ! grep -q "^${suite}\." <<< "${listing}"; then
      echo "ERROR: TSan build is missing required test suite '${suite}.*'" >&2
      missing=1
    fi
  done
  if [ "${missing}" -ne 0 ]; then
    echo "ERROR: the TSan run would silently skip concurrency coverage; aborting." >&2
    exit 1
  fi
}

# ASan+UBSan over everything; halt on the first UB report.
if [ "${legs}" = "all" ]; then
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    run_suite build-asan -DCOLORBARS_SANITIZE=ON '*'
fi

# TSan over the concurrency surface. COLORBARS_THREADS is left unset so
# the pool sizes from hardware_concurrency; the tests themselves also
# spin up fixed 2/4/8-thread pools. The suite check runs before the
# tests so a skipped suite fails loudly rather than passing vacuously.
build_suite build-tsan -DCOLORBARS_TSAN=ON
check_tsan_suites build-tsan
TSAN_OPTIONS="halt_on_error=1" \
  exec_suite build-tsan "${tsan_filter}"

echo "All sanitizer suites passed."
