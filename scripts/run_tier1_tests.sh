#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite —
# including the `net`-labeled socket/fault-injection tests, which carry
# explicit CTest TIMEOUT properties so a hung socket can never wedge the run.
#
# Usage: scripts/run_tier1_tests.sh [options] [build-dir]
#   --sanitize address|undefined|thread|address,undefined
#       Build with -DFEDGUARD_SANITIZE=<preset> (FEDGUARD_ASSERTS then
#       defaults ON) in a preset-specific build dir (build-asan, build-ubsan,
#       build-tsan, build-asan-ubsan) unless one is given explicitly.
#   --lint
#       Run scripts/fedguard_lint.py over the repo before building; any
#       violation fails the run.
#   --thread-safety
#       Before the suite, compile src/ with clang++ under
#       -DFEDGUARD_THREAD_SAFETY=ON (clang Thread Safety Analysis as errors;
#       layer 4 of the static-analysis gate). Warn-skips when clang++ is not
#       installed — use scripts/run_static_analysis.sh --strict in CI.
#   --kernel-arch serial|avx2|avx512|auto
#       Export FEDGUARD_KERNEL_ARCH for the ctest run so the whole suite
#       executes under that SIMD kernel tier (the matrix leg of the dispatch
#       gate; an unavailable tier degrades down the chain). Golden-pinned
#       digests are only asserted under the serial tier — SIMD runs check
#       invariants and local/remote parity instead.
#   --obs
#       After the suite, run bench/bench_obs and fail if the fully-traced
#       m=50 d=100k round costs more than 3% over the untraced round
#       (scripts/check_obs_overhead.py; report lands in BENCH_obs.json).
#   --robustness
#       After the suite, re-run the scenario-labeled tests standalone, then
#       run the smoke robustness sweep (bench/bench_robustness, serial
#       kernels, BENCH_robustness.json) and gate it against
#       scripts/robustness_baseline.json via scripts/check_robustness.py.
#   [build-dir]  override the build directory (default: build).
set -eu

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"

SANITIZE=""
KERNEL_ARCH=""
RUN_LINT=0
RUN_THREAD_SAFETY=0
RUN_OBS=0
RUN_ROBUSTNESS=0
BUILD_DIR=""
while [ $# -gt 0 ]; do
  case "$1" in
    --sanitize)
      [ $# -ge 2 ] || { echo "--sanitize requires an argument" >&2; exit 2; }
      SANITIZE="$2"; shift 2 ;;
    --sanitize=*)
      SANITIZE="${1#--sanitize=}"; shift ;;
    --kernel-arch)
      [ $# -ge 2 ] || { echo "--kernel-arch requires an argument" >&2; exit 2; }
      KERNEL_ARCH="$2"; shift 2 ;;
    --kernel-arch=*)
      KERNEL_ARCH="${1#--kernel-arch=}"; shift ;;
    --lint)
      RUN_LINT=1; shift ;;
    --thread-safety)
      RUN_THREAD_SAFETY=1; shift ;;
    --obs)
      RUN_OBS=1; shift ;;
    --robustness)
      RUN_ROBUSTNESS=1; shift ;;
    -h|--help)
      sed -n '2,34p' "$0"; exit 0 ;;
    *)
      BUILD_DIR="$1"; shift ;;
  esac
done

case "$SANITIZE" in
  ""|address|undefined|thread|address,undefined) ;;
  *) echo "unknown --sanitize preset '$SANITIZE' (want address|undefined|thread|address,undefined)" >&2
     exit 2 ;;
esac

case "$KERNEL_ARCH" in
  ""|auto|serial|avx2|avx512) ;;
  *) echo "unknown --kernel-arch tier '$KERNEL_ARCH' (want auto|serial|avx2|avx512)" >&2
     exit 2 ;;
esac

if [ -z "$BUILD_DIR" ]; then
  case "$SANITIZE" in
    "")                BUILD_DIR="build" ;;
    address)           BUILD_DIR="build-asan" ;;
    undefined)         BUILD_DIR="build-ubsan" ;;
    thread)            BUILD_DIR="build-tsan" ;;
    address,undefined) BUILD_DIR="build-asan-ubsan" ;;
  esac
fi

if [ "$RUN_LINT" -eq 1 ]; then
  echo "== fedguard-lint =="
  python3 "$SCRIPT_DIR/fedguard_lint.py" --root "$REPO_ROOT"
fi

if [ "$RUN_THREAD_SAFETY" -eq 1 ]; then
  echo "== clang thread-safety analysis =="
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S "$REPO_ROOT" \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DFEDGUARD_THREAD_SAFETY=ON \
      -DFEDGUARD_BUILD_TESTS=OFF \
      -DFEDGUARD_BUILD_BENCH=OFF \
      -DFEDGUARD_BUILD_EXAMPLES=OFF
    cmake --build build-tsa -j
  else
    echo "WARNING: clang++ not found; skipping thread-safety analysis (the" >&2
    echo "         FEDGUARD_* annotations compile to no-ops under gcc)." >&2
  fi
fi

CMAKE_ARGS=()
if [ -n "$SANITIZE" ]; then
  CMAKE_ARGS+=("-DFEDGUARD_SANITIZE=$SANITIZE")
fi

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "$BUILD_DIR" -j

# The whole suite (the net label is part of tier-1, not an opt-in extra).
if [ -n "$KERNEL_ARCH" ]; then
  echo "== kernel tier for this run: $KERNEL_ARCH (FEDGUARD_KERNEL_ARCH) =="
  export FEDGUARD_KERNEL_ARCH="$KERNEL_ARCH"
fi
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Belt and braces: confirm the net label resolves to its three suites even if
# someone filters the main run.
ctest --test-dir "$BUILD_DIR" -L net -N

if [ "$SANITIZE" = "thread" ]; then
  # The TSan leg is only worth its cost if it covers the genuinely concurrent
  # paths: the end-to-end scenario sweep and the obs tracing/metrics suite.
  # `ctest -N` exits 0 even when a filter matches nothing, so assert a
  # non-zero match count explicitly. (tests/CMakeLists.txt scales every
  # TIMEOUT 4x under this preset — TSan's happens-before bookkeeping is the
  # costliest instrumentation in the matrix.)
  echo "== tsan leg coverage check: scenario label + test_obs =="
  ctest --test-dir "$BUILD_DIR" -L scenario -N | grep -q 'Total Tests: [1-9]' || {
    echo "ERROR: TSan leg resolves no scenario-labeled tests" >&2; exit 1; }
  ctest --test-dir "$BUILD_DIR" -R '^test_obs$' -N | grep -q 'Total Tests: [1-9]' || {
    echo "ERROR: TSan leg does not include test_obs" >&2; exit 1; }
fi

if [ "$RUN_OBS" -eq 1 ]; then
  echo "== observability overhead gate =="
  "$BUILD_DIR"/bench/bench_obs --benchmark_out=BENCH_obs.json \
                               --benchmark_out_format=json
  python3 "$SCRIPT_DIR/check_obs_overhead.py" BENCH_obs.json
fi

if [ "$RUN_ROBUSTNESS" -eq 1 ]; then
  echo "== robustness smoke gate =="
  # The scenario label is part of the main suite above; the standalone run
  # keeps its timings visible when iterating on the sweep itself.
  ctest --test-dir "$BUILD_DIR" -L scenario --output-on-failure
  "$BUILD_DIR"/bench/bench_robustness --quiet --matrix smoke \
      --kernel_arch serial --out BENCH_robustness.json
  python3 "$SCRIPT_DIR/check_robustness.py" BENCH_robustness.json \
      --baseline "$SCRIPT_DIR/robustness_baseline.json"
fi
