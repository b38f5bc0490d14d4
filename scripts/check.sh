#!/usr/bin/env bash
# One-shot pre-PR gate for x2vec. Runs, in order:
#
#   1. CMake configure (Release, warnings-as-errors, compile-commands export)
#   2. full build (library, tests, benches, examples, x2vec_lint)
#   3. ctest (the whole suite, which includes `-L lint`)
#   4. ctest -L metrics (observability + sampling-fidelity suite, re-run
#      on its own so a regression there is called out by name)
#   5. ctest -L kernels (span-kernel unit tests + bit-identity goldens,
#      re-run on its own so a numeric drift is called out by name)
#   6. ctest -L wl (Weisfeiler-Leman suite: the 1-WL dataset pass and the
#      folklore k-WL tuple pass against their map-based references, plus
#      every graph kernel's pinned Gram digests and the random-walk kernel
#      against its product-graph reference, re-run on its own so a
#      colour-id or Gram drift is called out by name)
#   7. ctest -L parity (backend-parity suite: the vectorized kernel
#      backend vs the generic golden reference, re-run on its own so a
#      tolerance breach is called out by name)
#   8. ctest -L persist (durable I/O + checkpoint/resume crash-safety
#      suite, re-run on its own so a persistence regression is called out
#      by name)
#   9. ctest -L golden (every test that pins a digest of tests/goldens.h,
#      re-run on its own; a moved digest prints one
#      "GOLDEN <name> pinned=<old> got=<new>" line)
#  10. ctest -L serve (embedding-serving suite: index backends, query
#      engine, admission control, batch-replay determinism) followed by a
#      tab_serving smoke replay, which must report every batch
#      bit-identical and write run_report.json
#  11. ctest -L stream (out-of-core CSR backend + streaming walk-corpus
#      pipeline suite, re-run on its own so a streaming regression is
#      called out by name) followed by a perf_stream --smoke run, which
#      must stream a DeepWalk training pass over a generated 10M-edge CSR
#      graph without materialising the walk corpus
#  12. python3 perfbench/smoke_test.py (plain gate only): builds the
#      benchmark from src/ in its own non-sanitized .bench_build/ and runs
#      every workload at toy size, so a src/ change that breaks the
#      benchmark's build or its correctness checks fails here
#  13. x2vec_lint over src/ tests/ bench/ tools/ examples/ — per-file
#      rules plus the whole-program passes (include cycles, layering
#      against tools/lint/layers.txt, metric registry); also exports the
#      module dependency DAG to $BUILD_DIR/deps.json and fails if the
#      checked-in docs/metrics.md is stale
#  14. clang-tidy over src/ — skipped with a notice when not installed
#
# Usage:
#   scripts/check.sh [--sanitize=asan|tsan|ubsan] [--build-dir=DIR] [-j N]
#
# --sanitize forwards the X2VEC_SANITIZE shorthand to CMake and switches to
# a per-sanitizer build directory (build-asan/, build-tsan/, ...), so a
# sanitized gate never clobbers the plain one. Exits nonzero on the first
# failing step.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=""
BUILD_DIR=""
JOBS="$(nproc 2>/dev/null || echo 4)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize=*) SANITIZE="${1#--sanitize=}" ;;
    --build-dir=*) BUILD_DIR="${1#--build-dir=}" ;;
    -j) JOBS="$2"; shift ;;
    -j*) JOBS="${1#-j}" ;;
    -h|--help)
      # The whole leading comment block, up to the first code line.
      sed -n '/^[^#]/q; 2,$ s/^# \{0,1\}//p' "$0"
      exit 0 ;;
    *) echo "check.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

case "$SANITIZE" in
  ""|asan|tsan|ubsan) ;;
  *) echo "check.sh: --sanitize must be asan, tsan or ubsan" >&2; exit 2 ;;
esac

if [[ -z "$BUILD_DIR" ]]; then
  BUILD_DIR="build"
  [[ -n "$SANITIZE" ]] && BUILD_DIR="build-$SANITIZE"
fi

step() { echo; echo "== check.sh: $* =="; }

CMAKE_ARGS=(
  -DCMAKE_BUILD_TYPE=Release
  -DX2VEC_WERROR=ON
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
)
[[ -n "$SANITIZE" ]] && CMAKE_ARGS+=("-DX2VEC_SANITIZE=$SANITIZE")

step "configure ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"

step "build (-j$JOBS)"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "ctest -L metrics (observability + sampling fidelity)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L metrics

step "ctest -L kernels (span kernels + bit-identity goldens)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L kernels

step "ctest -L wl (WL passes vs map references + graph-kernel Grams)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L wl

step "ctest -L parity (kernel backends vs generic golden reference)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L parity

step "ctest -L persist (durable I/O + checkpoint/resume)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L persist

step "ctest -L golden (every pinned digest of tests/goldens.h)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L golden

step "ctest -L serve (embedding serving: index, engine, admission)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L serve

step "tab_serving smoke replay (batch determinism + run_report.json)"
SERVE_SMOKE_DIR="$BUILD_DIR/serve-smoke"
mkdir -p "$SERVE_SMOKE_DIR"
SERVE_SMOKE_OUT="$(cd "$SERVE_SMOKE_DIR" && "../bench/tab_serving")"
echo "$SERVE_SMOKE_OUT" | tail -n 12
if echo "$SERVE_SMOKE_OUT" | grep -q "DIVERGED"; then
  echo "check.sh: tab_serving replay diverged across thread counts" >&2
  exit 1
fi
if [[ ! -f "$SERVE_SMOKE_DIR/run_report.json" ]]; then
  echo "check.sh: tab_serving did not write run_report.json" >&2
  exit 1
fi

step "ctest -L stream (out-of-core CSR + streaming walk pipeline)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L stream

step "perf_stream smoke (10M-edge streaming DeepWalk, no corpus)"
"$BUILD_DIR/bench/perf_stream" --smoke

if [[ -z "$SANITIZE" ]]; then
  step "perfbench smoke (benchmark build + correctness checks, toy size)"
  python3 perfbench/smoke_test.py
fi

step "x2vec_lint src/ tests/ bench/ tools/ examples/"
"$BUILD_DIR/tools/lint/x2vec_lint" --graph="$BUILD_DIR/deps.json" \
  --metrics-doc="$BUILD_DIR/metrics.md" src tests bench tools examples
if ! diff -u docs/metrics.md "$BUILD_DIR/metrics.md"; then
  echo "check.sh: docs/metrics.md is stale; regenerate with" >&2
  echo "  $BUILD_DIR/tools/lint/x2vec_lint --metrics-doc=docs/metrics.md src tests bench tools examples" >&2
  exit 1
fi

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy"
  cmake --build "$BUILD_DIR" --target tidy
else
  step "clang-tidy not installed; skipping (install LLVM tools to enable)"
fi

step "all gates passed"
