#!/usr/bin/env bash
# Build and run the test suite under a sanitizer.
#
#   tools/run_sanitized_tests.sh [thread|address|undefined] [threads]
#
# Defaults to ThreadSanitizer with GPF_THREADS=4 — the configuration that
# exercises the parallel kernels (SpMV, density stamping, FFT passes,
# the paired x/y CG passes) for data races. The build lands in
# build-<san>san/ so it never disturbs the regular build tree.
set -euo pipefail
cd "$(dirname "$0")/.."

SAN="${1:-thread}"
THREADS="${2:-4}"
BUILD_DIR="build-${SAN}san"

case "$SAN" in
  thread|address|undefined) ;;
  *) echo "usage: $0 [thread|address|undefined] [threads]" >&2; exit 2 ;;
esac

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPF_SANITIZE="$SAN" \
  -DGPF_BUILD_BENCHMARKS=OFF \
  -DGPF_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j"$(nproc)"

# GPF_THREADS sets the default pool size; the equivalence tests also resize
# the pool themselves, so both defaulted and explicit pools run sanitized.
# GPF_SIMD pins the kernel dispatch to the scalar reference under the
# sanitizer (instrumentation of the intrinsic paths is spotty, and scalar
# is bitwise identical anyway); callers may still override it.
export GPF_SIMD="${GPF_SIMD:-scalar}"
GPF_THREADS="$THREADS" ctest --test-dir "$BUILD_DIR" --output-on-failure
