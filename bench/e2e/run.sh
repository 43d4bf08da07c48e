#!/usr/bin/env bash
# Build the end-to-end placement benchmark and run it.
#
#   bench/e2e/run.sh [--workload all|NAME[,NAME...]] [--seed N]
#                    [--reps N | --seconds S] [--trace 0|1]
#
# Defaults: every workload, seed 1998, 3 rounds, untraced. With --trace 1
# every child of the first round also runs traced, and the result object
# holds the per-layer metrics instead of the end-to-end ones.
# The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e under
# the repository root); build output goes to stderr, so the last line of
# stdout is the result object. Reports: BENCH_e2e.json and
# BENCH_e2e_trace.jsonl in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="${CARGO_TARGET_DIR:-$root/.bench_build}/e2e"

jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target gpf_e2e -j "$jobs" >&2

commit=unknown
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1 &&
   [ "$(git -C "$root" rev-parse --show-toplevel)" = "$root" ]; then
    commit="$(git -C "$root" rev-parse --short HEAD)"
fi

exec "$build/gpf_e2e" --benchmark-json "$root/BENCHMARK.json" \
    --work-dir "$build/work" --commit "$commit" "$@"
