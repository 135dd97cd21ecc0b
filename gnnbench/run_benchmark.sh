#!/usr/bin/env bash
# Builds gnnbench from the checkout it sits in, then runs it.
#
#   bash gnnbench/run_benchmark.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       runs one workload; the last stdout line is the JSON result.
#   bash gnnbench/run_benchmark.sh [--seed S] [--seconds T] [--trace 0|1]
#       runs every workload, each in its own process.
#
# Build output goes to stderr. The build, the compiler's temporary files,
# traces and trace CSVs all live under .bench_build/ at the checkout root.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build/gnnbench"
out="$root/.bench_build/gnnbench-out"
export TMPDIR="$root/.bench_build/tmp"
mkdir -p "$TMPDIR"

cores="$(nproc)"
jobs=$((cores < 4 ? cores : 4))
cmake -S "$bench_dir" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target gnnbench -j "$jobs" >&2

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$build/gnnbench" --out-dir "$out" "$@"
  fi
done

status=0
for workload in sweep-cold functional serve-mixed serve-sampled; do
  "$build/gnnbench" --out-dir "$out" --workload "$workload" "$@" || status=1
done
exit "$status"
