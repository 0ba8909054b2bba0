#!/usr/bin/env bash
# Build mmbench into build-bench/ and run one workload, or all of them.
#
#   bash benchmark/run.sh --workload NAME|all --seed N [--seconds S]
#                         [--trace 0|1 | --traced] [--out DIR]
#
# Build output goes to stderr. stdout carries one `<workload> <metric>
# <value> <unit>` line per metric and ends with the run's JSON result;
# --out DIR also keeps each run's lines in a file there, the input of
# `build-bench/mmbench compare BASE_DIR CHANGE_DIR`. Exits non-zero when
# the build or any correctness check fails.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/build-bench"

jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then
  jobs=4
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then
    generator=(-G Ninja)
  fi
  cmake -S "$bench_dir" -B "$build" ${generator[@]+"${generator[@]}"} \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target mmbench -j "$jobs" >&2
mmbench="$build/mmbench"

if ! "$mmbench" --benchmark-json | cmp -s - "$root/BENCHMARK.json"; then
  echo "run.sh: BENCHMARK.json does not match benchmark/table.hpp;" \
    "regenerate it with: $mmbench --benchmark-json > BENCHMARK.json" >&2
  exit 2
fi

workload=""
args=()
while (( $# > 0 )); do
  if [[ "$1" == "--workload" && $# -ge 2 ]]; then
    workload="$2"
    shift 2
  else
    args+=("$1")
    shift
  fi
done
args+=(--scratch "$build/scratch")

if [[ "$workload" != "all" ]]; then
  exec "$mmbench" --workload "$workload" "${args[@]}"
fi
status=0
for name in $("$mmbench" --workloads); do
  "$mmbench" --workload "$name" "${args[@]}" || status=1
done
exit "$status"
