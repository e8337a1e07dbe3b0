#!/usr/bin/env bash
# Builds hdmap_bench into build-bench/ (a no-op once built) and runs the
# serving benchmark from the repository root.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload in one process. The last line of stdout is the JSON
#       result: {"correct", "attempted", "failed", "metrics"}.
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#       Every workload, each in a fresh process (seed 1 unless given).
#
# Other arguments (--out, --trace-out, ...) pass through to hdmap_bench.
# Build output goes to stderr. Exits nonzero when the build fails, when a
# correctness gate fails, or when the library sources are missing.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
if [[ ! -f src/CMakeLists.txt ]]; then
  echo "run.sh: library sources not found at $ROOT/src" >&2
  exit 1
fi

BUILD=build-bench
JOBS=$(nproc)
if ((JOBS > 4)); then JOBS=4; fi
{
  if [[ ! -f $BUILD/CMakeCache.txt ]]; then
    cmake -S benchmark -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$BUILD" -j "$JOBS" --target hdmap_bench
} >&2
mkdir -p "$BUILD/tmp"

# Provenance: only this checkout's own repository counts, not an
# enclosing one.
HDMAP_BENCH_GIT_SHA=unknown
if [[ "$(git -C "$ROOT" rev-parse --show-toplevel 2>/dev/null)" == "$ROOT" ]]; then
  HDMAP_BENCH_GIT_SHA=$(git -C "$ROOT" rev-parse HEAD)
fi
export HDMAP_BENCH_GIT_SHA

workload=""
args=()
while (($#)); do
  case $1 in
    --workload) workload=$2; shift 2 ;;
    --workload=*) workload=${1#*=}; shift ;;
    --smoke) args+=(--smoke --seconds 2); shift ;;
    *) args+=("$1"); shift ;;
  esac
done

BIN=$BUILD/hdmap_bench
if [[ -n $workload ]]; then
  exec "$BIN" --workload "$workload" --tmp "$BUILD/tmp" "${args[@]}"
fi

rc=0
for w in tile_fleet region_scan fleet_update replicated_write; do
  echo "== $w" >&2
  "$BIN" --workload "$w" --seed 1 --tmp "$BUILD/tmp" "${args[@]}" || rc=1
done
exit $rc
