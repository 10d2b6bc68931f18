#!/usr/bin/env bash
# Behaviour diff between two builds of this repo.
#
# Usage: bench/diff_outputs.sh BASE_BUILD HEAD_BUILD [OUT_DIR]
#        bench/diff_outputs.sh --list   (the bench targets it needs built)
#
# Runs the deterministic virtual-time benches below from both CMake build
# trees and `diff -u`s their stdout. These benches print no host-time
# fields, so two runs of one build are byte-identical and any difference
# is a behaviour change. Exits 1 on any difference (2 on a missing binary or
# a bench that fails to run). The diffs land in OUT_DIR (default: a temp
# dir), one <bench>.diff per differing bench, and are echoed to stdout.
#
# Comparing two builds made with the same toolchain avoids committing golden
# files whose floating-point formatting could differ between compilers.
set -u

benches=(
  bench_cluster_scaling
  bench_migration
  bench_ipc
  bench_control_plane
  bench_disaggregation
  bench_recovery
  bench_fairness
  bench_batch_policy
  bench_fig3_rag
)

if [ "${1:-}" = "--list" ]; then
  echo "${benches[@]}"
  exit 0
fi
if [ $# -lt 2 ]; then
  echo "usage: $0 BASE_BUILD HEAD_BUILD [OUT_DIR] | --list" >&2
  exit 2
fi
base=$1
head=$2
out=${3:-$(mktemp -d)}
mkdir -p "$out"

status=0
for bench in "${benches[@]}"; do
  for tree in "$base" "$head"; do
    if [ ! -x "$tree/bench/$bench" ]; then
      echo "missing $tree/bench/$bench" >&2
      exit 2
    fi
  done
  # A self-gating bench (bench_disaggregation) may exit nonzero; its
  # output and exit code are still compared, so only a crash is an error.
  "$base/bench/$bench" > "$out/$bench.base.txt" 2>&1
  base_rc=$?
  "$head/bench/$bench" > "$out/$bench.head.txt" 2>&1
  head_rc=$?
  if [ "$base_rc" -gt 128 ] || [ "$head_rc" -gt 128 ]; then
    echo "$bench crashed (base exit $base_rc, head exit $head_rc)" >&2
    exit 2
  fi
  if diff -u --label "base/$bench" --label "head/$bench" \
      "$out/$bench.base.txt" "$out/$bench.head.txt" > "$out/$bench.diff" &&
      [ "$base_rc" -eq "$head_rc" ]; then
    rm "$out/$bench.diff"
    echo "same    $bench"
  else
    echo "DIFFERS $bench (exit base $base_rc, head $head_rc)"
    cat "$out/$bench.diff"
    status=1
  fi
done
exit "$status"
