#!/usr/bin/env bash
# Behaviour diff between two builds of this repo.
#
# Usage: bench/diff_outputs.sh BASE_BUILD HEAD_BUILD [OUT_DIR]
#        bench/diff_outputs.sh --list   (the targets it needs built)
#
# Runs the deterministic virtual-time benches and examples below from both
# CMake build trees and `diff -u`s their stdout. An entry may carry
# arguments after the program path; it is then a run of its own. These
# programs print no host-time fields, so two runs of one build are
# byte-identical and any difference is a behaviour change. Left out: bench_overload (747 CPU-s
# and 1.4 GB peak RSS on a shared 4-core VM) and bench_kvfs_micro (host
# timings). Exits 1 on any difference (2 on a missing binary or a program
# that crashes). The diffs land in OUT_DIR (default: a temp dir), one
# <run>.diff per differing run, and are echoed to stdout.
#
# Comparing two builds made with the same toolchain avoids committing golden
# files whose floating-point formatting could differ between compilers.
set -u

# Paths relative to a build tree, each optionally followed by arguments; the
# basename is the CMake target.
programs=(
  bench/bench_cluster_scaling
  bench/bench_migration
  bench/bench_ipc
  bench/bench_control_plane
  bench/bench_disaggregation
  bench/bench_recovery
  bench/bench_fairness
  bench/bench_batch_policy
  bench/bench_fig3_rag
  "bench/bench_fig3_rag --chunked"  # The RAG run that packs decodes first.
  bench/bench_constrained
  bench/bench_context_prune
  bench/bench_fork_vs_recompute
  bench/bench_function_calling
  bench/bench_io_offload
  bench/bench_kv_policy
  bench/bench_prompt_layout
  bench/bench_speculative
  examples/beam_search
  examples/constrained_json
  examples/fault_tolerant_agent
  examples/function_calling
  examples/multi_agent
  examples/quickstart
  examples/rag_cache
  examples/recursion_of_thought
  examples/tree_of_thought
  examples/watermark
)

if [ "${1:-}" = "--list" ]; then
  targets=()
  for entry in "${programs[@]}"; do
    read -r program _ <<< "$entry"
    target=${program##*/}
    [[ " ${targets[*]} " == *" $target "* ]] || targets+=("$target")
  done
  echo "${targets[@]}"
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
for entry in "${programs[@]}"; do
  read -r -a argv <<< "$entry"
  program=${argv[0]}
  args=("${argv[@]:1}")
  run="${program##*/}${args[*]:+ ${args[*]}}"
  file=${run// /_}
  for tree in "$base" "$head"; do
    if [ ! -x "$tree/$program" ]; then
      echo "missing $tree/$program" >&2
      exit 2
    fi
  done
  # A self-gating program (bench_disaggregation) may exit nonzero; its
  # output and exit code are still compared, so only a crash is an error.
  "$base/$program" "${args[@]}" > "$out/$file.base.txt" 2>&1
  base_rc=$?
  "$head/$program" "${args[@]}" > "$out/$file.head.txt" 2>&1
  head_rc=$?
  if [ "$base_rc" -gt 128 ] || [ "$head_rc" -gt 128 ]; then
    echo "$run crashed (base exit $base_rc, head exit $head_rc)" >&2
    exit 2
  fi
  if diff -u --label "base/$run" --label "head/$run" \
      "$out/$file.base.txt" "$out/$file.head.txt" > "$out/$file.diff" &&
      [ "$base_rc" -eq "$head_rc" ]; then
    rm "$out/$file.diff"
    echo "same    $run"
  else
    echo "DIFFERS $run (exit base $base_rc, head $head_rc)"
    cat "$out/$file.diff"
    status=1
  fi
done
exit "$status"
