#!/usr/bin/env bash
# End-to-end benchmark. Builds bench/e2e (Release) from the
# repository's sources, then runs hybrimoe_bench, one process per workload.
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--out FILE]
#       every workload, tracing off; prints "workload metric value unit"
#       lines and writes one merged JSON (default .bench_build/runs/)
#   bench/e2e/run.sh --trace [--seed N] [--seconds S] [--out FILE]
#       the same, traced: per-layer metrics instead of end-to-end ones
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last line of stdout is its JSON result
#   bench/e2e/run.sh --agree DIR_A DIR_B
#       compare two directories of merged runs against BENCHMARK.json
#
# --seconds defaults to BENCHMARK.json's run_seconds.
# Exits non-zero when the build fails or any workload's output check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build_dir=.bench_build/e2e
bin="$build_dir/hybrimoe_bench"
workloads=(decode_deepseek prefill_deepseek serve_tiny_saturated exec_mixtral_perf)

usage() {
  sed -n '2,16s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

mode=all
workload=""
seed=20250408
seconds="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
trace=0
out=""
while (($#)); do
  case "$1" in
    --workload) workload="${2:?--workload needs a name}"; mode=one; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift
      fi ;;
    --out) out="${2:?--out needs a file}"; shift 2 ;;
    --agree) mode=agree; dir_a="${2:?--agree needs two directories}"
             dir_b="${3:?--agree needs two directories}"; shift 3 ;;
    *) usage ;;
  esac
done

# Build output goes to stderr: stdout carries only benchmark results.
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -S bench/e2e -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" -j "$(nproc)" >&2

if [[ "$mode" == agree ]]; then
  exec "$bin" --agree "$dir_a" "$dir_b"
fi

meta=()
if [[ "$(git rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  dirty=0
  [[ -n "$(git status --porcelain 2>/dev/null)" ]] && dirty=1
  meta=(--git "$(git rev-parse HEAD)" --dirty "$dirty")
fi

if [[ "$mode" == one ]]; then
  # A child, not exec: peak_rss_mb reads ru_maxrss, which across exec keeps
  # the high-water mark of whatever process launched this script.
  status=0
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${meta[@]}" || status=$?
  exit "$status"
fi

out="${out:-.bench_build/runs/run-$seed-trace$trace-$(date +%Y%m%dT%H%M%S).json}"
mkdir -p "$(dirname "$out")"
tmp="$(mktemp -d "$build_dir/run.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out "$tmp/$w.json" "${meta[@]}" > "$tmp/$w.log" || status=1
  grep -v -e '^{"correct"' -e '^run_meta ' "$tmp/$w.log" || true
done
grep -m1 '^run_meta ' "$tmp/${workloads[0]}.log" || true
{
  printf '{"workloads": [\n'
  sep=""
  for w in "${workloads[@]}"; do
    [[ -f "$tmp/$w.json" ]] || continue
    printf '%s' "$sep"
    cat "$tmp/$w.json"
    sep=","
  done
  printf ']}\n'
} > "$out"
echo "wrote $out"
exit "$status"
