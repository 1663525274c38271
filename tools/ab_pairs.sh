#!/usr/bin/env bash
# Interleaved A/B runs of the end-to-end benchmark (bench/e2e) between two
# revisions.
#
#   tools/ab_pairs.sh A_REV B_REV [--workload W] [--pairs N] [--seconds S]
#                     [--seed N] [--out FILE]
#
# Exports each revision's tree (git archive) into two checkouts whose paths
# have equal length, and builds hybrimoe_bench (Release) in each. Then runs
# N pairs of `hybrimoe_bench --workload W`: A first in odd pairs, B first in
# even ones. Both sides get the same --git/--dirty values, so run metadata
# cannot differ between them. Writes a JSON artifact with every run's
# end-to-end metrics and, per metric, each side's median and quartiles, the
# B/A median ratio and B's wins out of N (the direction comes from
# BENCHMARK.json), plus the run_meta (host, compiler, cores) of the first
# run. The checkouts are removed on exit.
#
# Defaults: --workload decode_deepseek --pairs 10 --seed 20250408, --seconds
# from BENCHMARK.json's run_seconds, --out .bench_build/ab/ab-W-SEED-TIME.json.
# TMPDIR picks where the checkouts go. Exits non-zero when a build fails or
# a run fails its output check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
  sed -n '2,21s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

(($# >= 2)) || usage
rev_a="$1"
rev_b="$2"
shift 2
workload=decode_deepseek
pairs=10
seed=20250408
seconds="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
out=""
while (($#)); do
  case "$1" in
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --out) out="${2:?--out needs a file}"; shift 2 ;;
    *) usage ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab_pairs: --pairs must be a positive integer" >&2; exit 2; }

sha_a="$(git rev-parse --verify "$rev_a^{commit}")"
sha_b="$(git rev-parse --verify "$rev_b^{commit}")"
out="${out:-.bench_build/ab/ab-$workload-$seed-$(date +%Y%m%dT%H%M%S).json}"
mkdir -p "$(dirname "$out")"

work="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# "a" and "b" keep the two checkout paths the same length.
for side in a b; do
  sha="$sha_a"
  [[ "$side" == b ]] && sha="$sha_b"
  mkdir "$work/$side"
  git archive "$sha" | tar -x -C "$work/$side"
  echo "ab_pairs: building $side (${sha:0:12})" >&2
  cmake -S "$work/$side/bench/e2e" -B "$work/$side/.bench_build/e2e" \
    -DCMAKE_BUILD_TYPE=Release > "$work/$side.build.log" 2>&1 &&
    cmake --build "$work/$side/.bench_build/e2e" -j "$(nproc)" \
      >> "$work/$side.build.log" 2>&1 ||
    { tail -n 30 "$work/$side.build.log" >&2; exit 1; }
done

# End-to-end metric names and directions: "name better" per line.
metrics="$(sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([a-z0-9_]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p' \
  "$work/b/BENCHMARK.json")"

# One run: appends "pair side metric value" lines to $work/values.
run_side() {
  local pair="$1" side="$2" log="$work/run-$1-$2.log"
  echo "ab_pairs: pair $pair/$pairs side $side" >&2
  (cd "$work/$side" && .bench_build/e2e/hybrimoe_bench --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 --git ab_pairs --dirty 0) > "$log" ||
    { echo "ab_pairs: run failed (pair $pair, side $side)" >&2; tail -n 5 "$log" >&2; exit 1; }
  [[ -f "$work/run_meta" ]] || sed -n 's/^run_meta //p' "$log" > "$work/run_meta"
  awk -v w="$workload" -v p="$pair" -v s="$side" '$1 == w { print p, s, $2, $3 }' \
    "$log" >> "$work/values"
}

: > "$work/values"
for ((pair = 1; pair <= pairs; pair++)); do
  if ((pair % 2)); then order=(a b); else order=(b a); fi
  for side in "${order[@]}"; do run_side "$pair" "$side"; done
done

# Summary: medians and quartiles (linear interpolation), B/A median ratio
# and B's strict wins per metric.
{
  printf '{"workload": "%s", "seed": %s, "seconds": %s, "pairs": %s,\n' \
    "$workload" "$seed" "$seconds" "$pairs"
  printf ' "a": {"rev": "%s", "sha": "%s"}, "b": {"rev": "%s", "sha": "%s"},\n' \
    "$rev_a" "$sha_a" "$rev_b" "$sha_b"
  printf ' "run_meta": %s,\n' "$(cat "$work/run_meta")"
  awk -v metrics="$metrics" -v pairs="$pairs" '
    function quantile(arr, n, q,   h, lo) {
      h = (n - 1) * q; lo = int(h)
      return lo + 1 < n ? arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo]) : arr[lo]
    }
    function stats(side, m,   arr, n, p) {
      n = 0
      for (p = 1; p <= pairs; p++) if ((p, side, m) in v) arr[n++] = v[p, side, m]
      if (n == 0) return "null"
      asort_numeric(arr, n)
      med[side] = quantile(arr, n, 0.5)
      return sprintf("{\"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g}",
                     med[side], quantile(arr, n, 0.25), quantile(arr, n, 0.75))
    }
    function asort_numeric(arr, n,   i, j, t) {
      for (i = 1; i < n; i++)
        for (j = i; j > 0 && arr[j - 1] > arr[j]; j--) {
          t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t
        }
    }
    { v[$1, $2, $3] = $4 + 0 }
    END {
      nm = split(metrics, words, /[ \n]+/)
      printf " \"runs\": ["
      sep = ""
      for (p = 1; p <= pairs; p++) {
        for (s = 1; s <= 2; s++) {
          side = s == 1 ? "a" : "b"
          printf "%s\n  {\"pair\": %d, \"side\": \"%s\", \"first\": %s, \"metrics\": {",
                 sep, p, side, ((p % 2) == (side == "a")) ? "true" : "false"
          msep = ""
          for (i = 1; i < nm; i += 2)
            if ((p, side, words[i]) in v) {
              printf "%s\"%s\": %.17g", msep, words[i], v[p, side, words[i]]
              msep = ", "
            }
          printf "}}"
          sep = ","
        }
      }
      printf "\n ],\n \"summary\": {"
      sep = ""
      for (i = 1; i < nm; i += 2) {
        m = words[i]; better = words[i + 1]; med["a"] = med["b"] = 0
        sa = stats("a", m); sb = stats("b", m)
        wins = 0
        for (p = 1; p <= pairs; p++) {
          if (!((p, "a", m) in v) || !((p, "b", m) in v)) continue
          if (better == "higher" ? v[p, "b", m] > v[p, "a", m] : v[p, "b", m] < v[p, "a", m])
            wins++
        }
        ratio = med["a"] != 0 ? sprintf("%.6g", med["b"] / med["a"]) : "null"
        printf "%s\n  \"%s\": {\"better\": \"%s\", \"a\": %s, \"b\": %s, \"ratio\": %s, \"b_wins\": %d}",
               sep, m, better, sa, sb, ratio, wins
        sep = ","
      }
      printf "\n }}\n"
    }' "$work/values"
} > "$out"
echo "ab_pairs: wrote $out" >&2
sed -n '/"summary"/,$p' "$out" | grep -E '"(req_per_s|step_p50_ms|model_busy_s)"' >&2 || true
