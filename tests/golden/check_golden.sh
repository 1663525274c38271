#!/usr/bin/env sh
# Golden byte-diff: runs hybrimoe_run with the given arguments, writing its
# --json summary (and, when a golden trace is given, its --trace JSONL) into
# WORK_DIR, then cmp's each output against its committed golden file.
#
# Usage: check_golden.sh RUN_BINARY WORK_DIR GOLDEN_JSON [GOLDEN_TRACE] -- ARGS...
# Exits non-zero when the run fails or any output differs by a single byte.
set -eu

run=$1
work=$2
golden_json=$3
shift 3
golden_trace=""
if [ "$1" != "--" ]; then
  golden_trace=$1
  shift
fi
shift  # the "--" separator

mkdir -p "$work"
if [ -n "$golden_trace" ]; then
  "$run" "$@" --json "$work/out.json" --trace "$work/out.trace.jsonl" >"$work/stdout.txt"
  cmp "$work/out.trace.jsonl" "$golden_trace"
else
  "$run" "$@" --json "$work/out.json" >"$work/stdout.txt"
fi
cmp "$work/out.json" "$golden_json"
