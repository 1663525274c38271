#!/usr/bin/env sh
# Golden byte-diff: runs a command and cmp's each of its outputs against a
# committed golden file.
#
# Usage: check_golden.sh WORK_DIR [--stdout GOLDEN] [--json GOLDEN]
#                        [--trace GOLDEN] -- COMMAND ARGS...
#   --stdout  the command's standard output
#   --json    the file the command writes for an appended `--json PATH`
#   --trace   the file the command writes for an appended `--trace PATH`
#             (--json and --trace suit hybrimoe_run)
# Outputs land in WORK_DIR. Exits non-zero when the command fails or any
# output differs by a single byte.
set -eu

work=$1
shift
golden_stdout=""
golden_json=""
golden_trace=""
while [ "$1" != "--" ]; do
  case "$1" in
    --stdout) golden_stdout=$2 ;;
    --json) golden_json=$2 ;;
    --trace) golden_trace=$2 ;;
    *) echo "check_golden.sh: unknown output kind '$1'" >&2; exit 2 ;;
  esac
  shift 2
done
shift  # the "--" separator

mkdir -p "$work"
if [ -n "$golden_json" ]; then
  set -- "$@" --json "$work/out.json"
fi
if [ -n "$golden_trace" ]; then
  set -- "$@" --trace "$work/out.trace.jsonl"
fi
"$@" >"$work/stdout.txt"
if [ -n "$golden_stdout" ]; then
  cmp "$work/stdout.txt" "$golden_stdout"
fi
if [ -n "$golden_trace" ]; then
  cmp "$work/out.trace.jsonl" "$golden_trace"
fi
if [ -n "$golden_json" ]; then
  cmp "$work/out.json" "$golden_json"
fi
