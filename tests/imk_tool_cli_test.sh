#!/usr/bin/env bash
# Tool-surface checks for imk_tool's shared launch flags. Builds a small
# fgkaslr kernel, then checks that:
#   1. an unsupervised `boot --seed=7` lays out the same way on every run;
#   2. a governed, supervised storm prints a fully accounted outcomes line;
#   3. `boot --degrade=strict` under a persistent relocation fault exits
#      non-zero instead of degrading.
#
# Usage: tests/imk_tool_cli_test.sh PATH/TO/imk_tool
set -u

tool="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
failures=0
fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

if ! "$tool" build --profile=aws --rando=fgkaslr --scale=0.02 --out="$work" >/dev/null; then
  echo "FAIL: kernel build"
  exit 1
fi
kernel=(--kernel="$work/aws-fgkaslr.vmlinux" --relocs="$work/aws-fgkaslr.relocs")

slide_a="$("$tool" boot "${kernel[@]}" --rando=fgkaslr --seed=7 | grep 'virt slide')"
slide_b="$("$tool" boot "${kernel[@]}" --rando=fgkaslr --seed=7 | grep 'virt slide')"
if [[ -z "$slide_a" || "$slide_a" != "$slide_b" ]]; then
  fail "unsupervised --seed=7 boots differ: '$slide_a' vs '$slide_b'"
fi

storm_out="$("$tool" storm "${kernel[@]}" --vms=4 --threads=2 --mem-budget=64 \
    --max-retries=0)"
if [[ $? -ne 0 ]]; then
  fail "governed supervised storm exited non-zero"
elif ! grep -qE '^outcomes: .*\(4/4 accounted\)' <<< "$storm_out"; then
  fail "storm outcomes line missing or not fully accounted"
fi

if "$tool" boot "${kernel[@]}" --rando=fgkaslr --seed=7 --degrade=strict \
    --faults="loader.reloc:error" >/dev/null 2>&1; then
  fail "strict boot under a persistent reloc fault exited 0"
fi

if [[ $failures -ne 0 ]]; then
  exit 1
fi
echo "imk_tool CLI checks passed"
