#!/usr/bin/env bash
# Regenerates every golden output with the release binaries and compares it
# byte for byte against the committed file. With --update, overwrites the
# goldens instead (only for a deliberate, reviewed output change).
#
# Usage: tests/golden/check.sh [--update] [<bin-dir>]   (default target/release)
set -euo pipefail
update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
bin=${1:-target/release}
golden=$(dirname "$0")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$bin/all_experiments" > "$out/all_experiments.txt"
"$bin/ext_experiments" > "$out/ext_experiments.txt"
smctl="$bin/smctl"
"$smctl" chaos headline --json > "$out/chaos_headline_curve.json"
"$smctl" chaos headline --grid --json > "$out/chaos_headline_grid.json"
"$smctl" chaos headline --grid --site-rate 0.0,0.3 --json > "$out/chaos_headline_grid3.json"
"$smctl" chaos headline --control-path --json > "$out/chaos_headline_control_path.json"
"$smctl" chaos headline --scheduler --json > "$out/chaos_headline_scheduler.json"
"$smctl" chaos headline --budget-sweep --json > "$out/chaos_headline_budget_sweep.json"
"$smctl" report resnet34 --per-layer --json --dram-rate 0.05 --site-rate 0.1 \
  > "$out/report_resnet34_faults.json"

status=0
for f in "$out"/*; do
  name=$(basename "$f")
  if [ "$update" = 1 ]; then
    cp "$f" "$golden/$name"
  elif ! cmp "$f" "$golden/$name"; then
    status=1
  fi
done
[ "$status" = 0 ] && echo "goldens: $(ls "$out" | wc -l) files match"
exit "$status"
