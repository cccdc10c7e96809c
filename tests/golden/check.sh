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
"$smctl" networks > "$out/cli_networks.txt"
"$smctl" compare resnet34 > "$out/cli_compare_resnet34.txt"
"$smctl" compare resnet34 --batch 2 --capacity 512 --policy swap-only --json \
  > "$out/cli_compare_resnet34_b2_c512_swap_only.json"
"$smctl" analyze resnet50 > "$out/cli_analyze_resnet50.txt"
"$smctl" sweep resnet34 > "$out/cli_sweep_resnet34.txt"
"$smctl" layers squeezenet_v10_simple_bypass > "$out/cli_layers_squeezenet_v10_simple_bypass.txt"
"$smctl" verify toy_residual > "$out/cli_verify_toy_residual.txt"

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
