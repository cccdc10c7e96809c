#!/usr/bin/env bash
# Builds the program under test and the benchmark harness in release mode,
# then runs the harness from the repository root with the given arguments:
#
#   benchmark/run.sh --seed 1                  # the whole set -> benchmark/out/results.json
#   benchmark/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Binaries go to $CARGO_TARGET_DIR (default: target/).
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# --manifest-path keeps cargo from searching parent directories when the
# repository is not here: then the build fails and nothing is measured.
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    --package shortcut-mining --package sm-bench --bins >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# Not `exec`: the harness reads the peak memory of the processes it waited
# for, and a process keeps that account across exec, cargo included.
"$CARGO_TARGET_DIR/release/smbench" "$@"
