#!/usr/bin/env bash
# Builds `repro` and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); scratch files go to $CARGO_TARGET_DIR/perfbench.
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --repro "$CARGO_TARGET_DIR/release/repro" --work "$CARGO_TARGET_DIR/perfbench"
