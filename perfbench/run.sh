#!/usr/bin/env bash
# Build the pospec CLI and the benchmark in release mode, then run it.
#
#   bash perfbench/run.sh --workload paper-rw --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run from the repository root.  Builds go to $CARGO_TARGET_DIR
# (default .bench_build); traced runs write their spans under it.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --locked --manifest-path Cargo.toml --bin pospec >&2
cargo build --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --pospec "$CARGO_TARGET_DIR/release/pospec" \
    --out-dir "$CARGO_TARGET_DIR/perfbench-traces" \
    "$@"
