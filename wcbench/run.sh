#!/usr/bin/env bash
# Builds the release `wcbk` server and the benchmark from source, then runs
# the benchmark against that server. Run from the repository root:
#
#   bash wcbench/run.sh --workload warm-search --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Everything
# the run writes lives under .bench_run and is removed when it ends.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p wcbk --bin wcbk >&2
cargo build --release --offline --quiet --manifest-path wcbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wcbench" --server "$CARGO_TARGET_DIR/release/wcbk" "$@"
