#!/usr/bin/env bash
# Build the program under test and the benchmark from source, then run
# the benchmark; all arguments go to `vase-bench`:
#
#   bash vase-bench/run.sh --workload corpus_flow --seed 1 --seconds 10 --trace 0
#   bash vase-bench/run.sh compare parent.jsonl -- change.jsonl
#
# Both builds share one target directory (`$CARGO_TARGET_DIR`, else
# `target`), where serve_mixed finds the `vase` binary it drives.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin vase
cargo build --release --quiet --manifest-path vase-bench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/vase-bench" "$@"
