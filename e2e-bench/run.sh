#!/usr/bin/env bash
# Builds `mis` and the benchmark from this checkout's sources, then runs
# the benchmark. Run from the repository root:
#
#   bash e2e-bench/run.sh --workload solve-plain --seed 1 --seconds 20 --trace 0
#   bash e2e-bench/run.sh --self-test
#
# Both builds go to $CARGO_TARGET_DIR (default: target).
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --bin mis --target-dir "$target"
cargo build --release --quiet --offline --manifest-path e2e-bench/Cargo.toml --target-dir "$target"
exec "$target/release/mis-e2e-bench" --mis "$target/release/mis" "$@"
