#!/usr/bin/env bash
# Builds the system under test (`msrs`) and the harness from source, then
# runs the harness with the arguments given, e.g.
#   bash perfbench/run.sh --workload cold_mix --seed 1 --seconds 20 --trace 0
# Run from the repository root. Both builds share one target directory
# (CARGO_TARGET_DIR, default `target`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p msrs-engine --bin msrs
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
PERFBENCH_RUSTC="$(rustc --version)"
export PERFBENCH_RUSTC
# The harness runs as a child (not `exec`), so the peak-RSS figure it reads
# from its reaped children never includes the compiler.
status=0
"$CARGO_TARGET_DIR/release/perfbench" --msrs "$CARGO_TARGET_DIR/release/msrs" "$@" || status=$?
exit "$status"
