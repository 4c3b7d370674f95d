#!/usr/bin/env bash
# Builds the frame-cli broker and the load generator from this checkout,
# then runs one seeded benchmark invocation:
#
#   bash e2ebench/run.sh --workload table2_mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the result JSON is the last line of stdout.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p frame-cli >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$target/release/frame-e2ebench" --cli "$target/release/frame-cli" --target "$target" "$@"
