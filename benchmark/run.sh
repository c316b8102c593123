#!/usr/bin/env bash
# The one command: build the release `xpass-repro` and the harness, then
# run the harness with the arguments given (none: all five workloads).
# Run from the repository root. Honours CARGO_TARGET_DIR; without it both
# builds share the root's target/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet --manifest-path Cargo.toml --bin xpass-repro
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/xpass-benchmark" "$@"
