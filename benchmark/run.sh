#!/usr/bin/env bash
# The BENCHMARK.json command: build the programs under test and the harness
# from source (offline; a no-op when up to date), then hand every argument to
# the harness. Run from the repository root.
set -euo pipefail
cargo build --release --offline --manifest-path Cargo.toml --bins >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
export PLANKTON_BIN_DIR="${CARGO_TARGET_DIR:-target}/release"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/plankton-benchmark" "$@"
