#!/usr/bin/env bash
# Tier-1 gate: offline-friendly build + test, then formatting, lints,
# the benchmark package's build and unit tests, and the smoke tests.
#
# The workspace vendors all external dependencies under compat/, so every
# step below runs without registry or network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# perfbench/ is a workspace of its own over the repository's crates: an
# API change that breaks it fails here, not only when the benchmark runs.
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
./scripts/resume_smoke.sh
./scripts/mutation_smoke.sh
./scripts/perf_smoke.sh
./scripts/trace_smoke.sh
./scripts/server_smoke.sh
