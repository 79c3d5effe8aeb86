#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the tier-1 verify from
# ROADMAP.md. Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings (workspace lints, clippy.toml, crate-root attributes)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> cargo doc -D warnings: every intra-doc link resolves"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> jouppi-lint: locks held across blocking calls or further acquisitions, relaxed ordering"
cargo build --release -p jouppi-lint
# Any finding fails the gate. --timings keeps the per-analysis cost
# (including the workspace call-graph build) visible, and --budget-ms
# fails the gate outright if the whole analysis blows its wall-time
# budget.
./target/release/jouppi-lint --root . --timings --budget-ms 15000

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> build examples"
cargo build --release --examples

echo "==> tier-1: cargo test -q (every workspace member)"
cargo test -q

echo "==> cargo test --release: trace, cache, core, experiments and serve with debug assertions compiled out, as the benchmark and the daemon build them"
cargo test --release -q -p jouppi-trace -p jouppi-cache -p jouppi-core -p jouppi-experiments -p jouppi-serve

echo "==> jouppi-bench tests: compare's verdicts, the BENCHMARK.json checks and the traced quick mode"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> jouppi-bench --quick: build the committed benchmark, run all four workloads, check every result"
CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin jouppi-bench -- --quick

echo "CI OK"
