#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the tier-1 verify from
# ROADMAP.md. Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings (workspace lints, clippy.toml, crate-root attributes)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> jouppi-lint: call-graph, lock and ordering invariants"
cargo build --release -p jouppi-lint
# Any finding fails the gate. --timings keeps the per-analysis cost
# (including the workspace call-graph build) visible, and --budget-ms
# fails the gate outright if the whole analysis blows its wall-time
# budget.
./target/release/jouppi-lint --root . --workspace --timings --budget-ms 15000
./target/release/jouppi-lint --root . --workspace --json > /tmp/jouppi_lint_ci.json

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> build examples and benchmark binaries"
cargo build --release --examples
cargo build --release -p jouppi-bench --bin loadgen --bin sweep-bench --bin json-check

echo "==> tier-1: cargo test -q (every workspace member)"
cargo test -q

echo "==> jouppi-bench --quick: build the committed benchmark, run all four workloads, check every result"
CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin jouppi-bench -- --quick

echo "==> sweep-bench smoke: miss-log fan-out vs per-cell oracle must agree"
./target/release/sweep-bench --smoke

echo "==> sweep-bench smoke: single-pass engines vs per-cell oracle"
./target/release/sweep-bench --smoke --mode single_pass
echo "    lint status: $(grep -q '"clean":true' /tmp/jouppi_lint_ci.json && echo clean || echo DIRTY) (jouppi-lint --workspace --json)"

# The timed runs below write to a temp dir: refreshing the committed
# BENCH_*.json files is a deliberate act, not a side effect of CI.
bench_out=$(mktemp -d)
trap 'rm -rf "$bench_out"' EXIT

echo "==> sweep-bench: timed sweep schedules"
./target/release/sweep-bench 60000 "$bench_out/BENCH_sweep.json"

echo "==> result-cache smoke: repeat request hits, bypass does not"
./target/release/loadgen --cache-smoke

echo "==> loadgen smoke run"
./target/release/loadgen 120 4 "$bench_out/BENCH_serve.json"

echo "==> validate the fresh benchmark reports and the lint report against the shared JSON model"
./target/release/json-check "$bench_out/BENCH_sweep.json" "$bench_out/BENCH_serve.json" --lint /tmp/jouppi_lint_ci.json

echo "CI OK"
