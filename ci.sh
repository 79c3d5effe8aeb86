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

echo "==> sweep-bench smoke: miss-log fan-out vs per-cell oracle must agree"
./target/release/sweep-bench --smoke

echo "==> sweep-bench smoke: single-pass engines vs per-cell oracle"
./target/release/sweep-bench --smoke --mode single_pass
echo "    lint status: $(grep -q '"clean":true' /tmp/jouppi_lint_ci.json && echo clean || echo DIRTY) (jouppi-lint --workspace --json)"

echo "==> refresh BENCH_sweep.json (timed sweep schedules)"
./target/release/sweep-bench 60000 BENCH_sweep.json

echo "==> result-cache smoke: repeat request hits, bypass does not"
./target/release/loadgen --cache-smoke

echo "==> refresh BENCH_serve.json (loadgen smoke run)"
./target/release/loadgen 120 4 BENCH_serve.json

echo "==> validate benchmark reports and the lint report against the shared JSON model"
./target/release/json-check BENCH_sweep.json BENCH_serve.json --lint /tmp/jouppi_lint_ci.json

echo "CI OK"
