#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the tier-1 verify from
# ROADMAP.md. Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> jouppi-lint: determinism/robustness invariants (ratcheted)"
cargo build --release -p jouppi-lint
# The baseline ratchet fails on any finding beyond lint-baseline.json's
# grandfathered counts AND on stale entries the tree has outgrown;
# --timings keeps the gate's per-analysis cost (including the workspace
# call-graph build) visible, and --budget-ms fails the gate outright if
# the whole analysis blows its wall-time budget.
./target/release/jouppi-lint --root . --workspace --baseline lint-baseline.json --timings --budget-ms 15000
./target/release/jouppi-lint --root . --workspace --json --baseline lint-baseline.json > /tmp/jouppi_lint_ci.json

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> build examples and benchmark binaries"
cargo build --release --examples
cargo build --release -p jouppi-bench --bin loadgen --bin sweep-bench --bin json-check

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> serve integration tests"
cargo test --release -q -p jouppi-serve --test integration

echo "==> sweep-bench smoke: miss-log fan-out vs per-cell oracle must agree"
./target/release/sweep-bench --smoke

echo "==> sweep-bench smoke: single-pass engines vs per-cell oracle"
./target/release/sweep-bench --smoke --mode single_pass
echo "    lint status: $(grep -q '"ok":true' /tmp/jouppi_lint_ci.json && echo "at baseline" || echo DIRTY) (jouppi-lint --workspace --json --baseline lint-baseline.json)"

echo "==> refresh BENCH_sweep.json (timed sweep schedules)"
./target/release/sweep-bench 60000 BENCH_sweep.json

echo "==> result-cache smoke: repeat request hits, bypass does not"
./target/release/loadgen --cache-smoke

echo "==> refresh BENCH_serve.json (loadgen smoke run)"
./target/release/loadgen 120 4 BENCH_serve.json

echo "==> validate benchmark reports and the lint report against the shared JSON model"
./target/release/json-check BENCH_sweep.json BENCH_serve.json --lint /tmp/jouppi_lint_ci.json

echo "CI OK"
