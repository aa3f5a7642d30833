#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests. Run from the workspace root.
set -euo pipefail
cd "$(dirname "$0")"

# Run one gate step with a wall-clock timing line, so slow CI runs show where
# the time went without re-running anything.
step() {
  local label="$1"
  shift
  echo "==> $label"
  local t0=$SECONDS
  "$@"
  echo "    [$label: $((SECONDS - t0))s]"
}

step "cargo fmt --check" cargo fmt --all -- --check

step "cargo clippy (deny warnings)" cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release" cargo build --release --workspace

step "cargo build --examples" cargo build --examples

step "cargo bench --no-run" cargo bench --workspace --no-run

step "cargo test" cargo test -q --workspace

step "audit: model residuals + same-seed ledgers, counts exact (results/baselines/audit.json)" \
  cargo run --release -p sigmavp-bench --bin audit -- --check

step "post-mortem bundle well-formedness (BENCH_postmortem.json)" \
  cargo run --release -p sigmavp-bench --bin top -- --check-bundle BENCH_postmortem.json

# The benchmark's own guard: every sim_*/count.* bit-identical across repeats
# and traced vs untraced — the check most likely to catch a change that
# perturbs execution order.
step "sigmabench smoke" benchmark/run.sh --smoke

echo "CI green."
