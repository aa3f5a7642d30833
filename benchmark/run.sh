#!/usr/bin/env bash
# sigmabench from anywhere in the checkout: `benchmark/run.sh` is the full run,
# `benchmark/run.sh --smoke` the < 15 s pass over every code path (the line a
# CI script wants). Extra arguments go to the benchmark unchanged, e.g.
#   benchmark/run.sh --seed 2
#   benchmark/run.sh --layers
#   benchmark/run.sh --compare benchmark/baseline/seed-2core.json benchmark/out/latest.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
