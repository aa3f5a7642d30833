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

# Non-test lines per crate: everything above each file's `#[cfg(test)]` +
# `mod tests`. The number ROADMAP's simplicity gates quote; run it in two
# checkouts to compare them. Informational, never red.
nontest_lines() {
  find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { test = 0; attr = 0 }
    attr && /^mod tests/ { test = 1; n[crate]--; total-- }
    { attr = ($0 == "#[cfg(test)]") }
    !test { split(FILENAME, path, "/"); crate = path[2]; n[crate]++; total++ }
    END {
      for (crate in n) printf "    %-10s %6d\n", crate, n[crate] | "sort"
      close("sort")
      printf "    %-10s %6d\n", "total", total
    }'
  # ROADMAP item 4's interpreter size gate: every line of every `.rs` file
  # under crates/sptx/src and crates/sptx/tests, tests and comments included.
  printf "    %-10s %6d\n" "sptx+tests" \
    "$(find crates/sptx/src crates/sptx/tests -name '*.rs' -exec cat {} + | wc -l)"
}

# Every `sigmavp*` entry under a crate's `[dependencies]` is used in that
# crate's src/ (as `sigmavp_x::`, `sigmavp_x;` or `sigmavp_x as`), so a dead
# edge fails here instead of lingering. Dev-dependencies are not checked.
dead_deps() {
  local status=0 manifest dep
  for manifest in crates/*/Cargo.toml; do
    for dep in $(awk '/^\[/ { deps = ($0 == "[dependencies]") } deps && /^sigmavp/ { print $1 }' "$manifest"); do
      if ! grep -rqE "(^|[^a-z_])${dep//-/_}(::| as |;)" "${manifest%Cargo.toml}src"; then
        echo "    ${manifest}: ${dep} is never used in its src/"
        status=1
      fi
    done
  done
  return $status
}

# Every committed `results/*.txt` regenerates byte-for-byte from this tree:
# nine experiment binaries and four examples, each at its default arguments.
# A results file without a generator here fails the diff too.
results_reproduce() {
  local out name file status=0
  out=$(mktemp -d)
  for name in table1 fig9a fig9b fig10a fig10b fig11 fig12 fig12_sweep fig13; do
    cargo run -q --release -p sigmavp-bench --bin "$name" > "$out/$name.txt"
  done
  for name in design_space estimation interleaving quickstart; do
    cargo run -q --release -p sigmavp --example "$name" > "$out/$name.txt"
  done
  for file in results/*.txt; do
    diff -u "$file" "$out/$(basename "$file")" || status=1
  done
  rm -rf "$out"
  return $status
}

step "cargo fmt --check" cargo fmt --all -- --check

step "cargo clippy (deny warnings)" cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release" cargo build --release --workspace

# Every intra-doc link resolves: a deleted or renamed item fails here, not in
# a reader's browser.
step "cargo doc (deny warnings)" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "cargo build --examples" cargo build --examples

step "cargo bench --no-run" cargo bench --workspace --no-run

step "cargo test" cargo test -q --workspace

# The interpreter differentials again with a wider search. Seeds derive from
# the test names, so these are the same 1024 cases on every run.
step "sptx differentials x1024 (warp vs scalar, workers N vs 1, optimised vs not)" \
  env PROPTEST_CASES=1024 cargo test --release -q -p sigmavp-sptx \
  --test warp_differential --test parallel_differential --test opt_differential

# The fleet's threaded tests again, optimised: shard threads race guests and
# hold toggles at full speed, where a lost wake-up strands a request.
step "fleet tests, release build" cargo test --release -q -p sigmavp-fleet

step "audit: model residuals + same-seed ledgers, counts exact (results/baselines/audit.json)" \
  cargo run --release -p sigmavp-bench --bin audit -- --check

step "post-mortem bundle well-formedness (BENCH_postmortem.json)" \
  cargo run --release -p sigmavp-bench --bin top -- --check-bundle BENCH_postmortem.json

step "committed results/*.txt reproduce byte-for-byte" results_reproduce

# The benchmark's own guard: every sim_*/count.* bit-identical across repeats
# and traced vs untraced — the check most likely to catch a change that
# perturbs execution order.
step "sigmabench smoke" benchmark/run.sh --smoke

step "no dead sigmavp dependency edges" dead_deps

step "non-test lines per crate (informational)" nontest_lines

echo "CI green."
