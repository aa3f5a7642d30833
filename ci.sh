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

# Process-global state: every `static` item under crates/*/src outside a
# `#[cfg(test)]` item, as `<crate>/src/<file> <NAME>`. Each must be on this
# list and each entry must still exist, so a new global fails the step and
# the list only shrinks as state moves into per-run owners (ROADMAP item 18).
PROCESS_GLOBALS="sptx/src/exec.rs WORKERS
sptx/src/exec.rs POOL
telemetry/src/recorder.rs GLOBAL"

# A `#[cfg(test)]` item ends on its first line if that line ends in `;` or
# `}`, else at the first `}` back at the item's own indentation (rustfmt).
list_statics() {
  find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { skip = 0; pending = 0 }
    skip { if ($0 == indent "}") skip = 0; next }
    pending && !/^[ \t]*#\[/ {
      pending = 0
      match($0, /^[ \t]*/)
      indent = substr($0, 1, RLENGTH)
      skip = $0 !~ /[;}][ \t]*$/
      next
    }
    /^[ \t]*#\[cfg\(test\)\]/ { pending = 1; next }
    match($0, /^[ \t]*(pub(\([a-z]+\))? +)?static +(mut +)?[A-Za-z_][A-Za-z0-9_]*/) {
      n = split(substr($0, RSTART, RLENGTH), words, / +/)
      print substr(FILENAME, length("crates/") + 1), words[n]
    }'
}

process_globals() {
  local status=0 found entry
  found=$(list_statics)
  while read -r entry; do
    echo "    $entry"
    if ! grep -qxF "$entry" <<< "$PROCESS_GLOBALS"; then
      echo "      ^ not on ci.sh's PROCESS_GLOBALS list: new process-global state"
      status=1
    fi
  done <<< "$found"
  while read -r entry; do
    if ! grep -qxF "$entry" <<< "$found"; then
      echo "    $entry is gone: drop it from ci.sh's PROCESS_GLOBALS list"
      status=1
    fi
  done <<< "$PROCESS_GLOBALS"
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

step "cargo test" cargo test -q --workspace --no-fail-fast

# The interpreter differentials again, optimised and with a wider search.
# Seeds derive from the test names, so these are the same 1024 cases on every
# run. The warp tier's lane loops are vectorised only in a release build, so
# its two compiled copies (`warp::` unit tests) and the full-suite tier
# differential run here as well.
release_differentials() {
  PROPTEST_CASES=1024 cargo test --release -q -p sigmavp-sptx \
    --test warp_differential --test parallel_differential --test opt_differential
  cargo test --release -q -p sigmavp-sptx --lib warp::
  cargo test --release -q -p sigmavp-workloads --test warp_suite
}
step "sptx differentials x1024, warp copies, suite tiers (release)" release_differentials

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

step "process-global statics are all on the list" process_globals

step "non-test lines per crate (informational)" nontest_lines

echo "CI green."
