//! End-to-end tests of the `audit` regression-gate binary: the default audit
//! passes with near-zero residuals, a written baseline round-trips through
//! `--check`, and a synthetic slowdown — or a count that differs from the
//! baseline in either direction — trips the gate with a non-zero exit.

use std::path::PathBuf;
use std::process::{Command, Output};

fn audit(dir: &std::path::Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_audit"))
        .current_dir(dir)
        .args(extra)
        .output()
        .expect("audit binary runs")
}

/// A per-test working directory under cargo's own target tmpdir (the audit
/// leaves a report and a ~260 KB post-mortem behind in it).
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("audit_{name}"));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Pull the flat `"gate"` object out of `BENCH_audit.json` (it is emitted in
/// the exact baseline format, so the baseline parser reads it).
fn gate_metrics(bench_json: &str) -> Vec<(String, f64)> {
    let start = bench_json.find("\"gate\": {").expect("gate section present") + "\"gate\": ".len();
    let end = bench_json[start..].find('}').expect("gate object closes") + start + 1;
    sigmavp_obs::parse_flat_json(&bench_json[start..end]).expect("gate parses as flat JSON")
}

fn metric(gate: &[(String, f64)], key: &str) -> f64 {
    gate.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("metric {key} present")).1
}

#[test]
fn default_audit_passes_with_small_residuals() {
    let dir = tmp_dir("default");
    let out = audit(&dir, &[]);
    assert!(
        out.status.success(),
        "default audit must pass:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every scenario's per-job breakdown must tile the measured makespan.
    assert_eq!(stdout.matches("critical path conserved").count(), 3, "{stdout}");

    let json = std::fs::read_to_string(dir.join("BENCH_audit.json")).expect("report written");
    let gate = gate_metrics(&json);
    // Acceptance: the async-interleaved fleet's Eq. 7 residual stays < 10%.
    assert!(metric(&gate, "async4.eq7_residual_frac") < 0.10);
    assert!(metric(&gate, "speedup4.eq8_residual_frac") < 0.10);
    assert!(metric(&gate, "coalesce6.eq9_residual_frac") < 0.10);
    // Eq. 7 itself: makespan = 2·Tm + N·max(Tm, Tk) for the 4-VP fleet.
    let makespan = metric(&gate, "async4.makespan_s");
    assert!((makespan - (2.0 * 1e-4 + 4.0 * 2e-4)).abs() < 0.10 * makespan, "{makespan}");
    // The report also carries the structured sections.
    for section in ["\"model\":", "\"scenarios\":", "\"passes\":", "\"live\":"] {
        assert!(json.contains(section), "missing {section}");
    }
}

#[test]
fn written_baseline_round_trips_through_check() {
    let dir = tmp_dir("roundtrip");
    let baseline = dir.join("baseline.json");
    let write = audit(&dir, &["--write-baseline", "--baseline", baseline.to_str().unwrap()]);
    assert!(write.status.success(), "{}", String::from_utf8_lossy(&write.stderr));

    let check = audit(&dir, &["--check", "--baseline", baseline.to_str().unwrap()]);
    assert!(
        check.status.success(),
        "self-check must pass:\n{}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("metrics within"));
}

#[test]
fn committed_baseline_passes_check() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines/audit.json");
    assert!(std::path::Path::new(baseline).exists(), "committed baseline at {baseline}");
    let dir = tmp_dir("committed");
    let check = audit(&dir, &["--check", "--baseline", baseline]);
    assert!(
        check.status.success(),
        "committed baseline must gate green:\n{}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
}

#[test]
fn sync_scenario_gates_and_reports() {
    let dir = tmp_dir("sync");
    let baseline = dir.join("baseline.json");
    let write = audit(&dir, &["--write-baseline", "--baseline", baseline.to_str().unwrap()]);
    assert!(write.status.success(), "{}", String::from_utf8_lossy(&write.stderr));

    let json = std::fs::read_to_string(dir.join("BENCH_audit.json")).expect("report written");
    assert!(json.contains("\"sync\":"), "sync section present");
    let gate = gate_metrics(&json);
    assert!(metric(&gate, "sync.holds") >= 4.0);
    assert!(metric(&gate, "sync.live_groups") >= 1.0);
    assert!(
        metric(&gate, "sync.makespan_s") < metric(&gate, "sync.reorder_makespan_s"),
        "live window plan beats reorder-only"
    );

    let check = audit(&dir, &["--check", "--baseline", baseline.to_str().unwrap()]);
    assert!(
        check.status.success(),
        "sync self-check must pass:\n{}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
}

#[test]
fn injected_slowdown_trips_the_gate() {
    let dir = tmp_dir("slowdown");
    let baseline = dir.join("baseline.json");
    let write = audit(&dir, &["--write-baseline", "--baseline", baseline.to_str().unwrap()]);
    assert!(write.status.success(), "{}", String::from_utf8_lossy(&write.stderr));

    // A synthetic 20% slowdown must exit non-zero against a 10% tolerance.
    let check = audit(
        &dir,
        &["--check", "--baseline", baseline.to_str().unwrap(), "--inject-slowdown", "1.2"],
    );
    assert!(!check.status.success(), "20% slowdown must trip the 10% gate");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(stderr.contains("REGRESSION"), "{stderr}");
    assert!(stderr.contains("async4.makespan_s"), "{stderr}");
}

#[test]
fn raised_counters_trip_the_gate_in_the_direction_it_used_to_miss() {
    // Before counts gated exactly, every count was lower-is-better, so a run
    // producing *fewer* migrations / merged members / quarantines than the
    // baseline passed. Raise three baseline counters above what the run
    // produces (2 / 6 / 1): the gate must name exactly those keys.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines/audit.json");
    let raised = [
        ("chaos.migrations", "2.000000000e0", "4.000000000e0"),
        ("coalesce6.merged_members", "6.000000000e0", "1.200000000e1"),
        ("liveness.hang_quarantined", "1.000000000e0", "3.000000000e0"),
    ];
    let mut text = std::fs::read_to_string(committed).expect("committed baseline readable");
    for (key, from, to) in raised {
        let (old, new) = (format!("\"{key}\": {from}"), format!("\"{key}\": {to}"));
        assert!(text.contains(&old), "committed baseline has {old}");
        text = text.replace(&old, &new);
    }
    let dir = tmp_dir("raised");
    let baseline = dir.join("raised.json");
    std::fs::write(&baseline, text).expect("write raised baseline");

    let check = audit(&dir, &["--check", "--baseline", baseline.to_str().unwrap()]);
    assert!(!check.status.success(), "raised counters must trip the gate");
    let stderr = String::from_utf8_lossy(&check.stderr);
    let named: Vec<&str> = stderr
        .lines()
        .filter_map(|line| line.strip_prefix("REGRESSION "))
        .map(|rest| rest.split(':').next().unwrap_or(rest))
        .collect();
    assert_eq!(
        named,
        ["coalesce6.merged_members", "chaos.migrations", "liveness.hang_quarantined"]
    );
}

#[test]
fn removed_flags_are_usage_errors() {
    for flag in ["--sync", "--faults", "--tier", "--passes"] {
        let out = audit(&tmp_dir("usage"), &[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: audit [--check] [--write-baseline]"), "{stderr}");
    }
}
