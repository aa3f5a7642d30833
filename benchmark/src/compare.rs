//! `--compare A.json B.json`: is B worse than A? Per (metric, workload): both
//! medians with their IQRs, the ratio with its base, and a verdict.
//!
//! * end-to-end metrics: `worse` when B's median is worse than A's by more
//!   than the metric's bound; `unresolved` instead when either set's spread is
//!   wider than the bound (unless every run of B beats every run of A), or
//!   when the two sets' `host.calib_s` medians for that workload differ by
//!   more than 5 % — then the host changed, and nothing is known about the code;
//! * simulated times and exact counts: `worse` (changed) unless bit-identical;
//! * per-layer diagnostics: ratio only.
//!
//! This is the tool for the A/A criterion (two runs of one commit must come
//! out all `ok`) and for later parent-versus-change reports.

use crate::metrics::{sig, Better, Gate, Row};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// Not gated (per-layer diagnostics) or absent from B.
    NotJudged,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NotJudged => "-",
        }
    }
}

/// Largest relative difference of calibration medians that still counts as
/// the same host.
const CALIB_TOLERANCE: f64 = 0.05;

/// By what share of A's median B is worse (negative when B is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Whether every run of `b` reads better than every run of `a`.
fn dominates(better: Better, a: &[f64], b: &[f64]) -> bool {
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    }
}

/// Judge one metric of one workload. `same_host` is false when the
/// calibration loops of the two sets disagree.
pub fn judge(a: &Row, b: &Row, same_host: bool) -> Verdict {
    match a.def.gate {
        Gate::Report => Verdict::NotJudged,
        Gate::Exact => {
            let same = median(&a.values).to_bits() == median(&b.values).to_bits();
            if same {
                Verdict::Ok
            } else {
                Verdict::Worse
            }
        }
        Gate::Bound(bound) => {
            let (sa, sb) = (a.summary(), b.summary());
            if dominates(a.def.better, &a.values, &b.values) && same_host {
                return Verdict::Ok;
            }
            if !same_host || sa.spread() > bound || sb.spread() > bound {
                return Verdict::Unresolved;
            }
            if worsening(a.def.better, sa.median, sb.median) > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
    }
}

fn calib_median(rows: &[Row], workload: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.def.name == "host.calib_s" && r.workload == workload)
        .map(|r| median(&r.values))
}

/// Compare two result sets, print the table, and return how many
/// (metric, workload) pairs came out `worse` and `unresolved`.
pub fn compare(a: &[Row], b: &[Row]) -> (usize, usize) {
    println!(
        "{:<40} {:<14} {:>13} {:>11} {:>13} {:>11} {:>9}  verdict",
        "metric", "workload", "A median", "A iqr", "B median", "B iqr", "B/A"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for row_a in a {
        let found = b.iter().find(|r| r.def.name == row_a.def.name && r.workload == row_a.workload);
        let Some(row_b) = found else {
            println!("{:<40} {:<14} missing from B", row_a.def.name, row_a.workload);
            continue;
        };
        let same_host = match (calib_median(a, &row_a.workload), calib_median(b, &row_a.workload)) {
            (Some(ca), Some(cb)) => ((cb - ca) / ca).abs() <= CALIB_TOLERANCE,
            _ => true,
        };
        let verdict = judge(row_a, row_b, same_host);
        worse += usize::from(verdict == Verdict::Worse);
        unresolved += usize::from(verdict == Verdict::Unresolved);
        let (sa, sb) = (row_a.summary(), row_b.summary());
        let ratio = if sa.median == 0.0 { f64::NAN } else { sb.median / sa.median };
        println!(
            "{:<40} {:<14} {:>13} {:>11} {:>13} {:>11} {:>9.4}  {}",
            row_a.def.name,
            row_a.workload,
            sig(sa.median),
            sig(sa.iqr),
            sig(sb.median),
            sig(sb.iqr),
            ratio,
            verdict.name()
        );
    }
    println!("# B/A is B's median over A's (base: A). {worse} worse, {unresolved} unresolved.");
    (worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, per_layer, MetricDef};

    /// The catalogue's definition, with every bound pinned to 10 % so the
    /// cases below do not move when the catalogue's bounds do.
    fn def(name: &str) -> MetricDef {
        let mut def = end_to_end().into_iter().chain(per_layer()).find(|d| d.name == name).unwrap();
        if let Gate::Bound(_) = def.gate {
            def.gate = Gate::Bound(0.10);
        }
        def
    }

    fn row(name: &str, values: &[f64]) -> Row {
        Row::new(&def(name), "fleet_s1", values.to_vec())
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(Better::Lower, 2.0, 1.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
    }

    #[test]
    fn tight_sets_within_the_bound_are_ok_and_beyond_it_worse() {
        let a = row("wall_s", &[2.00, 2.01, 2.02, 2.00, 2.01]);
        assert_eq!(judge(&a, &row("wall_s", &[2.10, 2.11, 2.09, 2.10, 2.12]), true), Verdict::Ok);
        assert_eq!(
            judge(&a, &row("wall_s", &[2.30, 2.31, 2.29, 2.30, 2.32]), true),
            Verdict::Worse
        );
        // Higher-is-better: a drop beyond the bound is worse, a rise is fine.
        let j = row("jobs_per_s", &[1000.0, 1001.0, 999.0, 1000.0, 1002.0]);
        assert_eq!(
            judge(&j, &row("jobs_per_s", &[850.0, 851.0, 849.0, 850.0, 852.0]), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&j, &row("jobs_per_s", &[1200.0, 1201.0, 1199.0, 1200.0, 1202.0]), true),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_or_a_changed_host_is_unresolved() {
        let a = row("wall_s", &[2.0, 2.0, 2.0, 2.0, 2.0]);
        let noisy = row("wall_s", &[1.6, 2.0, 2.4, 2.9, 2.1]);
        assert_eq!(judge(&a, &noisy, true), Verdict::Unresolved);
        let fine = row("wall_s", &[2.0, 2.01, 2.0, 2.01, 2.0]);
        assert_eq!(judge(&a, &fine, false), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let a_noisy = row("wall_s", &[2.0, 2.6, 3.0, 2.2, 2.4]);
        assert_eq!(judge(&a_noisy, &row("wall_s", &[1.0, 1.5, 1.9, 1.2, 1.4]), true), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_match_bit_for_bit() {
        let a = row("count.requests", &[141312.0]);
        assert_eq!(judge(&a, &row("count.requests", &[141312.0]), true), Verdict::Ok);
        assert_eq!(judge(&a, &row("count.requests", &[141313.0]), true), Verdict::Worse);
        let s = row("sim_makespan_s", &[0.237238273065]);
        assert_eq!(judge(&s, &row("sim_makespan_s", &[0.237238273066]), true), Verdict::Worse);
    }

    #[test]
    fn per_layer_diagnostics_are_never_judged() {
        let a = row("ipc.codec.req_ns", &[100.0]);
        assert_eq!(judge(&a, &row("ipc.codec.req_ns", &[500.0]), true), Verdict::NotJudged);
    }

    #[test]
    fn compare_counts_verdicts_and_detects_host_drift() {
        let a = vec![row("wall_s", &[2.0, 2.0, 2.01]), row("host.calib_s", &[0.040, 0.040, 0.041])];
        let slower =
            vec![row("wall_s", &[2.5, 2.5, 2.51]), row("host.calib_s", &[0.040, 0.041, 0.040])];
        assert_eq!(compare(&a, &slower), (1, 0));
        let drifted =
            vec![row("wall_s", &[2.5, 2.5, 2.51]), row("host.calib_s", &[0.050, 0.051, 0.050])];
        assert_eq!(compare(&a, &drifted), (0, 1));
    }
}
