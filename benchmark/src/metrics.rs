//! The metric catalogue — names, units, direction, bounds — and the rows of a
//! result file. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

use crate::json::Value;
use crate::stats::Summary;
use crate::trace::Layer;
use crate::{layers, probe::Op};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is judged when two result sets are compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// End-to-end: the median may worsen by at most this share.
    Bound(f64),
    /// Simulated time and exact counts: must be bit-identical.
    Exact,
    /// Per-layer diagnostics: reported, never gated.
    Report,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better, gate: Gate) -> MetricDef {
    MetricDef { name: name.into(), unit, better, gate }
}

/// The end-to-end metrics, reported for every workload: host time, host
/// memory. What the issue also called end-to-end but this list leaves out:
/// `failed_frac` is the result line's `failed` / `attempted`; simulated times
/// are exact, so they are checked bit for bit instead of bounded; and the
/// guest-observed latency percentiles have no steady value on the compute
/// workloads (32 requests, half of which queue behind a kernel or not by a
/// thread race), so they are per-layer rows.
///
/// The bounds are wide because the 2-vCPU hosts this runs on take the second
/// core away for around a second at a time, at random (see the README): run
/// medians of one commit differ by up to 18 % between noisy and quiet phases.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("wall_s", "s", Lower, Gate::Bound(0.25)),
        def("jobs_per_s", "1/s", Higher, Gate::Bound(0.25)),
        def("guest_instr_per_s", "1/s", Higher, Gate::Bound(0.25)),
        def("setup_s", "s", Lower, Gate::Bound(0.25)),
        def("peak_rss_bytes", "B", Lower, Gate::Bound(0.15)),
    ]
}

/// Per-layer metrics that every untraced repeat reports (the rest come from
/// the traced run or the micro-benchmarks).
pub const PER_REPEAT: [&str; 4] = ["req_p50_s", "req_p99_s", "host.calib_s", "host.heat_s"];

pub const COUNTS: [&str; 12] = [
    "count.requests",
    "count.launches",
    "count.instructions",
    "count.copy_bytes",
    "count.parallel_launches",
    "count.decode_misses",
    "count.warp_fallback_ctas",
    "count.sync_windows",
    "count.coalesced_groups",
    "count.coalesced_members",
    "count.fleet.steals",
    "count.fleet.migrations",
];

/// The per-layer metrics, in report order: simulated results and exact counts,
/// the traced run's shares, guest-side call latencies, the `--layers`
/// micro-benchmarks, host diagnostics.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        def("sim_makespan_s", "s", Lower, Gate::Exact),
        def("sim_coalesce_gain", "x", Higher, Gate::Exact),
    ];
    defs.extend(COUNTS.iter().map(|name| def(*name, "count", Lower, Gate::Exact)));
    for layer in Layer::REPORTED {
        defs.push(def(format!("trace.{}.busy_s", layer.name()), "s", Lower, Gate::Report));
        defs.push(def(format!("trace.{}.share", layer.name()), "1", Lower, Gate::Report));
    }
    defs.push(def("trace.dispatch.residual_s", "s", Lower, Gate::Report));
    defs.push(def("trace.overhead_frac", "1", Lower, Gate::Report));
    defs.push(def("req_p50_s", "s", Lower, Gate::Report));
    defs.push(def("req_p99_s", "s", Lower, Gate::Report));
    for op in Op::REPORTED {
        defs.push(def(format!("vp.cuda.call_p50_s.{}", op.name()), "s", Lower, Gate::Report));
    }
    defs.push(def("fleet.submit_ns", "ns", Lower, Gate::Report));
    defs.push(def("fleet.wait_ns", "ns", Lower, Gate::Report));
    defs.push(def("fleet.round_jobs_per_s.first8", "1/s", Higher, Gate::Report));
    defs.push(def("fleet.round_jobs_per_s.last8", "1/s", Higher, Gate::Report));
    for (name, unit) in layers::NAMES {
        let better = if matches!(unit, "1/s" | "B/s" | "x") { Higher } else { Lower };
        defs.push(def(name, unit, better, Gate::Report));
    }
    defs.push(def("host.calib_s", "s", Lower, Gate::Report));
    defs.push(def("host.heat_s", "s", Lower, Gate::Report));
    defs
}

/// Workload column of metrics that do not belong to one (the micro-benchmarks).
pub const NO_WORKLOAD: &str = "-";

/// One (metric, workload) line of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub def: MetricDef,
    pub workload: String,
    pub values: Vec<f64>,
}

impl Row {
    pub fn new(def: &MetricDef, workload: &str, values: Vec<f64>) -> Row {
        Row { def: def.clone(), workload: workload.to_string(), values }
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.values)
    }

    pub fn to_json(&self) -> Value {
        let s = self.summary();
        let (kind, bound) = match self.def.gate {
            Gate::Bound(b) => ("end_to_end", Value::Num(b)),
            Gate::Exact => ("exact", Value::Num(0.0)),
            Gate::Report => ("per_layer", Value::Null),
        };
        Value::obj([
            ("name", Value::Str(self.def.name.clone())),
            ("workload", Value::Str(self.workload.clone())),
            ("unit", Value::Str(self.def.unit.into())),
            ("better", Value::Str(self.def.better.name().into())),
            ("kind", Value::Str(kind.into())),
            ("bound", bound),
            ("n", Value::Num(s.n as f64)),
            ("median", Value::Num(s.median)),
            ("min", Value::Num(s.min)),
            ("max", Value::Num(s.max)),
            ("iqr", Value::Num(s.iqr)),
            ("values", Value::nums(&self.values)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Row, String> {
        let field = |key: &str| v.str(key).ok_or(format!("metric row without `{key}`"));
        let better = match field("better")? {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => return Err(format!("unknown direction `{other}`")),
        };
        let gate = match (field("kind")?, v.num("bound")) {
            ("end_to_end", Some(bound)) => Gate::Bound(bound),
            ("exact", _) => Gate::Exact,
            ("per_layer", _) => Gate::Report,
            (kind, _) => return Err(format!("unknown metric kind `{kind}`")),
        };
        // Units are a closed set in practice; leak-free lookup keeps `unit` static.
        let unit = ["s", "1/s", "B", "B/s", "ns", "x", "1", "count"]
            .into_iter()
            .find(|u| Some(*u) == v.str("unit"))
            .ok_or("metric row with an unknown unit")?;
        let values = v
            .arr("values")
            .iter()
            .map(|x| match x {
                Value::Num(n) => Ok(*n),
                other => Err(format!("non-numeric value {other:?}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Row {
            def: MetricDef { name: field("name")?.to_string(), unit, better, gate },
            workload: field("workload")?.to_string(),
            values,
        })
    }

    /// `name workload value unit` plus the dispersion columns.
    pub fn print(&self) {
        let s = self.summary();
        println!(
            "{:<40} {:<14} {:>14} {:<6} n={} min={} max={} iqr={}",
            self.def.name,
            self.workload,
            sig(s.median),
            self.def.unit,
            s.n,
            sig(s.min),
            sig(s.max),
            sig(s.iqr)
        );
    }
}

/// Whole numbers in full, anything else to six significant digits — for
/// tables (files keep every digit).
pub fn sig(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.5e}")
    } else {
        let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{x:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_json() {
        let catalogue: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for (i, def) in catalogue.iter().enumerate() {
            let row = Row::new(def, "fleet_s2", vec![0.1 + i as f64, 2.5e-7, 141312.0]);
            let text = row.to_json().render();
            let back = Row::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, row, "{}", def.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|d| d.name).collect();
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }

    /// `BENCHMARK.json` (one directory up, absent when the crate is tested
    /// from a bare copy) must list exactly this catalogue.
    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let doc = crate::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.arr(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.str(k).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |defs: Vec<MetricDef>| -> Vec<(String, String, String)> {
            defs.into_iter().map(|d| (d.name, d.unit.to_string(), d.better.name().into())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
        for (m, d) in doc.arr("end_to_end").iter().zip(end_to_end()) {
            assert_eq!(Gate::Bound(m.num("bound").unwrap()), d.gate, "{}", d.name);
        }
        let workloads: Vec<&str> =
            doc.arr("workloads").iter().map(|w| w.str("name").unwrap()).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn sig_keeps_six_digits() {
        assert_eq!(sig(1.23456789), "1.23457");
        assert_eq!(sig(141312.0), "141312");
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(9.0459e-5), "9.04590e-5");
    }
}
