//! The parent side: start children, check what they report, turn repeats into
//! metric rows, print and store them.
//!
//! Every (workload, repeat) is a child process of this one, run to completion
//! before the next starts, so nothing outlives the runner and at most one
//! workload is ever running.

use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::layers;
use crate::metrics::{self, Row, NO_WORKLOAD};
use crate::trace::Layer;
use crate::workloads;

/// What every child of one benchmark invocation shares.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub smoke: bool,
}

fn spawn_child(kind: &str, workload: &str, settings: Settings) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--child", kind, "--workload", workload, "--seed", &settings.seed.to_string()]);
    if settings.smoke {
        command.arg("--smoke");
    }
    // stderr passes through; stdout carries the child's one JSON line.
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {kind} child for {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{kind} child for {workload} ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line =
        stdout.lines().last().ok_or(format!("{kind} child for {workload} printed nothing"))?;
    json::parse(line).map_err(|e| format!("{kind} child for {workload}: {e}"))
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
pub struct Measured {
    pub timed: Vec<Value>,
    pub traced: Option<Value>,
}

impl Measured {
    pub fn timed_seconds(&self) -> f64 {
        self.timed.iter().filter_map(|t| t.num("wall_s")).sum()
    }

    pub fn run_timed(&mut self, workload: &str, settings: Settings) -> Result<(), String> {
        self.timed.push(spawn_child("timed", workload, settings)?);
        Ok(())
    }

    /// The traced repeat; `replay` adds the inline replay and the trace file.
    pub fn run_traced(
        &mut self,
        workload: &str,
        settings: Settings,
        replay: bool,
    ) -> Result<(), String> {
        let kind = if replay { "traced-replay" } else { "traced" };
        self.traced = Some(spawn_child(kind, workload, settings)?);
        Ok(())
    }

    fn children(&self) -> impl Iterator<Item = &Value> {
        self.traced.iter().chain(&self.timed)
    }

    /// Requests attempted and failed, over every child.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let sum = |key: &str| self.children().filter_map(|c| c.num(key)).sum::<f64>() as u64;
        (sum("attempted"), sum("failed"))
    }

    /// The correctness and determinism guard. Outputs were validated inside
    /// the children (apps self-validate, scripts check their read-back, the
    /// RPC guest checks every result) and failures were counted; here every
    /// simulated time and exact count must agree, bit for bit, across the
    /// repeats and between the traced and untraced runs.
    pub fn check(&self, workload: &str) -> Result<(), String> {
        for child in self.children() {
            for error in child.arr("errors") {
                if let Value::Str(message) = error {
                    return Err(format!("{workload}: {message}"));
                }
            }
            if child.num("failed") != Some(0.0) {
                return Err(format!("{workload}: {:?} requests failed", child.num("failed")));
            }
        }
        let mut children = self.children();
        let Some(reference) = children.next().and_then(|c| c.get("facts")) else {
            return Err(format!("{workload}: nothing ran"));
        };
        for other in children.filter_map(|c| c.get("facts")) {
            let Value::Obj(fields) = reference else {
                return Err("facts are not an object".into());
            };
            for (name, expected) in fields {
                let (Some(Value::Num(a)), Value::Num(b)) = (other.get(name), expected) else {
                    return Err(format!("{workload}: `{name}` missing from a repeat"));
                };
                if a.to_bits() != b.to_bits() {
                    return Err(format!(
                        "{workload}: `{name}` is not deterministic: {b:?} in one run, {a:?} in another"
                    ));
                }
            }
        }
        Ok(())
    }

    fn timed_values(&self, key: &str) -> Vec<f64> {
        self.timed.iter().filter_map(|t| t.num(key)).collect()
    }

    fn fact(&self, name: &str) -> Option<f64> {
        self.children().next()?.get("facts")?.num(name)
    }

    fn traced_metric(&self, name: &str) -> Option<f64> {
        self.traced.as_ref()?.get("metrics")?.num(name)
    }

    /// End-to-end rows: one value per untraced repeat. Rates divide the exact
    /// request and instruction counts by each repeat's own wall time.
    pub fn end_to_end(&self, workload: &str) -> Vec<Row> {
        let walls = self.timed_values("wall_s");
        let per_wall = |count: f64| walls.iter().map(|w| count / w).collect::<Vec<_>>();
        metrics::end_to_end()
            .iter()
            .map(|def| {
                let values = match def.name.as_str() {
                    "jobs_per_s" => per_wall(self.fact("count.requests").unwrap_or(0.0)),
                    "guest_instr_per_s" => {
                        per_wall(self.traced_metric("count.instructions").unwrap_or(0.0))
                    }
                    name => self.timed_values(name),
                };
                Row::new(def, workload, values)
            })
            .collect()
    }

    /// Per-layer rows for this workload (everything but the micro-benchmarks):
    /// exact results, layer shares with their conservation line, guest-side
    /// call latencies, host diagnostics.
    pub fn per_layer(&self, workload: &str) -> Vec<Row> {
        let wall_s = crate::stats::median(&self.timed_values("wall_s"));
        let traced_wall_s = self.traced.as_ref().and_then(|t| t.num("wall_s")).unwrap_or(0.0);
        let busy = |layer: Layer| self.traced_metric(&format!("trace.{}.busy_s", layer.name()));
        let replayed = busy(Layer::Guest).is_some();
        let busy_sum: f64 = Layer::REPORTED.iter().filter_map(|&l| busy(l)).sum();

        let value_of = |name: &str| -> Option<f64> {
            if let Some(value) = self.fact(name).or_else(|| self.traced_metric(name)) {
                return Some(value);
            }
            if let Some(layer) = name.strip_prefix("trace.").and_then(|n| n.strip_suffix(".share"))
            {
                return self.traced_metric(&format!("trace.{layer}.busy_s")).map(|b| b / wall_s);
            }
            match name {
                "trace.dispatch.residual_s" if replayed => Some(wall_s - busy_sum),
                "trace.overhead_frac" if self.traced.is_some() && wall_s > 0.0 => {
                    Some(traced_wall_s / wall_s - 1.0)
                }
                _ => None,
            }
        };
        metrics::per_layer()
            .iter()
            .filter_map(|def| {
                let values = if metrics::PER_REPEAT.contains(&def.name.as_str()) {
                    self.timed_values(&def.name)
                } else {
                    value_of(&def.name).into_iter().collect()
                };
                (!values.is_empty()).then(|| Row::new(def, workload, values))
            })
            .collect()
    }

    /// The share table of one workload, with its conservation line.
    pub fn print_shares(&self, workload: &str, rows: &[Row]) {
        let value = |name: &str| rows.iter().find(|r| r.def.name == name).map(|r| r.values[0]);
        let Some(residual) = value("trace.dispatch.residual_s") else { return };
        let wall_s = crate::stats::median(&self.timed_values("wall_s"));
        println!("# {workload}: where the untraced {wall_s:.4} s go (inline replay, self time)");
        let mut sum = 0.0;
        for layer in Layer::REPORTED {
            let busy = value(&format!("trace.{}.busy_s", layer.name())).unwrap_or(0.0);
            sum += busy;
            println!("#   {:<12} {busy:>10.4} s  {:>6.1} %", layer.name(), 100.0 * busy / wall_s);
        }
        println!("#   {:<12} {residual:>10.4} s  {:>6.1} %", "dispatch", 100.0 * residual / wall_s);
        println!(
            "#   conservation: {sum:.6} busy + {residual:.6} residual = {:.6} = wall_s {wall_s:.6}; \
             tracing overhead {:+.1} %",
            sum + residual,
            100.0 * value("trace.overhead_frac").unwrap_or(0.0)
        );
    }
}

/// Micro-benchmark rows (`--layers`), one value each.
pub fn layer_rows(seed: u64, budget_s: f64) -> Vec<Row> {
    let defs = metrics::per_layer();
    layers::run(seed, budget_s)
        .into_iter()
        .map(|entry| {
            let def = defs
                .iter()
                .find(|d| d.name == entry.name)
                .unwrap_or_else(|| panic!("`{}` is missing from the catalogue", entry.name));
            Row::new(def, NO_WORKLOAD, vec![entry.value])
        })
        .collect()
}

/// Repeats until a workload has been timed for `seconds` seconds in total.
fn needs_more(measured: &Measured, seconds: f64) -> bool {
    measured.timed.is_empty() || measured.timed_seconds() < seconds
}

/// The contract run: one workload, one JSON line. With `trace` off the
/// metrics are the end-to-end ones (medians over the untraced repeats; the
/// one traced repeat only supplies the exact instruction count); with it on,
/// the per-layer ones.
pub fn contract_run(
    workload: &str,
    settings: Settings,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    let mut measured = Measured::default();
    let mut rows;
    if trace {
        measured.run_timed(workload, settings)?;
        measured.run_traced(workload, settings, true)?;
        rows = measured.per_layer(workload);
        measured.print_shares(workload, &rows);
        // Whatever is left of the budget, spread over the micro-benchmarks.
        let spent = measured.timed_seconds()
            + measured.traced.as_ref().and_then(|t| t.num("wall_s")).unwrap_or(0.0);
        let budget =
            ((seconds - spent) / layers::NAMES.len() as f64).clamp(0.02, layers::FULL_BUDGET_S);
        rows.extend(layer_rows(settings.seed, budget));
        // A layer a workload never enters has no time to report: 0.
        for def in metrics::per_layer() {
            if !rows.iter().any(|r| r.def.name == def.name) {
                rows.push(Row::new(&def, workload, vec![0.0]));
            }
        }
    } else {
        measured.run_traced(workload, settings, false)?;
        while needs_more(&measured, seconds) {
            measured.run_timed(workload, settings)?;
        }
        rows = measured.end_to_end(workload);
    }
    for row in &rows {
        row.print();
    }
    let correct = match measured.check(workload) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("sigmabench: {e}");
            false
        }
    };
    let (attempted, failed) = measured.attempted_failed();
    let metrics = rows.iter().map(|row| {
        let value = Value::obj([
            ("value", Value::Num(row.summary().median)),
            ("unit", Value::Str(row.def.unit.into())),
        ]);
        (row.def.name.clone(), value)
    });
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// The full run: every workload (repeats interleaved round-robin so host
/// drift spreads evenly), the traced run and share table of each, the
/// micro-benchmarks; prints every metric and writes `out/latest.json`.
pub fn full_run(settings: Settings, seconds: f64, layer_budget_s: f64) -> Result<bool, String> {
    let mut measured: Vec<Measured> =
        workloads::NAMES.iter().map(|_| Measured::default()).collect();
    for (workload, m) in workloads::NAMES.iter().zip(&mut measured) {
        eprintln!("sigmabench: {workload}: traced run + inline replay");
        m.run_traced(workload, settings, true)?;
    }
    let mut round = 0;
    loop {
        let mut ran = false;
        for (workload, m) in workloads::NAMES.iter().zip(&mut measured) {
            if needs_more(m, seconds) {
                eprintln!("sigmabench: {workload}: timed repeat {}", round + 1);
                m.run_timed(workload, settings)?;
                ran = true;
            }
        }
        if !ran {
            break;
        }
        round += 1;
    }
    eprintln!("sigmabench: per-layer micro-benchmarks");
    let layer_rows = layer_rows(settings.seed, layer_budget_s);

    let mut correct = true;
    let mut rows: Vec<Row> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (workload, m) in workloads::NAMES.iter().zip(&measured) {
        if let Err(e) = m.check(workload) {
            eprintln!("sigmabench: {e}");
            correct = false;
        }
        let (a, f) = m.attempted_failed();
        attempted += a;
        failed += f;
        rows.extend(m.end_to_end(workload));
        rows.extend(m.per_layer(workload));
    }
    rows.extend(layer_rows);
    for row in &rows {
        row.print();
    }
    for (workload, m) in workloads::NAMES.iter().zip(&measured) {
        m.print_shares(workload, &m.per_layer(workload));
    }
    println!(
        "# attempted {attempted} requests, {failed} failed (failed_frac {}); outputs and determinism {}",
        failed as f64 / attempted.max(1) as f64,
        if correct { "ok" } else { "FAILED" }
    );
    write_results(&rows, settings, correct)?;
    Ok(correct)
}

/// `--layers` on its own: the micro-benchmarks, printed and stored.
pub fn layers_only(settings: Settings, budget_s: f64) -> Result<bool, String> {
    let rows = layer_rows(settings.seed, budget_s);
    for row in &rows {
        row.print();
    }
    write_results(&rows, settings, true)?;
    Ok(true)
}

fn write_results(rows: &[Row], settings: Settings, correct: bool) -> Result<(), String> {
    let doc = Value::obj([
        ("schema", Value::Str("sigmabench-v1".into())),
        ("seed", Value::Num(settings.seed as f64)),
        ("smoke", Value::Bool(settings.smoke)),
        (
            "host_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("correct", Value::Bool(correct)),
        ("metrics", Value::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("latest.json");
    // One metric per line: readable, and diffs stay small.
    let text = doc.render().replace("{\"name\":", "\n{\"name\":");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("sigmabench: wrote {}", path.display());
    Ok(())
}

/// Rows of a stored result file.
pub fn read_results(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.str("schema") != Some("sigmabench-v1") {
        return Err(format!("{path}: not a sigmabench-v1 result file"));
    }
    doc.arr("metrics")
        .iter()
        .map(Row::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{path}: {e}"))
}
