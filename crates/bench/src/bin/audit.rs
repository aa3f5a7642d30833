//! Model-residual audit and regression gate for the ΣVP reproduction.
//!
//! ```text
//! cargo run --release -p sigmavp-bench --bin audit                    # audit + write BENCH_audit.json
//! cargo run --release -p sigmavp-bench --bin audit -- --write-baseline
//! cargo run --release -p sigmavp-bench --bin audit -- --check        # gate against the committed baseline
//! ```
//!
//! A consumer of the scenario table in [`sigmavp_bench::scenarios`], which
//! documents every row: the three **planned** rows audit Eq. 7 / 8 / 9 through
//! the real scheduling pipeline, and the five **live** rows each run a
//! dispatched fleet twice and hard-fail unless the two window ledgers are
//! identical (the hang row's `vp_hung` post-mortem becomes the
//! `BENCH_postmortem.json` CI validates). Between them a live 4-VP FIFO fleet
//! runs for wall-clock observability — `plan.pass.*` timings and a lifecycle
//! join of the drained trace events, reported but never gated — and its two
//! runs must fold to byte-identical serialized profiles.
//!
//! Everything goes into a hand-rolled-JSON `BENCH_audit.json`; the flat
//! `"gate"` section is what `--check` compares against the committed baseline
//! under `results/baselines/`: a duration or residual may not grow, nor an
//! overlap or speedup shrink, by more than `--tolerance`; every count must
//! match exactly; and a model residual above the tolerance fails too.
//! `--inject-slowdown F` scales the planned rows' measured durations (for
//! testing the gate itself).

use std::process::ExitCode;

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::host::JobRecord;
use sigmavp_bench::scenarios::{
    self, gate_values, Live, LiveRun, Planned, PlannedRun, FAULT_SEED, SESSION_KEYS,
};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_obs::{
    check_baseline, format_flat_json, join_lifecycles, validate_bundle, write_baseline,
    AuditReport, FlightRecorder, PathPhase, ProfileStore,
};
use sigmavp_telemetry::export::escape_json;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::VectorAddApp;

const DEFAULT_BASELINE: &str = "results/baselines/audit.json";
const DEFAULT_OUT: &str = "BENCH_audit.json";
/// The hang row's `vp_hung` flight-recorder dump, rewritten every run so CI
/// can check the bundle stays machine-parseable.
const POSTMORTEM_OUT: &str = "BENCH_postmortem.json";
const DEFAULT_TOLERANCE: f64 = 0.10;

struct Args {
    check: bool,
    write_baseline: bool,
    baseline: String,
    out: String,
    tolerance: f64,
    inject_slowdown: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: audit [--check] [--write-baseline] [--baseline PATH] [--out PATH] \
         [--tolerance F] [--inject-slowdown F]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        check: false,
        write_baseline: false,
        baseline: DEFAULT_BASELINE.to_string(),
        out: DEFAULT_OUT.to_string(),
        tolerance: DEFAULT_TOLERANCE,
        inject_slowdown: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--check" => args.check = true,
            "--write-baseline" => args.write_baseline = true,
            "--baseline" => args.baseline = value("--baseline"),
            "--out" => args.out = value("--out"),
            "--tolerance" => {
                args.tolerance = value("--tolerance").parse().unwrap_or_else(|_| usage())
            }
            "--inject-slowdown" => {
                args.inject_slowdown =
                    value("--inject-slowdown").parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    args
}

/// A pretty-printed JSON value re-indented to sit as a section of the report.
fn indent(json: String) -> String {
    json.trim_end().replace('\n', "\n  ")
}

fn phase_name(phase: PathPhase) -> &'static str {
    match phase {
        PathPhase::Transfer => "transfer",
        PathPhase::Compute => "compute",
        PathPhase::Stall => "stall",
    }
}

fn scenario_json(s: &PlannedRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "    \"{}\": {{\n      \"makespan_s\": {:.9e},\n      \"overlap_fraction\": {:.6},\n",
        escape_json(s.row.name),
        s.makespan_s,
        s.plan.timeline.overlap_fraction()
    ));
    out.push_str(&format!(
        "      \"critical_path\": {{\"busy_s\": {:.9e}, \"stall_s\": {:.9e}, \
         \"transfer_s\": {:.9e}, \"compute_s\": {:.9e}, \"segments\": [\n",
        s.path.busy_s(),
        s.path.stall_s().max(0.0),
        s.path.phase_s(PathPhase::Transfer),
        s.path.phase_s(PathPhase::Compute)
    ));
    let segs: Vec<String> = s
        .path
        .segments
        .iter()
        .map(|seg| {
            format!(
                "        {{\"phase\": \"{}\", \"start_s\": {:.9e}, \"end_s\": {:.9e}, \"job\": {}}}",
                phase_name(seg.phase),
                seg.start_s,
                seg.end_s,
                seg.job.map_or("null".to_string(), |j| j.to_string())
            )
        })
        .collect();
    out.push_str(&segs.join(",\n"));
    out.push_str("\n      ]},\n      \"jobs\": [\n");
    let jobs: Vec<String> = s
        .lifecycles
        .iter()
        .map(|l| {
            let (win_start, win_end) = l.device_window.unwrap_or((0.0, 0.0));
            format!(
                "        {{\"vp\": {}, \"seq\": {}, \"transfer_sim_s\": {:.9e}, \
                 \"compute_sim_s\": {:.9e}, \"window_start_s\": {:.9e}, \
                 \"window_end_s\": {:.9e}, \"stall_s\": {:.9e}}}",
                l.vp,
                l.seq,
                l.transfer_sim_s,
                l.compute_sim_s,
                win_start,
                win_end,
                l.device_stall_s()
            )
        })
        .collect();
    out.push_str(&jobs.join(",\n"));
    out.push_str("\n      ]\n    }");
    out
}

/// The audit proper. `Ok(true)` when everything ran but the gate (or a model
/// residual) failed; `Err` when a scenario or an I/O step broke.
fn run(args: &Args) -> Result<bool, String> {
    let telemetry = sigmavp_telemetry::install();
    let arch = scenarios::arch();
    let mut report = AuditReport::new(args.tolerance);

    // The always-on observability pair: every job log the audit holds (planned
    // or live) folds into the profile store, and the incidents of the chaos
    // and hang rows must each leave a parseable post-mortem behind. The
    // recorder samples once per phase below.
    let mut profiles = ProfileStore::new();
    let recorder = FlightRecorder::new();
    recorder.attach(telemetry);

    // --- Planned rows: Eq. 7 / 8 / 9 through the real pipeline. --------------
    let mut planned = Vec::new();
    for row in Planned::all() {
        let run = row.run(args.inject_slowdown)?;
        report.push(run.row.model, run.predicted, run.measured);
        profiles.observe_records(&arch, &run.row.records);
        planned.push(run);
    }

    // --- Live FIFO fleet: plan.pass.* timings + wall lifecycles. --------------
    // Run twice: the first run feeds the report, the second proves the
    // determinism contract — two same-seed live runs must fold to
    // byte-identical serialized profiles despite thread-ordered arrival. Both
    // logs fold into the session profile.
    let live_fleet = |label: &str| {
        let registry: KernelRegistry = VectorAddApp { n: 4096 }.kernels().into_iter().collect();
        let mut sys =
            DispatchedSigmaVp::single(arch.clone(), registry, TransportCost::shared_memory())
                .with_policy(sigmavp::Policy::Fifo);
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 4096 }));
        }
        let (fleet, stats) = sys.join();
        if fleet.all_ok() {
            Ok((fleet, stats))
        } else {
            Err(format!("live fleet {label} failed validation: {:?}", fleet.outcomes))
        }
    };
    let (fleet, fleet_stats) = live_fleet("run")?;
    let wall_lifecycles = join_lifecycles(&telemetry.drain_events());
    recorder.sample();
    let (fleet_rerun, _) = live_fleet("rerun")?;
    let fold = |records: &[JobRecord]| {
        let mut store = ProfileStore::new();
        store.observe_records(&arch, records);
        store.snapshot().to_json()
    };
    if fold(&fleet.records) != fold(&fleet_rerun.records) {
        return Err("same-seed live runs folded to different serialized profiles".into());
    }
    profiles.observe_records(&arch, &fleet.records);
    profiles.observe_records(&arch, &fleet_rerun.records);
    recorder.sample();

    // --- Live rows: each twice, window ledgers identical. ---------------------
    let live: Vec<LiveRun> = (Live::all().iter())
        .map(|row| row.run(telemetry, &mut profiles))
        .collect::<Result<_, _>>()?;
    recorder.sample();
    let snapshot = telemetry.snapshot();

    // --- Post-mortem: the hang quarantine's `vp_hung` dump is the bundle CI's
    // check exercises (the chaos breaker trip dumps one too).
    let bundles = recorder.bundles();
    let bundle = (bundles.iter().rev().find(|b| b.name.ends_with("vp_hung")))
        .ok_or("no vp_hung post-mortem bundle was dumped by the hang quarantine")?;
    validate_bundle(&bundle.json)
        .map_err(|e| format!("post-mortem {} is malformed: {e}", bundle.name))?;
    std::fs::write(POSTMORTEM_OUT, &bundle.json)
        .map_err(|e| format!("cannot write {POSTMORTEM_OUT}: {e}"))?;
    let profile_snapshot = profiles.snapshot();

    // --- Gate metrics (deterministic simulated quantities only). -------------
    // Every live ledger was verified identical across two in-process runs
    // above and the fault story is seed-determined, so the counts gate exactly.
    let live_gate: Vec<(String, f64)> =
        live.iter().flat_map(|run| gate_values(run.row.gates, run)).collect();
    let mut gate: Vec<(String, f64)> =
        planned.iter().flat_map(|run| gate_values(run.row.gates, run)).collect();
    gate.extend(live_gate.iter().cloned());
    let session = [
        snapshot.dropped_events as f64,
        profile_snapshot.updates as f64,
        profile_snapshot.entries() as f64,
        recorder.taken() as f64,
        recorder.incidents().len() as f64,
        bundles.len() as f64,
    ];
    gate.extend(SESSION_KEYS.iter().map(|k| k.to_string()).zip(session));

    // --- BENCH_audit.json. ----------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"sigmavp-audit-v1\",\n");
    json.push_str(&format!("  \"tolerance\": {:.6},\n", args.tolerance));
    json.push_str(&format!("  \"fault_seed\": {FAULT_SEED},\n"));
    // The gate section is byte-identical to the baseline format so tooling can
    // extract and parse it with the same flat parser.
    json.push_str(&format!("  \"gate\": {},\n", indent(format_flat_json(&gate))));
    json.push_str(&format!("  \"model\": {},\n", report.to_json()));
    let scenarios: Vec<String> = planned.iter().map(scenario_json).collect();
    json.push_str(&format!("  \"scenarios\": {{\n{}\n  }},\n", scenarios.join(",\n")));
    let passes: Vec<String> = snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("plan.pass.") && name.ends_with(".time_s"))
        .map(|(name, h)| {
            format!(
                "    {{\"name\": \"{}\", \"calls\": {}, \"mean_s\": {:.9e}, \"max_s\": {:.9e}}}",
                escape_json(name),
                h.count,
                if h.count > 0 { h.sum / h.count as f64 } else { 0.0 },
                h.max
            )
        })
        .collect();
    json.push_str(&format!("  \"passes\": [\n{}\n  ],\n", passes.join(",\n")));
    let queue_wait_mean_s = if wall_lifecycles.is_empty() {
        0.0
    } else {
        wall_lifecycles.iter().map(|l| l.queue_wall_s).sum::<f64>() / wall_lifecycles.len() as f64
    };
    json.push_str(&format!(
        "  \"live\": {{\"requests\": {}, \"jobs_joined\": {}, \"queue_wait_mean_s\": {:.9e}, \
         \"dropped_events\": {}}},\n",
        fleet_stats.requests,
        wall_lifecycles.len(),
        queue_wait_mean_s,
        snapshot.dropped_events
    ));
    // The live rows' gate values again, one section per key family (`chaos`,
    // `sync`, `liveness`).
    let family = |key: &str| key.split('.').next().unwrap_or(key).to_string();
    let mut families: Vec<String> = live_gate.iter().map(|(key, _)| family(key)).collect();
    families.dedup();
    for name in families {
        let rows: Vec<_> = live_gate.iter().filter(|(k, _)| family(k) == name).cloned().collect();
        json.push_str(&format!("  \"{name}\": {},\n", indent(format_flat_json(&rows))));
    }
    json.push_str(&format!(
        "  \"obs\": {{\"snapshots\": {}, \"incidents\": {}, \"postmortems\": {}, \
         \"profile\": {}}}\n}}\n",
        recorder.taken(),
        recorder.incidents().len(),
        bundles.len(),
        indent(profile_snapshot.to_json())
    ));
    std::fs::write(&args.out, &json).map_err(|e| format!("cannot write {}: {e}", args.out))?;

    // --- Human-readable summary. ----------------------------------------------
    for s in &planned {
        println!(
            "{}: makespan {:.3} ms, overlap {:.0}%, critical path conserved \
             (busy {:.3} ms + stall {:.3} ms)",
            s.row.name,
            s.makespan_s * 1e3,
            s.plan.timeline.overlap_fraction() * 100.0,
            s.path.busy_s() * 1e3,
            s.path.stall_s().max(0.0) * 1e3
        );
    }
    for e in &report.entries {
        println!(
            "model {}: predicted {:.6e}, measured {:.6e}, residual {:.2}% [{}]",
            e.name,
            e.predicted,
            e.measured,
            e.residual_frac * 100.0,
            if e.within_tolerance { "ok" } else { "FLAGGED" }
        );
    }
    if snapshot.dropped_events > 0 {
        eprintln!(
            "audit: WARNING: {} trace events dropped; wall lifecycles are incomplete",
            snapshot.dropped_events
        );
    }
    println!(
        "live fleet: {} requests, {} lifecycles joined, mean queue wait {:.3} ms",
        fleet_stats.requests,
        wall_lifecycles.len(),
        queue_wait_mean_s * 1e3
    );
    let show = |v: f64| if v.fract() == 0.0 { format!("{v}") } else { format!("{v:.6e}") };
    for run in &live {
        let values: Vec<String> = gate_values(run.row.gates, run)
            .iter()
            .map(|(k, v)| format!("{k} {}", show(*v)))
            .collect();
        println!(
            "{}: {} requests, window ledger identical across both runs; {}",
            run.row.name,
            run.stats.requests,
            values.join(", ")
        );
    }
    println!(
        "obs: {} profile updates over {} entries, {} snapshot(s), {} incident(s), \
         post-mortem {} ({} bytes) -> {POSTMORTEM_OUT}",
        profile_snapshot.updates,
        profile_snapshot.entries(),
        recorder.taken(),
        recorder.incidents().len(),
        bundle.name,
        bundle.json.len()
    );
    println!("wrote {}", args.out);

    // --- Baseline write / check. ----------------------------------------------
    if args.write_baseline {
        write_baseline(&args.baseline, &gate)?;
    }
    let mut failed = args.check && check_baseline(&args.baseline, args.tolerance, &gate)?;
    for e in report.flagged() {
        eprintln!(
            "audit: model residual {} = {:.2}% exceeds tolerance {:.0}%",
            e.name,
            e.residual_frac * 100.0,
            args.tolerance * 100.0
        );
        failed = true;
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let outcome = run(&parse_args());
    sigmavp_telemetry::uninstall();
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("audit: {e}");
            ExitCode::FAILURE
        }
    }
}
