//! Block-parallel throughput benchmark and regression gate.
//!
//! ```text
//! cargo run --release -p sigmavp-bench --bin perf                    # measure + write BENCH_perf.json
//! cargo run --release -p sigmavp-bench --bin perf -- --write-baseline
//! cargo run --release -p sigmavp-bench --bin perf -- --check        # gate against the committed baseline
//! cargo run --release -p sigmavp-bench --bin perf -- --passes dep_order,coalesce
//! cargo run --release -p sigmavp-bench --bin perf -- --tier scalar    # pin the interpreter tier
//! ```
//!
//! **Tier comparison.** Before the worker sweep, the fleet is executed at
//! `workers = 1` under both SPTX interpreter tiers — the scalar reference and
//! the decoded warp-lockstep tier — asserting the workload is identical and
//! reporting the warp tier's wall-clock speedup plus its decode-cache and
//! warp-execution counters (`sptx.decode.*`, `sptx.warp.*`). The warp tier
//! must never be slower than scalar (the run hard-fails if the measured tier
//! speedup drops below 1.0); the worker sweep itself runs at the tier
//! selected by `--tier` (warp by default).
//!
//! A fixed multi-VP fleet — four VPs running compute-heavy suite apps
//! (Mandelbrot ×2, MatrixMul, N-body) against one host GPU — is executed twice
//! through the live dispatcher: once with the sequential interpreter
//! (`workers = 1`) and once block-parallel (`workers = N`, default 4). Each
//! configuration runs `--repeats` times; the fastest wall time counts (the
//! usual guard against scheduler noise), and the deterministic quantities
//! (jobs, instructions) are asserted identical across every repeat *and* both
//! worker counts — the parallel engine must not change what executes, only how
//! fast.
//!
//! Reported per configuration: wall makespan, jobs/s, instructions/s. The
//! headline metric is the wall-clock speedup of `workers = N` over
//! `workers = 1`.
//!
//! **Acceptance bar.** The target is ≥ 2× at `workers = 4` — but that is a
//! statement about hardware as much as software, so the bar is enforced only
//! where the host can meet it: ≥ 2.0× with 4+ hardware threads. Below that
//! the workers share their cores with the guest threads that feed them and
//! the ratio measures the host, so the bar prints as
//! `skipped: host_parallelism < 4` (exit 0) — the baseline ratio and the
//! deterministic counters are still gated.
//!
//! **Observability overhead.** The parallel configuration is then re-run with
//! the always-on observability pair attached — the profile store folding every
//! completion off the bus and the flight recorder sampling on a 2 ms cadence —
//! and the wall-time cost is bounded: ≤ 5% with 4+ cores, scaled looser where
//! the sampler has to fight the workload for cores (like the speedup bar).
//!
//! **Gate.** `--check` compares against the committed baseline
//! (`results/baselines/perf.json`) through the direction-aware store:
//! `perf.speedup_wall` is higher-is-better (a baseline near 1.0 from a 1-core
//! CI host still catches "parallel got slower than sequential" anywhere),
//! while the job and instruction counts are exact-ish deterministic quantities
//! that catch the workload silently changing shape. Raw wall seconds are
//! reported but never gated — wall time is machine property, the speedup
//! ratio is a code property.
//!
//! **Ablation.** `--passes a,b,c` re-plans the fleet's per-device job logs
//! through an explicitly composed scheduling [`Pipeline`] (see
//! [`Pipeline::parse`]) and reports planned makespan, overlap, and merge
//! counts next to the default policy's plan — pass-level ablations without
//! recompiling.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::plan_device;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_obs::{
    format_flat_json, run_gate, FlightConfig, FlightRecorder, GateConfig, SharedProfileStore,
};
use sigmavp_sched::{ExecTier, Pipeline, Policy};
use sigmavp_sptx::exec::default_workers;
use sigmavp_telemetry::export::escape_json;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{MandelbrotApp, MatrixMulApp, NbodyApp};

const DEFAULT_BASELINE: &str = "results/baselines/perf.json";
const DEFAULT_OUT: &str = "BENCH_perf.json";
const DEFAULT_FLEET_BASELINE: &str = "results/baselines/fleet.json";
const DEFAULT_FLEET_OUT: &str = "BENCH_fleet.json";
const DEFAULT_TOLERANCE: f64 = 0.25;
const DEFAULT_WORKERS: u32 = 4;
const DEFAULT_REPEATS: u32 = 3;
const DEFAULT_SCALE: u32 = 2;
const DEFAULT_VPS: u32 = 256;

struct Args {
    check: bool,
    write_baseline: bool,
    baseline: String,
    out: String,
    tolerance: f64,
    workers: u32,
    repeats: u32,
    scale: u32,
    passes: Option<String>,
    fleet: bool,
    vps: u32,
    tier: ExecTier,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf [--check] [--write-baseline] [--baseline PATH] [--out PATH] \
         [--tolerance F] [--workers N] [--repeats N] [--scale N] [--passes a,b,c] \
         [--tier scalar|warp] [--fleet] [--vps N]"
    );
    std::process::exit(2);
}

fn parse_tier(s: &str) -> ExecTier {
    match s {
        "scalar" => ExecTier::Scalar,
        "warp" => ExecTier::Warp,
        _ => {
            eprintln!("--tier must be 'scalar' or 'warp', got '{s}'");
            usage()
        }
    }
}

fn tier_name(tier: ExecTier) -> &'static str {
    match tier {
        ExecTier::Scalar => "scalar",
        ExecTier::Warp => "warp",
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        check: false,
        write_baseline: false,
        baseline: DEFAULT_BASELINE.to_string(),
        out: DEFAULT_OUT.to_string(),
        tolerance: DEFAULT_TOLERANCE,
        workers: DEFAULT_WORKERS,
        repeats: DEFAULT_REPEATS,
        scale: DEFAULT_SCALE,
        passes: None,
        fleet: false,
        vps: DEFAULT_VPS,
        tier: ExecTier::Warp,
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
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--repeats" => {
                args.repeats = value("--repeats").parse::<u32>().unwrap_or_else(|_| usage()).max(1)
            }
            "--scale" => args.scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--passes" => args.passes = Some(value("--passes")),
            "--tier" => args.tier = parse_tier(&value("--tier")),
            "--fleet" => args.fleet = true,
            "--vps" => args.vps = value("--vps").parse::<u32>().unwrap_or_else(|_| usage()).max(8),
            _ => usage(),
        }
    }
    args
}

/// The fixed fleet: four compute-heavy VPs against one host GPU, so the
/// interpreter's grid loop — not device-level concurrency — is what the
/// worker count accelerates.
fn fleet_apps(scale: u32) -> Vec<Box<dyn Application + Send>> {
    vec![
        Box::new(MandelbrotApp::new(scale)),
        Box::new(MatrixMulApp::new(scale)),
        Box::new(NbodyApp::new(scale)),
        Box::new(MandelbrotApp::new(scale)),
    ]
}

/// One measured fleet execution.
struct Measure {
    wall_s: f64,
    jobs: u64,
    instructions: u64,
    launches: u64,
    parallel_launches: u64,
    sim_makespan_s: f64,
    device_records: Vec<Vec<sigmavp::host::JobRecord>>,
    /// Warp-tier observability deltas (all zero under the scalar tier). The
    /// decode counters are *not* deterministic across repeats — the decode
    /// cache is process-global, so only the first run of a program misses.
    decode_hits: u64,
    decode_misses: u64,
    warps: u64,
    uniform_loads: u64,
    divergent_branches: u64,
}

impl Measure {
    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }
    fn instructions_per_s(&self) -> f64 {
        self.instructions as f64 / self.wall_s
    }
}

fn run_fleet(
    workers: u32,
    scale: u32,
    tier: ExecTier,
    telemetry: &sigmavp_telemetry::Telemetry,
) -> Result<Measure, String> {
    let registry: KernelRegistry = fleet_apps(scale).iter().flat_map(|app| app.kernels()).collect();
    let mut sys =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory())
            .with_policy(Policy::Fifo.with_workers(workers).with_tier(tier));
    for app in fleet_apps(scale) {
        sys.spawn(app);
    }
    let before = telemetry.snapshot();
    let started = Instant::now();
    let (report, stats) = sys.join();
    let wall_s = started.elapsed().as_secs_f64();
    let after = telemetry.snapshot();
    if !report.all_ok() {
        return Err(format!(
            "fleet failed at workers={workers}: outcomes {:?}, failed {:?}",
            report.outcomes, report.failed_vps
        ));
    }
    let delta = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
    };
    Ok(Measure {
        wall_s,
        jobs: stats.requests,
        instructions: delta("sptx.instructions_executed"),
        launches: delta("sptx.launches"),
        parallel_launches: delta("sptx.parallel.launches"),
        sim_makespan_s: report.device_makespan_s,
        device_records: report.device_records,
        decode_hits: delta("sptx.decode.hits"),
        decode_misses: delta("sptx.decode.misses"),
        warps: delta("sptx.warp.warps"),
        uniform_loads: delta("sptx.warp.uniform_loads"),
        divergent_branches: delta("sptx.warp.divergent_branches"),
    })
}

/// Best wall time over `repeats` runs; deterministic quantities asserted
/// identical across repeats.
fn run_config(
    workers: u32,
    scale: u32,
    repeats: u32,
    tier: ExecTier,
    telemetry: &sigmavp_telemetry::Telemetry,
) -> Result<Measure, String> {
    let mut best: Option<Measure> = None;
    for _ in 0..repeats {
        let m = run_fleet(workers, scale, tier, telemetry)?;
        if let Some(b) = &best {
            if (m.jobs, m.instructions, m.launches) != (b.jobs, b.instructions, b.launches) {
                return Err(format!(
                    "workers={workers}: nondeterministic workload across repeats \
                     (jobs {} vs {}, instructions {} vs {})",
                    m.jobs, b.jobs, m.instructions, b.instructions
                ));
            }
        }
        if best.as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
            best = Some(m);
        }
    }
    Ok(best.expect("repeats >= 1"))
}

/// The enforced speedup bar — `None` where the host cannot tell a scaling
/// code path from a broken one: below four hardware threads the N-worker (or
/// N-shard) configuration shares its cores with the guest threads that feed
/// it, so the ratio measures the host. The bar is then reported as skipped,
/// never as red; the baseline ratio and the deterministic counters stay gated.
fn required_speedup(host_parallelism: usize) -> Option<f64> {
    (host_parallelism >= 4).then_some(2.0)
}

/// `required` as it is printed next to a measured ratio.
fn required_label(required: Option<f64>) -> String {
    match required {
        Some(bar) => format!("required >= {bar:.1}x"),
        None => "skipped: host_parallelism < 4".to_string(),
    }
}

/// `required` as a JSON value.
fn required_json(required: Option<f64>) -> String {
    required.map_or_else(|| "null".to_string(), |bar| format!("{bar:.6}"))
}

/// The flight-recorder overhead bound, scaled to the host: always-on
/// observability must cost ≤ 5% wall where there is parallelism to absorb the
/// sampler, looser where it fights the workload for 1–2 cores.
fn allowed_overhead(host_parallelism: usize) -> f64 {
    match host_parallelism {
        0 | 1 => 0.50,
        2 | 3 => 0.15,
        _ => 0.05,
    }
}

/// Re-run the parallel configuration with the always-on observability pair
/// attached — profile store folding every completion off the bus, flight
/// recorder sampling snapshots on a 2 ms cadence — and return the measured
/// wall time plus what the instruments captured.
fn run_flight_on(
    workers: u32,
    scale: u32,
    repeats: u32,
    tier: ExecTier,
    telemetry: &sigmavp_telemetry::Telemetry,
) -> Result<(Measure, u64, u64), String> {
    let profiles = SharedProfileStore::new();
    profiles.install();
    let recorder = FlightRecorder::new(FlightConfig::default());
    recorder.attach(*telemetry);
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let recorder = recorder.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                recorder.sample();
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let result = run_config(workers, scale, repeats, tier, telemetry);
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread joins");
    sigmavp_telemetry::bus::clear_sinks();
    result.map(|m| (m, profiles.updates(), recorder.taken()))
}

// --- Fleet mode (`--fleet`): sharded multi-session scaling gate. -------------

/// One measured fleet run: wall time plus the deterministic counters the gate
/// asserts byte-identical across repeats and same-seed runs.
#[derive(Debug, Clone, PartialEq)]
struct FleetMeasure {
    wall_s: f64,
    submitted: u64,
    steals: u64,
    migrations: u64,
    gpu_jobs: u64,
    p99_wait_s: f64,
}

impl FleetMeasure {
    fn jobs_per_s(&self) -> f64 {
        self.submitted as f64 / self.wall_s
    }

    /// Everything except wall time — must be identical across repeats.
    fn deterministic(&self) -> (u64, u64, u64, u64, f64) {
        (self.submitted, self.steals, self.migrations, self.gpu_jobs, self.p99_wait_s)
    }
}

fn fleet_registry() -> KernelRegistry {
    sigmavp_workloads::apps::VectorAddApp { n: 1024 }.kernels().into_iter().collect()
}

/// Per-VP scripts with skewed launch counts (1–4), so consistent-hash
/// placement leaves a load imbalance for the rebalancer to fix.
fn fleet_scripts(vps: u32) -> Vec<(sigmavp_ipc::message::VpId, sigmavp_fleet::VpScript)> {
    (0..vps)
        .map(|vp| {
            (
                sigmavp_ipc::message::VpId(vp),
                sigmavp_fleet::VpScript::vector_add(1024, 1 + vp % 4, vp as u64),
            )
        })
        .collect()
}

/// Run `vps` scripted VPs over `sessions` sessions in wavefront order.
fn run_fleet_config(sessions: usize, vps: u32) -> Result<FleetMeasure, String> {
    let config = sigmavp_fleet::FleetConfig::new(sessions)
        .with_capacity(vps as usize) // one outstanding request per VP: never sheds
        .with_steal_interval(64);
    let fleet = sigmavp_fleet::Fleet::new(config, fleet_registry()).map_err(|e| e.to_string())?;
    let mut scripts = fleet_scripts(vps);
    for (vp, _) in &scripts {
        fleet.admit(*vp).map_err(|e| e.to_string())?;
    }
    let started = Instant::now();
    let submitted = sigmavp_fleet::drive(&fleet, &mut scripts)?;
    let wall_s = started.elapsed().as_secs_f64();
    let outcome = fleet.shutdown();
    if outcome.stats.completed != submitted {
        return Err(format!(
            "sessions={sessions}: {} of {submitted} jobs completed",
            outcome.stats.completed
        ));
    }
    if outcome.stats.shed != 0 {
        return Err(format!("sessions={sessions}: unexpected sheds: {}", outcome.stats.shed));
    }
    Ok(FleetMeasure {
        wall_s,
        submitted,
        steals: outcome.stats.steals,
        migrations: outcome.stats.migrations,
        gpu_jobs: outcome.gpu_jobs() as u64,
        p99_wait_s: outcome.p99_queue_wait_s(),
    })
}

/// Best wall time over `repeats`; deterministic counters asserted identical.
fn run_fleet_repeats(sessions: usize, vps: u32, repeats: u32) -> Result<FleetMeasure, String> {
    let mut best: Option<FleetMeasure> = None;
    for _ in 0..repeats {
        let m = run_fleet_config(sessions, vps)?;
        if let Some(b) = &best {
            if m.deterministic() != b.deterministic() {
                return Err(format!(
                    "sessions={sessions}: counters changed across same-seed repeats: \
                     {:?} vs {:?}",
                    m.deterministic(),
                    b.deterministic()
                ));
            }
        }
        if best.as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
            best = Some(m);
        }
    }
    Ok(best.expect("repeats >= 1"))
}

/// Deterministic backpressure probe: with dispatchers held, `capacity + extra`
/// submits must shed exactly `extra` requests.
fn admission_probe(capacity: usize, extra: u32) -> Result<u64, String> {
    use sigmavp_ipc::message::{Request, VpId};
    let config = sigmavp_fleet::FleetConfig::new(1).with_capacity(capacity);
    let fleet = sigmavp_fleet::Fleet::new(config, fleet_registry()).map_err(|e| e.to_string())?;
    fleet.hold_workers();
    let total = capacity as u32 + extra;
    let mut accepted = Vec::new();
    for vp in 0..total {
        fleet.admit(VpId(vp)).map_err(|e| e.to_string())?;
    }
    for vp in 0..total {
        match fleet.submit(VpId(vp), Request::Malloc { bytes: 64 }) {
            Ok(_) => accepted.push(VpId(vp)),
            Err(sigmavp_fleet::FleetError::Saturated { .. }) => {}
            Err(e) => return Err(format!("probe submit: {e}")),
        }
    }
    fleet.release_workers();
    for vp in accepted {
        fleet.wait(vp).map_err(|e| format!("probe wait: {e}"))?;
    }
    let shed = fleet.stats().shed;
    fleet.shutdown();
    Ok(shed)
}

/// Kill one of `sessions` sessions halfway through the admission sequence and
/// require every job to finish on the survivors.
fn kill_run(sessions: usize, vps: u32) -> Result<(u64, sigmavp_fleet::FleetStats), String> {
    let config = sigmavp_fleet::FleetConfig::new(sessions)
        .with_capacity(vps as usize)
        .with_steal_interval(64);
    let fleet = sigmavp_fleet::Fleet::new(config, fleet_registry()).map_err(|e| e.to_string())?;
    let mut scripts = fleet_scripts(vps);
    for (vp, _) in &scripts {
        fleet.admit(*vp).map_err(|e| e.to_string())?;
    }
    let total: u64 = scripts.iter().map(|(_, s)| s.jobs_total()).sum();
    let submitted = sigmavp_fleet::drive_with(&fleet, &mut scripts, |fleet, admitted| {
        if admitted == total / 2 {
            fleet.kill_session(1).expect("session 1 exists");
        }
    })?;
    let outcome = fleet.shutdown();
    if outcome.stats.completed != submitted {
        return Err(format!(
            "kill run: {} of {submitted} jobs completed on the survivors",
            outcome.stats.completed
        ));
    }
    Ok((submitted, outcome.stats))
}

fn fleet_measure_json(name: &str, m: &FleetMeasure) -> String {
    format!(
        "    \"{name}\": {{\"wall_s\": {:.9e}, \"jobs\": {}, \"jobs_per_s\": {:.9e}, \
         \"steals\": {}, \"migrations\": {}, \"gpu_jobs\": {}, \"p99_queue_wait_s\": {:.9e}}}",
        m.wall_s,
        m.submitted,
        m.jobs_per_s(),
        m.steals,
        m.migrations,
        m.gpu_jobs,
        m.p99_wait_s
    )
}

/// The `--fleet` entry point: scaling, starvation, backpressure and failover
/// gates for the sharded multi-session front-end.
fn fleet_main(args: &Args, host: usize) -> ExitCode {
    const SESSIONS: usize = 4;
    const PROBE_CAPACITY: usize = 8;
    const PROBE_EXTRA: u32 = 5;
    let baseline = if args.baseline == DEFAULT_BASELINE {
        DEFAULT_FLEET_BASELINE.to_string()
    } else {
        args.baseline.clone()
    };
    let out =
        if args.out == DEFAULT_OUT { DEFAULT_FLEET_OUT.to_string() } else { args.out.clone() };

    println!(
        "perf --fleet: {} scripted VPs over S=1 and S={SESSIONS} sessions, {} repeat(s), \
         host parallelism {host}",
        args.vps, args.repeats
    );

    let s1 = match run_fleet_repeats(1, args.vps, args.repeats) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf --fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s4 = match run_fleet_repeats(SESSIONS, args.vps, args.repeats) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf --fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    if s1.submitted != s4.submitted {
        eprintln!(
            "perf --fleet: session count changed the workload: {} vs {} jobs",
            s1.submitted, s4.submitted
        );
        return ExitCode::FAILURE;
    }

    let scaling = s4.jobs_per_s() / s1.jobs_per_s();
    let required = required_speedup(host);
    for (name, m) in [("S=1", &s1), (&format!("S={SESSIONS}"), &s4)] {
        println!(
            "{name}: wall {:.3} ms, {:.0} jobs/s ({} jobs, {} steals, {} migrations, \
             p99 queue wait {:.3e} s)",
            m.wall_s * 1e3,
            m.jobs_per_s(),
            m.submitted,
            m.steals,
            m.migrations,
            m.p99_wait_s
        );
    }
    println!(
        "scaling: {scaling:.2}x jobs/s at S={SESSIONS} ({} on {host}-core host)",
        required_label(required)
    );

    let probe_shed = match admission_probe(PROBE_CAPACITY, PROBE_EXTRA) {
        Ok(shed) => shed,
        Err(e) => {
            eprintln!("perf --fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "admission probe: capacity {PROBE_CAPACITY} + {PROBE_EXTRA} submits -> {probe_shed} shed"
    );

    let kill_vps = args.vps / 4;
    let (kill_jobs, kill_stats) = match kill_run(SESSIONS, kill_vps) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf --fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "failover: killed 1/{SESSIONS} sessions mid-run, {kill_jobs} jobs all completed \
         ({} rescued, {} migrations)",
        kill_stats.rescued_jobs, kill_stats.migrations
    );

    let mut failed = false;
    if probe_shed != PROBE_EXTRA as u64 {
        eprintln!("perf --fleet: probe shed {probe_shed}, expected exactly {PROBE_EXTRA}");
        failed = true;
    }
    if s4.steals == 0 || s4.migrations == 0 {
        eprintln!(
            "perf --fleet: the rebalancer never moved a VP at S={SESSIONS} \
             ({} steals, {} migrations)",
            s4.steals, s4.migrations
        );
        failed = true;
    }
    if kill_stats.session_trips != 1 {
        eprintln!("perf --fleet: expected 1 session trip, saw {}", kill_stats.session_trips);
        failed = true;
    }
    if let Some(bar) = required.filter(|&bar| scaling < bar) {
        eprintln!(
            "perf --fleet: scaling {scaling:.2}x below the required {bar:.1}x for a \
             {host}-core host"
        );
        failed = true;
    }

    // Ratios and deterministic counters only — wall seconds are reported but
    // never gated.
    let gate: Vec<(String, f64)> = vec![
        ("fleet.scaling_speedup".into(), scaling),
        ("fleet.jobs".into(), s1.submitted as f64),
        ("fleet.gpu_jobs".into(), s1.gpu_jobs as f64),
        ("fleet.steals".into(), s4.steals as f64),
        ("fleet.migrations".into(), s4.migrations as f64),
        ("fleet.p99_queue_wait_s".into(), s4.p99_wait_s),
        ("fleet.shed_probe".into(), probe_shed as f64),
        ("fleet.kill_jobs".into(), kill_jobs as f64),
        ("fleet.kill_trips".into(), kill_stats.session_trips as f64),
    ];

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"sigmavp-fleet-perf-v1\",\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {host},\n  \"sessions_compared\": [1, {SESSIONS}],\n  \
         \"vps\": {},\n  \"repeats\": {},\n  \"tolerance\": {:.6},\n",
        args.vps, args.repeats, args.tolerance
    ));
    let flat = format_flat_json(&gate);
    json.push_str(&format!("  \"gate\": {},\n", flat.trim_end().replace('\n', "\n  ")));
    json.push_str("  \"runs\": {\n");
    json.push_str(&fleet_measure_json("sessions_1", &s1));
    json.push_str(",\n");
    json.push_str(&fleet_measure_json(&format!("sessions_{SESSIONS}"), &s4));
    json.push_str("\n  },\n");
    json.push_str(&format!(
        "  \"scaling\": {{\"jobs_per_s\": {scaling:.6}, \"required\": {}}},\n",
        required_json(required)
    ));
    json.push_str(&format!(
        "  \"failover\": {{\"vps\": {kill_vps}, \"jobs\": {kill_jobs}, \"rescued\": {}, \
         \"migrations\": {}, \"session_trips\": {}}}\n}}\n",
        kill_stats.rescued_jobs, kill_stats.migrations, kill_stats.session_trips
    ));
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("perf --fleet: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    match run_gate(
        &GateConfig {
            tool: "perf --fleet",
            baseline: &baseline,
            tolerance: args.tolerance,
            write_baseline: args.write_baseline,
            check: args.check,
        },
        &gate,
    ) {
        Ok(regressed) => failed = failed || regressed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn measure_json(name: &str, m: &Measure) -> String {
    format!(
        "    \"{name}\": {{\"wall_s\": {:.9e}, \"jobs\": {}, \"jobs_per_s\": {:.9e}, \
         \"instructions\": {}, \"instructions_per_s\": {:.9e}, \"launches\": {}, \
         \"parallel_launches\": {}, \"sim_makespan_s\": {:.9e}}}",
        m.wall_s,
        m.jobs,
        m.jobs_per_s(),
        m.instructions,
        m.instructions_per_s(),
        m.launches,
        m.parallel_launches,
        m.sim_makespan_s
    )
}

/// Re-plan `device_records` through `pipeline` and summarize each device plan.
fn ablate(pipeline: &Pipeline, device_records: &[Vec<sigmavp::host::JobRecord>]) -> Vec<String> {
    let arch = GpuArch::quadro_4000();
    device_records
        .iter()
        .enumerate()
        .map(|(d, records)| {
            let plan = plan_device(pipeline, records, &|_| true, &arch);
            format!(
                "    {{\"device\": {d}, \"jobs\": {}, \"makespan_s\": {:.9e}, \
                 \"overlap_fraction\": {:.6}, \"coalesced_members\": {}}}",
                records.len(),
                plan.timeline.makespan_s,
                plan.timeline.overlap_fraction(),
                plan.coalesced_members()
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = parse_args();
    let telemetry = sigmavp_telemetry::install();
    let host = default_workers();
    if args.fleet {
        return fleet_main(&args, host);
    }
    if args.workers < 2 {
        eprintln!("perf: --workers must be >= 2 (it is compared against workers=1)");
        return ExitCode::FAILURE;
    }

    println!(
        "perf: fleet of 4 VPs (mandelbrot x2, matrixMul, nbody) at scale {}, \
         1 host GPU, {} repeat(s), host parallelism {}, tier {}",
        args.scale,
        args.repeats,
        host,
        tier_name(args.tier)
    );

    // --- Tier comparison at workers = 1. --------------------------------------
    // Scalar reference vs decoded warp-lockstep, single worker, so the tier —
    // not block parallelism — is the only variable. Both must execute the
    // identical workload; the warp tier must not be slower.
    let tier_scalar = match run_config(1, args.scale, args.repeats, ExecTier::Scalar, &telemetry) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tier_warp = match run_config(1, args.scale, args.repeats, ExecTier::Warp, &telemetry) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    if (tier_scalar.jobs, tier_scalar.instructions, tier_scalar.launches)
        != (tier_warp.jobs, tier_warp.instructions, tier_warp.launches)
    {
        eprintln!(
            "perf: the warp tier changed the workload: jobs {} vs {}, instructions {} vs {}",
            tier_scalar.jobs, tier_warp.jobs, tier_scalar.instructions, tier_warp.instructions
        );
        return ExitCode::FAILURE;
    }
    if tier_warp.warps == 0 {
        eprintln!("perf: the warp tier never executed a warp");
        return ExitCode::FAILURE;
    }
    let tier_speedup = tier_scalar.wall_s / tier_warp.wall_s;
    for (name, m) in [("tier=scalar w=1", &tier_scalar), ("tier=warp   w=1", &tier_warp)] {
        println!(
            "{name}: wall {:.3} ms, {:.3e} instr/s ({} instr)",
            m.wall_s * 1e3,
            m.instructions_per_s(),
            m.instructions
        );
    }
    println!(
        "  warp counters: decode {} hits / {} misses, {} warps, {} uniform loads, \
         {} divergent branches",
        tier_warp.decode_hits,
        tier_warp.decode_misses,
        tier_warp.warps,
        tier_warp.uniform_loads,
        tier_warp.divergent_branches
    );
    println!("tier speedup: {tier_speedup:.2}x wall-clock, warp over scalar (required >= 1.0x)");

    // --- Measure both worker configurations at the selected tier. -------------
    let seq = match run_config(1, args.scale, args.repeats, args.tier, &telemetry) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let par = match run_config(args.workers, args.scale, args.repeats, args.tier, &telemetry) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The parallel engine must execute the identical workload.
    if (seq.jobs, seq.instructions, seq.launches) != (par.jobs, par.instructions, par.launches) {
        eprintln!(
            "perf: workers={} changed the workload: jobs {} vs {}, instructions {} vs {}",
            args.workers, seq.jobs, par.jobs, seq.instructions, par.instructions
        );
        return ExitCode::FAILURE;
    }
    if par.parallel_launches == 0 {
        eprintln!("perf: workers={} never took the block-parallel path", args.workers);
        return ExitCode::FAILURE;
    }

    let speedup = seq.wall_s / par.wall_s;
    let required = required_speedup(host);

    for (name, m) in [("workers=1", &seq), (&format!("workers={}", args.workers), &par)] {
        println!(
            "{name}: wall {:.3} ms, {:.0} jobs/s, {:.3e} instr/s ({} jobs, {} instr, \
             {} parallel launches)",
            m.wall_s * 1e3,
            m.jobs_per_s(),
            m.instructions_per_s(),
            m.jobs,
            m.instructions,
            m.parallel_launches
        );
    }
    println!(
        "speedup: {speedup:.2}x wall-clock at workers={} ({} on {host}-core host)",
        args.workers,
        required_label(required)
    );

    // --- Always-on observability overhead bar. --------------------------------
    // Same parallel configuration, flight recorder + profile store live; the
    // workload must be untouched and the wall-time cost bounded.
    let (flight, profile_updates, flight_snapshots) =
        match run_flight_on(args.workers, args.scale, args.repeats, args.tier, &telemetry) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perf: {e}");
                return ExitCode::FAILURE;
            }
        };
    if (flight.jobs, flight.instructions) != (par.jobs, par.instructions) {
        eprintln!(
            "perf: the flight recorder changed the workload: jobs {} vs {}, \
             instructions {} vs {}",
            flight.jobs, par.jobs, flight.instructions, par.instructions
        );
        return ExitCode::FAILURE;
    }
    if profile_updates == 0 || flight_snapshots == 0 {
        eprintln!(
            "perf: observability run captured nothing ({profile_updates} profile updates, \
             {flight_snapshots} snapshots)"
        );
        return ExitCode::FAILURE;
    }
    let overhead = flight.wall_s / par.wall_s - 1.0;
    let allowed = allowed_overhead(host);
    println!(
        "observability: flight-on wall {:.3} ms vs {:.3} ms off -> {:+.1}% overhead \
         (allowed <= {:.0}% on {host}-core host; {} profile updates, {} snapshots)",
        flight.wall_s * 1e3,
        par.wall_s * 1e3,
        overhead * 100.0,
        allowed * 100.0,
        profile_updates,
        flight_snapshots
    );

    // --- Optional pass ablation. ----------------------------------------------
    let ablation = match &args.passes {
        Some(spec) => {
            let pipeline = match Pipeline::parse(spec) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("perf: --passes {spec}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let rows = ablate(&pipeline, &seq.device_records);
            println!("ablation [{}]:", pipeline.pass_names().join(","));
            for row in &rows {
                println!("{}", row.trim_start());
            }
            Some((spec.clone(), rows))
        }
        None => None,
    };

    // --- Gate metrics: ratios and deterministic counts only. ------------------
    // The tier speedup itself is a ratio of two short wall-clock runs and far
    // too noisy to diff against a baseline (it swings 2-3x run to run); it is
    // enforced by the hard `>= 1.0` check below instead. Only the
    // deterministic warp-count rides in the baseline.
    let gate: Vec<(String, f64)> = vec![
        ("perf.speedup_wall".into(), speedup),
        ("perf.jobs".into(), seq.jobs as f64),
        ("perf.instructions".into(), seq.instructions as f64),
        ("perf.launches".into(), seq.launches as f64),
        ("perf.parallel_launches".into(), par.parallel_launches as f64),
        ("perf.warp_warps".into(), tier_warp.warps as f64),
    ];

    // --- BENCH_perf.json. ------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"sigmavp-perf-v2\",\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {host},\n  \"workers_compared\": [1, {}],\n  \
         \"scale\": {},\n  \"repeats\": {},\n  \"tolerance\": {:.6},\n  \"tier\": \"{}\",\n",
        args.workers,
        args.scale,
        args.repeats,
        args.tolerance,
        tier_name(args.tier)
    ));
    let flat = format_flat_json(&gate);
    json.push_str(&format!("  \"gate\": {},\n", flat.trim_end().replace('\n', "\n  ")));
    json.push_str("  \"runs\": {\n");
    json.push_str(&measure_json("tier_scalar_workers_1", &tier_scalar));
    json.push_str(",\n");
    json.push_str(&measure_json("tier_warp_workers_1", &tier_warp));
    json.push_str(",\n");
    json.push_str(&measure_json("workers_1", &seq));
    json.push_str(",\n");
    json.push_str(&measure_json(&format!("workers_{}", args.workers), &par));
    json.push_str("\n  },\n");
    json.push_str(&format!(
        "  \"tier_speedup\": {{\"wall\": {tier_speedup:.6}, \"required\": 1.0, \
         \"scalar_instructions_per_s\": {:.9e}, \"warp_instructions_per_s\": {:.9e}}},\n",
        tier_scalar.instructions_per_s(),
        tier_warp.instructions_per_s()
    ));
    json.push_str(&format!(
        "  \"warp_counters\": {{\"decode_hits\": {}, \"decode_misses\": {}, \"warps\": {}, \
         \"uniform_loads\": {}, \"divergent_branches\": {}}},\n",
        tier_warp.decode_hits,
        tier_warp.decode_misses,
        tier_warp.warps,
        tier_warp.uniform_loads,
        tier_warp.divergent_branches
    ));
    json.push_str(&format!(
        "  \"observability\": {{\"wall_on_s\": {:.9e}, \"wall_off_s\": {:.9e}, \
         \"overhead_frac\": {:.6}, \"allowed_frac\": {:.6}, \"profile_updates\": {}, \
         \"snapshots\": {}}},\n",
        flight.wall_s, par.wall_s, overhead, allowed, profile_updates, flight_snapshots
    ));
    json.push_str(&format!(
        "  \"speedup\": {{\"wall\": {:.6}, \"required\": {}}}",
        speedup,
        required_json(required)
    ));
    match &ablation {
        Some((spec, rows)) => {
            json.push_str(&format!(
                ",\n  \"ablation\": {{\"passes\": \"{}\", \"devices\": [\n{}\n  ]}}\n}}\n",
                escape_json(spec),
                rows.join(",\n")
            ));
        }
        None => json.push_str("\n}\n"),
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("perf: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    // --- Baseline write / check. ----------------------------------------------
    let mut failed = match run_gate(
        &GateConfig {
            tool: "perf",
            baseline: &args.baseline,
            tolerance: args.tolerance,
            write_baseline: args.write_baseline,
            check: args.check,
        },
        &gate,
    ) {
        Ok(regressed) => regressed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The overhead bar gets a 10 ms absolute floor so a sub-50 ms workload
    // cannot flake the gate on scheduler jitter alone.
    if flight.wall_s > par.wall_s * (1.0 + allowed) + 0.010 {
        eprintln!(
            "perf: flight-recorder overhead {:.1}% exceeds the allowed {:.0}% for a \
             {host}-core host",
            overhead * 100.0,
            allowed * 100.0
        );
        failed = true;
    }
    if let Some(bar) = required.filter(|&bar| speedup < bar) {
        eprintln!(
            "perf: speedup {speedup:.2}x below the required {bar:.1}x for a \
             {host}-core host"
        );
        failed = true;
    }
    // The warp tier is a pure single-thread optimization: it must never lose
    // to the scalar reference, on any host.
    if tier_speedup < 1.0 {
        eprintln!("perf: warp tier is slower than scalar ({tier_speedup:.2}x)");
        failed = true;
    }
    sigmavp_telemetry::uninstall();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
