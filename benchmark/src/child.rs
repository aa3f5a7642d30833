//! What runs inside one child process: a single set-up and a single timed
//! region of one workload, in a process of its own so the decode cache, the
//! global worker pool, the telemetry recorder and `VmHWM` all start clean.
//! The child prints one JSON object as its last stdout line; the runner
//! (`runner.rs`) aggregates children into metrics.

use std::time::Instant;

use crate::json::Value;
use crate::probe::Op;
use crate::stats::{median, percentile_sorted, sorted};
use crate::workloads::{self, Facts, RunOutput, Size};

/// Iterations of one calibration round (~40 ms on the 2-core reference host).
const CALIB_ITERS: u64 = 20_000_000;

/// A fixed amount of dependent integer arithmetic (xorshift, so the compiler
/// cannot shortcut it), timed.
fn spin() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// Host diagnostics taken before every repeat; never gated.
pub struct HostState {
    /// One calibration round on one thread, after the host is warm. When two
    /// result sets disagree and these differ, the host changed, not the code.
    pub calib_s: f64,
    /// How long it took until one round on every core at once ran as fast as
    /// on one.
    pub heat_s: f64,
}

/// Bring the host to a steady state and measure it. On the virtualised hosts
/// this runs on, a core that sat idle takes over a second of load before it
/// runs a second thread at full speed; a workload whose threads start in that
/// window is timed on half a machine. So: spin a round on every core until
/// the round takes no longer than on one core (three times in a row, four
/// seconds at most), then take the calibration round.
pub fn warm_host() -> HostState {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut single = spin();
    let started = Instant::now();
    let mut steady = 0;
    while steady < 3 && started.elapsed().as_secs_f64() < 4.0 {
        let round = Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..cores {
                scope.spawn(spin);
            }
            single = single.min(spin());
        });
        steady = if round.elapsed().as_secs_f64() <= single * 1.15 { steady + 1 } else { 0 };
    }
    HostState { heat_s: started.elapsed().as_secs_f64(), calib_s: spin() }
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0)
}

/// Set-up: assemble kernels, build the registry and the system, admit VPs and
/// run the same workload once at warm-up size. Returns the prepared system
/// and how long all of that took.
fn set_up(name: &str, size: Size, seed: u64) -> Result<(workloads::TimedRegion, f64), String> {
    let started = Instant::now();
    let warm = workloads::prepare(name, Size::WARMUP, seed)?(false);
    if warm.failed != 0 {
        return Err(format!("warm-up failed: {:?}", warm.errors));
    }
    let prepared = workloads::prepare(name, size, seed)?;
    Ok((prepared, started.elapsed().as_secs_f64()))
}

fn facts_json(facts: &Facts) -> Value {
    Value::obj(facts.fields().map(|(k, v)| (k, Value::Num(v))))
}

/// Guest-observed latency percentiles over every request of the run.
fn latency_percentiles(out: &RunOutput) -> (f64, f64) {
    let latencies = sorted(&out.samples().map(|s| s.latency_s()).collect::<Vec<_>>());
    (percentile_sorted(&latencies, 50.0), percentile_sorted(&latencies, 99.0))
}

fn outcome_fields(out: &RunOutput) -> Vec<(&'static str, Value)> {
    vec![
        ("wall_s", Value::Num(out.wall_s)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("errors", Value::Arr(out.errors.iter().cloned().map(Value::Str).collect())),
        ("facts", facts_json(&out.facts)),
    ]
}

/// One untraced repeat: the only source of end-to-end numbers.
pub fn timed(name: &str, size: Size, seed: u64) -> Result<Value, String> {
    let host = warm_host();
    let (prepared, setup_s) = set_up(name, size, seed)?;
    let out = prepared(false);
    let (p50, p99) = latency_percentiles(&out);
    let mut fields = outcome_fields(&out);
    fields.extend([
        ("setup_s", Value::Num(setup_s)),
        ("req_p50_s", Value::Num(p50)),
        ("req_p99_s", Value::Num(p99)),
        ("peak_rss_bytes", Value::Num(peak_rss_bytes())),
        ("host.calib_s", Value::Num(host.calib_s)),
        ("host.heat_s", Value::Num(host.heat_s)),
    ]);
    Ok(Value::obj(fields))
}

/// Median guest-observed latency of each kind of call (0 where none was made).
fn call_p50s(out: &RunOutput) -> Vec<(String, f64)> {
    Op::REPORTED
        .iter()
        .map(|&op| {
            let of_op: Vec<f64> =
                out.samples().filter(|s| s.op == op).map(|s| s.latency_s()).collect();
            (format!("vp.cuda.call_p50_s.{}", op.name()), median(&of_op))
        })
        .collect()
}

/// What only a traced fleet run knows: time inside `submit` and `wait`, and
/// the throughput of the first and last eight rounds (decay over a run).
fn fleet_metrics(out: &RunOutput) -> Vec<(String, f64)> {
    let ns = |pick: fn(&workloads::FleetCallSplit) -> u32| {
        median(&out.fleet_splits.iter().map(|s| f64::from(pick(s))).collect::<Vec<_>>())
    };
    let ends = &out.round_ends_ns;
    let rounds = ends.len();
    let window = rounds.min(8);
    let per_round = out.facts.requests as f64 / rounds.max(1) as f64;
    let start_of = |round: usize| if round == 0 { out.start_ns } else { ends[round - 1] };
    // Requests per second over `window` rounds ending with round `last`.
    let rate = |last: usize| {
        let ns = ends[last] - start_of(last + 1 - window);
        window as f64 * per_round / (ns as f64 * 1e-9)
    };
    let (first, last) = if rounds == 0 { (0.0, 0.0) } else { (rate(window - 1), rate(rounds - 1)) };
    vec![
        ("fleet.submit_ns".into(), ns(|s| s.submit_ns)),
        ("fleet.wait_ns".into(), ns(|s| s.wait_ns)),
        ("fleet.round_jobs_per_s.first8".into(), first),
        ("fleet.round_jobs_per_s.last8".into(), last),
    ]
}

/// Most spans a trace file holds; the share table is computed from all of them.
const TRACE_FILE_SPANS: usize = 20_000;

/// The traced repeat: telemetry recorder installed (it is the only source of
/// the exact interpreter counts) and the benchmark's own spans on. With
/// `replay`, also the inline replay that attributes time to layers, and the
/// trace file.
pub fn traced(name: &str, size: Size, seed: u64, replay: bool) -> Result<Value, String> {
    warm_host();
    // Installed before set-up so the cold decode of every kernel is counted.
    let telemetry = sigmavp_telemetry::install();
    let (prepared, _) = set_up(name, size, seed)?;
    let before = telemetry.snapshot();
    let out = prepared(true);
    let after = telemetry.snapshot();
    sigmavp_telemetry::uninstall();
    let since_install = |counter: &str| after.counter(counter).unwrap_or(0) as f64;
    let delta =
        |counter: &str| since_install(counter) - before.counter(counter).unwrap_or(0) as f64;

    let mut metrics: Vec<(String, f64)> = vec![
        ("count.launches".into(), delta("sptx.launches")),
        ("count.instructions".into(), delta("sptx.instructions_executed")),
        ("count.parallel_launches".into(), delta("sptx.parallel.launches")),
        ("count.decode_misses".into(), since_install("sptx.decode.misses")),
        ("count.warp_fallback_ctas".into(), delta("sptx.warp.fallback_ctas")),
        ("sim_coalesce_gain".into(), out.facts.sim_coalesce_gain()),
    ];
    metrics.extend(call_p50s(&out));
    metrics.extend(fleet_metrics(&out));

    if replay {
        let replayed = crate::trace::replay(name, size, seed)?;
        metrics.extend(
            replayed
                .spans
                .busy_by_layer()
                .into_iter()
                .map(|(layer, busy_s)| (format!("trace.{}.busy_s", layer.name()), busy_s)),
        );
        let live = crate::trace::Spans::from_guests(&out.guests);
        let file = Value::obj([
            ("workload", Value::Str(name.into())),
            ("seed", Value::Num(seed as f64)),
            ("live", live.to_json(TRACE_FILE_SPANS)),
            ("replay", replayed.spans.to_json(TRACE_FILE_SPANS)),
        ]);
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, file.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let mut fields = outcome_fields(&out);
    fields.push(("metrics", Value::obj(metrics.into_iter().map(|(k, v)| (k, Value::Num(v))))));
    Ok(Value::obj(fields))
}
