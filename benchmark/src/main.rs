//! sigmabench — the repository's one benchmark. See README.md for what is
//! measured and why; `--help` for how to run it.

mod child;
mod compare;
mod json;
mod layers;
mod metrics;
mod probe;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::Settings;
use workloads::Size;

/// SplitMix64: the benchmark's only random source, so inputs depend on
/// `--seed` and nothing else.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where result and trace files go: `out/` beside this crate's manifest,
/// wherever the benchmark was started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "\
usage: sigmabench [--seed N] [--seconds S]          every workload, traced runs, --layers; writes out/latest.json
       sigmabench --workload NAME --seed N --seconds S --trace 0|1
                                                    one workload; last stdout line is one JSON result
       sigmabench --layers [--seed N]               the per-layer micro-benchmarks only
       sigmabench --smoke [--seed N]                everything at a fraction of the size (< 15 s)
       sigmabench --compare A.json B.json           is B worse than A?
workloads: compute_w1 compute_w2 fleet_s1 fleet_s2 coalesce_sync rpc_roundtrip";

/// Seconds each workload is timed for when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    layers: bool,
    smoke: bool,
    compare: Option<(String, String)>,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed =
                    Some(value("--seed")?.parse().map_err(|_| "--seed needs a whole number")?)
            }
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|_| "--seconds needs a number")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--layers" => args.layers = true,
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("--compare")?, value("--compare")?)),
            "--child" => args.child = Some(value("--child")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<bool, String> {
    let settings = Settings { seed: args.seed.unwrap_or(1), smoke: args.smoke };
    let size = if args.smoke { Size::SMOKE } else { Size::FULL };

    if let Some((a, b)) = &args.compare {
        let (worse, _) = compare::compare(&runner::read_results(a)?, &runner::read_results(b)?);
        return Ok(worse == 0);
    }
    if let Some(kind) = &args.child {
        let workload = args.workload.as_deref().ok_or("--child needs --workload")?;
        let result = match kind.as_str() {
            "timed" => child::timed(workload, size, settings.seed)?,
            "traced" => child::traced(workload, size, settings.seed, false)?,
            "traced-replay" => child::traced(workload, size, settings.seed, true)?,
            other => return Err(format!("unknown child kind `{other}`")),
        };
        println!("{}", result.render());
        return Ok(true);
    }
    // A smoke run times every workload once and gives each micro-benchmark 10 ms.
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS });
    let layer_budget_s = if args.smoke { 0.01 } else { layers::FULL_BUDGET_S };
    if let Some(workload) = &args.workload {
        return runner::contract_run(workload, settings, seconds, args.trace);
    }
    if args.layers {
        return runner::layers_only(settings, layer_budget_s);
    }
    runner::full_run(settings, seconds, layer_budget_s)
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("sigmabench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
