//! `sigmavp-top` — plaintext live-observability dashboard + bundle checker.
//!
//! ```text
//! cargo run --release -p sigmavp-bench --bin top                    # demo fleet + dashboard
//! cargo run --release -p sigmavp-bench --bin top -- --vps 32 --sessions 4
//! cargo run --release -p sigmavp-bench --bin top -- --check-bundle BENCH_postmortem.json
//! ```
//!
//! The default mode drives a small sharded fleet with the flight recorder
//! attached and sampling periodic snapshots, kills one session mid-run so the
//! incident machinery fires, folds the sessions' job logs into Tm/Tk/alignment
//! profiles, and renders what a resident `top(1)`-style view would show: the
//! fleet header, per-shard rows, the newest metrics snapshot, the folded
//! profiles, and any post-mortem bundles the run produced.
//!
//! `--check-bundle PATH` instead validates a dumped post-mortem (CI runs it on
//! the `audit` chaos bundle): the file must be well-formed JSON carrying the
//! `sigmavp-postmortem-v1` schema tag, incident and snapshot sections.

use std::process::ExitCode;

use sigmavp_fleet::{drive_with, Fleet, FleetConfig, VpScript};
use sigmavp_ipc::message::VpId;
use sigmavp_obs::{validate_bundle, FlightRecorder, ProfileStore};
use sigmavp_telemetry::export::summary_table;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::VectorAddApp;

const DEFAULT_VPS: u32 = 16;
const DEFAULT_SESSIONS: usize = 2;

struct Args {
    vps: u32,
    sessions: usize,
    check_bundle: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: top [--vps N] [--sessions N] [--check-bundle PATH]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { vps: DEFAULT_VPS, sessions: DEFAULT_SESSIONS, check_bundle: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--vps" => args.vps = value("--vps").parse::<u32>().unwrap_or_else(|_| usage()).max(1),
            "--sessions" => {
                args.sessions =
                    value("--sessions").parse::<usize>().unwrap_or_else(|_| usage()).max(1)
            }
            "--check-bundle" => args.check_bundle = Some(value("--check-bundle")),
            _ => usage(),
        }
    }
    args
}

/// The CI mode: load a dumped post-mortem and verify it is self-contained.
fn check_bundle(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("top: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_bundle(&text) {
        Ok(()) => {
            println!(
                "top: {path} is a well-formed {} bundle ({} bytes)",
                sigmavp_obs::BUNDLE_SCHEMA,
                text.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("top: {path} is not a valid post-mortem bundle: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.check_bundle {
        return check_bundle(path);
    }

    let telemetry = sigmavp_telemetry::install();
    let recorder = FlightRecorder::new();
    recorder.attach(telemetry);

    let registry: KernelRegistry = VectorAddApp { n: 256 }.kernels().into_iter().collect();
    let config = FleetConfig::new(args.sessions).with_capacity((args.vps as usize * 4).max(64));
    let fleet = match Fleet::new(config, registry) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("top: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut scripts: Vec<(VpId, VpScript)> =
        (0..args.vps).map(|vp| (VpId(vp), VpScript::vector_add(2048, 2, vp as u64))).collect();
    for (vp, _) in &scripts {
        if let Err(e) = fleet.admit(*vp) {
            eprintln!("top: admit {vp:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let total: u64 = scripts.iter().map(|(_, s)| s.jobs_total()).sum();
    let kill = args.sessions > 1;
    let driven = drive_with(&fleet, &mut scripts, |fleet, admitted| {
        if admitted % 32 == 0 {
            recorder.sample();
        }
        if kill && admitted == total / 2 {
            fleet.kill_session(0).expect("session 0 exists");
        }
    });
    if let Err(e) = driven {
        eprintln!("top: {e}");
        return ExitCode::FAILURE;
    }
    let view = fleet.observability(&telemetry);
    let outcome = fleet.shutdown();
    recorder.sample();

    // --- The dashboard. -------------------------------------------------------
    let counter = |name: &str| view.metrics.counter(name).unwrap_or(0);
    println!(
        "sigmavp-top | {} session(s), {} vp(s) | depth {} | completed {} shed {} \
         steals {} migrations {} replayed {} | scalar-fallback ctas {} \
         (hazard {} fault {} budget {})",
        view.shards.len(),
        args.vps,
        view.depth,
        outcome.stats.completed,
        outcome.stats.shed,
        outcome.stats.steals,
        outcome.stats.migrations,
        outcome.stats.replayed_jobs,
        counter("sptx.warp.fallback_ctas"),
        counter("sptx.warp.fallback_ctas.hazard"),
        counter("sptx.warp.fallback_ctas.fault"),
        counter("sptx.warp.fallback_ctas.budget")
    );
    for shard in &view.shards {
        println!(
            "  s{} {} vps={} queue={} handoffs={} buffers={}",
            shard.index,
            if shard.alive { "up  " } else { "DOWN" },
            shard.vps,
            shard.queue_depth,
            shard.handoffs,
            shard.live_buffers
        );
    }
    let mut profiles = ProfileStore::new();
    for device in outcome.sessions.iter().flat_map(|session| &session.devices) {
        profiles.observe_records(&device.arch, &device.records);
    }
    let snapshot = profiles.snapshot();
    println!("profiles ({} updates over {} entries):", snapshot.updates, snapshot.entries());
    for (arch, s) in &snapshot.copies {
        println!(
            "  {arch:<24} copies={:<5} bytes={:<9} Tm/B ewma={:.3e} s (var {:.1e})",
            s.copies,
            s.bytes,
            s.tm_per_byte_s.ewma,
            s.tm_per_byte_s.variance()
        );
    }
    for ((arch, kernel), s) in &snapshot.kernels {
        println!(
            "  {arch}/{kernel:<12} launches={:<4} To ewma={:.3e} s Te/wave ewma={:.3e} s \
             align={:.2}",
            s.launches, s.launch_overhead_s.ewma, s.te_per_wave_s.ewma, s.alignment.mean
        );
    }
    match recorder.newest() {
        Some(newest) => {
            println!("newest snapshot #{} @ {:.3} s wall:", newest.index, newest.wall_s);
            print!("{}", summary_table(&newest.metrics));
        }
        None => println!("no snapshots taken"),
    }
    println!("snapshots: {} | incidents: {}", recorder.taken(), recorder.incidents().len());
    for bundle in recorder.bundles() {
        println!("post-mortem: {} ({} bytes)", bundle.name, bundle.json.len());
    }

    sigmavp_telemetry::uninstall();
    ExitCode::SUCCESS
}
