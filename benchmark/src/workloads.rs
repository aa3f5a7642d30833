//! The six workloads: what each is made of, how it is set up, and the timed
//! region. Why each exists is recorded in `BENCHMARK.json` and the README.
//!
//! All load is closed-loop: a guest blocks on every GPU call, as in the paper.
//! The seed drives script data, the VP→app order and the RPC payloads — never
//! the amount of work; the program under test only ever sees the generated
//! inputs.

use std::time::Instant;

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::host::{JobRecord, RecordKind};
use sigmavp_fleet::{Fleet, FleetConfig, FleetError, VpScript};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Response, VpId};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sched::Policy;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{
    BlackScholesApp, MandelbrotApp, MatrixMulApp, NbodyApp, VectorAddApp,
};

use crate::probe::{now_ns, GuestLog, Op, Probed, Repeat, RpcApp, Sample, Sink};

pub const NAMES: [&str; 6] =
    ["compute_w1", "compute_w2", "fleet_s1", "fleet_s2", "coalesce_sync", "rpc_roundtrip"];

/// Elements per vector in the scripted fleet and the coalescing VPs.
const VECTOR_ELEMS: u32 = 1024;

/// How much work one run of a workload is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Suite-app scale of the compute fleet.
    pub compute_scale: u32,
    pub fleet_vps: u32,
    pub fleet_rounds: u32,
    /// Iterations of each app in `coalesce_sync`.
    pub coalesce_iters: u32,
    pub rpc_iters: u32,
}

impl Size {
    /// The measured size: every timed region lasts 1–3 s on a 2-core host.
    pub const FULL: Size = Size {
        compute_scale: 16,
        fleet_vps: 256,
        fleet_rounds: 32,
        coalesce_iters: 100,
        rpc_iters: 2000,
    };
    /// `--smoke`: every code path, a fraction of the work.
    pub const SMOKE: Size = Size {
        compute_scale: 2,
        fleet_vps: 256,
        fleet_rounds: 2,
        coalesce_iters: 4,
        rpc_iters: 100,
    };
    /// The warm-up inside set-up: fills the decode cache and starts the
    /// worker pool, then is thrown away. Tens of milliseconds each, so that
    /// `setup_s` is long enough to time.
    pub const WARMUP: Size =
        Size { compute_scale: 1, fleet_vps: 64, fleet_rounds: 2, coalesce_iters: 1, rpc_iters: 50 };
}

/// What a run did, beyond how long it took. Everything here is a pure
/// function of (workload, size, seed): the determinism guard compares these
/// bit for bit across repeats and between traced and untraced runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Facts {
    /// Requests the runtime served.
    pub requests: u64,
    /// Bytes moved by recorded host↔device copies.
    pub copy_bytes: u64,
    /// Simulated device makespan (simulated time, not host time).
    pub sim_makespan_s: f64,
    pub sync_windows: u64,
    pub coalesced_groups: u64,
    pub coalesced_members: u64,
    /// Summed simulated makespan of the sync windows as planned live, and of
    /// the same windows under the reorder-only plan.
    pub sim_sync_makespan_s: f64,
    pub sim_sync_reorder_makespan_s: f64,
    pub fleet_steals: u64,
    pub fleet_migrations: u64,
}

impl Facts {
    /// The paper's coalescing gain: reorder-only over live-planned window
    /// makespan; 0 where no window was held.
    pub fn sim_coalesce_gain(&self) -> f64 {
        if self.sim_sync_makespan_s > 0.0 {
            self.sim_sync_reorder_makespan_s / self.sim_sync_makespan_s
        } else {
            0.0
        }
    }

    /// `(name, value)` of every field, for the guard and the report.
    pub fn fields(&self) -> [(&'static str, f64); 10] {
        [
            ("count.requests", self.requests as f64),
            ("count.copy_bytes", self.copy_bytes as f64),
            ("sim_makespan_s", self.sim_makespan_s),
            ("count.sync_windows", self.sync_windows as f64),
            ("count.coalesced_groups", self.coalesced_groups as f64),
            ("count.coalesced_members", self.coalesced_members as f64),
            ("sim_sync_makespan_s", self.sim_sync_makespan_s),
            ("sim_sync_reorder_makespan_s", self.sim_sync_reorder_makespan_s),
            ("count.fleet.steals", self.fleet_steals as f64),
            ("count.fleet.migrations", self.fleet_migrations as f64),
        ]
    }
}

/// Extra timestamps a traced fleet run takes inside each request.
#[derive(Debug, Clone, Copy)]
pub struct FleetCallSplit {
    pub submit_ns: u32,
    pub wait_ns: u32,
}

/// The outcome of one timed region.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub wall_s: f64,
    pub facts: Facts,
    /// Requests the guests issued.
    pub attempted: u64,
    /// VP errors + sheds + requests issued but never served.
    pub failed: u64,
    pub errors: Vec<String>,
    pub guests: Vec<GuestLog>,
    /// Fleet only: when each round ended (process clock, ns).
    pub round_ends_ns: Vec<u64>,
    pub start_ns: u64,
    /// Traced fleet runs only, parallel to the samples of guest 0.
    pub fleet_splits: Vec<FleetCallSplit>,
}

impl RunOutput {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.guests.iter().flat_map(|g| g.calls.iter())
    }
}

fn copy_bytes<'a>(records: impl Iterator<Item = &'a JobRecord>) -> u64 {
    records
        .map(|r| match r.kind {
            RecordKind::H2d { bytes, .. } | RecordKind::D2h { bytes, .. } => bytes,
            RecordKind::Kernel { .. } => 0,
        })
        .sum()
}

// --- Dispatched workloads -----------------------------------------------------

/// The guests of a dispatched workload, in VP order, and the policy they run
/// under. `None` for the fleet workloads.
pub fn dispatched_spec(
    name: &str,
    size: Size,
    seed: u64,
) -> Option<(Vec<Box<dyn Application + Send>>, Policy)> {
    let rotate = |mut apps: Vec<Box<dyn Application + Send>>| {
        let by = seed as usize % apps.len();
        apps.rotate_left(by);
        apps
    };
    match name {
        "compute_w1" | "compute_w2" => {
            let s = size.compute_scale;
            let apps: Vec<Box<dyn Application + Send>> = vec![
                Box::new(MandelbrotApp::new(s)),
                Box::new(MatrixMulApp::new(s)),
                Box::new(NbodyApp::new(s)),
                Box::new(MandelbrotApp::new(s)),
            ];
            let workers = if name == "compute_w1" { 1 } else { 2 };
            Some((rotate(apps), Policy::Fifo.with_workers(workers)))
        }
        "coalesce_sync" => {
            let n = u64::from(VECTOR_ELEMS);
            let apps = (0..8)
                .map(|i| -> Box<dyn Application + Send> {
                    let inner: Box<dyn Application + Send> = if i % 2 == 0 {
                        Box::new(VectorAddApp { n })
                    } else {
                        Box::new(BlackScholesApp { n, ..BlackScholesApp::new(1) })
                    };
                    Box::new(Repeat { inner, times: size.coalesce_iters })
                })
                .collect();
            Some((rotate(apps), Policy::MultiplexedOptimized.with_workers(1).with_sync_hold(true)))
        }
        "rpc_roundtrip" => {
            let app = RpcApp { iterations: size.rpc_iters, seed };
            Some((vec![Box::new(app)], Policy::Fifo.with_workers(1)))
        }
        _ => None,
    }
}

pub fn registry_of(apps: &[Box<dyn Application + Send>]) -> KernelRegistry {
    apps.iter().flat_map(|app| app.kernels()).collect()
}

struct DispatchedRun {
    sys: DispatchedSigmaVp,
    apps: Vec<Box<dyn Application + Send>>,
    sink: Sink,
}

fn prepare_dispatched(name: &str, size: Size, seed: u64) -> DispatchedRun {
    let (apps, policy) = dispatched_spec(name, size, seed).expect("a dispatched workload");
    let sys = DispatchedSigmaVp::single(
        GpuArch::quadro_4000(),
        registry_of(&apps),
        TransportCost::shared_memory(),
    )
    .with_policy(policy);
    DispatchedRun { sys, apps, sink: Sink::default() }
}

impl DispatchedRun {
    /// The timed region: first `spawn` → `join` returned.
    fn run(self) -> RunOutput {
        let DispatchedRun { mut sys, apps, sink } = self;
        let start_ns = now_ns();
        let started = Instant::now();
        for app in apps {
            sys.spawn(Probed::wrap(app, &sink));
        }
        let (report, stats) = sys.join();
        let wall_s = started.elapsed().as_secs_f64();

        let mut guests = std::mem::take(&mut *sink.lock().expect("VP threads have joined"));
        guests.sort_by_key(|g| g.vp);
        let attempted: u64 = guests.iter().map(|g| g.calls.len() as u64).sum();
        let errors: Vec<String> =
            report.failed_vps.iter().map(|(vp, e)| format!("{vp}: {e}")).collect();
        RunOutput {
            wall_s,
            facts: Facts {
                requests: stats.requests,
                copy_bytes: copy_bytes(report.records.iter()),
                sim_makespan_s: report.device_makespan_s,
                sync_windows: stats.sync_windows,
                coalesced_groups: stats.live_groups,
                coalesced_members: stats.live_members,
                sim_sync_makespan_s: stats.sync_makespan_s,
                sim_sync_reorder_makespan_s: stats.sync_reorder_makespan_s,
                ..Facts::default()
            },
            attempted,
            failed: errors.len() as u64 + attempted.saturating_sub(stats.requests),
            errors,
            guests,
            start_ns,
            ..RunOutput::default()
        }
    }
}

// --- Fleet workloads ------------------------------------------------------------

/// Sessions (shards) of a fleet workload; `None` for the dispatched ones.
pub fn fleet_sessions(name: &str) -> Option<usize> {
    match name {
        "fleet_s1" => Some(1),
        "fleet_s2" => Some(2),
        _ => None,
    }
}

pub fn fleet_registry() -> KernelRegistry {
    VectorAddApp { n: u64::from(VECTOR_ELEMS) }.kernels().into_iter().collect()
}

/// The script VP `vp` runs in `round`: 1–4 launches by VP id (skewed, so that
/// consistent-hash placement leaves an imbalance for the rebalancer to fix)
/// over seeded data. The seed never changes how much work there is: launch
/// counts decide placement balance, and with it steals and migrations.
pub fn fleet_script(vp: u32, round: u32, seed: u64) -> VpScript {
    let data_seed =
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(round) << 32 | u64::from(vp));
    VpScript::vector_add(VECTOR_ELEMS, 1 + vp % 4, data_seed)
}

pub fn op_of(request: &sigmavp_ipc::message::Request) -> Op {
    use sigmavp_ipc::message::Request;
    match request {
        Request::Malloc { .. } => Op::Malloc,
        Request::Free { .. } => Op::Free,
        Request::MemcpyH2D { .. } => Op::H2d,
        Request::MemcpyD2H { .. } => Op::D2h,
        Request::Launch { .. } => Op::Launch,
        Request::Synchronize => Op::Sync,
    }
}

struct FleetRun {
    fleet: Fleet,
    size: Size,
    seed: u64,
}

fn prepare_fleet(sessions: usize, size: Size, seed: u64) -> Result<FleetRun, String> {
    // One outstanding request per VP and capacity for all of them: never sheds.
    let config =
        FleetConfig::new(sessions).with_capacity(size.fleet_vps as usize).with_steal_interval(64);
    let fleet = Fleet::new(config, fleet_registry()).map_err(|e| e.to_string())?;
    for vp in 0..size.fleet_vps {
        fleet.admit(VpId(vp)).map_err(|e| e.to_string())?;
    }
    Ok(FleetRun { fleet, size, seed })
}

impl FleetRun {
    /// The timed region: first `submit` → last `wait` returned. One driver
    /// thread plays every guest in wavefront order (one request per VP per
    /// pass, ascending VP), so the admission sequence — and with it every
    /// steal and migration — is a pure function of the scripts. Unlike
    /// `sigmavp_fleet::drive` it collects each script's final response, so the
    /// same admitted VPs can run a fresh script next round.
    fn run(self, traced: bool) -> RunOutput {
        let FleetRun { fleet, size, seed } = self;
        let vps = size.fleet_vps as usize;
        let mut out = RunOutput::default();
        let mut calls: Vec<Sample> = Vec::new();
        let mut seqs = vec![0u32; vps];
        let (mut sheds, mut accepted) = (0u64, 0u64);
        out.start_ns = now_ns();
        let started = Instant::now();
        'rounds: for round in 0..size.fleet_rounds {
            let mut scripts: Vec<VpScript> =
                (0..vps).map(|vp| fleet_script(vp as u32, round, seed)).collect();
            // Per VP: the request in flight as (op, submit began, submit returned).
            let mut in_flight: Vec<Option<(Op, u64, u64)>> = vec![None; vps];
            let mut last: Vec<Option<Response>> = vec![None; vps];
            loop {
                let mut idle = true;
                for vp in 0..vps {
                    if let Some((op, start_ns, submitted_ns)) = in_flight[vp].take() {
                        idle = false;
                        let wait_start_ns = if traced { now_ns() } else { 0 };
                        match fleet.wait(VpId(vp as u32)) {
                            Ok((envelope, _)) => last[vp] = Some(envelope.body),
                            Err(e) => {
                                out.errors.push(format!("vp{vp}: wait: {e}"));
                                break 'rounds;
                            }
                        }
                        let end_ns = now_ns();
                        calls.push(Sample { vp: vp as u32, seq: seqs[vp], op, start_ns, end_ns });
                        seqs[vp] += 1;
                        if traced {
                            out.fleet_splits.push(FleetCallSplit {
                                submit_ns: (submitted_ns - start_ns) as u32,
                                wait_ns: (end_ns - wait_start_ns) as u32,
                            });
                        }
                    }
                    if scripts[vp].is_done() {
                        continue;
                    }
                    idle = false;
                    let request = match scripts[vp].next(last[vp].take().as_ref()) {
                        Ok(Some(request)) => request,
                        Ok(None) => continue,
                        Err(e) => {
                            out.errors.push(format!("vp{vp}: {e}"));
                            break 'rounds;
                        }
                    };
                    let op = op_of(&request);
                    let start_ns = now_ns();
                    loop {
                        out.attempted += 1;
                        match fleet.submit(VpId(vp as u32), request.clone()) {
                            Ok(_) => {
                                accepted += 1;
                                break;
                            }
                            Err(FleetError::Saturated { .. }) => {
                                sheds += 1;
                                std::thread::sleep(std::time::Duration::from_micros(50));
                            }
                            Err(e) => {
                                out.errors.push(format!("vp{vp}: submit: {e}"));
                                break 'rounds;
                            }
                        }
                    }
                    in_flight[vp] = Some((op, start_ns, if traced { now_ns() } else { 0 }));
                }
                if idle {
                    break;
                }
            }
            out.round_ends_ns.push(now_ns());
        }
        out.wall_s = started.elapsed().as_secs_f64();

        let outcome = fleet.shutdown();
        out.facts = Facts {
            requests: outcome.stats.completed,
            copy_bytes: copy_bytes(
                outcome.sessions.iter().flat_map(|s| &s.devices).flat_map(|d| &d.records),
            ),
            sim_makespan_s: outcome.makespan_s(),
            fleet_steals: outcome.stats.steals,
            fleet_migrations: outcome.stats.migrations,
            ..Facts::default()
        };
        out.failed =
            out.errors.len() as u64 + sheds + accepted.saturating_sub(outcome.stats.completed);
        let end_ns = now_ns();
        out.guests = vec![GuestLog { vp: 0, start_ns: out.start_ns, end_ns, calls }];
        out
    }
}

// --- One entry point ------------------------------------------------------------

/// A system that is set up and ready: calling it is the timed region. The
/// argument turns on the extra per-request timestamps of a traced fleet run.
pub type TimedRegion = Box<dyn FnOnce(bool) -> RunOutput>;

/// Build the system for `name` at `size`. Assembling kernels, the registry,
/// the runtime and VP admission all happen here, so they count as set-up.
pub fn prepare(name: &str, size: Size, seed: u64) -> Result<TimedRegion, String> {
    match fleet_sessions(name) {
        Some(sessions) => {
            let run = prepare_fleet(sessions, size, seed)?;
            Ok(Box::new(move |traced| run.run(traced)))
        }
        None if NAMES.contains(&name) => {
            let run = prepare_dispatched(name, size, seed);
            Ok(Box::new(move |_| run.run()))
        }
        None => Err(format!("unknown workload `{name}` (known: {})", NAMES.join(", "))),
    }
}
