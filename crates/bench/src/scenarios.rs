//! The audit's scenario table: what `--bin audit` runs, what every run must
//! satisfy, and which gate keys it feeds.
//!
//! * [`Planned`] rows plan a synthetic job log through the real scheduling
//!   pipeline and audit one of the paper's equations against the resulting
//!   timeline (Eq. 7 makespan, Eq. 8 speedup bound, Eq. 9 merged launch).
//! * [`Live`] rows run a dispatched fleet **twice** and require the two
//!   [window ledgers](DispatchStats::window_ledger) to be identical, every
//!   guest to validate, and the row's own `expect` to hold. A row with a fault
//!   plan runs fault-free first — that run calibrates the plan — and under
//!   the plan second; the ledger must not notice.
//!
//! Rows name their gate keys statically, so a unit test holds them (with
//! [`SESSION_KEYS`]) against the committed baseline without running anything:
//! a scenario cannot silently drop out of the gate.

use sigmavp::dispatcher::{DispatchStats, DispatchedSigmaVp};
use sigmavp::host::{JobRecord, RecordKind};
use sigmavp::session::DeviceOutcome;
use sigmavp::threaded::ThreadedReport;
use sigmavp::{plan_device, DevicePlan, FaultPlan, Pipeline, Policy, RetryPolicy};
use sigmavp_fault::LinkFaultConfig;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_obs::{
    device_critical_path, eq7_makespan_s, eq8_speedup_bound, eq9_merged_kernel_s, join_lifecycles,
    observed_inputs, residual_frac, CriticalPath, JobLifecycle, ProfileStore,
};
use sigmavp_telemetry::Telemetry;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{CopyStream, StaggeredAdd, VectorAddApp};

/// Seed of every fault plan in the table — the only one the committed
/// baseline is valid for.
pub const FAULT_SEED: u64 = 42;

/// The host GPU every row runs on.
pub fn arch() -> GpuArch {
    GpuArch::quadro_4000()
}

/// One gate row: the baseline key, and how to read its value off a finished
/// run of the scenario that owns it.
pub type Gate<R> = (&'static str, fn(&R) -> f64);

/// One hard check on a live row's second run: what must hold, and whether it
/// does.
pub type Check = (&'static str, fn(&LiveRun) -> bool);

/// A finished run's gate rows, evaluated.
pub fn gate_values<R>(gates: &[Gate<R>], run: &R) -> Vec<(String, f64)> {
    gates.iter().map(|(key, read)| (key.to_string(), read(run))).collect()
}

/// Gate keys measured over the whole audit session rather than by one row:
/// trace-ring drops, profile-store ingest and the flight recorder's ledger.
pub const SESSION_KEYS: [&str; 6] = [
    "trace.dropped_events",
    "obs.profile_updates",
    "obs.profile_entries",
    "obs.snapshots",
    "obs.incidents",
    "obs.postmortems",
];

// --- Planned rows. -----------------------------------------------------------

/// A deterministic scenario: a job log planned by the policy's pipeline.
pub struct Planned {
    /// Scenario name (`BENCH_audit.json` `scenarios.<name>`).
    pub name: &'static str,
    /// The job log to plan.
    pub records: Vec<JobRecord>,
    /// The policy whose pipeline plans it.
    pub policy: Policy,
    /// Whether the log's kernels may be coalesced.
    pub coalescible: bool,
    /// Name of the equation this row audits in the model report.
    pub model: &'static str,
    /// That equation's `(predicted, measured)`, both observed from the run.
    pub audit: fn(&PlannedRun) -> Result<(f64, f64), String>,
    /// What the row feeds the gate.
    pub gates: &'static [Gate<PlannedRun>],
}

/// A planned row's result and its observability views.
pub struct PlannedRun {
    /// The row that ran.
    pub row: Planned,
    /// The `--inject-slowdown` factor applied to every measured duration.
    pub slowdown: f64,
    /// The pipeline's plan.
    pub plan: DevicePlan,
    /// Planned makespan × `slowdown`.
    pub makespan_s: f64,
    /// The device's critical path (verified to tile `[0, makespan]`).
    pub path: CriticalPath,
    /// Per-job lifecycles joined from the plan's trace events (one per job).
    pub lifecycles: Vec<JobLifecycle>,
    /// The audited equation's prediction…
    pub predicted: f64,
    /// …and the measurement it is held against.
    pub measured: f64,
}

fn record(vp: u32, seq: u64, kind: RecordKind, duration_s: f64) -> JobRecord {
    JobRecord { vp: VpId(vp), seq, kind, duration_s, sent_at_s: 0.0 }
}

fn kernel(waves: u64) -> RecordKind {
    RecordKind::Kernel {
        name: "k".into(),
        grid_dim: 8,
        block_dim: 128,
        launch_overhead_s: arch().launch_overhead_us * 1e-6,
        waves,
        stream: 0,
    }
}

/// N copy-in → kernel → copy-out programs (the Fig. 9 fleet pattern).
fn fleet_records(n: u32, tm_s: f64, tk_s: f64) -> Vec<JobRecord> {
    (0..n)
        .flat_map(|vp| {
            [
                record(vp, 0, RecordKind::H2d { bytes: 4096, stream: 0 }, tm_s),
                record(vp, 1, kernel(1), tk_s),
                record(vp, 2, RecordKind::D2h { bytes: 4096, stream: 0 }, tm_s),
            ]
        })
        .collect()
}

/// N single-kernel programs launching the identical kernel — every launch is
/// coalescible into one merged op.
fn coalescible_records(n: u32, wave_s: f64) -> Vec<JobRecord> {
    let waves = 8u64.div_ceil(u64::from(arch().blocks_per_wave(128))).max(1);
    let duration_s = arch().launch_overhead_us * 1e-6 + waves as f64 * wave_s;
    (0..n).map(|vp| record(vp, 0, kernel(waves), duration_s)).collect()
}

/// Eq. 9 `(predicted, measured)` for a coalesced log: To and Te from the member
/// records (Te = per-wave compute time), ξ = the merged grid, λ from the
/// device, against the merged anchor op's span on the timeline.
fn eq9_audit(run: &PlannedRun) -> Result<(f64, f64), String> {
    let group = (run.plan.stream.groups.first())
        .ok_or("coalesce6 produced no merge group — coalescing is broken")?;
    let (mut xi, mut sum_compute, mut sum_waves, mut to_s) = (0u64, 0.0f64, 0u64, 0.0f64);
    for r in &run.row.records {
        if let RecordKind::Kernel { grid_dim, launch_overhead_s, waves, .. } = &r.kind {
            xi += u64::from(*grid_dim);
            to_s = *launch_overhead_s;
            sum_waves += *waves;
            sum_compute += (r.duration_s - launch_overhead_s).max(0.0);
        }
    }
    let te_s = if sum_waves > 0 { sum_compute / sum_waves as f64 } else { 0.0 };
    let lambda = u64::from(arch().blocks_per_wave(128));
    let span = (run.plan.timeline.span(group.anchor.0))
        .ok_or("merged anchor op missing from the coalesce6 timeline")?;
    Ok((eq9_merged_kernel_s(to_s, te_s, xi, lambda), (span.end_s - span.start_s) * run.slowdown))
}

impl PlannedRun {
    /// Relative residual of the audited equation.
    pub fn residual_frac(&self) -> f64 {
        residual_frac(self.predicted, self.measured)
    }

    /// Synchronous serialization of the log: the plain duration sum (as in
    /// Fig. 9 — every blocking call queues behind the previous one).
    pub fn serial_s(&self) -> f64 {
        self.row.records.iter().map(|r| r.duration_s).sum()
    }
}

impl Planned {
    /// **async4** — a 4-VP copy-in → kernel → copy-out fleet under
    /// earliest-start interleaving, audited against Eq. 7
    /// (`T = 2·Tm + N·max(Tm, Tk)`).
    pub fn async4() -> Self {
        Planned {
            name: "async4",
            records: fleet_records(4, 1e-4, 2e-4),
            policy: Policy::Fifo,
            coalescible: false,
            model: "eq7",
            audit: |run| {
                let inputs = observed_inputs(&run.row.records);
                Ok((eq7_makespan_s(inputs.n, inputs.tm_s, inputs.tk_s), run.makespan_s))
            },
            gates: &[
                ("async4.makespan_s", |r| r.makespan_s),
                ("async4.overlap_fraction", |r| r.plan.timeline.overlap_fraction()),
                ("async4.eq7_residual_frac", PlannedRun::residual_frac),
                ("async4.critical_path_stall_s", |r| r.path.stall_s().max(0.0)),
            ],
        }
    }

    /// **speedup4** — the same fleet at `Tm = Tk`; the speedup over
    /// synchronous serialization is audited against the Eq. 8 bound
    /// `3N/(N+2)`.
    pub fn speedup4() -> Self {
        Planned {
            name: "speedup4",
            records: fleet_records(4, 1.5e-4, 1.5e-4),
            policy: Policy::Fifo,
            coalescible: false,
            model: "eq8",
            audit: |run| Ok((eq8_speedup_bound(4), run.serial_s() / run.makespan_s)),
            gates: &[
                ("speedup4.serial_makespan_s", PlannedRun::serial_s),
                ("speedup4.async_makespan_s", |r| r.makespan_s),
                ("speedup4.measured_speedup", |r| r.measured),
                ("speedup4.eq8_residual_frac", PlannedRun::residual_frac),
            ],
        }
    }

    /// **coalesce6** — six VPs launching the identical kernel; the merged
    /// launch Kernel Coalescing emits is audited against Eq. 9
    /// (`T = To + Te·⌈ξ/λ⌉`).
    pub fn coalesce6() -> Self {
        Planned {
            name: "coalesce6",
            records: coalescible_records(6, 5e-5),
            policy: Policy::MultiplexedOptimized,
            coalescible: true,
            model: "eq9",
            audit: eq9_audit,
            gates: &[
                ("coalesce6.makespan_s", |r| r.makespan_s),
                ("coalesce6.eq9_residual_frac", PlannedRun::residual_frac),
                ("coalesce6.merged_members", |r| r.plan.coalesced_members() as f64),
            ],
        }
    }

    /// The three planned rows.
    pub fn all() -> Vec<Self> {
        vec![Self::async4(), Self::speedup4(), Self::coalesce6()]
    }

    /// Plan the log and derive its observability views; verifies that the
    /// critical path tiles `[0, makespan]` and the lifecycle join covers every
    /// job, then evaluates the audited equation.
    pub fn run(self, slowdown: f64) -> Result<PlannedRun, String> {
        let (name, records) = (self.name, &self.records);
        let pipeline = Pipeline::from_policy(&self.policy);
        let plan = plan_device(&pipeline, records, &|_| self.coalescible, &arch());
        let outcome = DeviceOutcome { arch: arch(), records: records.clone(), plan };
        let path = device_critical_path(&outcome);
        if !path.is_conserved(1e-9) {
            return Err(format!(
                "{name}: critical path NOT conserved: busy {:.6e} + stall {:.6e} != makespan {:.6e}",
                path.busy_s(),
                path.stall_s(),
                path.makespan_s
            ));
        }
        let plan = outcome.plan;
        let lifecycles = join_lifecycles(&plan.trace_events(records));
        if lifecycles.len() != records.len() {
            return Err(format!(
                "{name}: lifecycle join covered {} of {} jobs",
                lifecycles.len(),
                records.len()
            ));
        }
        let makespan_s = plan.timeline.makespan_s * slowdown;
        let audit = self.audit;
        let mut run = PlannedRun {
            row: self,
            slowdown,
            plan,
            makespan_s,
            path,
            lifecycles,
            predicted: 0.0,
            measured: 0.0,
        };
        (run.predicted, run.measured) = audit(&run)?;
        Ok(run)
    }
}

// --- Live rows. --------------------------------------------------------------

/// A live scenario: guests on a dispatched fleet, run twice.
#[derive(Clone, Copy)]
pub struct Live {
    /// Scenario name.
    pub name: &'static str,
    /// Identical host GPUs behind the dispatcher.
    pub gpus: usize,
    /// The dispatch policy.
    pub policy: Policy,
    /// The guests, one VP each (built afresh for each of the two runs).
    pub guests: fn() -> Vec<Box<dyn Application + Send>>,
    /// The second run's fault plan, calibrated from the first (fault-free)
    /// run's simulated end time.
    pub faults: Option<fn(f64) -> FaultPlan>,
    /// The row's own hard checks on the second run.
    pub expect: &'static [Check],
    /// What the row feeds the gate.
    pub gates: &'static [Gate<LiveRun>],
}

/// One finished run of a [`Live`] row.
pub struct LiveRun {
    /// The row that ran.
    pub row: Live,
    /// The dispatcher's ledger.
    pub stats: DispatchStats,
    /// Outcomes and job logs.
    pub report: ThreadedReport,
    /// Guest-side request retries during the run (`fault.retries`, as a
    /// snapshot delta so earlier runs cannot contaminate it): the one gated
    /// quantity neither the ledger nor the report carries.
    pub retries: u64,
}

fn adds(guests: &[(u64, u32, u64, u64, u64)]) -> Vec<Box<dyn Application + Send>> {
    guests
        .iter()
        .map(|&(n, launches, pre_ms, mid_ms, post_ms)| {
            Box::new(StaggeredAdd { n, launches, pre_ms, mid_ms, post_ms }) as Box<_>
        })
        .collect()
}

fn vector_adds() -> Vec<Box<dyn Application + Send>> {
    (0..4).map(|_| Box::new(VectorAddApp { n: 2048 }) as Box<_>).collect()
}

impl Live {
    /// **chaos** — 4 VPs on 2 host GPUs over a lossy, delaying link, GPU 1
    /// killed 40 % into the calibrated run. Every request must execute exactly
    /// once on the survivor; the seed-determined fault story is gated. The
    /// retry policy's short receive timeout keeps dropped frames cheap, its
    /// deep attempt budget makes run failure effectively impossible at these
    /// fault rates.
    pub fn chaos() -> Self {
        Live {
            name: "chaos",
            gpus: 2,
            policy: Policy::Fifo.with_retry(RetryPolicy {
                max_attempts: 6,
                timeout_us: 5_000,
                backoff_base_us: 100,
                backoff_factor: 2,
                jitter_pct: 25,
            }),
            guests: vector_adds,
            faults: Some(|end_s| {
                FaultPlan::seeded(FAULT_SEED)
                    .with_link(LinkFaultConfig::lossy(0.05, 0.03).with_delay(0.04, 50e-6))
                    .with_outage(1, 0.4 * end_s)
            }),
            expect: &[("every job executes exactly once", |run| {
                let jobs: std::collections::HashSet<(u32, u64)> =
                    run.report.records.iter().map(|r| (r.vp.0, r.seq)).collect();
                run.report.records.len() == 4 * 4 && jobs.len() == 4 * 4
            })],
            gates: &[
                ("chaos.makespan_s", |r| r.report.device_makespan_s),
                ("chaos.fault_retries", |r| r.retries as f64),
                ("chaos.replayed_jobs", |r| r.stats.replayed_jobs as f64),
                ("chaos.gpu_trips", |r| r.stats.gpu_trips as f64),
                ("chaos.migrations", |r| r.stats.migrations as f64),
            ],
        }
    }

    /// **sync** — 4 VPs issue the identical synchronous `vector_add` under
    /// stop/resume `sync_hold`: all four are parked, the held window is
    /// planned with the full pipeline and resumed in planned completion
    /// order.
    pub fn sync() -> Self {
        Live {
            name: "sync",
            gpus: 1,
            policy: Policy::MultiplexedOptimized.with_sync_hold(true),
            guests: vector_adds,
            faults: None,
            expect: &[
                ("windows are held", |r| r.stats.holds > 0 && r.stats.sync_windows > 0),
                ("launches coalesce live", |r| r.stats.live_groups > 0),
                ("the live plan beats reorder-only", |r| {
                    r.stats.sync_makespan_s < r.stats.sync_reorder_makespan_s
                }),
            ],
            gates: &[
                ("sync.holds", |r| r.stats.holds as f64),
                ("sync.windows", |r| r.stats.sync_windows as f64),
                ("sync.live_groups", |r| r.stats.live_groups as f64),
                ("sync.live_members", |r| r.stats.live_members as f64),
                // A stop is a held launch; the key predates that.
                ("sync.stop_events", |r| r.stats.holds as f64),
                ("sync.makespan_s", |r| r.stats.sync_makespan_s),
                ("sync.reorder_makespan_s", |r| r.stats.sync_reorder_makespan_s),
            ],
        }
    }

    /// **quorum** — two VPs under `sync_quorum(0.5)` (threshold 1): the
    /// prompt VP's held launch flushes alone the moment it arrives, and the
    /// 60 ms-late VP's launch rolls into its own quorum window (the first VP
    /// lingers connected so the denominator stays 2).
    pub fn quorum() -> Self {
        Live {
            name: "quorum",
            gpus: 1,
            policy: Policy::MultiplexedOptimized.with_sync_hold(true).sync_quorum(0.5),
            guests: || adds(&[(2048, 1, 0, 0, 250), (2048, 1, 60, 0, 0)]),
            faults: None,
            expect: &[
                ("2 holds flush as 2 partial windows, none by timeout", |r| {
                    let s = &r.stats;
                    (s.holds, s.sync_windows, s.quorum_flushes, s.timeout_flushes) == (2, 2, 2, 0)
                }),
                ("no VP is degraded", |r| r.stats.quarantined + r.stats.deadline_misses == 0),
            ],
            gates: &[
                ("sync.quorum.holds", |r| r.stats.holds as f64),
                ("sync.quorum.windows", |r| r.stats.sync_windows as f64),
                ("sync.quorum.partial_flushes", |r| r.stats.quorum_flushes as f64),
                ("sync.quorum.makespan_s", |r| r.stats.sync_makespan_s),
            ],
        }
    }

    /// **timeout** — one sync VP behind a copies-only companion under
    /// lockstep quorum (unreachable: the companion never holds) and a 1 µs
    /// simulated window timeout.
    pub fn timeout() -> Self {
        Live {
            name: "timeout",
            gpus: 1,
            policy: Policy::MultiplexedOptimized.with_sync_hold(true).with_sync_timeout_us(1),
            guests: || {
                let mut guests = adds(&[(2048, 2, 0, 0, 0)]);
                guests.push(Box::new(CopyStream { iterations: 600 }));
                guests
            },
            faults: None,
            expect: &[("both launches flush by the timeout, never by quorum", |r| {
                let s = &r.stats;
                (s.holds, s.sync_windows, s.timeout_flushes, s.quorum_flushes) == (2, 2, 2, 0)
            })],
            gates: &[
                ("liveness.timeout_windows", |r| r.stats.sync_windows as f64),
                ("liveness.timeout_flushes", |r| r.stats.timeout_flushes as f64),
            ],
        }
    }

    /// **hang** — two VPs on two host GPUs with the watchdog armed
    /// (`hang_windows(2)`): after a first full-house window, one VP wedges for
    /// 900 ms of wall time mid-run. The other VP's held launch freezes
    /// simulated time, so only the wall-clock stall backstop can fire: it
    /// quarantines the sleeper (failing its journal over to the other device
    /// and dumping the `vp_hung` post-mortem that becomes
    /// `BENCH_postmortem.json`), the survivor finishes solo over the shrunken
    /// quorum, and the sleeper rejoins on wake and completes.
    pub fn hang() -> Self {
        Live {
            name: "hang",
            gpus: 2,
            policy: Policy::MultiplexedOptimized.with_sync_hold(true).with_hang_windows(2),
            guests: || adds(&[(1024, 3, 0, 0, 0), (1024, 2, 0, 900, 0)]),
            faults: None,
            expect: &[
                ("exactly one VP is quarantined by the backstop and rejoins", |r| {
                    (r.stats.quarantined, r.stats.rejoins, r.stats.backstop_trips) == (1, 1, 1)
                }),
                ("5 holds flush over 4 windows", |r| {
                    (r.stats.holds, r.stats.sync_windows) == (5, 4)
                }),
                ("the quarantine fails the VP over", |r| r.stats.migrations >= 1),
            ],
            gates: &[
                ("liveness.hang_holds", |r| r.stats.holds as f64),
                ("liveness.hang_windows_flushed", |r| r.stats.sync_windows as f64),
                ("liveness.hang_backstop_trips", |r| r.stats.backstop_trips as f64),
                ("liveness.hang_quarantined", |r| r.stats.quarantined as f64),
                ("liveness.hang_rejoins", |r| r.stats.rejoins as f64),
            ],
        }
    }

    /// The five live rows, in the order `audit` runs them.
    pub fn all() -> Vec<Self> {
        vec![Self::chaos(), Self::sync(), Self::quorum(), Self::timeout(), Self::hang()]
    }

    /// One run of the fleet, optionally under a fault plan.
    pub fn run_once(&self, telemetry: Telemetry, plan: Option<FaultPlan>) -> LiveRun {
        let guests = (self.guests)();
        let registry: KernelRegistry = guests.iter().flat_map(|g| g.kernels()).collect();
        let mut sys = DispatchedSigmaVp::new(
            vec![arch(); self.gpus],
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(self.policy);
        if let Some(plan) = plan {
            sys = sys.with_faults(plan);
        }
        for guest in guests {
            sys.spawn(guest);
        }
        let retries = || telemetry.snapshot().counter("fault.retries").unwrap_or(0);
        let before = retries();
        let (report, stats) = sys.join();
        LiveRun { row: *self, stats, report, retries: retries().saturating_sub(before) }
    }

    /// The second run's fault plan, calibrated from the fault-free `first`
    /// run's simulated end time (`None`: the row runs fault-free twice).
    pub fn calibrated(&self, first: &LiveRun) -> Option<FaultPlan> {
        let end_s = first.report.outcomes.iter().map(|o| o.simulated_time_s).fold(0.0, f64::max);
        self.faults.map(|calibrated| calibrated(end_s))
    }

    /// Run the row twice — fault-free, then under its calibrated plan if it
    /// has one — fold both runs' job logs into `profiles`, and return the
    /// second run. Fails unless, in both runs, every guest validated, nobody
    /// was left stopped and no device executed a job while the plan had it
    /// down; the two window ledgers are identical; and every `expect` row
    /// holds.
    pub fn run(
        &self,
        telemetry: Telemetry,
        profiles: &mut ProfileStore,
    ) -> Result<LiveRun, String> {
        let fail = |run: &LiveRun, what: &str| {
            format!("{} scenario: {what}: {:?} {:?}", self.name, run.stats, run.report.outcomes)
        };
        let vet = |run: &LiveRun| {
            if !run.report.all_ok() {
                return Err(fail(run, "a guest failed validation"));
            }
            if run.stats.holds != run.stats.resume_events {
                return Err(fail(run, "a VP was left stopped"));
            }
            Ok(())
        };
        let first = self.run_once(telemetry, None);
        vet(&first)?;
        profiles.observe_records(&arch(), &first.report.records);
        let plan = self.calibrated(&first);
        let second = self.run_once(telemetry, plan.clone());
        vet(&second)?;
        profiles.observe_records(&arch(), &second.report.records);
        let ran_while_down = plan.is_some_and(|plan| {
            (second.report.device_records.iter().enumerate())
                .any(|(d, jobs)| jobs.iter().any(|r| plan.device_down(d, r.sent_at_s)))
        });
        if ran_while_down {
            return Err(fail(&second, "a job executed on a dead gpu"));
        }
        if first.stats.window_ledger() != second.stats.window_ledger() {
            return Err(format!(
                "{} scenario: the window ledger diverges across its two runs: {:?} vs {:?}",
                self.name, first.stats, second.stats
            ));
        }
        match self.expect.iter().find(|(_, holds)| !holds(&second)) {
            Some((what, _)) => Err(fail(&second, &format!("expected that {what}"))),
            None => Ok(second),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chaos_row_gates_the_same_values_on_every_run() {
        // The outage fails a request over by its simulated stamp, never by
        // which VP's request happens to reach the core first.
        let telemetry = sigmavp_telemetry::install();
        let chaos = Live::chaos();
        let gates = || -> Vec<f64> {
            let run = chaos.run(telemetry, &mut ProfileStore::new()).expect("chaos row");
            chaos.gates.iter().map(|(_, read)| read(&run)).collect()
        };
        let first = gates();
        for _ in 1..5 {
            assert_eq!(gates(), first);
        }
        sigmavp_telemetry::uninstall();
    }

    #[test]
    fn the_table_gates_exactly_the_committed_baseline_keys() {
        let (planned, live) = (Planned::all(), Live::all());
        let keys: Vec<&str> = (planned.iter().flat_map(|row| row.gates.iter().map(|g| g.0)))
            .chain(live.iter().flat_map(|row| row.gates.iter().map(|g| g.0)))
            .chain(SESSION_KEYS)
            .collect();
        let unique: std::collections::BTreeSet<&str> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "duplicate gate key in {keys:?}");

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines/audit.json");
        let text = std::fs::read_to_string(path).expect("committed baseline readable");
        let baseline = sigmavp_obs::parse_flat_json(&text).expect("committed baseline parses");
        let committed: std::collections::BTreeSet<&str> =
            baseline.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(committed.len(), 40);
        assert_eq!(unique, committed, "a scenario dropped out of (or into) the gate");
    }
}
