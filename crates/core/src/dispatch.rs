//! The one dispatch core: the host-side state machine of the paper's Fig. 2
//! (Job Queue → Re-scheduler → dispatcher → VP Control, Fig. 4), with no
//! transport and no clock of its own. VP Control is the held window: a VP is
//! stopped exactly while the core holds its synchronous launch
//! ([`DispatchCore::offer`] returns `true`), and resumed by the delivery that
//! answers it ([`Delivery::resume`]).
//!
//! [`DispatchCore`] owns everything between "a decoded request arrived" and "a
//! response is ready": effect-once dedup, in-flight and deadline triage, the
//! pending async window (executed in arrival order), held synchronous
//! launches and the full → quorum → timeout window trigger, cross-VP planning
//! of a flushed window, execution with failover, journaling and handle
//! translation, the hung-VP watchdog, and the ledger ([`DispatchStats`]). It
//! never touches an endpoint: every answer comes back as a [`Delivery`] for
//! the *driver* to hand over. Two drivers exist — the caller-runs pump of
//! [`DispatchedSigmaVp`](crate::dispatcher::DispatchedSigmaVp) (whichever
//! guest thread brought a request sweeps the transports, `offer`s each frame,
//! `turn`s and sends) and each shard thread of `sigmavp-fleet` (pop
//! the inbox, `offer`, `turn`, complete at the front) — so both run literally
//! the same decisions.
//!
//! Every decision reads simulated time only. The one wall clock in the design,
//! the [`STALL_WALL_BACKSTOP`], belongs to the driver: when it expires the
//! driver calls [`DispatchCore::on_stall`], which makes the watchdog testable
//! without sleeping.
//!
//! # Fault tolerance
//!
//! The core is the supervision point of the fault model (DESIGN.md §10): it
//! injects a [`FaultPlan`]'s transient device errors and honours its scheduled
//! outages, and recovers through three cooperating mechanisms:
//!
//! * **effect-once dedup** — guest retries reuse the request's sequence
//!   number; the last *executed* response per VP is cached and re-delivered
//!   on a duplicate instead of re-executing, so a lost response never
//!   double-applies a kernel or memcpy;
//! * **failover** — per-device circuit breakers trip after consecutive
//!   failures; VPs on a dead device move to a survivor (planned by the
//!   [`Rebalance`] pass in a sync flush, the first one on the async path),
//!   their device state rebuilt by [`Residency::relocate`];
//! * **liveness** — partial-quorum and sim-time-timeout window flushing,
//!   end-to-end deadlines, and quarantine of VPs that stop progressing
//!   (DESIGN.md §15).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use sigmavp_fault::{CircuitBreaker, FaultPlan, Relocation, Residency, TRANSIENT_ERROR_PREFIX};
use sigmavp_gpu::engine::simulate;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId};
use sigmavp_ipc::queue::Job;
use sigmavp_sched::{
    quorum_met, quorum_threshold, DeviceView, PassCtx, Pipeline, Policy, Rebalance,
};
use sigmavp_telemetry::{job_uid, IncidentKind, Lane, TimeDomain};
use sigmavp_vp::error::{format_deadline_violation, DeadlineStage};

use crate::host::{HostRuntime, JobRecord, RecordKind};
use crate::plan::{lower_jobs, records_to_jobs, EngineEvaluator};
use crate::session::ExecutionSession;

/// How long a driver lets a held sync window sit without any arrival before
/// calling [`DispatchCore::on_stall`]. The only wall clock in the dispatch
/// path, and only consulted while [`DispatchCore::stall_armed`]: simulated
/// time cannot advance on its own when the VP that would advance it is
/// wedged, so liveness needs one real clock.
pub const STALL_WALL_BACKSTOP: Duration = Duration::from_millis(500);

/// Statistics from one dispatch core's run: the one place a dispatch count is
/// kept. Telemetry sees them only through [`DispatchStats::counts`], published
/// as deltas at the end of every turn and just before every incident.
///
/// The sync-window side of the ledger is a function of the window algebra
/// alone and repeats bit for bit across same-configuration runs; the request
/// and pending-window counts and the four driver fields depend on thread
/// timing. [`DispatchStats::window_ledger`] is the one definition of which is
/// which.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DispatchStats {
    /// Requests served.
    pub requests: u64,
    /// Turns whose async window held more than one job.
    pub multi_job_windows: u64,
    /// Largest pending window observed.
    pub max_window: usize,
    /// Duplicate requests answered from the dedup cache instead of re-executed.
    pub dedup_hits: u64,
    /// VP migrations performed (failover off a dead device or load-triggered).
    pub migrations: u64,
    /// Journal entries those migrations replayed onto their targets.
    pub replayed_jobs: u64,
    /// Migrations whose journal replay the target rejected.
    pub replay_failures: u64,
    /// Host GPUs taken out of service (scheduled outage or tripped breaker).
    pub gpu_trips: u64,
    /// Device operations the fault plan failed on purpose (transient errors).
    pub injected_transients: u64,
    /// Synchronous launches held for a stop/resume window (Fig. 4b).
    pub holds: u64,
    /// Synchronous windows planned and flushed.
    pub sync_windows: u64,
    /// Merge groups the live sync planner found (coalesce plus wave-pack).
    pub live_groups: u64,
    /// Member launches those live groups absorbed.
    pub live_members: u64,
    /// Deliveries marked [`Delivery::resume`]: a held launch answered, its VP
    /// released. Equals `holds` after [`DispatchCore::close`].
    pub resume_events: u64,
    /// Wave slots (λ-aligned block quanta) the live merged launches occupied.
    pub wave_slots: u64,
    /// Blocks actually launched into those slots; `wave_slots - wave_filled`
    /// is the Eq. 9 alignment residual, zero for perfectly packed windows.
    pub wave_filled: u64,
    /// Summed Eq. 7 makespan of the executed sync windows under the live plan.
    pub sync_makespan_s: f64,
    /// The same windows priced under the reorder-only (no cross-VP merging)
    /// plan — the async baseline the live path must beat.
    pub sync_reorder_makespan_s: f64,
    /// Partial windows flushed because the hold quorum was met before every
    /// eligible VP was held (`Policy::sync_quorum` below 1.0).
    pub quorum_flushes: u64,
    /// Windows flushed because the sim-time window timeout expired before
    /// any quorum was reached (`Policy::sync_window_timeout`).
    pub timeout_flushes: u64,
    /// Wall-clock stall-backstop trips: every unheld VP went silent while a
    /// window sat held, so the silent VPs were quarantined and the window
    /// released (only armed when the watchdog is on).
    pub backstop_trips: u64,
    /// VPs quarantined by the hung-VP watchdog (removed from the quorum
    /// denominator and failed over to a healthy placement).
    pub quarantined: u64,
    /// Quarantined VPs that showed fresh activity and rejoined the quorum.
    pub rejoins: u64,
    /// Requests refused at the admission, hold, or plan boundary because
    /// their end-to-end deadline had expired (guest-side execute-boundary
    /// misses surface as typed errors, not here).
    pub deadline_misses: u64,
    /// Request frames picked up by a pump session running on the sending
    /// VP's own thread — no hand-off. The four driver fields are filled by
    /// the dispatcher's caller-runs driver only and depend on thread timing
    /// ([`DispatchStats::window_ledger`] leaves them out).
    pub inline_requests: u64,
    /// Request frames picked up by another thread's pump session because the
    /// pump was busy when their VP kicked.
    pub combined_requests: u64,
    /// Pump rounds run: endpoint sweep, one core turn, deliveries. An idle
    /// system runs none.
    pub pump_rounds: u64,
    /// Times the driver's timer thread woke: a VP left, the stall backstop or
    /// a delayed frame came due.
    pub timer_wakeups: u64,
}

impl DispatchStats {
    /// Every count the registry carries, under its one metric name: the only
    /// place these names are written. A fleet's shard cores all publish under
    /// the same names, so the registry holds their sum.
    pub fn counts(&self) -> [(&'static str, u64); 21] {
        [
            ("dispatch.multi_job_windows", self.multi_job_windows),
            ("fault.dedup_hits", self.dedup_hits),
            ("fault.migrations", self.migrations),
            ("fault.replayed_jobs", self.replayed_jobs),
            ("fault.replay_failures", self.replay_failures),
            ("fault.gpu_trips", self.gpu_trips),
            ("fault.injected.transient", self.injected_transients),
            ("dispatch.sync.holds", self.holds),
            ("dispatch.sync.windows", self.sync_windows),
            ("dispatch.sync.live_groups", self.live_groups),
            ("dispatch.sync.live_members", self.live_members),
            ("dispatch.sync.quorum_flushes", self.quorum_flushes),
            ("dispatch.sync.timeout_flushes", self.timeout_flushes),
            ("liveness.backstop_trips", self.backstop_trips),
            ("liveness.quarantined", self.quarantined),
            ("liveness.rejoins", self.rejoins),
            ("liveness.deadline_misses", self.deadline_misses),
            ("dispatch.driver.inline", self.inline_requests),
            ("dispatch.driver.combined", self.combined_requests),
            ("dispatch.driver.rounds", self.pump_rounds),
            ("dispatch.driver.timer_wakeups", self.timer_wakeups),
        ]
    }

    /// The sync-window ledger that is byte-identical across same-configuration
    /// runs: every hold, window and liveness count, and the two simulated
    /// makespans as bits. Left out because they follow thread timing:
    /// `requests`, `dedup_hits`, `multi_job_windows`, `max_window` and the
    /// four `dispatch.driver.*` fields (the fault counts, `migrations` to
    /// `injected_transients`, are seed-determined only under a calibrated
    /// fault plan, so they stay out too).
    pub fn window_ledger(&self) -> [u64; 15] {
        [
            self.holds,
            self.sync_windows,
            self.live_groups,
            self.live_members,
            self.resume_events,
            self.wave_slots,
            self.wave_filled,
            self.quorum_flushes,
            self.timeout_flushes,
            self.backstop_trips,
            self.quarantined,
            self.rejoins,
            self.deadline_misses,
            self.sync_makespan_s.to_bits(),
            self.sync_reorder_makespan_s.to_bits(),
        ]
    }
}

/// One answer the core produced, for the driver to hand to the VP.
#[derive(Debug)]
pub struct Delivery {
    /// The request being answered, handed back so a driver that keeps
    /// guest-side books (the fleet front's journal) needs no copy of its own.
    pub request: Envelope,
    /// The response.
    pub response: ResponseEnvelope,
    /// The VP was stopped while this request sat in a sync window: resume it
    /// once the response is on its way (Fig. 4b).
    pub resume: bool,
}

/// Everything one [`DispatchCore::turn`] (or `on_stall` / `close`) produced.
#[derive(Debug, Default)]
pub struct Turn {
    /// Responses, in delivery order (a flushed window: planned completion
    /// order).
    pub deliveries: Vec<Delivery>,
    /// VPs the watchdog quarantined, for drivers that gate admission on it.
    pub quarantined: Vec<VpId>,
}

/// Whether `request` is a synchronous launch that `policy` parks in a
/// stop/resume window instead of answering on arrival.
pub fn holds_launch(policy: &Policy, request: &Request) -> bool {
    policy.sync_hold && matches!(request, Request::Launch { sync: true, .. })
}

/// The one relocation path: move `vp`'s device state onto `target` by
/// replaying its journal there, then free what the move left behind — the
/// buffers on `source` (`None` when that placement is out of service and
/// cannot be asked) and whatever a rejected replay stranded on `target` — so a
/// VP's buffers only ever live on its current placement. `label` names the
/// target in the trace (`replay …`).
pub fn relocate_between(
    residency: &mut Residency,
    vp: VpId,
    source: Option<&Mutex<HostRuntime>>,
    target: &Mutex<HostRuntime>,
    label: &str,
) -> Relocation {
    let moved = residency.relocate(replay_onto(&mut target.lock(), vp, label));
    if let Some(source) = source {
        release(&mut source.lock(), vp, &moved.departed);
    }
    release(&mut target.lock(), vp, &moved.stranded);
    moved
}

/// A journal-replay target: executes each replayed request on `runtime`
/// without recording it as a job, and stitches the work onto the *original*
/// job's uid so its lifecycle joins into one migration-tagged causal chain.
fn replay_onto<'a>(
    runtime: &'a mut HostRuntime,
    vp: VpId,
    label: &'a str,
) -> impl FnMut(u64, &Request) -> Response + 'a {
    let recorder = sigmavp_telemetry::recorder();
    move |orig_seq, request| {
        let started_wall_s = recorder.wall_now_s();
        let body = runtime.process_replay(&unrecorded(vp, orig_seq, request.clone())).body;
        if recorder.enabled() {
            recorder.span_for_job(
                TimeDomain::Wall,
                Lane::Dispatcher,
                format!("replay {label}"),
                started_wall_s,
                recorder.wall_now_s() - started_wall_s,
                job_uid(vp.0, orig_seq),
            );
        }
        body
    }
}

/// Free `handles` on `runtime` on `vp`'s behalf: like a replay, neither a
/// request nor a recorded job.
fn release(runtime: &mut HostRuntime, vp: VpId, handles: &[u64]) {
    for &handle in handles {
        runtime.process_replay(&unrecorded(vp, 0, Request::Free { handle }));
    }
}

/// The error answer to `request`.
fn error_reply(request: &Envelope, message: String) -> ResponseEnvelope {
    let body = Response::Error { message };
    ResponseEnvelope { vp: request.vp, seq: request.seq, sent_at_s: request.sent_at_s, body }
}

/// The envelope of a request the guest never sent as such: no send time, no
/// deadline.
fn unrecorded(vp: VpId, seq: u64, body: Request) -> Envelope {
    Envelope { vp, seq, sent_at_s: 0.0, deadline_s: Envelope::NO_DEADLINE, body }
}

/// One accepted, not yet answered request — the same record whether it waits
/// in the async window or is a synchronous launch held while its VP is
/// stopped (Fig. 4b).
struct Pending {
    envelope: Envelope,
    /// Expected device time, priced only where it is read: a held launch's
    /// window is planned on it, and the plan boundary projects a deadlined
    /// request's completion with it. Zero otherwise.
    expected_s: f64,
    /// When it arrived (collector wall clock; zero without a recorder): feeds
    /// the queue-wait and latency metrics only.
    wall_s: f64,
}

impl Pending {
    /// The canonical window-ordering key.
    fn key(&self) -> (u32, u64) {
        (self.envelope.vp.0, self.envelope.seq)
    }
}

/// Everything the core knows about one VP.
#[derive(Default)]
struct VpRecord {
    /// Counts toward the sync quorum: it can still produce a launch.
    member: bool,
    quarantined: bool,
    /// Its launches may merge in a sync window.
    coalescible: bool,
    /// Flushed-window count at its last sign of life; a member
    /// `hang_windows` behind is quarantined until it speaks again.
    last_activity_flush: u64,
    /// Journal and handle translation, for failover replay.
    residency: Residency,
    /// Effect-once: the last *executed* response, resent when the guest
    /// retries its sequence number. Guests are synchronous, so one slot
    /// suffices; injected transient errors are never stored, so the retry
    /// after one reaches the device again.
    answered: Option<ResponseEnvelope>,
    /// Accepted but not yet answered: a delayed duplicate of it is dropped.
    in_flight: Option<u64>,
}

/// Everything the core knows about one host GPU.
#[derive(Clone)]
struct DeviceRecord {
    breaker: CircuitBreaker,
    /// The trip has been noticed (counted and announced) already; the
    /// device is out of service for relocations and quarantine targets.
    down_noticed: bool,
    /// Attempted operations; indexes the plan's transient schedule.
    op_count: u64,
    /// Simulated time the device frees up after prior sync windows.
    free_s: f64,
}

/// The async window is the paper's Job Queue: its depth as a wall-clock
/// counter track on the job-queue lane.
fn record_queue_depth(recorder: &sigmavp_telemetry::Recorder, depth: usize) {
    recorder.counter_event(
        TimeDomain::Wall,
        Lane::JobQueue,
        "queue depth",
        recorder.wall_now_s(),
        depth as f64,
    );
}

/// `window` leaves the job queue: the dequeue count, each job's queue wait,
/// and the depth back at zero.
fn record_dequeue(window: &[Pending]) {
    let recorder = sigmavp_telemetry::recorder();
    if recorder.enabled() && !window.is_empty() {
        recorder.count("jobs.dequeued", window.len() as u64);
        let now_s = recorder.wall_now_s();
        for p in window {
            recorder.observe_s("queue.wait_s", (now_s - p.wall_s).max(0.0));
        }
        record_queue_depth(&recorder, 0);
    }
}

/// Trace-span name for a dispatched request; control requests are named as
/// zero-byte copies.
fn dispatch_span_name(envelope: &Envelope) -> String {
    let vp = envelope.vp.0;
    match &envelope.body {
        Request::MemcpyH2D { data, .. } => format!("h2d {}B (VP {vp})", data.len()),
        Request::MemcpyD2H { len, .. } => format!("d2h {len}B (VP {vp})"),
        Request::Launch { kernel, .. } => format!("{kernel} (VP {vp})"),
        _ => format!("h2d 0B (VP {vp})"),
    }
}

/// Synthetic [`JobRecord`] for a held (not yet executed) launch on `arch`, so
/// the live window can be planned with the same engine-model oracle as
/// offline logs ([`records_to_jobs`] turns it into the scheduler's `Job`). The
/// expected duration stands in for an observed one.
fn synth_record(h: &Pending, arch: &GpuArch) -> JobRecord {
    let Envelope { vp, seq, sent_at_s, ref body, .. } = h.envelope;
    let Request::Launch { kernel, grid_dim, block_dim, .. } = body else {
        unreachable!("only synchronous launches are held");
    };
    let bpw = u64::from(arch.blocks_per_wave(*block_dim));
    let kind = RecordKind::Kernel {
        name: kernel.clone(),
        grid_dim: *grid_dim,
        block_dim: *block_dim,
        launch_overhead_s: arch.launch_overhead_us * 1e-6,
        waves: u64::from(*grid_dim).div_ceil(bpw).max(1),
        stream: 0,
    };
    JobRecord { vp, seq, kind, duration_s: h.expected_s, sent_at_s }
}

/// The core's records — one per host GPU, one per VP — with the ledger and
/// the recovery actions over them. A struct of its own so those actions can
/// run while the session lock, a borrow of the core, is held.
struct Supervision {
    plan: Option<Arc<FaultPlan>>,
    stats: DispatchStats,
    /// The ledger as the registry last saw it (`None`: never published).
    published: Option<DispatchStats>,
    /// Indexed by device.
    devices: Vec<DeviceRecord>,
    /// Ordered rather than dense — VP ids are the caller's choice — so every
    /// observable iteration (quorum ties, quarantine order) is ascending.
    vps: BTreeMap<VpId, VpRecord>,
}

impl Supervision {
    fn new(plan: Option<Arc<FaultPlan>>, devices: usize, coalescible: HashMap<VpId, bool>) -> Self {
        let threshold = plan
            .as_ref()
            .map_or(sigmavp_fault::plan::DEFAULT_BREAKER_THRESHOLD, |p| p.breaker_threshold());
        let breaker = CircuitBreaker::new(threshold);
        let device = DeviceRecord { breaker, down_noticed: false, op_count: 0, free_s: 0.0 };
        let vp = |(vp, coalescible)| (vp, VpRecord { coalescible, ..VpRecord::default() });
        Supervision {
            plan,
            stats: DispatchStats::default(),
            published: None,
            devices: vec![device; devices],
            vps: coalescible.into_iter().map(vp).collect(),
        }
    }

    /// Add each count's change since the last publish to the registry (with
    /// a recorder installed): at the end of every turn, and before every
    /// incident so a post-mortem carries the count of its own trigger.
    fn publish(&mut self) {
        let recorder = sigmavp_telemetry::recorder();
        if recorder.enabled() {
            recorder
                .count_changes(&self.stats.counts(), self.published.map(|p| p.counts()).as_ref());
            self.published = Some(self.stats);
        }
    }

    /// `(vp, seq)` has its answer, or was handed back unexecuted: lift the
    /// in-flight guard, unless it has moved on to a newer request.
    fn clear_in_flight(&mut self, vp: VpId, seq: u64) {
        if let Some(record) = self.vps.get_mut(&vp).filter(|r| r.in_flight == Some(seq)) {
            record.in_flight = None;
        }
    }

    /// Is `device` out of service for a request stamped at `sim_s`?
    fn is_down(&self, session: &ExecutionSession, device: usize, sim_s: f64) -> bool {
        !session.is_healthy(device)
            || self.devices[device].breaker.is_open()
            || self.plan.as_ref().is_some_and(|p| p.device_down(device, sim_s))
    }

    /// The migrations the [`Rebalance`] pass plans for the sync window `jobs`
    /// over a view of per-device health and queued load: off dead devices,
    /// and off overloaded ones.
    fn plan_migrations(&self, session: &ExecutionSession, jobs: Vec<Job>) -> Vec<(VpId, usize)> {
        let mut queued = vec![0.0f64; session.device_count()];
        for job in &jobs {
            if let Some(d) = session.device_of(job.vp) {
                queued[d] += job.expected_duration_s;
            }
        }
        let route = |vp: VpId| session.device_of(vp);
        let down_for = |d: usize, t: f64| self.is_down(session, d, t);
        let view = DeviceView { queued_s: &queued, route: &route, down_for: &down_for };
        let rebalance = Pipeline::new().with_pass(Rebalance);
        rebalance.plan(jobs, &PassCtx::reorder_only().with_devices(&view)).migrations
    }

    /// Notice that `device` is out of service and publish the trip exactly
    /// once. A breaker tripped by transient errors takes the device out of
    /// routing for good. A scheduled outage does not: the device stays down
    /// only for requests stamped inside the outage
    /// ([`FaultPlan::device_down`]), so which requests fail over follows their
    /// simulated stamps, not the order they happen to reach the core.
    fn mark_down(&mut self, session: &mut ExecutionSession, device: usize) {
        let record = &mut self.devices[device];
        if record.breaker.is_open() {
            session.mark_down(device);
        }
        if record.down_noticed {
            return;
        }
        record.down_noticed = true;
        self.stats.gpu_trips += 1;
        self.publish();
        // Incident hook: an attached flight recorder dumps a post-mortem here.
        sigmavp_telemetry::recorder().incident(IncidentKind::BreakerTrip { device }, || {
            format!(
                "device gpu{device} out of service; {} of {} in routing",
                session.healthy_count(),
                session.device_count()
            )
        });
    }

    /// Failover: take `vp`'s current device out of service, then relocate the
    /// VP onto `target`.
    fn fail_over(&mut self, session: &mut ExecutionSession, vp: VpId, target: usize) {
        if let Some(current) = session.device_of(vp).filter(|&current| current != target) {
            self.mark_down(session, current);
            self.relocate(session, vp, target);
        }
    }

    /// Move `vp` onto `target` without touching the source device's health (a
    /// load-triggered rebalance moves VPs between *live* devices): rebuild its
    /// device state there through [`relocate_between`] — which frees the
    /// buffers on the source unless that device is out of service — and
    /// switch routing.
    fn relocate(&mut self, session: &mut ExecutionSession, vp: VpId, target: usize) {
        let Some(current) = session.device_of(vp).filter(|&current| current != target) else {
            return;
        };
        let recorder = sigmavp_telemetry::recorder();
        let started_wall_s = recorder.wall_now_s();
        let source = (!self.devices[current].down_noticed).then(|| session.runtime(current));
        let moved = relocate_between(
            &mut self.vps.entry(vp).or_default().residency,
            vp,
            source.as_deref(),
            &session.runtime(target),
            &format!("-> gpu{target}"),
        );
        if moved.failed {
            self.stats.replay_failures += 1;
        } else {
            self.stats.replayed_jobs += moved.replayed as u64;
        }
        session.reassign(vp, target);
        self.stats.migrations += 1;
        recorder.span(
            TimeDomain::Wall,
            Lane::Dispatcher,
            format!("migrate VP {} -> gpu{target}", vp.0),
            started_wall_s,
            recorder.wall_now_s() - started_wall_s,
        );
    }

    /// Quarantine `vp` out of the sync quorum: publish a
    /// [`IncidentKind::VpHung`] incident — an installed flight recorder dumps
    /// a postmortem bundle on it — and fail the VP's journal over to the
    /// least-loaded healthy *other* device, so when (if) the VP wakes its
    /// state is already off the placement it wedged on.
    fn quarantine(&mut self, session: &mut ExecutionSession, vp: VpId, idle_windows: u64) {
        self.vps.entry(vp).or_default().quarantined = true;
        self.stats.quarantined += 1;
        self.publish();
        let current = session.device_of(vp);
        sigmavp_telemetry::recorder().incident(IncidentKind::VpHung { vp: vp.0 }, || {
            format!(
                "VP {} stopped progressing for {idle_windows} flushed windows on gpu{}; \
                 quarantined out of the sync quorum",
                vp.0,
                current.map_or(-1i64, |d| d as i64),
            )
        });
        // Least simulated backlog, ties to the lowest index. Single-device
        // sessions keep the placement; quarantine still shrinks the quorum.
        let target = (0..session.device_count())
            .filter(|&d| {
                current.is_some_and(|current| d != current) && !self.devices[d].down_noticed
            })
            .min_by(|&a, &b| self.devices[a].free_s.total_cmp(&self.devices[b].free_s));
        if let Some(target) = target {
            self.relocate(session, vp, target);
        }
    }
}

/// The transport-agnostic, clock-free dispatch state machine. See the module
/// docs; drivers call [`offer`](Self::offer) for each arrival, then
/// [`turn`](Self::turn), and hand the returned deliveries over.
pub struct DispatchCore {
    /// The device set, shared with whoever else routes VPs onto it (the fleet
    /// front). Locked only to resolve devices and to relocate; never while a
    /// request executes.
    session: Arc<Mutex<ExecutionSession>>,
    pipeline: Pipeline,
    policy: Policy,
    /// Journal executed requests: a fault plan or sync windows may relocate a
    /// VP mid-run, and replay needs its history — on a session with a second
    /// device to relocate to.
    journal: bool,
    sup: Supervision,
    /// The async window: requests accepted since the last turn, in arrival
    /// order.
    pending: Vec<Pending>,
    /// Held sync launches (at most one per stopped VP), in canonical
    /// `(vp, seq)` order.
    held: Vec<Pending>,
    /// The profiler feedback loop: last observed duration per kernel name.
    expected_kernel_s: HashMap<String, f64>,
    /// Sync windows flushed so far: the watchdog's clock.
    flush_count: u64,
    /// Max simulated timestamp on any arrival — the deterministic clock the
    /// window timeout and the hold deadline run on.
    sim_now: f64,
    out: Turn,
}

impl DispatchCore {
    /// A core executing on `session` under `policy`, injecting `faults` (if
    /// any). `coalescible` marks the VPs whose launches may merge in a sync
    /// window; absent VPs are not coalescible.
    pub fn new(
        session: Arc<Mutex<ExecutionSession>>,
        policy: &Policy,
        faults: Option<Arc<FaultPlan>>,
        coalescible: HashMap<VpId, bool>,
    ) -> Self {
        let devices = session.lock().device_count();
        DispatchCore {
            session,
            pipeline: Pipeline::from_policy(policy),
            policy: *policy,
            journal: (faults.is_some() || policy.sync_hold) && devices > 1,
            sup: Supervision::new(faults, devices, coalescible),
            pending: Vec::new(),
            held: Vec::new(),
            expected_kernel_s: HashMap::new(),
            flush_count: 0,
            sim_now: 0.0,
            out: Turn::default(),
        }
    }

    /// The ledger so far.
    pub fn stats(&self) -> &DispatchStats {
        &self.sup.stats
    }

    /// The ledger, for a driver to add its own counts
    /// ([`DispatchStats::inline_requests`] and the rest of the driver's four);
    /// they are published with the next turn.
    pub(crate) fn ledger_mut(&mut self) -> &mut DispatchStats {
        &mut self.sup.stats
    }

    /// `vp` counts toward the sync quorum from now on (it connected, was
    /// readmitted, or migrated here); lifts a quarantine.
    pub fn join(&mut self, vp: VpId) {
        let record = self.sup.vps.entry(vp).or_default();
        record.member = true;
        record.quarantined = false;
        record.last_activity_flush = self.flush_count;
    }

    /// `vp` can no longer produce a launch here (it disconnected, retired, or
    /// migrated away): windows stop waiting for it.
    pub fn leave(&mut self, vp: VpId) {
        if let Some(record) = self.sup.vps.get_mut(&vp) {
            record.member = false;
        }
    }

    /// Whether the driver's stall clock should run: launches are parked, the
    /// watchdog is on, and only a wall-clock timeout can tell a wedged fleet
    /// from a slow one.
    pub fn stall_armed(&self) -> bool {
        self.policy.hang_windows > 0 && !self.held.is_empty()
    }

    /// Accept one decoded request: duplicates of an executed request are
    /// answered from the VP's record, duplicates of a pending one ignored,
    /// requests already past their deadline refused; a synchronous launch
    /// under sync-hold is parked for the next window, anything else queued
    /// for the next [`turn`](Self::turn). Returns `true` when the request was
    /// parked: its VP is stopped (Fig. 4b) until the delivery marked `resume`
    /// comes back.
    pub fn offer(&mut self, envelope: Envelope) -> bool {
        let recorder = sigmavp_telemetry::recorder();
        let (vp, seq) = (envelope.vp, envelope.seq);
        self.sim_now = self.sim_now.max(envelope.sent_at_s);
        // Any arrival is proof of life. A quarantined VP that speaks again
        // rejoins the quorum — its late launch rolls into the next window.
        let record = self.sup.vps.entry(vp).or_default();
        record.last_activity_flush = self.flush_count;
        if std::mem::take(&mut record.quarantined) {
            self.sup.stats.rejoins += 1;
        }
        if let Some(cached) = record.answered.as_ref().filter(|cached| cached.seq == seq) {
            // Effect-once: this request already executed but its response was
            // lost in flight; resend the cached response without re-executing.
            self.sup.stats.dedup_hits += 1;
            let response = cached.clone();
            self.out.deliveries.push(Delivery { request: envelope, response, resume: false });
            return false;
        }
        if record.in_flight == Some(seq) {
            // A delayed duplicate of a request that is still pending.
            return false;
        }
        // Sequence numbers only grow, so the guard stays on the newest one
        // even if a stale frame of an older request turns up meanwhile.
        record.in_flight = record.in_flight.max(Some(seq));
        // Admission boundary: a request stamped past its own end-to-end
        // deadline (retries eat into the same budget) is refused before it
        // enters any queue.
        if envelope.has_deadline() && envelope.sent_at_s > envelope.deadline_s {
            let now_s = envelope.sent_at_s;
            self.refuse(envelope, DeadlineStage::Admission, now_s, false);
            return false;
        }
        let hold = holds_launch(&self.policy, &envelope.body);
        let expected_s =
            if hold || envelope.has_deadline() { self.expected_s(&envelope, hold) } else { 0.0 };
        let accepted = Pending { envelope, expected_s, wall_s: recorder.wall_now_s() };
        if hold {
            // Dedup and in-flight triage already ran, so a retry of an
            // executed or already-held request never holds twice. Holds are
            // placed by (vp, seq) as they land — arrival order races between
            // VP threads — so every window reads off a sorted slice and a
            // VP's launches can never interleave out of sequence order.
            self.sup.stats.holds += 1;
            let at = self.held.partition_point(|x| x.key() < accepted.key());
            self.held.insert(at, accepted);
            return true;
        }
        self.pending.push(accepted);
        if recorder.enabled() {
            recorder.count("jobs.enqueued", 1);
            record_queue_depth(&recorder, self.pending.len());
        }
        false
    }

    /// Expected device time of `envelope` on its VP's device: copies at the
    /// copy rate (control requests as zero-byte copies), kernels at their last
    /// observed duration (the profiler feedback loop; zero before a first
    /// run). A held launch is floored at its launch overhead, the fixed cost a
    /// merge saves.
    fn expected_s(&self, envelope: &Envelope, hold: bool) -> f64 {
        let mut session = self.session.lock();
        let device = session.assign(envelope.vp);
        let arch = session.arch(device);
        match &envelope.body {
            Request::MemcpyH2D { data, .. } => arch.copy_time_s(data.len() as u64),
            Request::MemcpyD2H { len, .. } => arch.copy_time_s(*len),
            Request::Launch { kernel, .. } => {
                // The profiler feedback loop, observed: a hit means a
                // previous launch of this kernel already taught the planner
                // its expected duration.
                let known = self.expected_kernel_s.get(kernel).copied();
                let metric = match known {
                    Some(_) => "profiler.feedback.hits",
                    None => "profiler.feedback.misses",
                };
                sigmavp_telemetry::recorder().count(metric, 1);
                let floor = if hold { arch.launch_overhead_us * 1e-6 } else { 0.0 };
                known.unwrap_or(0.0).max(floor)
            }
            _ => arch.copy_time_s(0),
        }
    }

    /// One scheduling round: execute everything pending in arrival order,
    /// flush a sync window if one is due, sweep the watchdog, publish the
    /// ledger — and return every response produced since the last call.
    pub fn turn(&mut self) -> Turn {
        self.run_pending();
        if let Some(window) = self.due_window() {
            self.flush(window);
            self.flush_count += 1;
            self.sweep_watchdog();
        }
        self.sup.publish();
        std::mem::take(&mut self.out)
    }

    /// The driver's stall clock expired while [`stall_armed`](Self::stall_armed):
    /// no arrival for [`STALL_WALL_BACKSTOP`] with launches parked means every
    /// unheld VP is wedged at once — simulated time is frozen, so neither the
    /// quorum nor the timeout can ever fire. Quarantine the silent VPs and run
    /// a [`turn`](Self::turn), whose full-house branch releases the window.
    pub fn on_stall(&mut self) -> Turn {
        if self.stall_armed() {
            let stuck: Vec<VpId> = self.eligible().filter(|v| !self.is_held(*v)).collect();
            if !stuck.is_empty() {
                self.sup.stats.backstop_trips += 1;
                self.quarantine_all(stuck);
            }
        }
        self.turn()
    }

    /// No more arrivals will come: execute what is pending and flush whatever
    /// is still held as a final window, so no accepted request is lost.
    pub fn close(&mut self) -> Turn {
        self.run_pending();
        if !self.held.is_empty() {
            let window = std::mem::take(&mut self.held);
            self.flush(window);
        }
        self.sup.publish();
        std::mem::take(&mut self.out)
    }

    /// The session died under this core: give back every accepted request it
    /// has not executed (queued first, then held, each in order) so the
    /// driver can re-home them.
    pub fn abandon(&mut self) -> Vec<Envelope> {
        record_dequeue(&self.pending);
        let orphans: Vec<Envelope> =
            self.pending.drain(..).chain(self.held.drain(..)).map(|p| p.envelope).collect();
        for envelope in &orphans {
            self.sup.clear_in_flight(envelope.vp, envelope.seq);
        }
        orphans
    }

    /// Non-quarantined members, ascending.
    fn eligible(&self) -> impl Iterator<Item = VpId> + '_ {
        self.sup.vps.iter().filter(|(_, r)| r.member && !r.quarantined).map(|(vp, _)| *vp)
    }

    /// Whether `vp` has a launch parked in the next sync window — the one
    /// definition of a stopped VP (Fig. 4b).
    pub(crate) fn is_held(&self, vp: VpId) -> bool {
        // `held` is sorted by (vp, seq), hence by vp.
        self.held.binary_search_by_key(&vp.0, |h| h.envelope.vp.0).is_ok()
    }

    fn quarantine_all(&mut self, vps: Vec<VpId>) {
        let mut session = self.session.lock();
        let idle_windows = u64::from(self.policy.hang_windows);
        for vp in vps {
            self.sup.quarantine(&mut session, vp, idle_windows);
            self.out.quarantined.push(vp);
        }
    }

    /// Refuse `envelope` with the structured deadline violation and release
    /// its in-flight guard.
    fn refuse(&mut self, envelope: Envelope, stage: DeadlineStage, now_s: f64, resume: bool) {
        self.sup.stats.deadline_misses += 1;
        self.sup.stats.resume_events += u64::from(resume);
        self.sup.clear_in_flight(envelope.vp, envelope.seq);
        let violation = format_deadline_violation(stage, envelope.deadline_s, now_s);
        let response = error_reply(&envelope, violation);
        self.out.deliveries.push(Delivery { request: envelope, response, resume });
    }

    /// Execute the pending window in arrival order. Kernel Interleaving
    /// (Fig. 4a) is an engine-overlap effect, priced where it is planned —
    /// each device log at the join and each held window at its flush — so
    /// nothing here reorders; a request whose device is down fails over in
    /// [`execute`](Self::execute).
    fn run_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut window = std::mem::take(&mut self.pending);
        record_dequeue(&window);
        if window.len() > 1 {
            self.sup.stats.multi_job_windows += 1;
        }
        self.sup.stats.max_window = self.sup.stats.max_window.max(window.len());
        for p in window.drain(..) {
            // Plan boundary: refuse device work whose *projected* completion
            // already overshoots its deadline, instead of burning device time
            // on it. Control requests never reach an engine; they are not
            // priced.
            let envelope = &p.envelope;
            let projected_s = envelope.sent_at_s + p.expected_s;
            let device_work = !matches!(
                envelope.body,
                Request::Malloc { .. } | Request::Free { .. } | Request::Synchronize
            );
            if device_work && envelope.has_deadline() && projected_s > envelope.deadline_s {
                self.refuse(p.envelope, DeadlineStage::Plan, projected_s, false);
                continue;
            }
            let response = self.execute(&p);
            self.sup.stats.requests += 1;
            self.sup.clear_in_flight(envelope.vp, envelope.seq);
            self.out.deliveries.push(Delivery { request: p.envelope, response, resume: false });
        }
        // Emptied, not dropped: the steady state allocates no window.
        self.pending = window;
    }

    /// Sync window triage, in precedence order:
    ///
    /// * *full* — every eligible (member, non-quarantined) VP has a held
    ///   launch: the window cannot grow, flush everything. With the default
    ///   knobs (quorum 100 %, no timeout, no watchdog) this is the only
    ///   branch and reproduces lockstep flushing exactly. Departures and
    ///   quarantines shrink the quorum, so a lone survivor still progresses.
    /// * *quorum* — a configured fraction < 100 % of eligible VPs is held:
    ///   flush exactly the threshold-sized selection with the earliest
    ///   `(sent_at, vp)` stamps — deterministic on simulated time and
    ///   starvation-free — and let late arrivals roll into the next window.
    /// * *timeout* — the window has been open longer (in simulated time) than
    ///   the configured limit: flush everything held rather than park VPs
    ///   behind a straggler indefinitely.
    fn due_window(&mut self) -> Option<Vec<Pending>> {
        if self.held.is_empty() {
            return None;
        }
        let eligible = self.eligible().count();
        if self.eligible().all(|v| self.is_held(v)) {
            return Some(std::mem::take(&mut self.held));
        }
        let quorum_pct = self.policy.sync_quorum_pct;
        if quorum_pct < 100 && quorum_met(self.held.len(), eligible, quorum_pct) {
            self.sup.stats.quorum_flushes += 1;
            let threshold = quorum_threshold(eligible, quorum_pct);
            let held = &self.held;
            let mut order: Vec<usize> = (0..held.len()).collect();
            order.sort_by(|&a, &b| {
                let (a, b) = (&held[a], &held[b]);
                a.envelope.sent_at_s.total_cmp(&b.envelope.sent_at_s).then(a.key().cmp(&b.key()))
            });
            order.truncate(threshold);
            // Removing in descending index order keeps the remaining indices
            // valid; reversing restores canonical (vp, seq).
            order.sort_unstable();
            let mut window: Vec<Pending> =
                order.iter().rev().map(|&i| self.held.remove(i)).collect();
            window.reverse();
            return Some(window);
        }
        let opened_s = self.held.iter().map(|h| h.envelope.sent_at_s).fold(f64::INFINITY, f64::min);
        if self.policy.sync_timeout_s().is_some_and(|limit| self.sim_now - opened_s >= limit) {
            self.sup.stats.timeout_flushes += 1;
            return Some(std::mem::take(&mut self.held));
        }
        None
    }

    /// After a flush the fleet has just proved it can make progress without
    /// the VPs that are neither held nor recently heard from: any eligible VP
    /// `hang_windows` flushes behind is quarantined — removed from the quorum
    /// denominator and failed over to a healthy placement.
    fn sweep_watchdog(&mut self) {
        let hang_windows = u64::from(self.policy.hang_windows);
        if hang_windows == 0 {
            return;
        }
        let hung: Vec<VpId> = self
            .eligible()
            .filter(|v| {
                let last = self.sup.vps[v].last_activity_flush;
                !self.is_held(*v) && self.flush_count.saturating_sub(last) >= hang_windows
            })
            .collect();
        self.quarantine_all(hung);
    }

    /// Execute one job end to end — failover safety net, transient injection,
    /// handle translation, device dispatch, journaling, dedup storage and
    /// profiler feedback — and return its response.
    ///
    /// Every path produces exactly one response; callers differ only in *when*
    /// they deliver it (immediately on the async path, at window flush on the
    /// sync-hold path). That single-response invariant is what makes the hold
    /// protocol deadlock-free under faults: a stopped VP whose device tripped,
    /// or that migrated mid-window, still gets a (possibly error) answer and a
    /// resume.
    fn execute(&mut self, p: &Pending) -> ResponseEnvelope {
        let recorder = sigmavp_telemetry::recorder();
        let envelope = &p.envelope;
        let (vp, seq, sent_at_s) = (envelope.vp, envelope.seq, envelope.sent_at_s);
        let error = |message: String| error_reply(envelope, message);
        // The session lock covers only routing and health; execution below
        // holds nothing but the device's runtime lock.
        let runtime = {
            let mut session = self.session.lock();
            let mut device = session.assign(vp);
            // Failover: a device down for this request's stamp hands the VP
            // to the first survivor — an async request's only failover, a
            // sync window's safety net behind its rebalance — or the request
            // degrades to an error when no survivor is left.
            if self.sup.is_down(&session, device, sent_at_s) {
                self.sup.mark_down(&mut session, device);
                let survivor = (0..session.device_count())
                    .find(|&d| d != device && !self.sup.is_down(&session, d, sent_at_s));
                let Some(target) = survivor else {
                    return error(format!("no surviving host gpu: device {device} is down"));
                };
                self.sup.fail_over(&mut session, vp, target);
                device = target;
            }
            // Transient device-error injection: the plan marks attempted
            // operation indexes per device; an injected failure feeds the
            // breaker and is *not* cached, so the guest's retry re-executes.
            let record = &mut self.sup.devices[device];
            let op = record.op_count;
            record.op_count += 1;
            if self.sup.plan.as_ref().is_some_and(|p| p.transient_at(device, op)) {
                self.sup.stats.injected_transients += 1;
                if record.breaker.record_failure() {
                    self.sup.mark_down(&mut session, device);
                }
                return error(format!("{TRANSIENT_ERROR_PREFIX} injected device fault"));
            }
            record.breaker.record_success();
            session.runtime(device)
        };
        // A relocated VP keeps its original guest handle space; everyone else
        // executes the request as it arrived, uncopied.
        let translated;
        let translation = self.sup.vps.get(&vp).map(|r| r.residency.translate(&envelope.body));
        let exec = match translation {
            None | Some(Ok(Cow::Borrowed(_))) => envelope,
            Some(Ok(Cow::Owned(body))) => {
                translated = Envelope { vp, seq, sent_at_s, deadline_s: envelope.deadline_s, body };
                &translated
            }
            Some(Err(message)) => return error(message),
        };
        let exec_started_wall_s = recorder.wall_now_s();
        let mut response = {
            let mut rt = runtime.lock();
            let response = rt.process(exec);
            // Feed the profiler observation back into the expected-time table.
            // Guard on (vp, seq): a non-device request leaves an older job as
            // `last()`.
            if let Some(record) = rt.records().last().filter(|r| r.vp == vp && r.seq == seq) {
                if let RecordKind::Kernel { name, .. } = &record.kind {
                    match self.expected_kernel_s.get_mut(name) {
                        Some(expected) => *expected = record.duration_s,
                        None => {
                            self.expected_kernel_s.insert(name.clone(), record.duration_s);
                        }
                    }
                }
            }
            response
        };
        let record = self.sup.vps.entry(vp).or_default();
        if recorder.enabled() {
            let uid = job_uid(vp.0, seq);
            let name = dispatch_span_name(envelope);
            recorder.span_for_job(
                TimeDomain::Wall,
                Lane::Dispatcher,
                name.clone(),
                exec_started_wall_s,
                recorder.wall_now_s() - exec_started_wall_s,
                uid,
            );
            // Queue wait: arrival at the core to execution start, on the
            // job-queue lane so the lifecycle join sees the wait phase.
            recorder.span_for_job(
                TimeDomain::Wall,
                Lane::JobQueue,
                name,
                p.wall_s,
                (exec_started_wall_s - p.wall_s).max(0.0),
                uid,
            );
        }
        // Keep the guest's handle space stable and journal the guest-visible
        // effect, so a later failover or load-triggered relocation can
        // reconstruct device state.
        if self.journal {
            record.residency.settle(seq, &envelope.body, &mut response.body);
        }
        // Effect-once: remember the executed response for dedup resends.
        record.answered = Some(response.clone());
        response
    }

    /// Flush a selected synchronous window (Fig. 4b): rebalance the held VPs
    /// across devices (load-triggered moves included), plan each device's
    /// slice with the *full* pipeline — the VPs are stopped, so cross-VP
    /// coalescing and wave-packing are safe on live traffic — execute the
    /// planned jobs, price the window against its reorder-only alternative
    /// (Eq. 7), and deliver in planned completion order.
    ///
    /// The window arrives in canonical `(vp, seq)` order whatever selected it.
    /// Held launches whose end-to-end deadline expired while waiting are
    /// refused here (the `hold` boundary) instead of being planned: their VPs
    /// still resume, carrying the structured violation instead of a
    /// completion.
    fn flush(&mut self, window: Vec<Pending>) {
        let recorder = sigmavp_telemetry::recorder();
        let flush_started_wall_s = recorder.wall_now_s();
        assert!(
            window.windows(2).all(|w| w[0].key() < w[1].key()),
            "sync window must arrive in canonical (vp, seq) order"
        );
        self.sup.stats.sync_windows += 1;
        // Being flushed is a sign of life: a VP in this window is not behind
        // once the flush is counted.
        for h in &window {
            self.sup.vps.entry(h.envelope.vp).or_default().last_activity_flush =
                self.flush_count + 1;
        }

        // Hold boundary: anything that expired while parked — by the newest
        // simulated time seen on any arrival — is refused, not planned.
        let sim_now = self.sim_now;
        let (window, expired): (Vec<Pending>, Vec<Pending>) =
            window.into_iter().partition(|h| sim_now <= h.envelope.deadline_s);
        for h in expired {
            self.refuse(h.envelope, DeadlineStage::Hold, sim_now, true);
        }

        // Rebalance over the whole window, then partition it by
        // (post-migration) device in first-appearance order.
        let t_now = window.iter().map(|h| h.envelope.sent_at_s).fold(0.0f64, f64::max);
        let mut slices: Vec<(usize, GpuArch, Vec<usize>)> = Vec::new();
        {
            let mut session = self.session.lock();
            // The window on its current placement; the rebalance pass reads
            // each job's VP, stamp and expected duration.
            let placed: Vec<JobRecord> = window
                .iter()
                .map(|h| {
                    let d = session.assign(h.envelope.vp);
                    synth_record(h, session.arch(d))
                })
                .collect();
            for (vp, target) in self.sup.plan_migrations(&session, records_to_jobs(&placed)) {
                let current = session.device_of(vp);
                if current.is_some_and(|current| self.sup.is_down(&session, current, t_now)) {
                    self.sup.fail_over(&mut session, vp, target);
                } else {
                    // Load-triggered: the source device stays in service.
                    self.sup.relocate(&mut session, vp, target);
                }
            }
            for (i, h) in window.iter().enumerate() {
                let d = session.assign(h.envelope.vp);
                match slices.iter_mut().find(|(device, _, _)| *device == d) {
                    Some((_, _, members)) => members.push(i),
                    None => slices.push((d, session.arch(d).clone(), vec![i])),
                }
            }
        }

        // (window index, absolute completion time, response), across devices.
        let mut completions: Vec<(usize, f64, ResponseEnvelope)> = Vec::new();
        for (d, arch, members) in slices {
            // Local job ids index the device slice (the lowering contract:
            // `jobs[i].id == JobId(i)` into `records`).
            let mut records: Vec<JobRecord> =
                members.iter().map(|&w| synth_record(&window[w], &arch)).collect();
            let local_jobs = records_to_jobs(&records);
            let planned = {
                let coalescible = |vp: VpId| self.sup.vps.get(&vp).is_some_and(|r| r.coalescible);
                let evaluator = EngineEvaluator::new(&arch, &records);
                let lanes = |block_dim: u32| arch.blocks_per_wave(block_dim);
                let ctx = PassCtx::new(&coalescible)
                    .with_evaluator(&evaluator)
                    .with_wave_lanes(&lanes)
                    .with_live_sync(true);
                self.pipeline.plan(local_jobs.clone(), &ctx)
            };

            // Execute every member functionally (coalescing is a *timing*
            // merge; each member still runs on its own buffers), in planned
            // order.
            let mut responses: Vec<(u64, ResponseEnvelope)> =
                Vec::with_capacity(planned.jobs.len());
            for job in &planned.jobs {
                let h = &window[members[job.id.0 as usize]];
                let response = self.execute(h);
                // Real observed durations re-price the window below.
                if let Response::Launched { device_time_s } = &response.body {
                    records[job.id.0 as usize].duration_s = *device_time_s;
                }
                responses.push((job.id.0, response));
            }

            // Price the executed window (Eq. 7): the live merged plan against
            // the reorder-only plan of the very same jobs — the async baseline.
            let live_tl =
                simulate(&arch, &lower_jobs(&planned.jobs, &records, &planned.groups, &arch));
            let reorder_stream = self.pipeline.plan(local_jobs, &PassCtx::reorder_only());
            let reorder_tl =
                simulate(&arch, &lower_jobs(&reorder_stream.jobs, &records, &[], &arch));
            self.sup.stats.sync_makespan_s += live_tl.makespan_s;
            self.sup.stats.sync_reorder_makespan_s += reorder_tl.makespan_s;
            self.sup.stats.live_groups += planned.groups.len() as u64;
            self.sup.stats.live_members += planned.merged_members() as u64;
            // Eq. 9 accounting per surviving kernel group: slots = λ-aligned
            // block quanta of the merged grid, filled = blocks actually
            // launched; the difference is the alignment residual.
            let mut anchor_of: HashMap<u64, u64> = HashMap::new();
            for group in &planned.groups {
                for member in &group.dropped {
                    anchor_of.insert(member.0, group.anchor.0);
                }
                let geometry: Vec<(u32, u32)> = group
                    .member_ids()
                    .filter_map(|id| match &window[members[id.0 as usize]].envelope.body {
                        Request::Launch { grid_dim, block_dim, .. } => {
                            Some((*grid_dim, *block_dim))
                        }
                        _ => None,
                    })
                    .collect();
                if let Some(&(_, block_dim)) = geometry.first() {
                    let total_grid: u64 = geometry.iter().map(|&(g, _)| u64::from(g)).sum();
                    let bpw = u64::from(arch.blocks_per_wave(block_dim));
                    self.sup.stats.wave_slots += total_grid.div_ceil(bpw).max(1) * bpw;
                    self.sup.stats.wave_filled += total_grid;
                }
            }

            // Per-VP completion on the shared simulated timeline: the window
            // opens when its last request was stamped (and no earlier than the
            // device's previous window draining), members complete at their
            // op's end — a coalesced-away member at its anchor's.
            let base = t_now.max(self.sup.devices[d].free_s);
            for (local_id, mut response) in responses {
                let op = anchor_of.get(&local_id).copied().unwrap_or(local_id);
                let end = live_tl.span(op).map_or(live_tl.makespan_s, |s| s.end_s);
                let w = members[local_id as usize];
                let abs_end = base + end;
                if let Response::Launched { device_time_s } = &mut response.body {
                    // Charge the guest its observed completion: queueing
                    // behind the window plus its (possibly merged) execution.
                    let charge = (abs_end - window[w].envelope.sent_at_s).max(0.0);
                    *device_time_s = charge.max(*device_time_s);
                    // Keep the effect-once record consistent with the reply
                    // delivered.
                    self.sup.vps.entry(response.vp).or_default().answered = Some(response.clone());
                }
                completions.push((w, abs_end, response));
            }
            self.sup.devices[d].free_s = base + live_tl.makespan_s;
        }

        // Deliver in planned completion order: the earliest-finishing VP
        // wakes first, exactly as the merged timeline completes (ties by VP).
        completions
            .sort_by(|a, b| a.1.total_cmp(&b.1).then(window[a.0].key().cmp(&window[b.0].key())));
        let jobs = window.len();
        let mut window: Vec<Option<Pending>> = window.into_iter().map(Some).collect();
        for (w, _, response) in completions {
            let h = window[w].take().expect("each held job completes once");
            self.sup.stats.requests += 1;
            self.sup.stats.resume_events += 1;
            self.sup.clear_in_flight(h.envelope.vp, h.envelope.seq);
            self.out.deliveries.push(Delivery { request: h.envelope, response, resume: true });
        }
        recorder.span(
            TimeDomain::Wall,
            Lane::Dispatcher,
            format!("sync window ({jobs} jobs)"),
            flush_started_wall_s,
            recorder.wall_now_s() - flush_started_wall_s,
        );
    }
}

/// Held by every test whose core refuses a deadline, so a test that reads
/// `liveness.deadline_misses` off the process-global collector sees its own
/// refusals only.
#[cfg(test)]
pub(crate) fn refusals_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The core driven directly: no threads, no transports, no sleeps.
#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::message::WireParam;
    use sigmavp_vp::error::parse_deadline_violation;

    const N: u64 = 64;

    /// A core over `gpus` devices with `vps` joined guests, plus the guest-side
    /// bookkeeping a driver would own: per-VP sequence numbers, a simulated
    /// clock that stamps each request one tick (1 µs) after the previous one,
    /// and the deadline budget stamped with it (none until a test sets one).
    struct Rig {
        core: DispatchCore,
        session: Arc<Mutex<ExecutionSession>>,
        next_seq: HashMap<VpId, u64>,
        now_s: f64,
        tick_s: f64,
        budget_s: Option<f64>,
    }

    impl Rig {
        fn new(policy: Policy, gpus: usize, vps: u32) -> Rig {
            Rig::with_faults(policy, gpus, vps, None)
        }

        fn with_faults(policy: Policy, gpus: usize, vps: u32, faults: Option<FaultPlan>) -> Rig {
            let registry = [sigmavp_workloads::kernels::vector_add()].into_iter().collect();
            let session = ExecutionSession::new(vec![GpuArch::quadro_4000(); gpus], registry)
                .expect("at least one device");
            let session = Arc::new(Mutex::new(session));
            let mut core =
                DispatchCore::new(session.clone(), &policy, faults.map(Arc::new), HashMap::new());
            for vp in 0..vps {
                core.join(VpId(vp));
            }
            let next_seq = HashMap::new();
            Rig { core, session, next_seq, now_s: 0.0, tick_s: 1e-6, budget_s: None }
        }

        /// Buffers currently allocated on each device.
        fn live_per_device(&self) -> Vec<usize> {
            let session = self.session.lock();
            (0..session.device_count()).map(|d| session.runtime(d).lock().live_handles()).collect()
        }

        fn envelope(&mut self, vp: u32, body: Request) -> Envelope {
            let seq = self.next_seq.entry(VpId(vp)).or_insert(0);
            *seq += 1;
            self.now_s += self.tick_s;
            Envelope {
                vp: VpId(vp),
                seq: *seq - 1,
                sent_at_s: self.now_s,
                deadline_s: self.budget_s.map_or(Envelope::NO_DEADLINE, |b| self.now_s + b),
                body,
            }
        }

        /// Offer one request and run a turn.
        fn step(&mut self, vp: u32, body: Request) -> Turn {
            let envelope = self.envelope(vp, body);
            self.core.offer(envelope);
            self.core.turn()
        }

        /// An async request answered in the same turn.
        fn serve(&mut self, vp: u32, body: Request) -> Response {
            let mut turn = self.step(vp, body);
            assert_eq!(turn.deliveries.len(), 1, "{:?}", turn.deliveries);
            turn.deliveries.pop().expect("one delivery").response.body
        }

        /// Three device buffers for `vp` (inputs filled with `fill`) and the
        /// sync launch adding them.
        fn prepare(&mut self, vp: u32, fill: f32) -> Request {
            let mut handles = Vec::new();
            for input in [true, true, false] {
                let Response::Malloc { handle } = self.serve(vp, Request::Malloc { bytes: N * 4 })
                else {
                    panic!("malloc failed")
                };
                if input {
                    let data = fill.to_le_bytes().repeat(N as usize);
                    let done = self.serve(vp, Request::MemcpyH2D { handle, data, stream: 0 });
                    assert_eq!(done, Response::Done);
                }
                handles.push(handle);
            }
            Request::Launch {
                kernel: "vector_add".into(),
                grid_dim: 1,
                block_dim: N as u32,
                params: handles
                    .iter()
                    .map(|h| WireParam::Buffer(*h))
                    .chain([WireParam::I64(N as i64)])
                    .collect(),
                sync: true,
                stream: 0,
            }
        }
    }

    /// The launch's buffer parameters: two inputs, then the output.
    fn buffers_of(launch: &Request) -> Vec<u64> {
        let Request::Launch { params, .. } = launch else { panic!("not a launch") };
        params
            .iter()
            .filter_map(|p| match p {
                WireParam::Buffer(handle) => Some(*handle),
                _ => None,
            })
            .collect()
    }

    fn sum_handle(launch: &Request) -> u64 {
        buffers_of(launch)[2]
    }

    fn vps_of(turn: &Turn) -> Vec<u32> {
        turn.deliveries.iter().map(|d| d.response.vp.0).collect()
    }

    fn sync_policy() -> Policy {
        Policy::MultiplexedOptimized.with_sync_hold(true)
    }

    #[test]
    fn full_house_flushes_one_lockstep_window() {
        let mut rig = Rig::new(sync_policy(), 1, 2);
        let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
        let first = rig.envelope(0, l0);
        assert!(rig.core.offer(first), "a sync launch is parked: the driver stops the VP");
        assert!(rig.core.turn().deliveries.is_empty(), "one of two eligible VPs held");
        let turn = rig.step(1, l1);
        assert_eq!(turn.deliveries.len(), 2);
        assert!(turn.deliveries.iter().all(|d| d.resume));
        assert!(turn
            .deliveries
            .iter()
            .all(|d| matches!(d.response.body, Response::Launched { .. })));
        let stats = rig.core.stats();
        assert_eq!((stats.holds, stats.sync_windows), (2, 1));
        assert_eq!((stats.quorum_flushes, stats.timeout_flushes), (0, 0));
        assert!(rig.core.close().deliveries.is_empty(), "nothing left to drain");
    }

    #[test]
    fn quorum_takes_the_earliest_stamps_and_leaves_the_rest_held() {
        let mut rig = Rig::new(sync_policy().sync_quorum(0.5), 1, 4);
        let launches: Vec<Request> = (0..4).map(|vp| rig.prepare(vp, 1.0)).collect();
        // Three launches land before the core gets a turn, VP 3's stamped
        // first: the window is the threshold (2 of 4) with the earliest
        // stamps, not the lowest VP ids.
        for vp in [3, 1, 2] {
            let envelope = rig.envelope(vp, launches[vp as usize].clone());
            rig.core.offer(envelope);
        }
        let turn = rig.core.turn();
        let mut window = vps_of(&turn);
        window.sort_unstable();
        assert_eq!(window, [1, 3]);
        assert_eq!(rig.core.stats().quorum_flushes, 1);
        // VP 2 rolls into the next window, which VP 0 completes.
        let turn = rig.step(0, launches[0].clone());
        let mut window = vps_of(&turn);
        window.sort_unstable();
        assert_eq!(window, [0, 2]);
        assert_eq!(rig.core.stats().sync_windows, 2);
    }

    #[test]
    fn timeout_flushes_on_simulated_time_alone() {
        let mut rig = Rig::new(sync_policy().with_sync_timeout_us(3), 1, 2);
        let launch = rig.prepare(0, 1.0);
        rig.tick_s = 1.25e-6; // off the timeout's grid: no floating-point ties
        assert!(rig.step(0, launch).deliveries.is_empty(), "lockstep quorum unreachable");
        // VP 1 never launches; its async traffic is the clock.
        assert_eq!(vps_of(&rig.step(1, Request::Synchronize)), [1]);
        assert_eq!(vps_of(&rig.step(1, Request::Synchronize)), [1]);
        let turn = rig.step(1, Request::Synchronize);
        assert_eq!(vps_of(&turn), [1, 0], "3.75 µs after it opened, the window flushes");
        assert_eq!(rig.core.stats().timeout_flushes, 1);
        assert_eq!(rig.core.stats().quorum_flushes, 0);
    }

    #[test]
    fn a_launch_that_expires_while_held_is_refused_at_the_hold_boundary() {
        let _refusals = refusals_lock();
        let mut rig = Rig::new(sync_policy().with_sync_timeout_us(4), 1, 2);
        let launch = rig.prepare(0, 1.0);
        rig.budget_s = Some(2.5e-6);
        rig.tick_s = 1.25e-6;
        rig.step(0, launch);
        let mut last = Turn::default();
        for _ in 0..4 {
            last = rig.step(1, Request::Synchronize);
        }
        let refused = last.deliveries.iter().find(|d| d.response.vp == VpId(0)).expect("flushed");
        assert!(refused.resume, "the VP still resumes, carrying the violation");
        let Response::Error { message } = &refused.response.body else { panic!("not refused") };
        let (stage, _, _) = parse_deadline_violation(message).expect("structured violation");
        assert_eq!(stage, DeadlineStage::Hold);
        let stats = rig.core.stats();
        assert_eq!((stats.deadline_misses, stats.timeout_flushes, stats.sync_windows), (1, 1, 1));
    }

    #[test]
    fn every_hold_is_answered_by_exactly_one_resume() {
        let _refusals = refusals_lock();
        // A held launch is the stopped VP: the core counts the hold when it
        // parks the launch and the resume when it answers it, with a
        // completion (full house) or a refusal (hold boundary) alike.
        let mut rig = Rig::new(sync_policy().with_sync_timeout_us(4), 1, 2);
        let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
        rig.step(0, l0.clone());
        assert!(rig.core.is_held(VpId(0)) && !rig.core.is_held(VpId(1)));
        assert_eq!(rig.step(1, l1).deliveries.len(), 2, "full house");
        assert!(!rig.core.is_held(VpId(0)));
        let stats = rig.core.stats();
        assert_eq!((stats.holds, stats.resume_events), (2, 2));
        // VP 0's next launch expires while held; VP 1's traffic is the clock.
        rig.budget_s = Some(2.5e-6);
        rig.tick_s = 1.25e-6;
        rig.step(0, l0);
        assert!(rig.core.is_held(VpId(0)));
        for _ in 0..4 {
            rig.step(1, Request::Synchronize);
        }
        assert!(!rig.core.is_held(VpId(0)));
        assert!(rig.core.close().deliveries.is_empty());
        let stats = rig.core.stats();
        assert_eq!((stats.deadline_misses, stats.sync_windows), (1, 2));
        assert_eq!((stats.holds, stats.resume_events), (3, 3));
    }

    #[test]
    fn stall_quarantines_fails_over_and_the_sleeper_rejoins() {
        let mut rig = Rig::new(sync_policy().with_hang_windows(2), 2, 2);
        let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
        rig.step(0, l0.clone());
        assert_eq!(rig.step(1, l1.clone()).deliveries.len(), 2, "window 1: full house");
        // VP 1 wedges. VP 0's next launch freezes simulated time, so only the
        // driver's stall clock can help — fired here by hand, not by sleeping.
        assert!(!rig.core.stall_armed());
        assert!(rig.step(0, l0.clone()).deliveries.is_empty());
        assert!(rig.core.stall_armed());
        let turn = rig.core.on_stall();
        assert_eq!(turn.quarantined, [VpId(1)]);
        assert_eq!(vps_of(&turn), [0], "the shrunken quorum releases the window");
        let stats = *rig.core.stats();
        assert_eq!((stats.backstop_trips, stats.quarantined, stats.migrations), (1, 1, 1));
        // VP 0 runs solo meanwhile.
        assert_eq!(vps_of(&rig.step(0, l0.clone())), [0]);
        // The sleeper wakes: it rejoins the quorum, its launch waits for VP 0
        // again, and its buffers followed it to the other device.
        assert!(rig.step(1, l1.clone()).deliveries.is_empty());
        assert_eq!(rig.core.stats().rejoins, 1);
        assert_eq!(rig.step(0, l0).deliveries.len(), 2);
        let read = Request::MemcpyD2H { handle: sum_handle(&l1), len: N * 4, stream: 0 };
        let Response::Data { data } = rig.serve(1, read) else { panic!("read-back failed") };
        assert_eq!(data, 4.0f32.to_le_bytes().repeat(N as usize), "2 + 2 on the new device");
        assert_eq!(rig.core.stats().quarantined, 1, "nobody else fell behind");
    }

    #[test]
    fn a_move_between_live_devices_frees_the_source_copies() {
        let mut rig = Rig::new(sync_policy().with_hang_windows(2), 2, 2);
        let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
        assert_eq!(rig.live_per_device(), [3, 3], "one VP per device");
        rig.step(0, l0.clone());
        rig.step(1, l1.clone());
        // VP 1 wedges and is quarantined off gpu1; both devices stay healthy.
        rig.step(0, l0.clone());
        assert_eq!(rig.core.on_stall().quarantined, [VpId(1)]);
        assert_eq!(rig.core.stats().migrations, 1);
        assert_eq!(rig.live_per_device(), [6, 0], "the move left nothing on its source");
        // Both guests free what they hold: the session is back to zero.
        for (vp, launch) in [(1, &l1), (0, &l0)] {
            for handle in buffers_of(launch) {
                assert_eq!(rig.serve(vp, Request::Free { handle }), Response::Done);
            }
        }
        assert_eq!(rig.session.lock().live_buffers(), 0);
    }

    #[test]
    fn a_rejected_replay_leaks_nothing_on_the_target() {
        const BIG: u64 = 40 << 20; // two of these do not fit one 64 MB device
        let mut rig = Rig::new(sync_policy().with_hang_windows(2), 2, 2);
        let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
        for vp in [0, 1] {
            assert!(matches!(
                rig.serve(vp, Request::Malloc { bytes: BIG }),
                Response::Malloc { .. }
            ));
        }
        assert_eq!(rig.live_per_device(), [4, 4]);
        rig.step(0, l0.clone());
        rig.step(1, l1.clone());
        // VP 1 is quarantined onto gpu0, which has no room for its big buffer:
        // the replay is rejected after the three small allocations landed.
        rig.step(0, l0);
        assert_eq!(rig.core.on_stall().quarantined, [VpId(1)]);
        assert_eq!(rig.live_per_device(), [4, 0], "neither stranded on gpu0 nor left on gpu1");
        // The move itself succeeded; the lost handles are the guest's errors.
        let read = Request::MemcpyD2H { handle: sum_handle(&l1), len: N * 4, stream: 0 };
        let Response::Error { message } = rig.serve(1, read) else { panic!("handle survived") };
        assert!(message.contains("no buffer on the VP's current placement"), "{message}");
    }

    #[test]
    fn a_failover_off_a_dead_device_leaves_its_buffers_alone() {
        let outage = FaultPlan::seeded(1).with_outage(1, 1.0);
        let mut rig = Rig::with_faults(Policy::Fifo, 2, 2, Some(outage));
        let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
        assert_eq!(rig.live_per_device(), [3, 3]);
        // gpu1 dies; VP 1's next request fails over and completes on gpu0.
        rig.now_s = 2.0;
        assert!(matches!(rig.serve(1, l1.clone()), Response::Launched { .. }));
        let stats = *rig.core.stats();
        assert_eq!((stats.gpu_trips, stats.migrations), (1, 1));
        assert_eq!(rig.live_per_device(), [6, 3], "a dead device is not asked to free");
        let read = Request::MemcpyD2H { handle: sum_handle(&l1), len: N * 4, stream: 0 };
        let Response::Data { data } = rig.serve(1, read) else { panic!("read-back failed") };
        assert_eq!(data, 4.0f32.to_le_bytes().repeat(N as usize), "2 + 2 on the survivor");
        for (vp, launch) in [(1, &l1), (0, &l0)] {
            for handle in buffers_of(launch) {
                assert_eq!(rig.serve(vp, Request::Free { handle }), Response::Done);
            }
        }
        assert_eq!(rig.live_per_device(), [0, 3]);
    }

    #[test]
    fn close_drains_what_is_held_and_abandon_returns_it_unexecuted() {
        let mut rig = Rig::new(sync_policy(), 1, 2);
        let launch = rig.prepare(0, 1.0);
        rig.step(0, launch.clone());
        let turn = rig.core.close();
        assert_eq!(vps_of(&turn), [0]);
        assert!(matches!(turn.deliveries[0].response.body, Response::Launched { .. }));
        assert_eq!(rig.core.stats().sync_windows, 1);

        let held = rig.envelope(0, launch);
        let queued = rig.envelope(1, Request::Synchronize);
        rig.core.offer(held.clone());
        rig.core.offer(queued.clone());
        assert_eq!(rig.core.abandon(), [queued, held], "queued first, then held");
        assert!(rig.core.close().deliveries.is_empty());
    }

    #[test]
    fn duplicates_are_answered_once_and_executed_once() {
        let mut rig = Rig::new(Policy::Fifo, 1, 1);
        let malloc = rig.envelope(0, Request::Malloc { bytes: 64 });
        // A delayed duplicate of a still-pending request is ignored…
        rig.core.offer(malloc.clone());
        rig.core.offer(malloc.clone());
        let first = rig.core.turn();
        assert_eq!(first.deliveries.len(), 1);
        // …and a retry of an executed one gets the cached response back.
        rig.core.offer(malloc);
        let again = rig.core.turn();
        assert_eq!(again.deliveries[0].response, first.deliveries[0].response);
        let stats = rig.core.stats();
        assert_eq!((stats.requests, stats.dedup_hits), (1, 1));
    }

    #[test]
    fn a_core_journals_only_when_it_has_somewhere_to_relocate_to() {
        for (gpus, journaled) in [(1, false), (2, true)] {
            let mut rig = Rig::new(sync_policy(), gpus, 2);
            let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
            rig.step(0, l0);
            assert_eq!(rig.step(1, l1).deliveries.len(), 2, "the window flushed");
            for (vp, record) in &rig.core.sup.vps {
                let journal = record.residency.journal();
                assert_eq!(!journal.is_empty(), journaled, "{vp} on {gpus} gpu(s)");
            }
        }
    }

    #[test]
    fn nothing_stays_in_flight_once_answered_refused_or_handed_back() {
        let _refusals = refusals_lock();
        let mut rig = Rig::new(sync_policy(), 2, 3);
        let in_flight = |rig: &Rig| -> Vec<Option<u64>> {
            rig.core.sup.vps.values().map(|record| record.in_flight).collect()
        };
        let launch = rig.prepare(0, 1.0);
        let held = rig.envelope(0, launch);
        let queued = rig.envelope(1, Request::Synchronize);
        rig.budget_s = Some(-1.0); // stamped past its own deadline
        let expired = rig.envelope(2, Request::Synchronize);
        for envelope in [&held, &held, &queued, &queued, &expired] {
            rig.core.offer(envelope.clone());
        }
        assert_eq!(in_flight(&rig), [Some(held.seq), Some(queued.seq), None], "refused at once");
        assert_eq!(vps_of(&rig.core.turn()), [2, 1], "each duplicate was dropped");
        assert_eq!(in_flight(&rig), [Some(held.seq), None, None], "VP 0 is still parked");
        assert_eq!(rig.core.abandon(), std::slice::from_ref(&held));
        assert_eq!(in_flight(&rig), [None; 3]);
        // Handed back, so the guard is gone: the re-homed launch is accepted,
        // and the final window answers it.
        assert!(rig.core.offer(held));
        assert_eq!(vps_of(&rig.core.close()), [0]);
        assert_eq!(in_flight(&rig), [None; 3]);
        assert!(rig.core.pending.is_empty() && rig.core.held.is_empty());
    }

    #[test]
    fn a_window_answers_each_request_with_its_own_response_in_arrival_order() {
        let mut rig = Rig::new(Policy::MultiplexedOptimized, 1, 3);
        let launches: Vec<Request> = (0..3).map(|vp| rig.prepare(vp, vp as f32)).collect();
        // Land one window of copies and async launches from all three VPs
        // before a turn.
        assert!(matches!(rig.serve(0, launches[0].clone()), Response::Launched { .. }));
        let upload = |launch: &Request| Request::MemcpyH2D {
            handle: buffers_of(launch)[0],
            data: 7.0f32.to_le_bytes().repeat(N as usize),
            stream: 0,
        };
        let read = |launch: &Request| Request::MemcpyD2H {
            handle: sum_handle(launch),
            len: N * 4,
            stream: 0,
        };
        let arrivals = [
            (0, launches[0].clone()),
            (0, read(&launches[0])),
            (1, upload(&launches[1])),
            (1, launches[1].clone()),
            (2, launches[2].clone()),
            (2, read(&launches[2])),
        ];
        for (vp, body) in &arrivals {
            let envelope = rig.envelope(*vp, body.clone());
            assert!(!rig.core.offer(envelope), "no sync-hold: launches are queued");
        }
        let turn = rig.core.turn();
        assert_eq!(turn.deliveries.len(), arrivals.len());
        for d in &turn.deliveries {
            assert_eq!((d.request.vp, d.request.seq), (d.response.vp, d.response.seq));
            match (&d.request.body, &d.response.body) {
                (Request::Launch { .. }, Response::Launched { .. })
                | (Request::MemcpyH2D { .. }, Response::Done)
                | (Request::MemcpyD2H { .. }, Response::Data { .. }) => {}
                mismatch => panic!("answered with another request's response: {mismatch:?}"),
            }
        }
        assert_eq!(vps_of(&turn), [0, 0, 1, 1, 2, 2], "the window ran in arrival order");
        assert_eq!(rig.core.stats().max_window, arrivals.len());
    }

    #[test]
    fn an_async_window_fails_each_vp_over_off_a_dead_device() {
        let outage = FaultPlan::seeded(1).with_outage(1, 1.0);
        let mut rig = Rig::with_faults(Policy::MultiplexedOptimized, 2, 4, Some(outage));
        // Placed at spawn, as both drivers do: VPs 1 and 3 land on gpu1.
        for vp in 0..4 {
            rig.session.lock().assign(VpId(vp));
        }
        // gpu1 dies; two of its VPs land one window before a turn.
        rig.now_s = 2.0;
        let arrivals = [
            (1, Request::Malloc { bytes: N * 4 }),
            (3, Request::Malloc { bytes: N * 4 }),
            (1, Request::Synchronize),
            (3, Request::Synchronize),
        ];
        let sent: Vec<(VpId, u64)> = arrivals
            .into_iter()
            .map(|(vp, body)| {
                let envelope = rig.envelope(vp, body);
                let key = (envelope.vp, envelope.seq);
                assert!(!rig.core.offer(envelope));
                key
            })
            .collect();
        let turn = rig.core.turn();
        let answered: Vec<(VpId, u64)> =
            turn.deliveries.iter().map(|d| (d.response.vp, d.response.seq)).collect();
        assert_eq!(answered, sent, "answered in arrival order");
        for d in &turn.deliveries {
            match (&d.request.body, &d.response.body) {
                (Request::Malloc { .. }, Response::Malloc { .. })
                | (Request::Synchronize, Response::Done) => {}
                mismatch => panic!("wrong answer: {mismatch:?}"),
            }
        }
        let stats = *rig.core.stats();
        assert_eq!((stats.gpu_trips, stats.migrations), (1, 2), "one trip, each VP moved once");
        assert_eq!(rig.live_per_device(), [2, 0], "both buffers landed on the survivor");
    }

    #[test]
    fn a_stall_quarantines_in_ascending_vp_order_whatever_the_join_order() {
        let mut rig = Rig::new(sync_policy().with_hang_windows(2), 2, 0);
        for vp in [40, 7, 900, 12] {
            rig.core.join(VpId(vp));
        }
        let launch = rig.prepare(12, 1.0);
        assert!(rig.step(12, launch).deliveries.is_empty(), "three of four not held");
        let turn = rig.core.on_stall();
        assert_eq!(turn.quarantined, [VpId(7), VpId(40), VpId(900)]);
        assert_eq!(vps_of(&turn), [12], "the shrunken quorum releases the window");
    }

    #[test]
    fn a_stale_frame_does_not_lift_the_guard_on_the_newer_request() {
        let mut rig = Rig::new(sync_policy(), 1, 2);
        let launch = rig.prepare(0, 1.0);
        let old = rig.envelope(0, Request::Synchronize);
        rig.core.offer(old.clone());
        assert_eq!(rig.core.turn().deliveries.len(), 1);
        assert_eq!(rig.serve(0, Request::Synchronize), Response::Done);
        let held = rig.envelope(0, launch);
        assert!(rig.core.offer(held.clone()));
        // A delayed frame of a request answered two requests ago is neither
        // the answered nor the in-flight one: it runs again (effect-once
        // covers the latest request only) — and the held launch stays guarded.
        rig.core.offer(old);
        assert_eq!(vps_of(&rig.core.turn()), [0]);
        assert!(!rig.core.offer(held), "held twice");
        assert_eq!(rig.core.close().deliveries.len(), 1);
        assert_eq!(rig.core.stats().holds, 1);
    }

    #[test]
    fn the_constructors_coalescible_map_decides_which_launches_merge() {
        for (marked, groups) in [(vec![0, 1], 1), (vec![0], 0), (vec![], 0)] {
            let mut rig = Rig::new(sync_policy(), 1, 2);
            let coalescible = marked.iter().map(|&vp| (VpId(vp), true)).collect();
            rig.core = DispatchCore::new(rig.session.clone(), &sync_policy(), None, coalescible);
            rig.core.join(VpId(0));
            rig.core.join(VpId(1));
            let (l0, l1) = (rig.prepare(0, 1.0), rig.prepare(1, 2.0));
            rig.step(0, l0);
            assert_eq!(rig.step(1, l1).deliveries.len(), 2);
            assert_eq!(rig.core.stats().live_groups, groups, "coalescible: {marked:?}");
        }
    }

    /// One envelope stream, two driving styles: the dispatcher's (offer every
    /// frame of a poll sweep, then turn until quiet) and a fleet shard's (one
    /// offer per turn). Same responses, same window ledger.
    #[test]
    fn sweep_driven_and_inbox_driven_cores_agree() {
        let _refusals = refusals_lock();
        let policies =
            [sync_policy(), sync_policy().sync_quorum(0.5), sync_policy().with_sync_timeout_us(2)];
        for policy in policies {
            let run = |sweep: usize| {
                let mut rig = Rig::new(policy, 1, 4);
                // VPs 0–2 launch each round; VP 3 only syncs. Where a timeout
                // is set it stays in the quorum — it never holds, so every
                // window must time out, and under the 1.5 µs budget the
                // window's oldest launch has expired by then.
                let launches: Vec<Request> = (0..3).map(|vp| rig.prepare(vp, vp as f32)).collect();
                if policy.sync_timeout_us == 0 {
                    rig.core.leave(VpId(3));
                } else {
                    // Off the timeout's 2 µs grid, so no trigger sits on a
                    // floating-point tie.
                    rig.tick_s = 1.25e-6;
                    rig.budget_s = Some(1.5e-6);
                }
                let mut stream = Vec::new();
                for _round in 0..3 {
                    for vp in 0..3u32 {
                        stream.push(rig.envelope(3, Request::Synchronize));
                        stream.push(rig.envelope(vp, launches[vp as usize].clone()));
                    }
                }
                let mut answers: Vec<(u32, u64, Response)> = Vec::new();
                for batch in stream.chunks(sweep) {
                    for envelope in batch {
                        rig.core.offer(envelope.clone());
                    }
                    loop {
                        let turn = rig.core.turn();
                        if turn.deliveries.is_empty() {
                            break;
                        }
                        answers.extend(
                            turn.deliveries
                                .into_iter()
                                .map(|d| (d.response.vp.0, d.response.seq, d.response.body)),
                        );
                    }
                }
                answers.extend(
                    rig.core
                        .close()
                        .deliveries
                        .into_iter()
                        .map(|d| (d.response.vp.0, d.response.seq, d.response.body)),
                );
                answers.sort_by_key(|(vp, seq, _)| (*vp, *seq));
                let s = *rig.core.stats();
                (answers, s.sync_windows, s.quorum_flushes, s.timeout_flushes, s.deadline_misses)
            };
            let inbox = run(1);
            assert_eq!(inbox.0.len(), 18, "every request answered exactly once");
            assert!(inbox.1 >= 3, "windows flushed: {inbox:?}");
            assert_eq!(inbox.4 > 0, policy.sync_timeout_us > 0, "expiries: {inbox:?}");
            assert_eq!(run(2), inbox, "{policy:?}");
        }
    }

    #[test]
    fn window_ledger_sees_one_ulp_and_ignores_timing_shaped_fields() {
        let base = DispatchStats { holds: 4, sync_makespan_s: 7.5e-6, ..Default::default() };
        let noisy = DispatchStats {
            requests: 99,
            dedup_hits: 3,
            multi_job_windows: 2,
            max_window: 7,
            inline_requests: 40,
            combined_requests: 59,
            pump_rounds: 80,
            timer_wakeups: 5,
            ..base
        };
        assert_eq!(base.window_ledger(), noisy.window_ledger());
        let ulp = f64::from_bits(base.sync_makespan_s.to_bits() + 1);
        let moved = DispatchStats { sync_makespan_s: ulp, ..base };
        assert_ne!(base.window_ledger(), moved.window_ledger());
        let one_more = DispatchStats { rejoins: 1, ..base };
        assert_ne!(base.window_ledger(), one_more.window_ledger());
    }
}
