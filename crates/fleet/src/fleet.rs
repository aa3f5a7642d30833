//! The sharded fleet front-end: bounded admission, consistent-hash placement,
//! deterministic work stealing, and cross-session VP migration.
//!
//! # Architecture
//!
//! A [`Fleet`] owns `S` *shards*. Each shard is one
//! [`ExecutionSession`] (its own host-GPU set and job logs) plus a FIFO inbox
//! drained by a dedicated thread that drives a [`DispatchCore`] — the same
//! state machine the single-session dispatcher runs, so holds, sync windows,
//! deadlines, the watchdog and execution are decided in one place. Sessions
//! share nothing, so fleet throughput scales with shards the way the paper's
//! host-GPU multiplexing scales with devices.
//!
//! The *front door* serializes placement state behind one lock:
//!
//! * **Admission** — [`Fleet::admit`] places a VP on the consistent-hash ring
//!   ([`HashRing`]); [`Fleet::submit`] accepts one request per VP (guests are
//!   synchronous) and *sheds* work with [`FleetError::Saturated`] once the
//!   fleet-wide in-flight bound is hit — backpressure, not unbounded buffering.
//! * **Stealing** — every `steal_interval` admissions the rebalancer compares
//!   per-shard *submitted cost* (a pure function of the requests, so the same
//!   admission sequence always plans the same steals) and marks the hottest
//!   VPs for migration to the coolest shard.
//! * **Migration** — a marked VP moves at its next submit, when it provably
//!   has no request in flight: its cross-session [`Residency`] replays the
//!   journal — the VP's history since it last held no buffer, nothing for a
//!   guest that has freed everything — into the target session, the buffers
//!   it held on the source are freed there, and every subsequent request is
//!   translated: exactly the core's single-session relocation
//!   ([`relocate_between`]), generalized across sessions. A VP's device state
//!   lives in one place. The move stays synchronous under the front lock:
//!   handing it to the target shard's thread would make its arrival order,
//!   hence the device's record order, timing-dependent.
//! * **Supervision** — [`Fleet::kill_session`] retires a shard from the ring,
//!   drains its queued and held jobs, and re-homes them (journal replay +
//!   re-offer) onto survivors; VPs that were idle migrate lazily at their
//!   next submit. A dead session is never asked to free anything: what its
//!   VPs held there stays until teardown. With no survivors left, requests
//!   fail with [`FleetError::NoSurvivingSessions`].
//!
//! Lock order is `front → {shard inbox, session, host runtime}`; shard threads
//! never hold a shard-side lock while taking the front lock, so the two sides
//! cannot deadlock.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use sigmavp::dispatch::{
    holds_launch, relocate_between, DispatchCore, DispatchStats, Turn, STALL_WALL_BACKSTOP,
};
use sigmavp::{ExecutionSession, IntMap, SessionOutcome, VpQueueWait};
use sigmavp_fault::Residency;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId};
use sigmavp_sched::{HashRing, Pipeline, Policy};
use sigmavp_telemetry::metrics::MetricsSnapshot;
use sigmavp_telemetry::{job_uid, recorder, IncidentKind, Lane, Telemetry, TimeDomain};
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_vp::{DeadlineStage, VpError};

use crate::config::FleetConfig;
use crate::error::FleetError;

/// Fleet-lifetime counters: the one place a fleet count is kept. The front
/// publishes its own part ([`FleetStats::counts`]) as deltas at the end of
/// every completed batch and before every incident; the shard cores publish
/// their [`DispatchStats`] the same way.
///
/// For a fixed admission sequence every field except `rescued_jobs` is
/// deterministic: steals are planned from submitted cost (not wall clocks) and
/// migrations execute at fixed points in the admission order. `rescued_jobs`
/// counts jobs that were *queued but unexecuted* when a session died, which
/// depends on how far the dead shard thread got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests accepted past admission control.
    pub admitted: u64,
    /// Requests fully executed and delivered.
    pub completed: u64,
    /// Requests shed by the bounded admission queue.
    pub shed: u64,
    /// VPs marked for migration by the work-stealing rebalancer.
    pub steals: u64,
    /// Cross-session VP migrations performed (steals + failovers).
    pub migrations: u64,
    /// Journal entries those migrations replayed into their targets.
    pub replayed_jobs: u64,
    /// Journal replays the target session rejected.
    pub replay_failures: u64,
    /// Sessions killed ([`Fleet::kill_session`]).
    pub session_trips: u64,
    /// Queued jobs re-homed from a dead session onto survivors.
    pub rescued_jobs: u64,
    /// Synchronous launches parked in a shard's sync window instead of
    /// executing immediately (sync-hold mode). A launch re-homed off a killed
    /// session is parked again on the survivor and counts again.
    pub sync_holds: u64,
    /// Sync windows flushed, whatever the trigger (full house, quorum,
    /// timeout, or shutdown drain). This and the next three counters are the
    /// shards' dispatch cores' ledgers, summed.
    pub sync_windows: u64,
    /// Sync windows flushed by the partial quorum before every eligible VP
    /// was held.
    pub quorum_flushes: u64,
    /// Sync windows flushed by the simulated-time window timeout.
    pub timeout_flushes: u64,
    /// Requests refused because their end-to-end deadline could not be met
    /// (at admission, or at a shard's plan boundary) or had already expired
    /// (while held). The front publishes its admission refusals as
    /// `fleet.deadline_misses`, the shard cores theirs as
    /// `liveness.deadline_misses`; the two sum to this.
    pub deadline_misses: u64,
    /// VPs quarantined by the hung-VP watchdog.
    pub quarantined_vps: u64,
    /// Requests shed at admission because their VP was quarantined.
    pub quarantined: u64,
    /// Quarantined VPs readmitted after proving liveness
    /// ([`Fleet::readmit`]).
    pub readmitted: u64,
}

impl FleetStats {
    /// Every count the front publishes, under its one metric name: the only
    /// place these names are written. The four window fields are the cores'
    /// and reach the registry under theirs, and so does the cores' part of
    /// `deadline_misses`: `fleet.deadline_misses` is the front's admission
    /// refusals, so it equals the field only while no core has refused.
    pub fn counts(&self) -> [(&'static str, u64); 14] {
        [
            ("fleet.admitted", self.admitted),
            ("fleet.completed", self.completed),
            ("fleet.shed", self.shed),
            ("fleet.steals", self.steals),
            ("fleet.migrations", self.migrations),
            ("fleet.replayed_jobs", self.replayed_jobs),
            ("fleet.replay_failures", self.replay_failures),
            ("fleet.session_trips", self.session_trips),
            ("fleet.rescued_jobs", self.rescued_jobs),
            ("fleet.sync_holds", self.sync_holds),
            ("fleet.deadline_misses", self.deadline_misses),
            ("fleet.quarantined_vps", self.quarantined_vps),
            ("fleet.quarantined", self.quarantined),
            ("fleet.readmitted", self.readmitted),
        ]
    }
}

/// Front-door view of one VP.
#[derive(Debug, Default)]
struct VpState {
    shard: usize,
    next_seq: u64,
    /// Simulated guest clock: advances by submit cost + device time.
    sim_s: f64,
    outstanding: bool,
    submitted_wall_s: f64,
    /// Submitted cost of the outstanding request.
    cost_s: f64,
    /// Guest-space original of the outstanding request, kept only when the
    /// envelope carries a translation of it (the VP has migrated).
    guest: Option<Request>,
    /// Set by the rebalancer; consumed at the VP's next submit.
    pending_target: Option<usize>,
    /// The VP's device state across *sessions* (placements are shard
    /// indices). It lives here, not in a shard's core, because it moves
    /// between cores under the front lock.
    residency: Residency,
    /// Completed response awaiting [`Fleet::wait`], with its sim-time advance.
    mailbox: Option<(ResponseEnvelope, f64)>,
    /// Quarantined by a shard's hung-VP watchdog: submissions are shed until
    /// [`Fleet::readmit`].
    quarantined: bool,
    /// Voluntarily retired ([`Fleet::retire`]): a finished guest that must
    /// not hold up its shard's sync quorums.
    retired: bool,
}

impl VpState {
    /// Address `request` to the VP's current session: returns the envelope
    /// body, keeping the guest-space original aside when they differ.
    ///
    /// # Errors
    ///
    /// The guest-visible message for a handle the session does not back.
    fn address(&mut self, request: Request) -> Result<Request, String> {
        let Cow::Owned(translated) = self.residency.translate(&request)? else {
            return Ok(request);
        };
        self.guest = Some(request);
        Ok(translated)
    }
}

#[derive(Debug)]
struct FrontState {
    vps: IntMap<VpId, VpState>,
    ring: HashRing,
    alive: Vec<bool>,
    /// Queued + executing jobs fleet-wide (the admission bound).
    depth: usize,
    admitted_in_window: u64,
    window_cost: Vec<f64>,
    window_cost_by_vp: IntMap<VpId, f64>,
    /// The front's own counters; [`FrontState::stats`] adds the cores'.
    stats: FleetStats,
    /// The front's counters as the registry last saw them (`None`: never
    /// published).
    published: Option<FleetStats>,
    /// Each shard core's ledger as of its last completed turn.
    cores: Vec<DispatchStats>,
    closed: bool,
}

impl FrontState {
    fn stats(&self) -> FleetStats {
        let mut stats = self.stats;
        for core in &self.cores {
            stats.sync_windows += core.sync_windows;
            stats.quorum_flushes += core.quorum_flushes;
            stats.timeout_flushes += core.timeout_flushes;
            stats.deadline_misses += core.deadline_misses;
        }
        stats
    }

    /// Add each of the front's counts' change since the last publish to the
    /// registry (with a recorder installed): at the end of every completed
    /// batch, and before every incident so a post-mortem carries the count
    /// of its own trigger.
    fn publish(&mut self) {
        let recorder = recorder();
        if recorder.enabled() {
            recorder
                .count_changes(&self.stats.counts(), self.published.map(|p| p.counts()).as_ref());
            self.published = Some(self.stats);
        }
    }
}

#[derive(Debug)]
struct Front {
    state: Mutex<FrontState>,
    cv: Condvar,
}

impl Front {
    /// Take in a batch of `shard`'s core turns with one lock and one wake:
    /// mirror its quarantines into admission, and for each delivery keep the
    /// guest's books — handle virtualisation and the journal, in guest space —
    /// advance the VP's simulated clock, and park the response in its mailbox;
    /// then publish the front's counts.
    fn complete(&self, shard: usize, turn: Turn, core: &DispatchStats) {
        let rec = recorder();
        let mut state = self.state.lock();
        state.cores[shard] = *core;
        for vp in turn.quarantined {
            state.vps.get_mut(&vp).expect("quarantined vp is admitted").quarantined = true;
            state.stats.quarantined_vps += 1;
        }
        for delivery in turn.deliveries {
            let (request, mut response) = (delivery.request, delivery.response);
            let st = state.vps.get_mut(&request.vp).expect("delivery belongs to an admitted vp");
            let guest = st.guest.take().unwrap_or(request.body);
            st.residency.settle(request.seq, &guest, &mut response.body);
            let device_s = match &response.body {
                Response::Launched { device_time_s } => *device_time_s,
                _ => 0.0,
            };
            let advance_s = st.cost_s + device_s;
            st.sim_s += advance_s;
            st.outstanding = false;
            let now = rec.wall_now_s();
            rec.span_for_job(
                TimeDomain::Wall,
                Lane::Vp(request.vp.0),
                "fleet request",
                st.submitted_wall_s,
                (now - st.submitted_wall_s).max(0.0),
                job_uid(request.vp.0, request.seq),
            );
            st.mailbox = Some((response, advance_s));
            state.depth -= 1;
            state.stats.completed += 1;
        }
        state.publish();
        self.cv.notify_all();
    }
}

/// What the front sends a shard thread, in one FIFO so the core sees
/// membership changes and requests in the order the front decided them.
#[derive(Debug)]
enum Inbound {
    /// A request to execute, with the wall time it was enqueued.
    Offer(Envelope, f64),
    /// The VP counts toward this shard's sync quorum (admitted, readmitted,
    /// or migrated here).
    Join(VpId),
    /// It no longer does (retired or migrated away).
    Leave(VpId),
}

#[derive(Debug, Default)]
struct Inbox {
    items: VecDeque<Inbound>,
    /// Times the shard thread has taken `items`, one batch each.
    handoffs: u64,
    /// Admission-probe mode: the shard thread parks without taking `items`.
    paused: bool,
    closed: bool,
}

#[derive(Debug)]
struct Shard {
    index: usize,
    /// Shared with the shard's [`DispatchCore`], which locks it only to
    /// resolve devices; the front locks it for admit/migrate/live_buffers.
    session: Arc<Mutex<ExecutionSession>>,
    inbox: Mutex<Inbox>,
    cv: Condvar,
    /// The session died: the shard thread stops between two messages and
    /// exits; `send` drops what comes after. The inbox lock orders it.
    down: AtomicBool,
    depth_gauge: String,
}

impl Shard {
    /// Queue `item`, waking the shard thread only when the inbox turns
    /// non-empty — the one state in which it can be parked on it.
    fn send(&self, item: Inbound) {
        let mut q = self.inbox.lock();
        if self.down.load(Ordering::Relaxed) {
            debug_assert!(!matches!(item, Inbound::Offer(..)), "submit re-targets off dead shards");
            return;
        }
        q.items.push_back(item);
        if q.items.len() == 1 {
            self.cv.notify_all();
        }
    }
}

/// Requests among `items`: a shard's queue depth.
fn offers(items: &VecDeque<Inbound>) -> usize {
    items.iter().filter(|item| matches!(item, Inbound::Offer(..))).count()
}

/// What woke a shard thread.
enum Wake {
    Batch,
    /// [`STALL_WALL_BACKSTOP`] passed with launches parked and nothing arriving.
    Stalled,
    Closed,
}

/// A shard thread: the [`DispatchCore`]'s inbox driver. Takes its whole inbox
/// under one lock, applies each message in FIFO order with one core turn each
/// and completes the batch at the front under one lock and one wake,
/// every shard-side lock released. Returns what a kill left unexecuted, for
/// [`Fleet::kill_session`] to re-home.
fn shard_loop(shard: Arc<Shard>, front: Arc<Front>, policy: Policy) -> Vec<Envelope> {
    let rec = recorder();
    let mut core = DispatchCore::new(shard.session.clone(), &policy, None, HashMap::new());
    let down = || shard.down.load(Ordering::Relaxed);
    let mut batch = VecDeque::new(); // swapped with the inbox when empty: both buffers are reused
    loop {
        let wake = {
            let mut q = shard.inbox.lock();
            loop {
                if down() {
                    let unapplied = batch.drain(..).chain(q.items.drain(..));
                    return unapplied
                        .filter_map(|item| match item {
                            Inbound::Offer(envelope, _) => Some(envelope),
                            Inbound::Join(_) | Inbound::Leave(_) => None,
                        })
                        .chain(core.abandon())
                        .collect();
                }
                if !q.paused {
                    if !q.items.is_empty() {
                        std::mem::swap(&mut q.items, &mut batch);
                        q.handoffs += 1;
                        break Wake::Batch;
                    }
                    if q.closed {
                        break Wake::Closed;
                    }
                    if core.stall_armed() {
                        let timed_out = shard.cv.wait_for(&mut q, STALL_WALL_BACKSTOP).timed_out();
                        if timed_out && !down() && !q.paused && !q.closed && q.items.is_empty() {
                            break Wake::Stalled;
                        }
                        continue;
                    }
                }
                shard.cv.wait(&mut q);
            }
        };
        let turn = match wake {
            Wake::Batch => {
                rec.gauge_set(&shard.depth_gauge, offers(&batch) as f64);
                let mut done = Turn::default();
                // A kill stops the batch here; the top of the loop orphans the rest.
                while !down() {
                    let Some(item) = batch.pop_front() else { break };
                    match item {
                        Inbound::Offer(envelope, enqueued_wall_s) => {
                            if rec.enabled() {
                                rec.span_for_job(
                                    TimeDomain::Wall,
                                    Lane::JobQueue,
                                    "fleet queue",
                                    enqueued_wall_s,
                                    (rec.wall_now_s() - enqueued_wall_s).max(0.0),
                                    job_uid(envelope.vp.0, envelope.seq),
                                );
                            }
                            core.offer(envelope);
                        }
                        Inbound::Join(vp) => core.join(vp),
                        Inbound::Leave(vp) => core.leave(vp),
                    }
                    let turn = core.turn();
                    done.deliveries.extend(turn.deliveries);
                    done.quarantined.extend(turn.quarantined);
                }
                done
            }
            Wake::Stalled => core.on_stall(),
            Wake::Closed => {
                front.complete(shard.index, core.close(), core.stats());
                return Vec::new();
            }
        };
        if !(turn.deliveries.is_empty() && turn.quarantined.is_empty()) {
            front.complete(shard.index, turn, core.stats());
        }
    }
}

/// Deterministic submitted-cost model used by the rebalancer: a pure function
/// of the request and the device architecture, independent of wall clocks and
/// profiler feedback, so every run of the same admission sequence plans the
/// same steals.
fn request_cost(arch: &GpuArch, request: &Request) -> f64 {
    const BASE_S: f64 = 1e-7;
    match request {
        Request::MemcpyH2D { data, .. } => BASE_S + arch.copy_time_s(data.len() as u64),
        Request::MemcpyD2H { len, .. } => BASE_S + arch.copy_time_s(*len),
        Request::Launch { grid_dim, block_dim, .. } => {
            let threads = *grid_dim as u64 * *block_dim as u64;
            BASE_S + threads as f64 / (arch.total_cores() as f64 * arch.clock_hz())
        }
        Request::Malloc { .. } | Request::Free { .. } | Request::Synchronize => BASE_S,
    }
}

/// Virtual nodes per session on the consistent-hash placement ring.
const RING_VNODES: usize = 16;

/// Steal trigger: rebalance when the hottest session's window cost exceeds
/// this many times the coolest session's.
const STEAL_RATIO: f64 = 1.25;

/// Most VPs marked for migration per steal round.
const MAX_STEALS_PER_ROUND: usize = 2;

/// The sharded multi-session front-end. See the module docs for the design.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<Arc<Shard>>,
    front: Arc<Front>,
    workers: Mutex<Vec<Option<JoinHandle<Vec<Envelope>>>>>,
}

impl Fleet {
    /// Build a fleet of `config.sessions` execution sessions, each serving
    /// kernels from `registry`, and start one shard thread per session.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] for an invalid configuration.
    pub fn new(config: FleetConfig, registry: KernelRegistry) -> Result<Fleet, FleetError> {
        config.validate()?;
        let mut shards = Vec::with_capacity(config.sessions);
        for index in 0..config.sessions {
            let mut session = ExecutionSession::new(
                vec![config.arch.clone(); config.gpus_per_session],
                registry.clone(),
            )
            .map_err(|e| FleetError::Config(e.to_string()))?;
            session.set_workers(1); // fleets scale out with sessions (`FleetConfig`)
            shards.push(Arc::new(Shard {
                index,
                session: Arc::new(Mutex::new(session)),
                inbox: Mutex::new(Inbox::default()),
                cv: Condvar::new(),
                down: AtomicBool::new(false),
                depth_gauge: format!("fleet.s{index}.queue_depth"),
            }));
        }
        let front = Arc::new(Front {
            state: Mutex::new(FrontState {
                vps: IntMap::default(),
                ring: HashRing::new(config.sessions, RING_VNODES),
                alive: vec![true; config.sessions],
                depth: 0,
                admitted_in_window: 0,
                window_cost: vec![0.0; config.sessions],
                window_cost_by_vp: IntMap::default(),
                stats: FleetStats::default(),
                published: None,
                cores: vec![DispatchStats::default(); config.sessions],
                closed: false,
            }),
            cv: Condvar::new(),
        });
        let policy = config.policy;
        let workers = shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                let front = Arc::clone(&front);
                Some(std::thread::spawn(move || shard_loop(shard, front, policy)))
            })
            .collect();
        Ok(Fleet { config, shards, front, workers: Mutex::new(workers) })
    }

    /// Whether session `s` is still alive.
    pub fn is_alive(&self, s: usize) -> bool {
        self.front.state.lock().alive.get(s).copied().unwrap_or(false)
    }

    /// Snapshot of the fleet counters.
    pub fn stats(&self) -> FleetStats {
        self.front.state.lock().stats()
    }

    /// Current fleet-wide in-flight depth (queued + executing jobs).
    pub fn depth(&self) -> usize {
        self.front.state.lock().depth
    }

    /// Device buffers currently allocated per session. A VP's buffers live on
    /// its current session only (DESIGN.md §12), so once every guest has freed
    /// what it allocated, every live session reads zero.
    pub fn live_buffers(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.session.lock().live_buffers()).collect()
    }

    /// Admit `vp` to the fleet, placing it on the consistent-hash ring.
    /// Returns the session index it landed on.
    ///
    /// # Errors
    ///
    /// [`FleetError::AlreadyAdmitted`] for a repeat admission,
    /// [`FleetError::NoSurvivingSessions`] when every session is dead,
    /// [`FleetError::Closed`] after shutdown.
    pub fn admit(&self, vp: VpId) -> Result<usize, FleetError> {
        let mut state = self.front.state.lock();
        if state.closed {
            return Err(FleetError::Closed);
        }
        if state.vps.contains_key(&vp) {
            return Err(FleetError::AlreadyAdmitted(vp));
        }
        let shard = state.ring.slot_of(vp.0 as u64).ok_or(FleetError::NoSurvivingSessions)?;
        self.shards[shard].session.lock().assign(vp);
        state.vps.insert(vp, VpState { shard, ..VpState::default() });
        self.shards[shard].send(Inbound::Join(vp));
        Ok(shard)
    }

    /// Submit one request for `vp`. Executes any pending migration first (the
    /// VP provably has nothing in flight here), translates handles for
    /// migrated VPs, and enqueues on the VP's session. Returns the request's
    /// sequence number; the response is collected with [`Fleet::wait`].
    ///
    /// # Errors
    ///
    /// [`FleetError::Saturated`] when the fleet-wide in-flight bound is hit
    /// (the request is shed — retry later), [`FleetError::Busy`] while the
    /// VP's previous request is unconsumed, [`FleetError::UnknownVp`] /
    /// [`FleetError::NoSurvivingSessions`] / [`FleetError::Closed`] as named.
    pub fn submit(&self, vp: VpId, request: Request) -> Result<u64, FleetError> {
        let rec = recorder();
        let mut state = self.front.state.lock();
        if state.closed {
            return Err(FleetError::Closed);
        }
        {
            let st = state.vps.get(&vp).ok_or(FleetError::UnknownVp(vp))?;
            if st.outstanding || st.mailbox.is_some() {
                return Err(FleetError::Busy(vp));
            }
            // Quarantine feeds admission: a wedged VP's work is *shed* with a
            // typed error instead of buffered against a quorum it no longer
            // counts toward.
            if st.quarantined {
                state.stats.quarantined += 1;
                return Err(FleetError::Quarantined {
                    vp,
                    source: VpError::Quarantined { vp: vp.0 },
                });
            }
        }
        // Admission-boundary deadline check: if the request's own submitted
        // cost already exceeds the budget, no schedule can save it — refuse
        // at the front door instead of burning device time.
        let cost_s = request_cost(&self.config.arch, &request);
        if let Some(budget_s) = self.config.policy.deadline_s() {
            if cost_s > budget_s {
                state.stats.deadline_misses += 1;
                return Err(FleetError::DeadlineExceeded {
                    vp,
                    source: VpError::DeadlineExceeded {
                        stage: DeadlineStage::Admission,
                        budget_s,
                        elapsed_s: cost_s,
                    },
                });
            }
        }
        if state.depth >= self.config.admission_capacity {
            state.stats.shed += 1;
            state.publish();
            // Incident hook: the flight recorder debounces shed bursts into
            // periodic post-mortem dumps.
            let capacity = self.config.admission_capacity as u64;
            rec.incident(IncidentKind::Shed { depth: state.depth as u64, capacity }, || {
                format!("vp {} shed at admission", vp.0)
            });
            return Err(FleetError::Saturated {
                depth: state.depth,
                capacity: self.config.admission_capacity,
            });
        }

        // Relocation point: a planned steal, or failover off a dead session.
        let current = state.vps.get(&vp).expect("checked above").shard;
        let mut target = state
            .vps
            .get_mut(&vp)
            .expect("checked above")
            .pending_target
            .take()
            .filter(|&t| state.alive[t]);
        if target.is_none() && !state.alive[current] {
            target = Some(state.ring.slot_of(vp.0 as u64).ok_or(FleetError::NoSurvivingSessions)?);
        }
        if let Some(t) = target {
            if t != current {
                self.migrate_locked(&mut state, vp, t);
            }
        }

        let st = state.vps.get_mut(&vp).expect("checked above");
        let seq = st.next_seq;
        st.next_seq += 1;
        let sent_at_s = st.sim_s;
        let body = match st.address(request) {
            Ok(body) => body,
            Err(message) => {
                // Unmapped handle: answer without touching any device.
                st.mailbox = Some((
                    ResponseEnvelope { vp, seq, sent_at_s, body: Response::Error { message } },
                    0.0,
                ));
                self.front.cv.notify_all();
                return Ok(seq);
            }
        };
        let deadline_s =
            self.config.policy.deadline_s().map_or(Envelope::NO_DEADLINE, |b| sent_at_s + b);
        let shard_idx = st.shard;
        st.outstanding = true;
        st.cost_s = cost_s;
        st.submitted_wall_s = rec.wall_now_s();

        state.window_cost[shard_idx] += cost_s;
        *state.window_cost_by_vp.entry(vp).or_insert(0.0) += cost_s;
        state.depth += 1;
        state.stats.admitted += 1;
        state.admitted_in_window += 1;
        if holds_launch(&self.config.policy, &body) {
            state.stats.sync_holds += 1;
        }
        self.shards[shard_idx].send(Inbound::Offer(
            Envelope { vp, seq, sent_at_s, deadline_s, body },
            rec.wall_now_s(),
        ));

        if self.config.steal_interval > 0 && state.admitted_in_window >= self.config.steal_interval
        {
            self.plan_steals(&mut state);
            state.admitted_in_window = 0;
        }
        Ok(seq)
    }

    /// Block until `vp`'s outstanding request completes; returns the response
    /// and the simulated-time advance it cost the guest.
    ///
    /// # Errors
    ///
    /// [`FleetError::NothingOutstanding`] when nothing is in flight and no
    /// response is parked; [`FleetError::UnknownVp`] as named.
    pub fn wait(&self, vp: VpId) -> Result<(ResponseEnvelope, f64), FleetError> {
        let mut state = self.front.state.lock();
        loop {
            let st = state.vps.get_mut(&vp).ok_or(FleetError::UnknownVp(vp))?;
            if let Some(delivered) = st.mailbox.take() {
                return Ok(delivered);
            }
            if !st.outstanding {
                return Err(FleetError::NothingOutstanding(vp));
            }
            self.front.cv.wait(&mut state);
        }
    }

    /// Non-blocking variant of [`Fleet::wait`].
    pub fn try_take(&self, vp: VpId) -> Option<(ResponseEnvelope, f64)> {
        self.front.state.lock().vps.get_mut(&vp).and_then(|st| st.mailbox.take())
    }

    /// Force-migrate an idle `vp` to session `target` (admin/test hook; the
    /// rebalancer and failover use the same machinery).
    ///
    /// # Errors
    ///
    /// [`FleetError::Busy`] while a request is in flight,
    /// [`FleetError::Config`] for a bad target, plus the usual
    /// [`FleetError::UnknownVp`].
    pub fn migrate(&self, vp: VpId, target: usize) -> Result<(), FleetError> {
        if target >= self.shards.len() {
            return Err(FleetError::Config(format!("no session {target}")));
        }
        let mut state = self.front.state.lock();
        let st = state.vps.get(&vp).ok_or(FleetError::UnknownVp(vp))?;
        if st.outstanding || st.mailbox.is_some() {
            return Err(FleetError::Busy(vp));
        }
        if st.shard != target {
            self.migrate_locked(&mut state, vp, target);
        }
        Ok(())
    }

    /// Retire a finished `vp` from its shard's sync-quorum denominator. A
    /// guest that has completed its script must not hold up lockstep windows
    /// for the VPs still running; retirement is the graceful counterpart of
    /// the watchdog's quarantine. Idempotent.
    ///
    /// # Errors
    ///
    /// [`FleetError::Busy`] while a request is in flight or a response is
    /// uncollected; [`FleetError::UnknownVp`] as named.
    pub fn retire(&self, vp: VpId) -> Result<(), FleetError> {
        let mut state = self.front.state.lock();
        let st = state.vps.get_mut(&vp).ok_or(FleetError::UnknownVp(vp))?;
        if st.outstanding || st.mailbox.is_some() {
            return Err(FleetError::Busy(vp));
        }
        if !st.retired {
            st.retired = true;
            self.shards[st.shard].send(Inbound::Leave(vp));
        }
        Ok(())
    }

    /// Readmit a quarantined `vp`: clear the quarantine and restore it to its
    /// shard's quorum denominator. The caller vouches the guest is live again
    /// (e.g. it reconnected or its hang resolved). No-op for a VP that is not
    /// quarantined.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownVp`] as named.
    pub fn readmit(&self, vp: VpId) -> Result<(), FleetError> {
        let mut state = self.front.state.lock();
        let st = state.vps.get_mut(&vp).ok_or(FleetError::UnknownVp(vp))?;
        if !st.quarantined {
            return Ok(());
        }
        st.quarantined = false;
        if !st.retired {
            self.shards[st.shard].send(Inbound::Join(vp));
        }
        state.stats.readmitted += 1;
        Ok(())
    }

    /// Kill session `s`: retire it from the placement ring, stop its shard
    /// thread, and re-home its queued and held jobs onto survivors (journal
    /// replay plus re-offer). Idle VPs of the dead session migrate lazily at
    /// their next submit. Idempotent; returns the number of rescued jobs.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for an unknown session index.
    pub fn kill_session(&self, s: usize) -> Result<usize, FleetError> {
        if s >= self.shards.len() {
            return Err(FleetError::Config(format!("no session {s}")));
        }
        let rec = recorder();
        {
            let mut state = self.front.state.lock();
            if !state.alive[s] {
                return Ok(0);
            }
            state.alive[s] = false;
            state.ring.retire(s);
            state.stats.session_trips += 1;
            state.publish();
            let survivors = state.alive.iter().filter(|a| **a).count();
            // Incident hook: an attached flight recorder dumps a post-mortem.
            rec.incident(IncidentKind::SessionKilled { session: s }, || {
                format!("session s{s} killed; {survivors} survive")
            });
        }
        // Stop the shard thread *without* holding the front lock — its final
        // in-flight completion needs it.
        let shard = &self.shards[s];
        shard.down.store(true, Ordering::Relaxed);
        // Passing through the inbox lock, the thread is parked or sees `down`.
        drop(shard.inbox.lock());
        shard.cv.notify_all();
        let worker = self.workers.lock()[s].take();
        let orphans = worker.map(|w| w.join().expect("shard thread panicked")).unwrap_or_default();
        rec.gauge_set(&shard.depth_gauge, 0.0);

        let mut rescued = 0;
        let mut state = self.front.state.lock();
        for envelope in orphans {
            let vp = envelope.vp;
            let target = state.ring.slot_of(vp.0 as u64);
            let st = state.vps.get_mut(&vp).expect("orphaned job belongs to an admitted vp");
            st.outstanding = false;
            let guest = st.guest.take().unwrap_or(envelope.body);
            // Re-home onto the ring's survivor and re-address the request
            // there; with no survivor, or a handle the replay lost, fail the
            // job without unbounded buffering.
            let body = match target {
                Some(target) => {
                    self.migrate_locked(&mut state, vp, target);
                    state.vps.get_mut(&vp).expect("just migrated").address(guest)
                }
                None => Err("no surviving sessions".into()),
            };
            let st = state.vps.get_mut(&vp).expect("orphaned job belongs to an admitted vp");
            match body {
                Ok(body) => {
                    st.outstanding = true;
                    // A parked launch is offered like any other: the
                    // survivor's core holds it again, in a window.
                    if holds_launch(&self.config.policy, &body) {
                        state.stats.sync_holds += 1;
                    }
                    self.shards[target.expect("addressed on a survivor")]
                        .send(Inbound::Offer(Envelope { body, ..envelope }, rec.wall_now_s()));
                    rescued += 1;
                    state.stats.rescued_jobs += 1;
                }
                Err(message) => {
                    st.mailbox = Some((
                        ResponseEnvelope {
                            vp,
                            seq: envelope.seq,
                            sent_at_s: envelope.sent_at_s,
                            body: Response::Error { message },
                        },
                        0.0,
                    ));
                    state.depth -= 1;
                }
            }
        }
        self.front.cv.notify_all();
        Ok(rescued)
    }

    /// A point-in-time fleet-wide observability view: one merged metrics
    /// registry snapshot (every shard records into the shared registry under
    /// `fleet.s{i}.*` names) plus authoritative per-shard state read under the
    /// fleet's own locks — gauges can lag a racing shard thread, these cannot.
    pub fn observability(&self, telemetry: &Telemetry) -> FleetObservability {
        let state = self.front.state.lock();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let q = shard.inbox.lock();
                ShardView {
                    index: i,
                    alive: state.alive[i],
                    vps: state.vps.values().filter(|st| st.shard == i).count(),
                    queue_depth: offers(&q.items),
                    handoffs: q.handoffs,
                    live_buffers: shard.session.lock().live_buffers(),
                }
            })
            .collect();
        FleetObservability {
            metrics: telemetry.snapshot(),
            depth: state.depth,
            stats: state.stats(),
            shards,
        }
    }

    /// Park every shard thread without taking its inbox (deterministic admission
    /// probes: with workers held, `capacity + k` submits shed exactly `k`
    /// requests).
    pub fn hold_workers(&self) {
        for shard in &self.shards {
            shard.inbox.lock().paused = true;
        }
    }

    /// Resume held shard threads.
    pub fn release_workers(&self) {
        for shard in &self.shards {
            shard.inbox.lock().paused = false;
            shard.cv.notify_all();
        }
    }

    /// Shut the fleet down: stop accepting work, let every shard drain its
    /// inbox and flush what its core still holds, join the threads, and price
    /// each session's job log through the configured scheduling policy. Call
    /// once, after collecting every outstanding response.
    pub fn shutdown(&self) -> FleetOutcome {
        self.front.state.lock().closed = true;
        for shard in &self.shards {
            let mut q = shard.inbox.lock();
            q.closed = true;
            q.paused = false;
            shard.cv.notify_all();
        }
        for handle in self.workers.lock().iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
        let pipeline = Pipeline::from_policy(&self.config.policy);
        let sessions = self
            .shards
            .iter()
            .map(|shard| shard.session.lock().drain_and_plan(&pipeline, &|_| false))
            .collect();
        // What the front counted after the last completed batch (a refusal,
        // a readmission) reaches the registry here.
        let mut state = self.front.state.lock();
        state.publish();
        FleetOutcome { sessions, stats: state.stats() }
    }

    /// Move `vp`'s device state into `target`'s session and switch its
    /// placement: its journal replays there and, when the source session is
    /// still alive, the buffers it held on the source are freed — a move
    /// leaves nothing behind. Caller holds the front lock and guarantees
    /// nothing is in flight for `vp`. Infallible: a rejected replay leaves the
    /// VP with an empty handle map (subsequent requests fail with typed
    /// per-request errors) and is counted in `replay_failures`.
    fn migrate_locked(&self, state: &mut FrontState, vp: VpId, target: usize) {
        let rec = recorder();
        let st = state.vps.get_mut(&vp).expect("migrating an admitted vp");
        debug_assert!(!st.outstanding, "migration requires an idle vp");
        let source = st.shard;
        let runtime_on = |shard: usize| {
            let mut session = self.shards[shard].session.lock();
            let device = session.assign(vp);
            session.runtime(device)
        };
        let moved = relocate_between(
            &mut st.residency,
            vp,
            state.alive[source].then(|| runtime_on(source)).as_deref(),
            &runtime_on(target),
            &format!("s{target}"),
        );
        st.shard = target;
        // Move the VP's quorum slot with it; a window on the source that was
        // waiting on this VP can now flush.
        self.shards[source].send(Inbound::Leave(vp));
        if !st.quarantined && !st.retired {
            self.shards[target].send(Inbound::Join(vp));
        }
        if rec.enabled() {
            // Zero-width marker carrying the uid of the first post-migration
            // job, so its lifecycle is tagged `migrated` even if nothing was
            // replayed.
            rec.span_for_job(
                TimeDomain::Wall,
                Lane::Dispatcher,
                format!("migration edge s{source} -> s{target}"),
                rec.wall_now_s(),
                0.0,
                job_uid(vp.0, st.next_seq),
            );
        }
        if moved.failed {
            state.stats.replay_failures += 1;
        } else {
            state.stats.replayed_jobs += moved.replayed as u64;
        }
        state.stats.migrations += 1;
    }

    /// Plan up to [`MAX_STEALS_PER_ROUND`] migrations from the hottest alive
    /// shard to the coolest, by submitted cost over the closing window.
    /// Deterministic: costs are pure functions of the admitted requests, and
    /// every tie breaks on the lowest index.
    fn plan_steals(&self, state: &mut FrontState) {
        let mut hottest: Option<usize> = None;
        let mut coolest: Option<usize> = None;
        for s in 0..state.window_cost.len() {
            if !state.alive[s] {
                continue;
            }
            if hottest.is_none_or(|h| state.window_cost[s] > state.window_cost[h]) {
                hottest = Some(s);
            }
            if coolest.is_none_or(|c| state.window_cost[s] < state.window_cost[c]) {
                coolest = Some(s);
            }
        }
        if let (Some(hot), Some(cool)) = (hottest, coolest) {
            if hot != cool && state.window_cost[hot] > STEAL_RATIO * state.window_cost[cool] {
                let mut candidates: Vec<(VpId, f64)> = state
                    .window_cost_by_vp
                    .iter()
                    .filter(|(vp, _)| {
                        state
                            .vps
                            .get(vp)
                            .is_some_and(|st| st.shard == hot && st.pending_target.is_none())
                    })
                    .map(|(vp, cost)| (*vp, *cost))
                    .collect();
                candidates.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0 .0.cmp(&b.0 .0))
                });
                for (vp, _) in candidates.into_iter().take(MAX_STEALS_PER_ROUND) {
                    state.vps.get_mut(&vp).expect("candidate is admitted").pending_target =
                        Some(cool);
                    state.stats.steals += 1;
                }
            }
        }
        for cost in &mut state.window_cost {
            *cost = 0.0;
        }
        state.window_cost_by_vp.clear();
    }
}

/// One shard's live state as seen by [`Fleet::observability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// Session index.
    pub index: usize,
    /// Whether the session is still serving (not killed).
    pub alive: bool,
    /// VPs currently homed on this session.
    pub vps: usize,
    /// Requests queued on this session that its shard thread has not taken yet.
    pub queue_depth: usize,
    /// Times the shard thread took its inbox: admitted ÷ handoffs is the mean batch.
    pub handoffs: u64,
    /// Device buffers currently allocated across the session's GPUs.
    pub live_buffers: usize,
}

/// Fleet-wide aggregation for dashboards and flight recorders: the merged
/// metrics registry plus per-shard views and the fleet counters, all from one
/// locked pass ([`Fleet::observability`]).
#[derive(Debug, Clone)]
pub struct FleetObservability {
    /// Merged registry snapshot (counters, gauges, histogram quantiles).
    pub metrics: MetricsSnapshot,
    /// Queued + executing jobs fleet-wide (the admission-bound occupancy).
    pub depth: usize,
    /// Fleet-lifetime counters.
    pub stats: FleetStats,
    /// Per-shard live state, in session order.
    pub shards: Vec<ShardView>,
}

/// Everything a finished fleet run yields: per-session planned outcomes plus
/// the fleet counters.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-session outcomes, in session order (dead sessions keep the jobs
    /// they executed before dying).
    pub sessions: Vec<SessionOutcome>,
    /// Fleet-lifetime counters.
    pub stats: FleetStats,
}

impl FleetOutcome {
    /// Device-touching jobs executed across every session.
    pub fn gpu_jobs(&self) -> usize {
        self.sessions.iter().map(SessionOutcome::gpu_jobs).sum()
    }

    /// Slowest session's planned makespan (sessions run on independent
    /// hardware).
    pub fn makespan_s(&self) -> f64 {
        self.sessions.iter().map(SessionOutcome::makespan_s).fold(0.0, f64::max)
    }

    /// Per-VP simulated queue waits merged across sessions, ascending VP
    /// order. A migrated VP contributes the jobs it ran on every session it
    /// visited.
    pub fn queue_wait_by_vp(&self) -> Vec<(VpId, VpQueueWait)> {
        VpQueueWait::merge_by_vp(self.sessions.iter().flat_map(SessionOutcome::queue_wait_by_vp))
    }

    /// The fleet starvation signal: p99 (nearest-rank) of per-VP worst
    /// simulated queue waits. Zero for an empty fleet.
    pub fn p99_queue_wait_s(&self) -> f64 {
        VpQueueWait::p99_worst_s(&self.queue_wait_by_vp())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    use sigmavp_workloads::app::Application;
    use sigmavp_workloads::apps::VectorAddApp;

    use super::*;
    use crate::script::{drive, VpScript};

    fn two_shard_fleet() -> Fleet {
        let registry = VectorAddApp { n: 256 }.kernels().into_iter().collect();
        Fleet::new(FleetConfig::new(2), registry).expect("fleet builds")
    }

    #[test]
    fn a_dead_shards_inbox_stops_growing() {
        let fleet = two_shard_fleet();
        let mut on_s0 = Vec::new();
        for vp in 0..16 {
            if fleet.admit(VpId(vp)).unwrap() == 0 {
                on_s0.push((VpId(vp), VpScript::vector_add(64, 1, vp as u64)));
            }
        }
        assert!(!on_s0.is_empty(), "the ring homes some of 16 VPs on s0");
        fleet.kill_session(0).unwrap();
        drive(&fleet, &mut on_s0).expect("every script validates on the survivor");
        assert_eq!(fleet.stats().migrations, on_s0.len() as u64, "each of s0's VPs failed over");
        // Each failover told the dead source its VP left; nobody is there to hear it.
        assert!(fleet.shards[0].inbox.lock().items.is_empty());
        fleet.shutdown();
    }

    /// The shard thread is only woken when its inbox turns non-empty, so a
    /// missed edge would strand a request for good: four guest threads and a
    /// thread toggling holds race for that edge, and every request must come
    /// back before the deadline. Toggling stops halfway, because every
    /// `release_workers` wakes the shards and would mask a missing notify.
    #[test]
    fn no_wake_up_is_lost_while_holds_toggle() {
        let fleet = two_shard_fleet();
        let deadline = Instant::now() + Duration::from_secs(10);
        let answered = AtomicU64::new(0);
        let half = 4 * 32 * VpScript::vector_add(64, 2, 0).jobs_total() / 2;
        let submitted: u64 = std::thread::scope(|scope| {
            scope.spawn(|| {
                while answered.load(Ordering::Relaxed) < half && Instant::now() < deadline {
                    fleet.hold_workers();
                    std::thread::yield_now();
                    fleet.release_workers();
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            let guests: Vec<_> = (0..4u32)
                .map(|t| {
                    let (fleet, answered) = (&fleet, &answered);
                    scope.spawn(move || {
                        let mut scripts: Vec<(VpId, VpScript)> = (t * 32..(t + 1) * 32)
                            .map(|vp| {
                                fleet.admit(VpId(vp)).unwrap();
                                (VpId(vp), VpScript::vector_add(64, 2, vp as u64))
                            })
                            .collect();
                        let mut last: Vec<Option<Response>> = vec![None; scripts.len()];
                        let mut submitted = 0;
                        loop {
                            let mut live = Vec::new();
                            for (i, (vp, script)) in scripts.iter_mut().enumerate() {
                                if let Some(request) = script.next(last[i].take().as_ref()).unwrap()
                                {
                                    fleet.submit(*vp, request).expect("capacity covers every VP");
                                    live.push((i, *vp));
                                }
                            }
                            if live.is_empty() {
                                return submitted;
                            }
                            submitted += live.len() as u64;
                            for (i, vp) in live {
                                last[i] = loop {
                                    if let Some((response, _)) = fleet.try_take(vp) {
                                        answered.fetch_add(1, Ordering::Relaxed);
                                        break Some(response.body);
                                    }
                                    assert!(Instant::now() < deadline, "{vp}: request stranded");
                                    std::thread::sleep(Duration::from_micros(20));
                                };
                            }
                        }
                    })
                })
                .collect();
            guests.into_iter().map(|guest| guest.join().unwrap()).sum()
        });
        assert_eq!(fleet.stats().completed, submitted);
        fleet.shutdown();
    }
}
