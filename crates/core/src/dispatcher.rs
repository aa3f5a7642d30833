//! The dispatcher-based live runtime: the full Fig. 2 host-side loop over real
//! transports.
//!
//! This module runs the paper's architecture literally:
//!
//! * each VP thread talks through a real transport endpoint — frames are
//!   encoded, sent, and decoded on the other side;
//! * there is **no polling dispatcher thread**: the guest thread that brings a
//!   request *pumps* the dispatch side itself (caller-runs, see `Driver`) —
//!   it feeds the decoded requests to the [`DispatchCore`], which queues them
//!   in its pending window (the paper's Job Queue), executes each job in
//!   arrival order on the device its VP was routed to by the
//!   [`ExecutionSession`], and hands back the responses to send. A VP is
//!   stopped exactly while the core holds its synchronous launch in a sync
//!   window (Fig. 4b); the response that ends the hold is its resume. A
//!   guest that finds the pump busy blocks on its own response channel and
//!   the holder serves its frame, so windows grow beyond one job exactly when
//!   there is contention. A **timer thread** sleeps until a VP leaves, the
//!   stall backstop expires or a delayed frame is due;
//! * expected durations come from the device **profiler feedback loop**: the first
//!   launch of a kernel is unknown (duration 0), subsequent launches use the last
//!   observed time — exactly how the paper's Re-scheduler consumes the Profiler's
//!   output ("by using the expected time for each invocation").
//!
//! Kernel Interleaving (Fig. 4a) is priced where it is planned: each device
//! log at [`DispatchedSigmaVp::join`], in simulated send order, through the
//! [`Pipeline`], and each held window at its flush. Because guest calls are
//! synchronous, the pending window holds at most one request per VP — which
//! is precisely why the paper needs VP stop/resume (`Policy::with_sync_hold`).
//!
//! # The wall clock
//!
//! Decisions read simulated time. The driver reads the wall clock through
//! `wall_now` only where a thread may wait: a guest whose answer is not on
//! its link after the kick (it sets its receive backstop), a round that
//! decodes a frame while the stall backstop is armed, and the timer. A
//! request served inline reads none; at ≈ 50 ns a read, six reads were a
//! tenth of a ≈ 3 µs request on a 2-vCPU host. Telemetry spans use the
//! recorder's clock, read only while a recorder is installed.
//!
//! # Fault tolerance
//!
//! With [`DispatchedSigmaVp::with_faults`] every VP link is wrapped in a
//! [`FaultyTransport`] that injects the plan's drops, corruption and delays;
//! the core injects the plan's transient device errors and honours its
//! scheduled outages (see [`crate::dispatch`]). On the guest side `RemoteGpu`
//! retries on receive timeout, corrupt response, or a `transient:` device
//! error, with exponential backoff and jitter from the [`Policy`]'s
//! [`RetryPolicy`]; retries reuse the request's sequence number, which is what
//! the core's effect-once dedup keys on.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use sigmavp_fault::{is_transient_error, DropNotice, FaultPlan, FaultyTransport, LinkDirection};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::codec;
use sigmavp_ipc::message::{Envelope, Request, Response, VpId, WireParam};
use sigmavp_ipc::transport::{pair, Transport, TransportCost};
use sigmavp_ipc::IpcError;
use sigmavp_sched::{Pipeline, Policy, RetryPolicy};
use sigmavp_telemetry::{Lane, TimeDomain};
use sigmavp_vp::error::{parse_deadline_violation, DeadlineStage, VpError};
use sigmavp_vp::platform::{SimClock, VirtualPlatform};
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_vp::service::GpuService;
use sigmavp_workloads::app::{AppEnv, Application};

pub use crate::dispatch::DispatchStats;
use crate::dispatch::{DispatchCore, Turn, STALL_WALL_BACKSTOP};
use crate::host::{unexpected, JobRecord};
use crate::session::ExecutionSession;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wall-clock floor on every receive wait; see the comment at its use site.
const WALL_DEADLINE_BACKSTOP: Duration = Duration::from_secs(2);

/// The driver's one wall-clock read (see the module doc for where it is
/// taken). Tests count the calls made on their own thread.
#[allow(clippy::disallowed_methods)]
fn wall_now() -> Instant {
    #[cfg(test)]
    tests::CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    Instant::now()
}

/// Guest-side [`GpuService`] over a real transport endpoint, with request-level
/// retry: the forwarding backend of every ΣVP guest.
///
/// Every request carries a stable sequence number that retries *reuse*, so the
/// host can deduplicate: a retry after a lost response gets the cached response
/// back instead of a second execution. Receive timeouts, corrupt response
/// frames, and `transient:` device errors are retried up to
/// [`RetryPolicy::max_attempts`] with exponential backoff and jitter; anything
/// else surfaces as a [`VpError`] preserving the IPC cause.
struct RemoteGpu {
    vp: VpId,
    transport: Box<dyn Transport>,
    seq: u64,
    /// Shared view of the owning VP's simulated clock; stamps every request's
    /// `sent_at_s` so the host can measure guest-observed queueing delay.
    clock: SimClock,
    /// The architecture of the device the VP was placed on at spawn: a
    /// synchronous copy blocks the guest for its copy time on it. A VP
    /// relocated later keeps this price.
    arch: GpuArch,
    /// Transport delay charged so far, both directions, seconds.
    transport_s: f64,
    retry: RetryPolicy,
    /// Per-request end-to-end deadline budget in simulated microseconds
    /// (`Policy::deadline_us`); 0 disables deadlines and every envelope
    /// carries [`Envelope::NO_DEADLINE`].
    deadline_us: u64,
    /// Jitter source for backoff; seeded per VP (and from the fault plan when
    /// one is active) so runs are reproducible.
    rng: StdRng,
    /// The dispatch side this VP kicks after every send, and asks whether it
    /// is holding this VP's launch when the link goes quiet.
    driver: Arc<Driver>,
}

impl RemoteGpu {
    fn round_trip(&mut self, body: Request) -> Result<(Response, f64), VpError> {
        let seq = self.seq;
        self.seq += 1;
        let recorder = sigmavp_telemetry::recorder();
        let sent_wall_s = recorder.wall_now_s();
        // Simulated time spent waiting out timeouts and backoff; folded into the
        // returned delay so the guest clock reflects the recovery cost.
        let mut extra_sim_s = 0.0f64;
        let mut attempts = 0u32;
        let mut last_err = IpcError::Timeout { waited_us: 0 };
        // The request's absolute deadline on the simulated timeline, fixed at
        // birth: retries reuse it, so recovery cost eats into the same budget.
        let birth_s = self.clock.now_s();
        let budget_s = self.deadline_us as f64 * 1e-6;
        let deadline_s =
            if self.deadline_us > 0 { birth_s + budget_s } else { Envelope::NO_DEADLINE };
        // Built once: a retry re-stamps the send time and re-encodes, but the
        // payload is never copied again.
        let mut envelope = Envelope { vp: self.vp, seq, sent_at_s: 0.0, deadline_s, body };
        loop {
            attempts += 1;
            envelope.sent_at_s = self.clock.now_s() + extra_sim_s;
            let frame = codec::encode_request(&envelope);
            let out_delay = self.transport.send(frame).map_err(VpError::Ipc)?;
            // Caller-runs: serve the request on this thread if the pump is
            // free; if it is busy its holder picks the frame up. Either way
            // the receive below blocks until the response is in the channel.
            self.driver.kick(self.vp);
            // Injected faults time out instantly through the link's
            // DropNotice, so this wall deadline is only a liveness backstop
            // against a genuinely wedged host. It is deliberately far above
            // RetryPolicy::timeout (the *simulated* wait charged to the
            // guest): a pump holder starved on a loaded CI machine must not be
            // mistaken for a dropped frame, or fault counters stop being
            // reproducible. It is set only once a look finds the link empty:
            // a request this thread served is already answered.
            let backstop = self.retry.timeout().max(WALL_DEADLINE_BACKSTOP);
            let mut deadline = None;
            // `Some` once a frame for *this* request decoded; stale responses
            // (retries answered twice) are discarded without ending the wait.
            let accepted = loop {
                let frame = match self.transport.try_recv().map_err(VpError::Ipc)? {
                    Some(resp_frame) => Some(resp_frame),
                    None => {
                        let until = *deadline.get_or_insert_with(|| wall_now() + backstop);
                        self.transport.recv_deadline(until).map_err(VpError::Ipc)?
                    }
                };
                let frame = match frame {
                    Some(resp_frame) => Some(resp_frame),
                    None if self.driver.is_held(self.vp) => {
                        // The dispatcher is deliberately holding this sync
                        // request in a cross-VP window (the VP is stopped):
                        // silence is not a fault. Keep listening, on a fresh
                        // backstop, without charging a timeout or a retry.
                        deadline = None;
                        continue;
                    }
                    // The backstop ran out (not an injected drop's notice), and
                    // `is_held` may have waited out the very pump session that
                    // flushed this window and sent the answer: look once more.
                    None if deadline.is_some_and(|until| wall_now() >= until) => {
                        self.transport.try_recv().map_err(VpError::Ipc)?
                    }
                    None => None,
                };
                let Some(resp_frame) = frame else {
                    last_err = IpcError::Timeout { waited_us: self.retry.timeout_us };
                    extra_sim_s += self.retry.timeout_s();
                    break None;
                };
                let back_delay = self.transport.cost().delay_for(resp_frame.len() as u64);
                match codec::decode_response(&resp_frame) {
                    // A stale response: a retry answered twice.
                    Ok(decoded) if decoded.seq < seq => continue,
                    Ok(decoded) => break Some((decoded, back_delay)),
                    Err(e) => {
                        last_err = e;
                        break None;
                    }
                }
            };
            match accepted {
                Some((decoded, back_delay)) => match decoded.body {
                    Response::Error { message } if is_transient_error(&message) => {
                        if attempts >= self.retry.max_attempts {
                            return Err(VpError::Device(message));
                        }
                    }
                    Response::Error { message } => {
                        // A host-side deadline violation travels as a
                        // structured error string (the dispatcher has no typed
                        // channel); surface it as the typed variant with the
                        // budget/elapsed view this guest actually experienced.
                        if let Some((stage, _, now_s)) = parse_deadline_violation(&message) {
                            return Err(VpError::DeadlineExceeded {
                                stage,
                                budget_s,
                                elapsed_s: (now_s - birth_s).max(0.0),
                            });
                        }
                        return Err(VpError::Device(message));
                    }
                    other => {
                        // The guest-observed round trip, stamped with the job uid
                        // so lifecycle joins can line the envelope send up against
                        // the host-side spans.
                        recorder.span_for_job(
                            TimeDomain::Wall,
                            Lane::Vp(self.vp.0),
                            "request",
                            sent_wall_s,
                            recorder.wall_now_s() - sent_wall_s,
                            sigmavp_telemetry::job_uid(self.vp.0, seq),
                        );
                        self.transport_s += out_delay + back_delay;
                        return Ok((other, out_delay + back_delay + extra_sim_s));
                    }
                },
                None => {
                    if attempts >= self.retry.max_attempts {
                        return Err(VpError::Ipc(last_err));
                    }
                }
            }
            recorder.count("fault.retries", 1);
            let unit: f64 = self.rng.gen_range(0.0..1.0);
            let backoff = self.retry.backoff_s(attempts, unit);
            extra_sim_s += backoff;
            // Execute boundary: the accumulated recovery cost (timeouts plus
            // backoff, all simulated time) has outlived the request's budget —
            // surface the typed deadline error instead of burning the
            // remaining attempts. It is the guest's to see, not the core's
            // ledger's: `DispatchStats::deadline_misses` counts refusals only.
            if birth_s + extra_sim_s > deadline_s {
                return Err(VpError::DeadlineExceeded {
                    stage: DeadlineStage::Execute,
                    budget_s,
                    elapsed_s: extra_sim_s,
                });
            }
            if backoff > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(backoff.min(0.005)));
            }
        }
    }
}

impl GpuService for RemoteGpu {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        match self.round_trip(Request::Malloc { bytes })? {
            (Response::Malloc { handle }, delay) => Ok((handle, delay)),
            (other, _) => Err(unexpected(other)),
        }
    }

    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        let (_, delay) = self.round_trip(Request::Free { handle })?;
        Ok(delay)
    }

    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        let delay = self.memcpy_h2d_async(0, handle, data)?;
        Ok(delay + self.arch.copy_time_s(data.len() as u64))
    }

    fn memcpy_h2d_async(&mut self, stream: u32, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        let (_, delay) =
            self.round_trip(Request::MemcpyH2D { handle, data: data.to_vec(), stream })?;
        Ok(delay)
    }

    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        let delay = self.memcpy_d2h_async(0, handle, out)?;
        Ok(delay + self.arch.copy_time_s(out.len() as u64))
    }

    fn memcpy_d2h_async(
        &mut self,
        stream: u32,
        handle: u64,
        out: &mut [u8],
    ) -> Result<f64, VpError> {
        match self.round_trip(Request::MemcpyD2H { handle, len: out.len() as u64, stream })? {
            (Response::Data { data }, delay) => {
                if data.len() != out.len() {
                    return Err(VpError::SizeMismatch {
                        buffer: data.len() as u64,
                        host: out.len() as u64,
                    });
                }
                out.copy_from_slice(&data);
                Ok(delay)
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    fn launch(
        &mut self,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        self.launch_on_stream(0, kernel, grid_dim, block_dim, params, sync)
    }

    fn launch_on_stream(
        &mut self,
        stream: u32,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        match self.round_trip(Request::Launch {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            params: params.to_vec(),
            sync,
            stream,
        })? {
            (Response::Launched { device_time_s }, delay) => {
                Ok(if sync { delay + device_time_s } else { delay })
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    fn synchronize(&mut self) -> Result<f64, VpError> {
        let (_, delay) = self.round_trip(Request::Synchronize)?;
        Ok(delay)
    }
}

/// Per-VP result of a live run.
#[derive(Debug, Clone, PartialEq)]
pub struct VpOutcome {
    /// The VP.
    pub vp: VpId,
    /// Application name it ran.
    pub app: String,
    /// Final simulated time of the VP's clock.
    pub simulated_time_s: f64,
    /// The part of it not spent blocked on the GPU service: guest CPU work,
    /// file I/O, software OpenGL.
    pub non_gpu_time_s: f64,
    /// Transport delay the VP was charged, both directions.
    pub transport_time_s: f64,
    /// GPU API calls issued.
    pub gpu_calls: u64,
    /// Error message if the application failed (validation or backend).
    pub error: Option<String>,
}

/// Result of joining a live run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedReport {
    /// Per-VP outcomes, in spawn order.
    pub outcomes: Vec<VpOutcome>,
    /// All job records, concatenated device by device (the full log for
    /// single-device runs, in simulated send order).
    pub records: Vec<JobRecord>,
    /// Per-device job logs, each in simulated send order.
    pub device_records: Vec<Vec<JobRecord>>,
    /// Fleet device makespan: each device's planned job stream replayed through
    /// the engine model; the slowest device counts.
    pub device_makespan_s: f64,
    /// Kernel groups the whole-stream plan merged by coalescing.
    pub coalesced_groups: usize,
    /// Member launches those groups absorbed.
    pub coalesced_members: usize,
    /// Best compute-engine utilization of the planned device timelines.
    pub compute_utilization: f64,
    /// VPs whose thread failed (application error or panic), with the error.
    /// A failed VP does not abort the fleet: healthy VPs still complete and
    /// their outcomes are reported alongside.
    pub failed_vps: Vec<(VpId, VpError)>,
}

impl ThreadedReport {
    /// Whether every VP completed without error.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.error.is_none()) && self.failed_vps.is_empty()
    }
}

/// Best-effort panic payload extraction for reporting a crashed VP thread.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// A spawned VP thread awaiting collection: its id, app name, and the handle
/// yielding the outcome plus any structured error.
type VpHandle = (VpId, String, JoinHandle<(VpOutcome, Option<VpError>)>);

/// Join a batch of VP threads without letting one panic abort the fleet: a
/// panicked thread is reported as a failed VP (with a synthesized outcome) and
/// every healthy VP's result is still collected. Threads report their
/// structured [`VpError`] (if any) alongside the outcome.
fn collect_vp_outcomes(handles: Vec<VpHandle>) -> (Vec<VpOutcome>, Vec<(VpId, VpError)>) {
    let mut outcomes = Vec::new();
    let mut failed_vps: Vec<(VpId, VpError)> = Vec::new();
    for (vp, app, handle) in handles {
        match handle.join() {
            Ok((outcome, error)) => {
                if let Some(error) = error {
                    failed_vps.push((vp, error));
                }
                outcomes.push(outcome);
            }
            Err(payload) => {
                let message = format!("vp thread panicked: {}", panic_message(&*payload));
                failed_vps.push((vp, VpError::Device(message.clone())));
                outcomes.push(VpOutcome {
                    vp,
                    app,
                    simulated_time_s: 0.0,
                    non_gpu_time_s: 0.0,
                    transport_time_s: 0.0,
                    gpu_calls: 0,
                    error: Some(message),
                });
            }
        }
    }
    outcomes.sort_by_key(|o| o.vp);
    failed_vps.sort_by_key(|f| f.0);
    (outcomes, failed_vps)
}

/// A live ΣVP system over real transports, its dispatch side pumped by the
/// guest threads themselves.
pub struct DispatchedSigmaVp {
    archs: Vec<GpuArch>,
    registry: KernelRegistry,
    cost: TransportCost,
    policy: Policy,
    pending: Vec<(VpId, Box<dyn Application + Send>)>,
    coalescible: HashMap<VpId, bool>,
    next_vp: u32,
    faults: Option<Arc<FaultPlan>>,
}

impl DispatchedSigmaVp {
    /// A system over `archs` host GPUs serving `registry`, with the given
    /// transport cost model for every VP connection. VPs are routed to the
    /// least-loaded device as they spawn.
    ///
    /// # Panics
    ///
    /// Panics if `archs` is empty.
    pub fn new(archs: Vec<GpuArch>, registry: KernelRegistry, cost: TransportCost) -> Self {
        assert!(!archs.is_empty(), "dispatcher runtime needs at least one host gpu");
        DispatchedSigmaVp {
            archs,
            registry,
            cost,
            policy: Policy::Fifo,
            pending: Vec::new(),
            coalescible: HashMap::new(),
            next_vp: 0,
            faults: None,
        }
    }

    /// Single-device convenience constructor (the historical signature's shape).
    pub fn single(arch: GpuArch, registry: KernelRegistry, cost: TransportCost) -> Self {
        Self::new(vec![arch], registry, cost)
    }

    /// Override the scheduling policy (defaults to [`Policy::Fifo`]: earliest-start
    /// interleaving, no coalescing). The pipeline derived from it plans each
    /// held window and prices the final device timelines.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Inject faults from a deterministic [`FaultPlan`]: every VP link is
    /// wrapped in a [`FaultyTransport`] seeded from the plan, and the
    /// dispatcher honours the plan's device outages and transient errors.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Register an application to run on its own VP thread. Returns the VP id.
    pub fn spawn(&mut self, app: Box<dyn Application + Send>) -> VpId {
        let vp = VpId(self.next_vp);
        self.next_vp += 1;
        self.coalescible.insert(vp, app.characteristics().coalescible);
        self.pending.push((vp, app));
        vp
    }

    /// Launch the VP threads and the dispatch driver, wait for completion, and
    /// collect the report plus dispatcher statistics. A VP thread that fails or panics
    /// lands in [`ThreadedReport::failed_vps`] without aborting the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the dispatch side itself panics — on the timer thread or under
    /// a guest's pump — which is a bug, not a guest failure.
    pub fn join(self) -> (ThreadedReport, DispatchStats) {
        let mut session = ExecutionSession::new(self.archs, self.registry)
            .expect("constructor checked for at least one device");
        session.set_workers(self.policy.workers);

        // One transport pair per VP; route each VP to a device up front. With a
        // fault plan active, both ends of the link go through a FaultyTransport
        // carrying that direction's deterministic decision stream, and share a
        // DropNotice so an injected drop (or an undecodable request) times the
        // guest out in simulated time immediately — wall-clock scheduling
        // never decides whether a retry happens.
        let mut host_ends: Vec<Box<dyn Transport>> = Vec::new();
        let mut guests = Vec::new();
        for (vp, app) in self.pending {
            debug_assert_eq!(vp.0 as usize, host_ends.len(), "the pump indexes endpoints by VP id");
            let device = session.assign(vp);
            let arch = session.arch(device).clone();
            let (vp_end, host_end) = pair(self.cost);
            let (host_end, guest_faults): (Box<dyn Transport>, _) = match &self.faults {
                Some(plan) => {
                    let notice = DropNotice::new();
                    let host_faults = plan.link_faults(vp, LinkDirection::HostToGuest);
                    let host_end = FaultyTransport::new(host_end, host_faults)
                        .with_notice(notice.clone(), false);
                    let guest_faults = plan.link_faults(vp, LinkDirection::GuestToHost);
                    (Box::new(host_end), Some((guest_faults, notice)))
                }
                None => (Box::new(host_end), None),
            };
            host_ends.push(host_end);
            guests.push((vp, app, arch, vp_end, guest_faults));
        }

        let retry = self.policy.retry;
        let deadline_us = self.policy.deadline_us;
        let session = Arc::new(Mutex::new(session));
        let coalescible = self.coalescible;
        let core = DispatchCore::new(
            session.clone(),
            &self.policy,
            self.faults.clone(),
            coalescible.clone(),
        );
        let (driver, timer) = Driver::start(core, host_ends);

        let mut handles: Vec<VpHandle> = Vec::new();
        for (vp, app, arch, vp_end, guest_faults) in guests {
            let guest_transport: Box<dyn Transport> = match guest_faults {
                Some((faults, notice)) => {
                    // A delayed request reaches the host when this end
                    // releases it, which no `send` announces: kick then.
                    let driver = driver.clone();
                    Box::new(
                        FaultyTransport::new(vp_end, faults)
                            .with_notice(notice, true)
                            .on_release(move || driver.kick(vp)),
                    )
                }
                None => Box::new(vp_end),
            };
            let jitter_seed = self.faults.as_ref().map_or(0, |p| p.seed())
                ^ u64::from(vp.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let app_name = app.name().to_string();
            let driver = driver.clone();
            let handle = std::thread::spawn(move || {
                // Declared first so it drops last: the timer is rung only
                // after the service — and with it this VP's end of the link —
                // is gone, on return and on unwind alike.
                let _departure = RingOnDrop(driver.clone());
                let mut platform = VirtualPlatform::new(vp);
                let mut service = RemoteGpu {
                    vp,
                    transport: guest_transport,
                    seq: 0,
                    clock: platform.clock_handle(),
                    arch,
                    transport_s: 0.0,
                    retry,
                    deadline_us,
                    rng: StdRng::seed_from_u64(jitter_seed),
                    driver,
                };
                let recorder = sigmavp_telemetry::recorder();
                let started_wall_s = recorder.wall_now_s();
                let result = {
                    let mut env = AppEnv::new(&mut platform, &mut service);
                    app.run_once(&mut env)
                };
                recorder.span(
                    TimeDomain::Wall,
                    Lane::Vp(vp.0),
                    app.name().to_string(),
                    started_wall_s,
                    recorder.wall_now_s() - started_wall_s,
                );
                let error = result.err();
                let outcome = VpOutcome {
                    vp,
                    app: app.name().to_string(),
                    simulated_time_s: platform.now_s(),
                    non_gpu_time_s: platform.now_s() - platform.stats().gpu_blocked_s,
                    transport_time_s: service.transport_s,
                    gpu_calls: platform.stats().gpu_calls,
                    error: error.as_ref().map(|e| e.to_string()),
                };
                (outcome, error)
            });
            handles.push((vp, app_name, handle));
        }

        let (outcomes, failed_vps) = collect_vp_outcomes(handles);
        let stats = timer.join().expect("dispatcher must not panic");
        let outcome = session.lock().drain_and_plan(&Pipeline::from_policy(&self.policy), &|vp| {
            coalescible.get(&vp).copied().unwrap_or(false)
        });
        let report = ThreadedReport {
            outcomes,
            records: outcome.flat_records(),
            device_makespan_s: outcome.makespan_s(),
            coalesced_groups: outcome.coalesced_groups(),
            coalesced_members: outcome.coalesced_members(),
            compute_utilization: outcome.compute_utilization(),
            device_records: outcome.devices.into_iter().map(|d| d.records).collect(),
            failed_vps,
        };
        (report, stats)
    }
}

/// Who is running the pump.
#[derive(Clone, Copy, PartialEq)]
enum Pumper {
    /// The guest thread of this VP, from [`Driver::kick`].
    Guest(VpId),
    /// The timer thread.
    Timer,
}

/// The dispatch side, behind one lock: whoever holds it *is* the dispatcher
/// for as long as it does. Lock order: pump → {session, runtime}.
struct Pump {
    core: DispatchCore,
    /// Host ends indexed by `VpId` (ids are handed out densely from 0); `None`
    /// once the VP disconnected.
    endpoints: Vec<Option<Box<dyn Transport>>>,
    /// The last arrival while the stall backstop was armed (a held frame
    /// arms it and stamps); the backstop counts from here.
    last_frame: Instant,
    /// What the timer thread is sleeping toward (`None`: until rung). A pump
    /// session that needs it up sooner rings it.
    timer_due: Option<Instant>,
    /// The payload of a panic caught under the pump, for the timer thread to
    /// re-raise: a dispatch-side bug must fail `join`, whoever was pumping.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pump {
    /// One round: poll every endpoint once and offer the decoded frames
    /// (corrupt frames are dropped — the guest retries), run one core turn,
    /// and send what came back. A parked launch needs nothing here: its VP
    /// is stopped for as long as the core holds it, and its window's
    /// response is the resume. Returns whether the round was idle: no frame
    /// found, nothing delivered.
    fn round(&mut self, who: Pumper) -> bool {
        self.core.ledger_mut().pump_rounds += 1;
        let mut frames = 0u64;
        for (i, slot) in self.endpoints.iter_mut().enumerate() {
            let Some(endpoint) = slot else { continue };
            let vp = VpId(i as u32);
            match endpoint.try_recv() {
                Ok(Some(frame)) => {
                    frames += 1;
                    let Ok(envelope) = codec::decode_request(&frame) else {
                        continue;
                    };
                    debug_assert_eq!(envelope.vp, vp);
                    let ledger = self.core.ledger_mut();
                    if who == Pumper::Guest(vp) {
                        ledger.inline_requests += 1;
                    } else {
                        ledger.combined_requests += 1;
                    }
                    self.core.offer(envelope);
                }
                Ok(None) => {}
                Err(_) => {
                    // Disconnected: the quorum stops waiting for this VP.
                    self.core.leave(vp);
                    *slot = None;
                }
            }
        }
        if frames > 0 && self.core.stall_armed() {
            self.last_frame = wall_now();
        }
        let turn = self.core.turn();
        let idle = frames == 0 && turn.deliveries.is_empty();
        self.deliver(turn);
        idle
    }

    fn deliver(&mut self, turn: Turn) {
        for delivery in turn.deliveries {
            // The VP may have just disconnected after an error, in which case
            // the response is dropped.
            if let Some(Some(endpoint)) = self.endpoints.get(delivery.response.vp.0 as usize) {
                let _ = endpoint.send(codec::encode_response(&delivery.response));
            }
        }
    }

    /// Rounds until one is idle; on the timer thread — the owner of the stall
    /// clock — also the stall backstop, checked whenever the rounds run dry.
    fn run(&mut self, who: Pumper) {
        loop {
            while !self.round(who) {}
            let stalled = who == Pumper::Timer
                && self.core.stall_armed()
                && wall_now() >= self.last_frame + STALL_WALL_BACKSTOP;
            if !stalled {
                return;
            }
            self.last_frame = wall_now();
            let turn = self.core.on_stall();
            self.deliver(turn);
        }
    }

    /// When the dispatch side next needs the clock: the stall backstop while
    /// the core is armed, or the earliest frame a host end is holding back.
    fn next_wake(&self) -> Option<Instant> {
        let stall = self.core.stall_armed().then(|| self.last_frame + STALL_WALL_BACKSTOP);
        self.endpoints.iter().flatten().filter_map(|e| e.next_release()).chain(stall).min()
    }
}

/// The [`DispatchCore`]'s transport driver: a caller-runs pump plus a timer.
///
/// There is no thread that waits for requests. A guest sends its frame and
/// [`kick`](Self::kick)s; kicks are *flat-combined*: bump `pending`, try the
/// pump lock, and while `pending` was non-zero run rounds until one is idle.
/// A guest that finds the lock taken goes straight to its blocking receive —
/// the holder re-reads `pending` after every drain *and after unlocking*, so
/// a frame that arrived behind its last sweep is never stranded.
///
/// The timer thread sleeps on the bell and wakes for exactly three things: a
/// VP end dropping (its [`RingOnDrop`]), the [`STALL_WALL_BACKSTOP`] while the
/// core is armed, and the earliest delayed-frame release of a
/// [`FaultyTransport`] host end. An idle system runs no rounds and wakes
/// nobody.
struct Driver {
    pump: Mutex<Pump>,
    /// Kicks no pump session has answered yet.
    pending: AtomicU64,
    /// The timer's doorbell: `true` once rung, cleared by the timer.
    bell: Mutex<bool>,
    bell_rung: Condvar,
}

impl Driver {
    /// Build the driver over `core` and the VPs' host ends (index = VP id),
    /// every VP joined to the quorum, and start its timer thread. The thread
    /// returns the run's statistics once the last VP end is gone.
    fn start(
        mut core: DispatchCore,
        host_ends: Vec<Box<dyn Transport>>,
    ) -> (Arc<Driver>, JoinHandle<DispatchStats>) {
        for vp in 0..host_ends.len() {
            core.join(VpId(vp as u32));
        }
        let driver = Arc::new(Driver {
            pump: Mutex::new(Pump {
                core,
                endpoints: host_ends.into_iter().map(Some).collect(),
                last_frame: wall_now(),
                timer_due: None,
                panic: None,
            }),
            pending: AtomicU64::new(0),
            bell: Mutex::new(false),
            bell_rung: Condvar::new(),
        });
        let timer = {
            let driver = driver.clone();
            std::thread::spawn(move || driver.run_timer())
        };
        (driver, timer)
    }

    /// `vp` put a frame on its link: see that a pump session runs after it.
    fn kick(&self, vp: VpId) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.combine(Pumper::Guest(vp));
    }

    /// Whether the core is holding `vp`'s launch in a sync window — asked by
    /// a guest whose link has been quiet for a whole receive deadline.
    fn is_held(&self, vp: VpId) -> bool {
        let held = self.pump.lock().core.is_held(vp);
        // A guest that kicked while the lock was held here went to sleep on
        // its channel: its frame is this thread's to serve.
        self.combine(Pumper::Guest(vp));
        held
    }

    /// Pump for as long as kicks are pending and the pump is free. A kicker
    /// that loses the `try_lock` bumped `pending` before it tried, and the
    /// holder reads `pending` again after its unlock; the fence between each
    /// side's write and its read of the other's (the lock word is not
    /// `SeqCst`) is what rules out both missing each other.
    fn combine(&self, who: Pumper) {
        loop {
            fence(Ordering::SeqCst);
            if self.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            let Some(mut pump) = self.pump.try_lock() else { return };
            self.drain(&mut pump, who);
            // Get the timer up if this session left it something sooner than
            // what it is sleeping toward (or a panic to report).
            let want = pump.next_wake();
            let sooner = want.is_some_and(|w| pump.timer_due.is_none_or(|due| w < due));
            if sooner || pump.panic.is_some() {
                pump.timer_due = want;
                self.ring();
            }
        }
    }

    /// Answer every pending kick. A panic in here is a dispatch-side bug, not
    /// the pumping VP's failure: it is parked for the timer thread to
    /// re-raise, and every host end is dropped so the guests fail fast on a
    /// disconnected link instead of waiting out their backstops.
    fn drain(&self, pump: &mut Pump, who: Pumper) {
        if pump.panic.is_some() {
            // Nothing left to pump into; the kick is answered by the guests'
            // dropped links.
            self.pending.store(0, Ordering::SeqCst);
            return;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            while self.pending.swap(0, Ordering::SeqCst) > 0 {
                pump.run(who);
            }
        }));
        if let Err(payload) = outcome {
            pump.endpoints.clear();
            pump.panic = Some(payload);
        }
    }

    fn ring(&self) {
        *self.bell.lock() = true;
        self.bell_rung.notify_one();
    }

    /// The timer thread. Every wake-up runs the pump once under a blocking
    /// lock — that is where a dropped VP end is noticed, a due delayed frame
    /// released and the stall backstop checked — then goes back to sleep
    /// until the earliest thing the pump says it needs the clock for.
    fn run_timer(&self) -> DispatchStats {
        let mut due: Option<Instant> = None;
        loop {
            {
                let mut rung = self.bell.lock();
                while !*rung {
                    match due.map(|due| due.saturating_duration_since(wall_now())) {
                        None => self.bell_rung.wait(&mut rung),
                        Some(Duration::ZERO) => break,
                        Some(left) => {
                            self.bell_rung.wait_for(&mut rung, left);
                        }
                    }
                }
                *rung = false;
            }
            let mut pump = self.pump.lock();
            pump.core.ledger_mut().timer_wakeups += 1;
            self.pending.fetch_add(1, Ordering::SeqCst);
            self.drain(&mut pump, Pumper::Timer);
            if let Some(payload) = pump.panic.take() {
                drop(pump);
                resume_unwind(payload);
            }
            if pump.endpoints.iter().all(Option::is_none) {
                // Every VP is gone, so nothing can be held; close() keeps the
                // invariant that an accepted request is never dropped
                // unexecuted.
                pump.core.close();
                return *pump.core.stats();
            }
            due = pump.next_wake();
            pump.timer_due = due;
            drop(pump);
            // A guest that kicked while the lock was held here went to sleep
            // on its channel: its frame is this thread's to serve.
            self.combine(Pumper::Timer);
        }
    }
}

/// Rings the timer when dropped. A VP thread declares it before its service,
/// so the ring follows the drop of the VP's link end: by the time the timer
/// looks, the host end already reads `Disconnected`.
struct RingOnDrop(Arc<Driver>);

impl Drop for RingOnDrop {
    fn drop(&mut self) {
        self.0.ring();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use sigmavp_fault::LinkFaultConfig;
    use sigmavp_ipc::transport::ChannelTransport;
    use sigmavp_workloads::apps::{BlackScholesApp, CopyStream, StaggeredAdd, VectorAddApp};
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;

    thread_local! {
        /// Calls to [`wall_now`] made on this thread.
        pub(super) static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
    }

    /// VP `vp`'s guest side over `transport`, kicking `driver`.
    fn remote_gpu(
        vp: u32,
        transport: impl Transport + 'static,
        driver: Arc<Driver>,
        retry: RetryPolicy,
    ) -> RemoteGpu {
        RemoteGpu {
            vp: VpId(vp),
            transport: Box::new(transport),
            seq: 0,
            clock: VirtualPlatform::new(VpId(vp)).clock_handle(),
            arch: GpuArch::quadro_4000(),
            transport_s: 0.0,
            retry,
            deadline_us: 0,
            rng: StdRng::seed_from_u64(0),
            driver,
        }
    }

    #[test]
    fn dispatched_fleet_validates_end_to_end() {
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        );
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.records.len(), 4 * 4); // 2 h2d + kernel + d2h per VP
        assert!(stats.requests >= 4 * 10);
        assert!(report.device_makespan_s > 0.0);
    }

    #[test]
    fn profiler_feedback_fills_expected_times() {
        // With several VPs launching the same kernel repeatedly, later windows hold
        // jobs with non-zero expected durations — visible as multi-job windows
        // being reordered without panics and everything still validating.
        let app = BlackScholesApp { n: 1024, iterations: 4, ..BlackScholesApp::new(1) };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        );
        for _ in 0..4 {
            sys.spawn(Box::new(BlackScholesApp {
                n: 1024,
                iterations: 4,
                ..BlackScholesApp::new(1)
            }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        // 4 VPs × (2 h2d + 4 launches + 2 d2h).
        assert_eq!(report.records.len(), 4 * 8);
        assert!(stats.max_window >= 1);
    }

    #[test]
    fn two_host_gpus_split_the_dispatched_fleet() {
        let run = |archs: Vec<GpuArch>| {
            let app = VectorAddApp { n: 2048 };
            let registry: KernelRegistry = app.kernels().into_iter().collect();
            let mut sys = DispatchedSigmaVp::new(archs, registry, TransportCost::shared_memory());
            for _ in 0..6 {
                sys.spawn(Box::new(VectorAddApp { n: 2048 }));
            }
            let (report, _) = sys.join();
            assert!(report.all_ok(), "{:?}", report.outcomes);
            report
        };
        let one = run(vec![GpuArch::quadro_4000()]);
        let two = run(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()]);
        assert_eq!(one.records.len(), two.records.len());
        assert_eq!(two.device_records.len(), 2);
        // Least-loaded routing spreads six VPs three-and-three, halving each
        // device's log and shrinking the fleet makespan.
        assert!(two.device_records.iter().all(|r| r.len() == 3 * 4));
        let ratio = one.device_makespan_s / two.device_makespan_s;
        assert!(ratio >= 1.5, "makespan ratio {ratio:.2}");
    }

    #[test]
    fn sync_hold_coalesces_a_live_window() {
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true));
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        // One sync launch per VP, all held into a single lockstep window.
        assert_eq!(stats.holds, 4);
        assert_eq!(stats.sync_windows, 1);
        assert_eq!(stats.holds, 4);
        assert_eq!(stats.resume_events, 4, "every stopped VP must be resumed");
        // Four identical vector_add launches coalesce live.
        assert!(stats.live_groups >= 1, "{stats:?}");
        assert!(stats.live_members >= 2, "{stats:?}");
        assert!(
            stats.sync_makespan_s < stats.sync_reorder_makespan_s,
            "live plan must beat reorder-only: {} vs {}",
            stats.sync_makespan_s,
            stats.sync_reorder_makespan_s
        );
        // Eq. 9 residual accounting: slots are λ-aligned, never below fill.
        assert!(stats.wave_filled > 0);
        assert!(stats.wave_slots >= stats.wave_filled);
    }

    #[test]
    fn sync_hold_counters_are_reproducible() {
        let run = || {
            let app = BlackScholesApp { n: 1024, iterations: 3, ..BlackScholesApp::new(1) };
            let registry: KernelRegistry = app.kernels().into_iter().collect();
            let mut sys = DispatchedSigmaVp::single(
                GpuArch::quadro_4000(),
                registry,
                TransportCost::shared_memory(),
            )
            .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true));
            for _ in 0..3 {
                sys.spawn(Box::new(BlackScholesApp {
                    n: 1024,
                    iterations: 3,
                    ..BlackScholesApp::new(1)
                }));
            }
            let (report, stats) = sys.join();
            assert!(report.all_ok(), "{:?}", report.outcomes);
            stats
        };
        let a = run();
        let b = run();
        // Windows are lockstep (quorum = every connected VP held), so the
        // whole sync-side ledger — counts and simulated makespans — must be
        // byte-identical run to run; only wall-clock-shaped fields may differ.
        assert_eq!(a.window_ledger(), b.window_ledger(), "{a:?} vs {b:?}");
        assert!(a.sync_windows >= 3, "one window per lockstep iteration: {a:?}");
    }

    #[test]
    fn sync_hold_survives_a_lossy_delayed_link() {
        // Stop/resume must compose with the PR 4 fault machinery: dropped and
        // delayed frames around a held response resolve through retry + dedup,
        // never by deadlocking a parked VP.
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true))
        .with_faults(FaultPlan::seeded(11).with_link(LinkFaultConfig {
            drop_prob: 0.05,
            corrupt_prob: 0.02,
            delay_prob: 0.2,
            delay_s: 0.002,
        }));
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert!(stats.holds >= 4);
        assert_eq!(stats.holds, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn gpu_trip_while_vps_are_parked_fails_over() {
        // Two devices, two VPs each. Each VectorAdd VP issues 5 ops (3 mallocs
        // + 2 h2d) before its held launch, so device 0's ops 10 and 11 are
        // exactly the two held launches of the first sync window. Making both
        // transient trips the breaker (threshold 2) while the VPs are parked
        // on held responses: they must be resumed with the transient error,
        // retry, migrate to device 1 via journal replay, and still validate.
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::new(
            vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()],
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true))
        .with_faults(
            FaultPlan::seeded(9).with_transients(0, vec![10, 11]).with_breaker_threshold(2),
        );
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert!(stats.gpu_trips >= 1, "{stats:?}");
        assert!(stats.migrations >= 2, "both device-0 VPs fail over: {stats:?}");
        assert!(stats.holds >= 6, "retried launches are held again: {stats:?}");
        assert_eq!(stats.holds, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn quorum_flush_releases_a_partial_window() {
        // Two VPs, quorum 0.5 → threshold 1: the prompt VP's held launch must
        // flush alone, long before the deliberately late VP even arrives.
        let registry: KernelRegistry =
            vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true).sync_quorum(0.5));
        sys.spawn(Box::new(StaggeredAdd {
            n: 2048,
            launches: 1,
            pre_ms: 0,
            mid_ms: 0,
            post_ms: 0,
        }));
        sys.spawn(Box::new(StaggeredAdd {
            n: 2048,
            launches: 1,
            pre_ms: 60,
            mid_ms: 0,
            post_ms: 0,
        }));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(stats.holds, 2);
        // Each hold flushed in its own quorum-sized window, exactly once.
        assert_eq!(stats.sync_windows, 2, "{stats:?}");
        assert!(stats.quorum_flushes >= 1, "{stats:?}");
        assert_eq!(stats.holds, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn a_held_launch_outlives_the_wall_backstop() {
        // Lockstep quorum, one attempt per request: the prompt VP's launch
        // stays held until the late VP's arrives, longer than the guest's
        // wall receive backstop. That silence is a hold, not a fault — a
        // timed-out attempt would be the VP's last and fail it.
        let registry: KernelRegistry =
            vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let retry = RetryPolicy { max_attempts: 1, ..RetryPolicy::DEFAULT };
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true).with_retry(retry));
        let add = |pre_ms| StaggeredAdd { n: 2048, launches: 1, pre_ms, mid_ms: 0, post_ms: 0 };
        sys.spawn(Box::new(add(0)));
        sys.spawn(Box::new(add(WALL_DEADLINE_BACKSTOP.as_millis() as u64 + 300)));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!((stats.holds, stats.sync_windows), (2, 1), "{stats:?}");
        assert_eq!(stats.resume_events, stats.holds, "{stats:?}");
    }

    #[test]
    fn a_backstop_that_waits_out_the_flushing_session_reads_the_answer() {
        // VP 0's launch is held. The test thread then keeps the pump locked
        // past VP 0's wall backstop and flushes the window under that lock,
        // so VP 0's `is_held` waits the whole session out and answers no —
        // with the response already on VP 0's link. That is an answer, not a
        // timeout that burns the only attempt.
        let session = ExecutionSession::new(vec![GpuArch::quadro_4000()], KernelRegistry::new())
            .expect("one device");
        let policy = Policy::MultiplexedOptimized.with_sync_hold(true);
        let core = DispatchCore::new(Arc::new(Mutex::new(session)), &policy, None, HashMap::new());
        let (guest0, host0) = pair(TransportCost::shared_memory());
        let (guest1, host1) = pair(TransportCost::shared_memory());
        let (driver, timer) = Driver::start(core, vec![Box::new(host0), Box::new(host1)]);
        // The host knows no kernel, so the window answers with an error.
        let launch = || Request::Launch {
            kernel: "unregistered".into(),
            grid_dim: 1,
            block_dim: 1,
            params: Vec::new(),
            sync: true,
            stream: 0,
        };
        let vp0 = {
            let driver = driver.clone();
            std::thread::spawn(move || {
                let retry = RetryPolicy { max_attempts: 1, ..RetryPolicy::DEFAULT };
                let mut service = remote_gpu(0, guest0, driver, retry);
                service.round_trip(launch()).map(|(response, _)| response)
            })
        };
        while !driver.pump.lock().core.is_held(VpId(0)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let mut pump = driver.pump.lock();
            std::thread::sleep(WALL_DEADLINE_BACKSTOP + Duration::from_millis(300));
            let envelope = Envelope {
                vp: VpId(1),
                seq: 0,
                sent_at_s: 0.0,
                deadline_s: Envelope::NO_DEADLINE,
                body: launch(),
            };
            guest1.send(codec::encode_request(&envelope)).unwrap();
            pump.run(Pumper::Guest(VpId(1)));
        }
        let answer = vp0.join().expect("VP 0 must not panic");
        assert!(matches!(answer, Err(VpError::Device(_))), "{answer:?}");
        assert!(guest1.try_recv().unwrap().is_some(), "VP 1 was answered in the same window");
        drop(guest1);
        driver.ring();
        let stats = timer.join().expect("dispatcher must not panic");
        assert_eq!((stats.holds, stats.sync_windows), (2, 1), "{stats:?}");
        assert_eq!(stats.resume_events, stats.holds, "{stats:?}");
    }

    /// Runs `inner`, then raises `done`.
    struct RaiseWhenDone<A> {
        inner: A,
        done: Arc<AtomicBool>,
    }
    impl<A: Application> Application for RaiseWhenDone<A> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
            self.inner.kernels()
        }
        fn characteristics(&self) -> sigmavp_workloads::AppTraits {
            self.inner.characteristics()
        }
        fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
            let result = self.inner.run_once(env);
            self.done.store(true, Ordering::Release);
            result
        }
    }

    /// Copy round trips of one buffer until the flag is raised.
    struct CopyUntil(Arc<AtomicBool>);
    impl Application for CopyUntil {
        fn name(&self) -> &str {
            "copyUntil"
        }
        fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
            vec![]
        }
        fn characteristics(&self) -> sigmavp_workloads::AppTraits {
            sigmavp_workloads::AppTraits::pure_cuda()
        }
        fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
            while !self.0.load(Ordering::Acquire) {
                CopyStream { iterations: 1 }.run_once(env)?;
            }
            Ok(())
        }
    }

    #[test]
    fn window_timeout_flushes_without_quorum() {
        // One sync VP held behind a copies-only companion that never holds:
        // the full-quorum predicate can never fire, so only the sim-time
        // window timeout (advanced by the companion's frames) releases it.
        // The companion copies until the held VP is done: one that finished
        // first would leave the held VP a full quorum of one.
        let registry: KernelRegistry =
            vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true).with_sync_timeout_us(1));
        let done = Arc::new(AtomicBool::new(false));
        sys.spawn(Box::new(RaiseWhenDone {
            inner: StaggeredAdd { n: 2048, launches: 1, pre_ms: 0, mid_ms: 0, post_ms: 0 },
            done: Arc::clone(&done),
        }));
        sys.spawn(Box::new(CopyUntil(done)));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(stats.holds, 1);
        assert!(stats.timeout_flushes >= 1, "{stats:?}");
        assert_eq!(stats.holds, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn hung_vp_is_quarantined_and_rejoins() {
        // Three busy VPs iterate sync launches under quorum 0.5 while a fourth
        // wedges for 150 ms between its two launches. The watchdog must
        // quarantine the sleeper (it stops counting toward the quorum and its
        // journal fails over to the other device), then let it rejoin — and
        // finish — when it wakes.
        let registry: KernelRegistry = BlackScholesApp::new(1)
            .kernels()
            .into_iter()
            .chain(std::iter::once(sigmavp_workloads::kernels::vector_add()))
            .collect();
        let mut sys = DispatchedSigmaVp::new(
            vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()],
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(
            Policy::MultiplexedOptimized.with_sync_hold(true).sync_quorum(0.5).with_hang_windows(2),
        );
        for _ in 0..3 {
            sys.spawn(Box::new(BlackScholesApp {
                n: 1024,
                iterations: 4,
                ..BlackScholesApp::new(1)
            }));
        }
        sys.spawn(Box::new(StaggeredAdd {
            n: 1024,
            launches: 2,
            pre_ms: 0,
            mid_ms: 150,
            post_ms: 0,
        }));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert!(stats.quarantined >= 1, "{stats:?}");
        assert!(stats.rejoins >= 1, "the sleeper must rejoin on wake: {stats:?}");
        assert!(stats.migrations >= 1, "quarantine fails the VP over: {stats:?}");
        assert_eq!(stats.holds, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn the_timer_fires_the_stall_backstop_when_simulated_time_freezes() {
        // Lockstep quorum, two VPs. After the first shared window the sleeper
        // wedges for longer than the stall backstop while the other VP's next
        // launch sits held: no arrival can advance simulated time, nobody
        // kicks, so only the timer thread's wall clock can release the window
        // — it quarantines the sleeper, which rejoins when it wakes.
        let registry: KernelRegistry =
            vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let mut sys = DispatchedSigmaVp::new(
            vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()],
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true).with_hang_windows(2));
        sys.spawn(Box::new(StaggeredAdd {
            n: 1024,
            launches: 2,
            pre_ms: 0,
            mid_ms: 0,
            post_ms: 0,
        }));
        let mid_ms = STALL_WALL_BACKSTOP.as_millis() as u64 + 200;
        sys.spawn(Box::new(StaggeredAdd { n: 1024, launches: 2, pre_ms: 0, mid_ms, post_ms: 0 }));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(stats.backstop_trips, 1, "{stats:?}");
        assert_eq!((stats.quarantined, stats.rejoins), (1, 1), "{stats:?}");
        assert_eq!(stats.holds, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn plan_boundary_refuses_doomed_requests() {
        let _refusals = crate::dispatch::refusals_lock();
        // A 1 µs budget is below even a zero-byte copy's fixed latency, so the
        // very first projected completion overshoots and the dispatcher
        // refuses at the plan boundary with the typed violation.
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_deadline_us(1));
        sys.spawn(Box::new(app));
        let (report, stats) = sys.join();
        let err = report.outcomes[0].error.as_deref().expect("budget must be unmeetable");
        assert!(err.contains("deadline exceeded at plan"), "{err}");
        assert!(stats.deadline_misses >= 1, "{stats:?}");
    }

    #[test]
    fn execute_boundary_charges_recovery_into_the_budget() {
        // A lossy link forces retries whose simulated recovery cost (25 ms
        // receive timeout) dwarfs the 5 ms budget: the guest surfaces the
        // execute-stage violation instead of burning its remaining attempts.
        // That miss is the guest's: the published `liveness.deadline_misses`
        // is the core's ledger, refusals only.
        let _refusals = crate::dispatch::refusals_lock();
        let telemetry = sigmavp_telemetry::install();
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_deadline_us(5_000))
        .with_faults(FaultPlan::seeded(7).with_link(LinkFaultConfig {
            drop_prob: 0.6,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        }));
        sys.spawn(Box::new(app));
        let (report, stats) = sys.join();
        // The name `deadline_misses` is published under, from the table.
        let probe = DispatchStats { deadline_misses: 1, ..DispatchStats::default() };
        let (name, _) = probe.counts().into_iter().find(|&(_, n)| n == 1).expect("counted");
        let published = telemetry.snapshot().counter(name);
        sigmavp_telemetry::uninstall();
        let err = report.outcomes[0].error.as_deref().expect("drops must blow the budget");
        assert!(err.contains("deadline exceeded at execute"), "{err}");
        assert_eq!(published, Some(stats.deadline_misses), "{stats:?}");
    }

    /// A guest that only round-trips: `requests` synchronize calls, with a
    /// wall-clock nap of `nap_ms` after every one but the last.
    struct Chatter {
        requests: u32,
        nap_ms: u64,
    }
    impl Application for Chatter {
        fn name(&self) -> &str {
            "chatter"
        }
        fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
            vec![]
        }
        fn characteristics(&self) -> sigmavp_workloads::AppTraits {
            sigmavp_workloads::AppTraits::pure_cuda()
        }
        fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
            let mut cuda = env.cuda();
            for request in 0..self.requests {
                cuda.synchronize()?;
                if self.nap_ms > 0 && request + 1 < self.requests {
                    std::thread::sleep(Duration::from_millis(self.nap_ms));
                }
            }
            Ok(())
        }
    }

    fn chatter_fleet(vps: u32, requests: u32, nap_ms: u64) -> (ThreadedReport, DispatchStats) {
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            KernelRegistry::new(),
            TransportCost::shared_memory(),
        );
        for _ in 0..vps {
            sys.spawn(Box::new(Chatter { requests, nap_ms }));
        }
        sys.join()
    }

    #[test]
    fn contended_kicks_never_strand_a_frame() {
        // Eight guests hammer one pump. A lost wake-up — a frame that arrived
        // behind the holder's last sweep with nobody left to look — would sit
        // until the guest's 2 s wall backstop fired and the guest *retried*:
        // one frame more than requests, answered from the dedup cache.
        let (report, stats) = chatter_fleet(8, 2_000, 0);
        assert!(report.all_ok(), "{:?}", report.failed_vps);
        assert_eq!(stats.requests, 16_000);
        assert_eq!(stats.inline_requests + stats.combined_requests, 16_000, "{stats:?}");
        assert_eq!(stats.dedup_hits, 0, "{stats:?}");
    }

    #[test]
    fn a_departing_vp_is_seen_by_the_timer_wake_up_it_rings() {
        // Nothing but the VP's departure rings this timer, and it runs out of
        // VPs — and returns — on the wake-up that finds the link disconnected.
        // Exactly one wake-up means the ring came after the close.
        let (report, stats) = chatter_fleet(1, 3, 0);
        assert!(report.all_ok(), "{:?}", report.failed_vps);
        assert_eq!(stats.timer_wakeups, 1, "{stats:?}");
        assert_eq!((stats.inline_requests, stats.combined_requests), (3, 0), "{stats:?}");
    }

    #[test]
    fn rounds_and_timer_wake_ups_are_bounded_by_events() {
        // Four VPs that nap 50 ms between two requests: 200 ms of wall time in
        // which a poller would spin. Every pump run is owed to a request frame
        // or a timer wake-up and ends on its first idle round; the timer wakes
        // for departures only.
        let (report, stats) = chatter_fleet(4, 2, 50);
        assert!(report.all_ok(), "{:?}", report.failed_vps);
        let frames = stats.inline_requests + stats.combined_requests;
        assert_eq!(frames, 8);
        assert!(stats.timer_wakeups <= 4, "{stats:?}");
        assert!(stats.pump_rounds <= 2 * (frames + stats.timer_wakeups), "{stats:?}");
    }

    /// A hand-built `Fifo` driver over `vps` links to a device that knows
    /// `vector_add`, the test thread playing every guest. `host_end`
    /// decorates each host end before the pump gets it.
    fn driver_rig(
        vps: u32,
        host_end: impl Fn(ChannelTransport) -> Box<dyn Transport>,
    ) -> (Arc<Driver>, JoinHandle<DispatchStats>, Vec<ChannelTransport>) {
        let registry = vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let session =
            ExecutionSession::new(vec![GpuArch::quadro_4000()], registry).expect("one device");
        let core =
            DispatchCore::new(Arc::new(Mutex::new(session)), &Policy::Fifo, None, HashMap::new());
        let (guest_ends, host_ends): (Vec<_>, Vec<_>) = (0..vps)
            .map(|_| {
                let (guest, host) = pair(TransportCost::shared_memory());
                (guest, host_end(host))
            })
            .unzip();
        let (driver, timer) = Driver::start(core, host_ends);
        (driver, timer, guest_ends)
    }

    fn sync_frame(vp: u32, seq: u64) -> bytes::Bytes {
        codec::encode_request(&Envelope {
            vp: VpId(vp),
            seq,
            sent_at_s: 0.0,
            deadline_s: Envelope::NO_DEADLINE,
            body: Request::Synchronize,
        })
    }

    #[test]
    fn an_idle_system_runs_no_rounds_and_wakes_nobody() {
        let (driver, timer, guests) = driver_rig(4, |host| Box::new(host));
        let far = || Instant::now() + Duration::from_secs(30);
        let round_trip = |seq: u64| {
            for (vp, guest) in guests.iter().enumerate() {
                guest.send(sync_frame(vp as u32, seq)).unwrap();
                driver.kick(VpId(vp as u32));
                assert!(guest.recv_deadline(far()).unwrap().is_some());
            }
        };
        round_trip(0);
        let before = *driver.pump.lock().core.stats();
        std::thread::sleep(Duration::from_millis(50));
        let after = *driver.pump.lock().core.stats();
        assert_eq!(after.pump_rounds, before.pump_rounds, "nothing pumps while every VP sleeps");
        assert_eq!(after.timer_wakeups, 0, "and the timer has had no reason to wake");
        round_trip(1);
        drop(guests);
        driver.ring();
        let stats = timer.join().expect("dispatcher must not panic");
        assert_eq!(stats.requests, 8);
        assert_eq!((stats.inline_requests, stats.timer_wakeups), (8, 1), "{stats:?}");
    }

    /// A 4 KiB buffer through malloc, copy in, synchronous `vector_add`,
    /// copy out and free: five round trips.
    fn buffer_lifetime(gpu: &mut RemoteGpu) {
        let (buf, _) = gpu.malloc(4096).unwrap();
        gpu.memcpy_h2d(buf, &[0; 4096]).unwrap();
        let b = WireParam::Buffer(buf);
        gpu.launch("vector_add", 4, 256, &[b, b, b, WireParam::I64(1024)], true).unwrap();
        gpu.memcpy_d2h(buf, &mut [0; 4096]).unwrap();
        gpu.free(buf).unwrap();
    }

    #[test]
    fn an_inline_served_request_reads_no_clock() {
        // One guest, nobody else pumping: every kick wins the pump, serves
        // the frame on this thread and leaves the answer on the link.
        let (driver, timer, mut guests) = driver_rig(1, |host| Box::new(host));
        let mut gpu = remote_gpu(0, guests.remove(0), driver.clone(), RetryPolicy::DEFAULT);
        let before = CLOCK_READS.with(Cell::get);
        for _ in 0..100 {
            buffer_lifetime(&mut gpu);
        }
        assert_eq!(CLOCK_READS.with(Cell::get), before, "500 inline round trips read no clock");
        drop(gpu);
        driver.ring();
        let stats = timer.join().expect("dispatcher must not panic");
        assert_eq!((stats.requests, stats.inline_requests), (500, 500), "{stats:?}");
    }

    #[test]
    fn a_guest_that_finds_the_pump_held_reads_the_clock_and_is_answered() {
        /// A guest end that raises its flag when its owner blocks on it.
        struct Announcing(ChannelTransport, Arc<AtomicBool>);
        impl Transport for Announcing {
            fn send(&self, frame: bytes::Bytes) -> Result<f64, IpcError> {
                self.0.send(frame)
            }
            fn recv(&self) -> Result<bytes::Bytes, IpcError> {
                self.0.recv()
            }
            fn try_recv(&self) -> Result<Option<bytes::Bytes>, IpcError> {
                self.0.try_recv()
            }
            fn recv_deadline(&self, deadline: Instant) -> Result<Option<bytes::Bytes>, IpcError> {
                self.1.store(true, Ordering::Release);
                self.0.recv_deadline(deadline)
            }
            fn cost(&self) -> TransportCost {
                self.0.cost()
            }
        }
        let (driver, timer, mut guests) = driver_rig(1, |host| Box::new(host));
        let blocked = Arc::new(AtomicBool::new(false));
        let guest = Announcing(guests.remove(0), blocked.clone());
        let mut gpu = remote_gpu(0, guest, driver.clone(), RetryPolicy::DEFAULT);
        // Another thread holds the pump until the guest blocks, then
        // unlocks and re-reads `pending`, as every holder does.
        let (locked_tx, locked) = std::sync::mpsc::channel();
        let holder = {
            let driver = driver.clone();
            std::thread::spawn(move || {
                let pump = driver.pump.lock();
                locked_tx.send(()).unwrap();
                while !blocked.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop(pump);
                driver.combine(Pumper::Timer);
            })
        };
        locked.recv().unwrap();
        let before = CLOCK_READS.with(Cell::get);
        gpu.malloc(4096).expect("the holder serves the blocked guest");
        assert!(CLOCK_READS.with(Cell::get) > before, "a guest that blocks sets its backstop");
        holder.join().expect("the holder must not panic");
        drop(gpu);
        driver.ring();
        let stats = timer.join().expect("dispatcher must not panic");
        assert_eq!((stats.requests, stats.combined_requests), (1, 1), "{stats:?}");
    }

    #[test]
    fn a_panic_under_a_guests_pump_fails_the_dispatcher_not_the_guest() {
        /// A host end whose link is fine until the pump answers on it.
        struct Exploding(ChannelTransport);
        impl Transport for Exploding {
            fn send(&self, _frame: bytes::Bytes) -> Result<f64, IpcError> {
                panic!("boom under the pump");
            }
            fn recv(&self) -> Result<bytes::Bytes, IpcError> {
                self.0.recv()
            }
            fn try_recv(&self) -> Result<Option<bytes::Bytes>, IpcError> {
                self.0.try_recv()
            }
            fn recv_deadline(&self, deadline: Instant) -> Result<Option<bytes::Bytes>, IpcError> {
                self.0.recv_deadline(deadline)
            }
            fn cost(&self) -> TransportCost {
                self.0.cost()
            }
        }
        let (driver, timer, guests) = driver_rig(2, |host| Box::new(Exploding(host)));
        guests[0].send(sync_frame(0, 0)).unwrap();
        // The kick returns: the guest thread is not the one that dies, so it
        // can never be booked as a panicked VP…
        driver.kick(VpId(0));
        // …every guest fails fast on a disconnected link instead…
        let far = Instant::now() + Duration::from_secs(30);
        for guest in &guests {
            assert_eq!(guest.recv_deadline(far).unwrap_err(), IpcError::Disconnected);
        }
        // …and the panic surfaces where `join` expects the dispatcher's.
        let payload = timer.join().expect_err("the dispatch side panicked");
        assert_eq!(panic_message(&*payload), "boom under the pump");
    }

    /// One 4 KiB buffer copied in and out synchronously, then an asynchronous
    /// `vector_add` over it.
    struct CopyThenLaunch;
    impl Application for CopyThenLaunch {
        fn name(&self) -> &str {
            "copyThenLaunch"
        }
        fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
            vec![sigmavp_workloads::kernels::vector_add()]
        }
        fn characteristics(&self) -> sigmavp_workloads::AppTraits {
            sigmavp_workloads::AppTraits::pure_cuda()
        }
        fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
            let mut cuda = env.cuda();
            let buf = cuda.malloc(4096)?;
            cuda.memcpy_h2d(buf, &[0; 4096])?;
            cuda.memcpy_d2h(&mut [0; 4096], buf)?;
            let params = [buf.param(), buf.param(), buf.param(), WireParam::I64(1024)];
            cuda.launch_async("vector_add", 4, 256, &params)?;
            cuda.synchronize()?;
            cuda.free(buf)
        }
    }

    #[test]
    fn a_sync_copy_blocks_for_transport_and_copy_time_an_async_launch_for_transport() {
        let app = CopyThenLaunch;
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let arch = GpuArch::grid_k520();
        let mut sys = DispatchedSigmaVp::single(arch.clone(), registry, TransportCost::socket());
        sys.spawn(Box::new(app));
        let (report, _) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        let vp = &report.outcomes[0];
        // Six round trips, two of them 4 KiB copies priced on the VP's device.
        let blocked_s = vp.simulated_time_s - vp.non_gpu_time_s;
        let expected_s = vp.transport_time_s + 2.0 * arch.copy_time_s(4096);
        assert!(vp.transport_time_s >= 6.0 * TransportCost::socket().latency_s, "{vp:?}");
        assert!((blocked_s - expected_s).abs() < 1e-12, "blocked {blocked_s} vs {expected_s}");
    }

    #[test]
    fn a_multiplexed_fleet_prices_the_same_on_every_run() {
        // Eight VPs race one pump, so the device log's dispatch order varies
        // run to run; the price reads it in simulated send order.
        let run = || {
            let app = sigmavp_workloads::apps::Dct8x8App::new(1);
            let registry: KernelRegistry = app.kernels().into_iter().collect();
            let mut sys = DispatchedSigmaVp::single(
                GpuArch::quadro_4000(),
                registry,
                TransportCost::shared_memory(),
            )
            .with_policy(Policy::Multiplexed);
            for _ in 0..8 {
                sys.spawn(Box::new(app.clone()));
            }
            let (report, _) = sys.join();
            assert!(report.all_ok(), "{:?}", report.outcomes);
            report.device_makespan_s
        };
        let first = run();
        for _ in 1..5 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn guest_errors_propagate_over_the_wire() {
        struct Broken;
        impl Application for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
                vec![]
            }
            fn characteristics(&self) -> sigmavp_workloads::AppTraits {
                sigmavp_workloads::AppTraits::pure_cuda()
            }
            fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
                let mut cuda = env.cuda();
                cuda.launch_sync("missing", 1, 1, &[])?;
                Ok(())
            }
        }
        let app = VectorAddApp { n: 512 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys =
            DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::socket());
        sys.spawn(Box::new(app));
        sys.spawn(Box::new(Broken));
        let (report, _) = sys.join();
        assert!(report.outcomes[0].error.is_none());
        let err = report.outcomes[1].error.as_deref().expect("broken vp failed");
        assert!(err.contains("missing"), "{err}");
    }
}
