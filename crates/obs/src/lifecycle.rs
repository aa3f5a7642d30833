//! Causal job-lifecycle reconstruction and critical-path extraction.
//!
//! Every instrumented layer stamps its spans with the stable
//! [`job_uid`](sigmavp_telemetry::job_uid) derived from `(vp, seq)`, so the
//! join here is exact — group by uid — rather than an ordering heuristic.
//! One [`JobLifecycle`] collects a job's wall-clock phases (guest round trip,
//! dispatcher queue wait, host execution) and its simulated device phases
//! (copy-engine transfer, compute-engine time), giving the per-client
//! breakdown multiplexed-GPU sharing needs to not regress silently.
//!
//! [`critical_path`] answers the device-level question: which chain of
//! operations (and the stalls between them) actually determined the makespan?
//! The extracted path is a gap-free tiling of `[0, makespan]`, so its segment
//! durations *sum exactly to the makespan* — the conservation property the
//! audit gate asserts.

use std::collections::BTreeMap;

use sigmavp::session::DeviceOutcome;
use sigmavp_gpu::engine::{Engine, OpSpan, Timeline};
use sigmavp_telemetry::{job_uid_seq, job_uid_vp, EventKind, Lane, TimeDomain, TraceEvent};

/// One job's reconstructed lifecycle across every instrumented lane.
///
/// Wall-clock phases overlap by construction (the guest round trip *contains*
/// the queue wait and execution), so they are reported side by side rather
/// than summed. The simulated device phases are disjoint engine busy times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobLifecycle {
    /// Stable job uid (see [`sigmavp_telemetry::job_uid`]).
    pub job: u64,
    /// Originating VP (decoded from the uid).
    pub vp: u32,
    /// VP-local sequence number (decoded from the uid).
    pub seq: u64,
    /// Guest-observed round trip: envelope send to response receipt
    /// (wall clock, VP lane).
    pub request_wall_s: f64,
    /// Dispatcher arrival to execution start (wall clock, job-queue lane).
    pub queue_wall_s: f64,
    /// Host-side execution of the request (wall clock, dispatcher lane).
    pub dispatch_wall_s: f64,
    /// Host-side re-execution during VP migration replay (wall clock,
    /// dispatcher lane, span names prefixed `replay`). Kept apart from
    /// [`dispatch_wall_s`](Self::dispatch_wall_s) so original and replayed
    /// work never double-count in one phase.
    pub replay_wall_s: f64,
    /// Number of replayed dispatcher spans stitched into this lifecycle.
    pub replays: usize,
    /// Whether this job's VP migrated: set by a replayed span or by the
    /// zero-width `migration edge` marker the migrator stamps with this uid.
    pub migrated: bool,
    /// Copy-engine busy time attributed to this job (simulated time).
    pub transfer_sim_s: f64,
    /// Compute-engine busy time attributed to this job (simulated time). For
    /// a coalesced-away launch this is the *shared* merged span's duration
    /// (the member's device time is the merged op; summing members therefore
    /// over-counts — the engine view stays with the anchor).
    pub compute_sim_s: f64,
    /// Earliest start / latest end of this job's simulated device activity,
    /// when any exists.
    pub device_window: Option<(f64, f64)>,
    /// Number of trace events joined into this lifecycle.
    pub events: usize,
}

impl JobLifecycle {
    /// Total simulated device busy time (transfer + compute).
    pub fn device_busy_s(&self) -> f64 {
        self.transfer_sim_s + self.compute_sim_s
    }

    /// Width of the simulated device window (0 without device activity).
    pub fn device_window_s(&self) -> f64 {
        self.device_window.map_or(0.0, |(a, b)| b - a)
    }

    /// Time inside the device window when none of this job's operations ran —
    /// waiting on engines or dependencies (never negative).
    pub fn device_stall_s(&self) -> f64 {
        (self.device_window_s() - self.device_busy_s()).max(0.0)
    }
}

/// Join drained trace events into per-job lifecycles, keyed by the stable job
/// uid. Events without a uid (aggregate counters, whole-app spans) are
/// ignored. Returns lifecycles sorted by uid, i.e. by `(vp, seq)`.
pub fn join_lifecycles(events: &[TraceEvent]) -> Vec<JobLifecycle> {
    let mut by_job: BTreeMap<u64, JobLifecycle> = BTreeMap::new();
    // Engine-lane activity per job, so VP-lane mirrors can be told apart from
    // a coalesced member's only device span.
    let mut has_engine_lane: BTreeMap<u64, bool> = BTreeMap::new();
    let mut vp_lane_sim: BTreeMap<u64, f64> = BTreeMap::new();

    for event in events {
        let Some(uid) = event.job else { continue };
        let EventKind::Span { start_s, dur_s } = event.kind else { continue };
        let life = by_job.entry(uid).or_insert_with(|| JobLifecycle {
            job: uid,
            vp: job_uid_vp(uid),
            seq: job_uid_seq(uid),
            ..JobLifecycle::default()
        });
        life.events += 1;
        match (event.domain, event.lane) {
            (TimeDomain::Sim, Lane::CopyH2D | Lane::CopyD2H) => {
                life.transfer_sim_s += dur_s;
                has_engine_lane.insert(uid, true);
                widen(&mut life.device_window, start_s, start_s + dur_s);
            }
            (TimeDomain::Sim, Lane::Compute) => {
                life.compute_sim_s += dur_s;
                has_engine_lane.insert(uid, true);
                widen(&mut life.device_window, start_s, start_s + dur_s);
            }
            (TimeDomain::Sim, Lane::Vp(_)) => {
                // Mirrors of engine-lane spans for jobs that executed — but a
                // coalesced-away member's *only* device span. Tally it; the
                // second pass attributes it when no engine lane showed up.
                *vp_lane_sim.entry(uid).or_insert(0.0) += dur_s;
                widen(&mut life.device_window, start_s, start_s + dur_s);
            }
            (TimeDomain::Wall, Lane::Vp(_)) => life.request_wall_s += dur_s,
            (TimeDomain::Wall, Lane::JobQueue) => life.queue_wall_s += dur_s,
            (TimeDomain::Wall, Lane::Dispatcher) => {
                // Migration stitching: replayed work and the migration-edge
                // marker carry the *original* job uid, so a migrated job's
                // whole history lands in one lifecycle — but replays must not
                // inflate the original dispatch phase.
                if event.name.starts_with("replay") {
                    life.replay_wall_s += dur_s;
                    life.replays += 1;
                    life.migrated = true;
                } else if event.name.starts_with("migration edge") {
                    life.migrated = true;
                } else {
                    life.dispatch_wall_s += dur_s;
                }
            }
            _ => {}
        }
    }

    // Coalesced members: no engine-lane span of their own, so their VP-lane
    // time (the shared merged span) is their compute time.
    for (uid, sim_s) in vp_lane_sim {
        if !has_engine_lane.get(&uid).copied().unwrap_or(false) {
            if let Some(life) = by_job.get_mut(&uid) {
                life.compute_sim_s += sim_s;
            }
        }
    }

    by_job.into_values().collect()
}

fn widen(window: &mut Option<(f64, f64)>, start: f64, end: f64) {
    *window = Some(match *window {
        Some((a, b)) => (a.min(start), b.max(end)),
        None => (start, end),
    });
}

/// What a critical-path segment spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathPhase {
    /// A copy-engine operation ran.
    Transfer,
    /// A compute-engine operation ran.
    Compute,
    /// Nothing on the path ran — waiting on an engine or a dependency.
    Stall,
}

/// One tile of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// Segment start (simulated seconds).
    pub start_s: f64,
    /// Segment end (simulated seconds).
    pub end_s: f64,
    /// What ran (or didn't).
    pub phase: PathPhase,
    /// The op occupying the segment (`None` for stalls).
    pub op: Option<u64>,
    /// The stable job uid of that op's source record, when resolvable.
    pub job: Option<u64>,
}

impl PathSegment {
    /// Segment duration.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The chain of operations (and stalls) that determined a device's makespan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Time-ordered segments tiling `[0, makespan]` without gaps.
    pub segments: Vec<PathSegment>,
    /// The timeline's makespan (what the segments must sum to).
    pub makespan_s: f64,
}

impl CriticalPath {
    /// Sum of all segment durations. Equals `makespan_s` up to floating-point
    /// rounding — the conservation property (asserted by `is_conserved`).
    pub fn total_s(&self) -> f64 {
        self.segments.iter().map(PathSegment::dur_s).sum()
    }

    /// Total stall time on the path.
    pub fn stall_s(&self) -> f64 {
        self.phase_s(PathPhase::Stall)
    }

    /// Total busy (transfer + compute) time on the path.
    pub fn busy_s(&self) -> f64 {
        self.total_s() - self.stall_s()
    }

    /// Time attributed to one phase.
    pub fn phase_s(&self, phase: PathPhase) -> f64 {
        self.segments.iter().filter(|s| s.phase == phase).map(PathSegment::dur_s).sum()
    }

    /// Whether the segment durations sum to the makespan within a relative
    /// tolerance — the invariant the audit gate checks.
    pub fn is_conserved(&self, rel_tol: f64) -> bool {
        let scale = self.makespan_s.abs().max(1e-30);
        (self.total_s() - self.makespan_s).abs() <= rel_tol * scale
    }
}

/// Extract the critical path of a timeline: walk backward from the operation
/// that ends at the makespan, at each step jumping to the latest-finishing
/// earlier operation and recording any gap between them as a stall. The
/// result tiles `[0, makespan]` exactly, so the per-segment breakdown sums to
/// the measured makespan (conservation).
///
/// `job_of` resolves op ids to stable job uids (see
/// [`sigmavp::op_job_uid`]); pass `|_| None` when no record log is at hand.
pub fn critical_path(timeline: &Timeline, job_of: &dyn Fn(u64) -> Option<u64>) -> CriticalPath {
    let makespan = timeline.makespan_s;
    let mut path = CriticalPath { segments: Vec::new(), makespan_s: makespan };
    if timeline.spans.is_empty() || makespan <= 0.0 {
        return path;
    }
    let eps = makespan * 1e-9;
    let mut cur: &OpSpan = timeline
        .spans
        .iter()
        .max_by(|a, b| a.end_s.total_cmp(&b.end_s))
        .expect("non-empty timeline has a last span");

    loop {
        path.segments.push(PathSegment {
            start_s: cur.start_s,
            end_s: cur.end_s,
            phase: match cur.engine {
                Engine::CopyH2D | Engine::CopyD2H => PathPhase::Transfer,
                Engine::Compute => PathPhase::Compute,
            },
            op: Some(cur.id),
            job: job_of(cur.id),
        });
        if cur.start_s <= eps {
            break;
        }
        // Latest-finishing operation that completed by the time `cur` started
        // (strictly earlier start, so the walk always progresses).
        let pred = timeline
            .spans
            .iter()
            .filter(|s| s.end_s <= cur.start_s + eps && s.start_s < cur.start_s - eps)
            .max_by(|a, b| a.end_s.total_cmp(&b.end_s));
        match pred {
            Some(p) => {
                if p.end_s < cur.start_s - eps {
                    path.segments.push(PathSegment {
                        start_s: p.end_s,
                        end_s: cur.start_s,
                        phase: PathPhase::Stall,
                        op: None,
                        job: None,
                    });
                }
                cur = p;
            }
            None => {
                // Nothing finished before us: the head of the schedule. Any
                // remaining lead-in is a stall from t = 0.
                path.segments.push(PathSegment {
                    start_s: 0.0,
                    end_s: cur.start_s,
                    phase: PathPhase::Stall,
                    op: None,
                    job: None,
                });
                break;
            }
        }
    }
    // Walked backward; present forward. Snap the tiling closed: consecutive
    // segments abut by construction (within eps), and the first starts at 0.
    path.segments.reverse();
    let mut cursor = 0.0;
    for seg in &mut path.segments {
        seg.start_s = cursor;
        cursor = seg.end_s;
    }
    if let Some(last) = path.segments.last_mut() {
        last.end_s = makespan;
    }
    path
}

/// [`critical_path`] for a planned device outcome, with op ids resolved to
/// job uids through the device's record log.
pub fn device_critical_path(outcome: &DeviceOutcome) -> CriticalPath {
    critical_path(&outcome.plan.timeline, &|op| sigmavp::op_job_uid(&outcome.records, op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_gpu::engine::{simulate, GpuOp, StreamId};
    use sigmavp_gpu::GpuArch;
    use sigmavp_telemetry::job_uid;

    fn pipelined_ops(n: u64, t: f64) -> Vec<GpuOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(GpuOp {
                id: i * 3,
                stream: StreamId(i as u32),
                engine: Engine::CopyH2D,
                duration_s: t,
                after: vec![],
            });
        }
        for i in 0..n {
            ops.push(GpuOp::kernel(i * 3 + 1, StreamId(i as u32), t));
        }
        for i in 0..n {
            ops.push(GpuOp {
                id: i * 3 + 2,
                stream: StreamId(i as u32),
                engine: Engine::CopyD2H,
                duration_s: t,
                after: vec![],
            });
        }
        ops
    }

    #[test]
    fn join_groups_events_by_uid_across_lanes_and_domains() {
        let a = job_uid(0, 0);
        let b = job_uid(1, 0);
        let events = vec![
            TraceEvent::span(TimeDomain::Wall, Lane::Vp(0), "request", 0.0, 5e-3).with_job(a),
            TraceEvent::span(TimeDomain::Wall, Lane::JobQueue, "queued", 1e-3, 1e-3).with_job(a),
            TraceEvent::span(TimeDomain::Wall, Lane::Dispatcher, "exec", 2e-3, 2e-3).with_job(a),
            TraceEvent::span(TimeDomain::Sim, Lane::CopyH2D, "h2d", 0.0, 1e-4).with_job(a),
            TraceEvent::span(TimeDomain::Sim, Lane::Compute, "k", 1e-4, 2e-4).with_job(a),
            TraceEvent::span(TimeDomain::Sim, Lane::Vp(0), "h2d", 0.0, 1e-4).with_job(a),
            TraceEvent::span(TimeDomain::Sim, Lane::Compute, "k", 3e-4, 2e-4).with_job(b),
            // No uid: ignored by the join.
            TraceEvent::span(TimeDomain::Wall, Lane::Vp(9), "app", 0.0, 1.0),
            TraceEvent::counter(TimeDomain::Wall, Lane::JobQueue, "depth", 0.0, 3.0),
        ];
        let lives = join_lifecycles(&events);
        assert_eq!(lives.len(), 2);
        let la = &lives[0];
        assert_eq!((la.vp, la.seq), (0, 0));
        assert!((la.request_wall_s - 5e-3).abs() < 1e-12);
        assert!((la.queue_wall_s - 1e-3).abs() < 1e-12);
        assert!((la.dispatch_wall_s - 2e-3).abs() < 1e-12);
        assert!((la.transfer_sim_s - 1e-4).abs() < 1e-12);
        // The VP-lane sim mirror must NOT double-count engine time.
        assert!((la.compute_sim_s - 2e-4).abs() < 1e-12);
        let (win_start, win_end) = la.device_window.expect("device activity joined");
        assert_eq!(win_start, 0.0);
        assert!((win_end - 3e-4).abs() < 1e-12);
        assert!((la.device_busy_s() - 3e-4).abs() < 1e-12);
        assert!(la.device_stall_s().abs() < 1e-12);
        let lb = &lives[1];
        assert_eq!((lb.vp, lb.seq), (1, 0));
        assert!((lb.compute_sim_s - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn coalesced_member_vp_lane_span_counts_as_compute() {
        let m = job_uid(2, 1);
        let events =
            vec![TraceEvent::span(TimeDomain::Sim, Lane::Vp(2), "k (merged into op1)", 1e-4, 3e-4)
                .with_job(m)];
        let lives = join_lifecycles(&events);
        assert_eq!(lives.len(), 1);
        assert!((lives[0].compute_sim_s - 3e-4).abs() < 1e-12);
        assert_eq!(lives[0].transfer_sim_s, 0.0);
    }

    #[test]
    fn critical_path_tiles_the_makespan_of_a_pipelined_fleet() {
        let arch = GpuArch::quadro_4000();
        let tl = simulate(&arch, &pipelined_ops(4, 1.0));
        let path = critical_path(&tl, &|op| Some(1000 + op));
        assert!(path.is_conserved(1e-12), "sum {} vs makespan {}", path.total_s(), tl.makespan_s);
        // The tiling is gap-free and starts at 0.
        assert_eq!(path.segments[0].start_s, 0.0);
        for w in path.segments.windows(2) {
            assert_eq!(w[0].end_s, w[1].start_s);
        }
        assert_eq!(path.segments.last().unwrap().end_s, tl.makespan_s);
        // A perfect pipeline's path has no stalls, and busy ops resolve jobs.
        assert_eq!(path.stall_s(), 0.0);
        assert!(path.segments.iter().all(|s| s.job.is_some()));
    }

    #[test]
    fn critical_path_exposes_stalls() {
        // One stream: copy, then a kernel that waits on an *artificial* gap
        // via a dependency on a much later copy in another stream.
        let arch = GpuArch::quadro_4000();
        let ops = vec![
            GpuOp {
                id: 0,
                stream: StreamId(0),
                engine: Engine::CopyH2D,
                duration_s: 1.0,
                after: vec![],
            },
            GpuOp {
                id: 1,
                stream: StreamId(1),
                engine: Engine::CopyD2H,
                duration_s: 3.0,
                after: vec![],
            },
            GpuOp::kernel(2, StreamId(0), 1.0).with_after(vec![1]),
        ];
        let tl = simulate(&arch, &ops);
        assert!((tl.makespan_s - 4.0).abs() < 1e-12);
        let path = critical_path(&tl, &|_| None);
        assert!(path.is_conserved(1e-12));
        // Path: d2h (0..3) then kernel (3..4) — no stall; the d2h *is* the
        // blocker. Busy time accounts for everything.
        assert_eq!(path.stall_s(), 0.0);
        assert!((path.phase_s(PathPhase::Transfer) - 3.0).abs() < 1e-12);
        assert!((path.phase_s(PathPhase::Compute) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_of_empty_timeline_is_empty() {
        let path = critical_path(&Timeline::default(), &|_| None);
        assert!(path.segments.is_empty());
        assert_eq!(path.total_s(), 0.0);
        assert!(path.is_conserved(1e-12));
    }

    #[test]
    fn replay_spans_stitch_into_one_lifecycle_without_inflating_dispatch() {
        let uid = job_uid(4, 2);
        let events = vec![
            TraceEvent::span(TimeDomain::Wall, Lane::Dispatcher, "memcpy h2d", 0.0, 1e-3)
                .with_job(uid),
            TraceEvent::span(TimeDomain::Wall, Lane::Dispatcher, "replay s1", 5.0, 2e-3)
                .with_job(uid),
            TraceEvent::span(
                TimeDomain::Wall,
                Lane::Dispatcher,
                "migration edge s0 -> s1",
                5.0,
                0.0,
            )
            .with_job(job_uid(4, 3)),
        ];
        let lives = join_lifecycles(&events);
        assert_eq!(lives.len(), 2, "replays join the original job, not a new one");
        let migrated = &lives[0];
        assert_eq!((migrated.vp, migrated.seq), (4, 2));
        assert!(migrated.migrated);
        assert_eq!(migrated.replays, 1);
        assert!((migrated.dispatch_wall_s - 1e-3).abs() < 1e-12, "replay excluded");
        assert!((migrated.replay_wall_s - 2e-3).abs() < 1e-12);
        // The edge marker flags the first post-migration job without any
        // replayed work of its own.
        let edge = &lives[1];
        assert_eq!((edge.vp, edge.seq), (4, 3));
        assert!(edge.migrated);
        assert_eq!(edge.replays, 0);
        assert_eq!(edge.replay_wall_s, 0.0);
    }

    #[test]
    fn forced_fleet_migration_yields_stitched_deterministic_lifecycles() {
        use sigmavp_fleet::{Fleet, FleetConfig};
        use sigmavp_ipc::message::{Request, Response, VpId};
        use sigmavp_workloads::app::Application;
        use sigmavp_workloads::apps::VectorAddApp;

        let _guard = crate::flight::test_global_lock();
        // One full fleet run with a forced mid-run migration; returns the
        // stitched lifecycles of the migrated VP plus the device outcomes.
        let run = || {
            let telemetry = sigmavp_telemetry::install();
            let registry = VectorAddApp { n: 64 }.kernels().into_iter().collect();
            let fleet = Fleet::new(FleetConfig::new(2), registry).expect("fleet builds");
            let vp = VpId(3);
            let home = fleet.admit(vp).expect("admit");
            fleet.submit(vp, Request::Malloc { bytes: 256 }).unwrap();
            let (response, _) = fleet.wait(vp).unwrap();
            let Response::Malloc { handle } = response.body else { panic!("malloc reply") };
            fleet
                .submit(vp, Request::MemcpyH2D { handle, data: vec![7u8; 256], stream: 0 })
                .unwrap();
            fleet.wait(vp).unwrap();
            // Force the migration while the VP is idle, then run one more
            // request so the first post-migration job exists.
            fleet.migrate(vp, 1 - home).expect("forced migration");
            fleet.submit(vp, Request::Synchronize).unwrap();
            fleet.wait(vp).unwrap();
            let outcome = fleet.shutdown();
            let events = telemetry.drain_events();
            sigmavp_telemetry::uninstall();
            assert_eq!(outcome.stats.migrations, 1);
            (join_lifecycles(&events), outcome)
        };

        let (lives, outcome) = run();
        // The journaled pre-migration jobs (malloc seq 0, upload seq 1) each
        // stitch their replay back onto the original uid — one causal chain
        // per job, not a second lifecycle.
        for seq in [0, 1] {
            let life = lives
                .iter()
                .find(|l| (l.vp, l.seq) == (3, seq))
                .unwrap_or_else(|| panic!("lifecycle for seq {seq}"));
            assert!(life.migrated, "seq {seq} tagged with the migration");
            assert_eq!(life.replays, 1, "seq {seq} replayed exactly once");
            assert!(life.request_wall_s > 0.0, "original request phase kept");
        }
        // The first post-migration job carries the migration edge.
        let edge = lives.iter().find(|l| (l.vp, l.seq) == (3, 2)).expect("post-migration job");
        assert!(edge.migrated && edge.replays == 0);
        // Device critical paths stay conserved for every device that ran work.
        for session in &outcome.sessions {
            for device in &session.devices {
                if !device.records.is_empty() {
                    let path = device_critical_path(device);
                    assert!(path.is_conserved(1e-9), "conserved path on migrated-job device");
                }
            }
        }
        // Same-seed determinism: the stitched structure is identical across
        // runs (wall durations differ; the causal chain may not).
        let (lives2, _) = run();
        let shape = |ls: &[JobLifecycle]| {
            ls.iter().map(|l| (l.job, l.replays, l.migrated)).collect::<Vec<_>>()
        };
        assert_eq!(shape(&lives), shape(&lives2));
    }
}
