//! Lowering planned job streams to the engine model — the backend half of the
//! scheduling pipeline.
//!
//! `sigmavp-sched` owns the *planning* passes ([`Pipeline`]); this module owns
//! the *pricing*: converting a [`JobRecord`] log into [`Job`]s, lowering a
//! planned [`JobStream`] (jobs plus [`MergeGroup`]s) to engine operations with
//! guest-stream and coalescing-barrier dependencies, and replaying them through
//! the two-engine device model. [`EngineEvaluator`] exposes that replay as the
//! pipeline's [`StreamEvaluator`] makespan oracle, which is how the
//! [`AdaptiveSelect`](sigmavp_sched::AdaptiveSelect) pass decides — with real
//! numbers — whether a merged plan beats the plain one.
//!
//! Every runtime (scenario, dispatcher, fleet) prices its device work through
//! [`plan_device`]; none of them carries inline interleave/coalesce logic.

use std::collections::HashMap;

use sigmavp_gpu::engine::{simulate, Engine as GpuEngine, GpuOp, StreamId, Timeline};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::queue::{Job, JobId, JobKind};
use sigmavp_sched::{JobStream, MergeGroup, PassCtx, Pipeline, StreamEvaluator};
use sigmavp_sptx::IntMap;
use sigmavp_telemetry::{job_uid, Lane, TimeDomain, TraceEvent};

use crate::host::{JobRecord, RecordKind};

/// Guest streams supported per VP in the timeline (engine stream id =
/// `vp × MAX_GUEST_STREAMS + guest_stream`).
pub const MAX_GUEST_STREAMS: u32 = 16;

/// Convert a device job log into pipeline jobs. Job ids index the record order
/// (`jobs[i].id == JobId(i)`), which the lowering relies on to recover
/// guest-stream and wave information after any reordering.
pub fn records_to_jobs(records: &[JobRecord]) -> Vec<Job> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| Job {
            id: JobId(i as u64),
            vp: r.vp,
            seq: r.seq,
            kind: match &r.kind {
                RecordKind::H2d { bytes, .. } => JobKind::CopyIn { bytes: *bytes },
                RecordKind::D2h { bytes, .. } => JobKind::CopyOut { bytes: *bytes },
                RecordKind::Kernel { name, grid_dim, block_dim, .. } => JobKind::Kernel {
                    name: name.clone(),
                    grid_dim: *grid_dim,
                    block_dim: *block_dim,
                },
            },
            sync: true,
            enqueued_at_s: r.sent_at_s,
            expected_duration_s: r.duration_s,
        })
        .collect()
}

/// The stable job uid of the record an engine op was lowered from.
///
/// Both lowerings emit ops whose `id` is the job id, and job ids index the
/// original record order (`jobs[i].id == JobId(i)`), so `records[op_id]` is
/// the op's source record — for merged operations, the group's *anchor*
/// record. Returns `None` for op ids outside the log (defensive; the
/// lowerings never produce them).
pub fn op_job_uid(records: &[JobRecord], op_id: u64) -> Option<u64> {
    records.get(op_id as usize).map(|r| job_uid(r.vp.0, r.seq))
}

fn job_engine(kind: &JobKind) -> GpuEngine {
    match kind {
        JobKind::CopyIn { .. } => GpuEngine::CopyH2D,
        JobKind::CopyOut { .. } => GpuEngine::CopyD2H,
        JobKind::Kernel { .. } => GpuEngine::Compute,
    }
}

/// Lower jobs to engine ops, honoring guest streams with CUDA *legacy
/// default-stream* semantics: operations on the default stream (0) synchronize
/// with every outstanding non-default-stream op of the same VP issued before
/// them, and non-default-stream ops wait for the last default-stream op. Ops on
/// different non-default streams of the same VP may overlap (the asynchronous
/// case of Fig. 4a).
fn build_ops_plain(jobs: &[Job], records: &[JobRecord]) -> Vec<GpuOp> {
    let mut last_default: HashMap<VpId, u64> = HashMap::new();
    let mut outstanding: HashMap<VpId, Vec<u64>> = HashMap::new();
    jobs.iter()
        .map(|j| {
            let guest_stream = match &records[j.id.0 as usize].kind {
                RecordKind::H2d { stream, .. }
                | RecordKind::D2h { stream, .. }
                | RecordKind::Kernel { stream, .. } => *stream % MAX_GUEST_STREAMS,
            };
            let op_id = j.id.0;
            let after = if guest_stream == 0 {
                // Default-to-default ordering comes from the engine stream itself;
                // only the cross-stream joins need explicit dependencies.
                let deps = outstanding.remove(&j.vp).unwrap_or_default();
                last_default.insert(j.vp, op_id);
                deps
            } else {
                outstanding.entry(j.vp).or_default().push(op_id);
                last_default.get(&j.vp).map(|&d| vec![d]).unwrap_or_default()
            };
            GpuOp {
                id: op_id,
                stream: StreamId(j.vp.0 * MAX_GUEST_STREAMS + guest_stream),
                engine: job_engine(&j.kind),
                duration_s: j.expected_duration_s,
                after,
            }
        })
        .collect()
}

#[derive(Debug, Clone)]
enum MergeRole {
    Anchor { members: Vec<usize> },
    Dropped { anchor: usize },
}

/// Lower jobs with the pipeline's merge groups applied: each group becomes a
/// single operation at its anchor's position (so every member's intra-VP
/// predecessors still precede it), and dropped members' later jobs gain an
/// explicit dependency on the merged op.
fn build_ops_merged(
    jobs: &[Job],
    records: &[JobRecord],
    groups: &[MergeGroup],
    arch: &GpuArch,
) -> Vec<GpuOp> {
    let index_of: HashMap<JobId, usize> = jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
    let mut role: HashMap<usize, MergeRole> = HashMap::new();
    for group in groups {
        let anchor = index_of[&group.anchor];
        let members: Vec<usize> = group.dropped.iter().map(|id| index_of[id]).collect();
        for &m in &members {
            role.insert(m, MergeRole::Dropped { anchor });
        }
        role.insert(anchor, MergeRole::Anchor { members });
    }

    // Lower to ops. Track, per VP, the last emitted op id (for dependency wiring)
    // and any pending barrier (a dropped member's next op must wait for the merged
    // op). Barriers on not-yet-lowered anchors use a placeholder id resolved below.
    let mut ops = Vec::with_capacity(jobs.len());
    let mut last_op_of_vp: HashMap<VpId, u64> = HashMap::new();
    let mut pending_barrier: HashMap<VpId, u64> = HashMap::new();
    let mut anchor_op_id: HashMap<usize, u64> = HashMap::new();

    for (idx, job) in jobs.iter().enumerate() {
        match role.get(&idx) {
            Some(MergeRole::Dropped { anchor }) => {
                pending_barrier.insert(job.vp, u64::MAX - *anchor as u64);
            }
            Some(MergeRole::Anchor { members }) => {
                let duration = merged_duration(jobs, records, idx, members, arch);
                let mut after: Vec<u64> = members
                    .iter()
                    .filter_map(|&m| last_op_of_vp.get(&jobs[m].vp).copied())
                    .collect();
                if let Some(b) = pending_barrier.remove(&job.vp) {
                    after.push(b);
                }
                // Op id = job id = original record index, same as the plain
                // lowering, so op ids always resolve to source records.
                let op_id = job.id.0;
                ops.push(GpuOp {
                    id: op_id,
                    stream: StreamId(job.vp.0),
                    engine: job_engine(&job.kind),
                    duration_s: duration,
                    after,
                });
                anchor_op_id.insert(idx, op_id);
                last_op_of_vp.insert(job.vp, op_id);
                // All member VPs now logically depend on this op.
                for &m in members {
                    last_op_of_vp.insert(jobs[m].vp, op_id);
                }
            }
            None => {
                let mut after = vec![];
                if let Some(b) = pending_barrier.remove(&job.vp) {
                    after.push(b);
                }
                let op_id = job.id.0;
                ops.push(GpuOp {
                    id: op_id,
                    stream: StreamId(job.vp.0),
                    engine: job_engine(&job.kind),
                    duration_s: job.expected_duration_s,
                    after,
                });
                last_op_of_vp.insert(job.vp, op_id);
            }
        }
    }

    // Resolve placeholder barriers (u64::MAX - anchor_index) to real op ids.
    for op in &mut ops {
        for dep in &mut op.after {
            if *dep > u64::MAX / 2 {
                let anchor_idx = (u64::MAX - *dep) as usize;
                *dep = anchor_op_id.get(&anchor_idx).copied().unwrap_or(0);
            }
        }
    }
    stabilize_dep_order(ops)
}

/// Duration of a merged operation.
///
/// * Copies merge into one contiguous transfer: one fixed latency plus the summed
///   bytes over the copy-engine bandwidth (Fig. 5's coalesced memory chunk).
/// * Kernels merge into one launch: one launch overhead plus the members' combined
///   compute time scaled by the wave-alignment gain
///   (`merged waves / Σ member waves` — Eq. 9's alignment effect).
fn merged_duration(
    jobs: &[Job],
    records: &[JobRecord],
    anchor: usize,
    members: &[usize],
    arch: &GpuArch,
) -> f64 {
    match &jobs[anchor].kind {
        JobKind::CopyIn { .. } | JobKind::CopyOut { .. } => {
            let total_bytes: u64 = members
                .iter()
                .chain(std::iter::once(&anchor))
                .map(|&i| match jobs[i].kind {
                    JobKind::CopyIn { bytes } | JobKind::CopyOut { bytes } => bytes,
                    JobKind::Kernel { .. } => 0,
                })
                .sum();
            arch.copy_time_s(total_bytes)
        }
        JobKind::Kernel { block_dim, .. } => {
            let block_dim = *block_dim;
            let mut total_grid = 0u64;
            let mut sum_compute = 0.0f64;
            let mut sum_waves = 0u64;
            let mut overhead = arch.launch_overhead_us * 1e-6;
            for &idx in members.iter().chain(std::iter::once(&anchor)) {
                let JobKind::Kernel { grid_dim, .. } = &jobs[idx].kind else { continue };
                total_grid += *grid_dim as u64;
                // Job ids index the original record order even after reordering.
                let rec = &records[jobs[idx].id.0 as usize];
                if let RecordKind::Kernel { launch_overhead_s, waves, .. } = &rec.kind {
                    overhead = *launch_overhead_s;
                    sum_waves += *waves;
                    sum_compute += (rec.duration_s - launch_overhead_s).max(0.0);
                }
            }
            let bpw = arch.blocks_per_wave(block_dim) as u64;
            let merged_waves = total_grid.div_ceil(bpw).max(1);
            let wave_ratio =
                if sum_waves > 0 { merged_waves as f64 / sum_waves as f64 } else { 1.0 };
            overhead + sum_compute * wave_ratio.min(1.0)
        }
    }
}

/// Reorder ops (stably) so every op is issued after all of its `after`
/// dependencies — the in-order engine model requires dependencies to precede their
/// dependents in issue order. Cycles cannot occur (dependencies always point at
/// merged ops whose members precede the dependents), but the code degrades
/// gracefully by emitting any stuck remainder in its given order.
fn stabilize_dep_order(ops: Vec<GpuOp>) -> Vec<GpuOp> {
    let mut emitted: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut pending: std::collections::VecDeque<GpuOp> = ops.into();
    let mut out = Vec::with_capacity(pending.len());
    let mut stall = 0usize;
    while let Some(op) = pending.pop_front() {
        if op.after.iter().all(|d| emitted.contains(d)) {
            emitted.insert(op.id);
            out.push(op);
            stall = 0;
        } else {
            pending.push_back(op);
            stall += 1;
            if stall > pending.len() {
                while let Some(op) = pending.pop_front() {
                    out.push(op);
                }
                break;
            }
        }
    }
    out
}

/// Lower a planned stream to engine ops: the plain guest-stream lowering when no
/// merge groups apply, the coalesced lowering otherwise.
pub fn lower_jobs(
    jobs: &[Job],
    records: &[JobRecord],
    groups: &[MergeGroup],
    arch: &GpuArch,
) -> Vec<GpuOp> {
    if groups.is_empty() {
        stabilize_dep_order(build_ops_plain(jobs, records))
    } else {
        build_ops_merged(jobs, records, groups, arch)
    }
}

/// The engine-model makespan oracle injected into the scheduling pipeline: lowers
/// a candidate plan and replays it through [`simulate`].
#[derive(Debug, Clone, Copy)]
pub struct EngineEvaluator<'a> {
    arch: &'a GpuArch,
    records: &'a [JobRecord],
}

impl<'a> EngineEvaluator<'a> {
    /// An evaluator replaying on `arch` with stream/wave detail from `records`.
    pub fn new(arch: &'a GpuArch, records: &'a [JobRecord]) -> Self {
        EngineEvaluator { arch, records }
    }
}

impl StreamEvaluator for EngineEvaluator<'_> {
    fn makespan_s(&self, jobs: &[Job], groups: &[MergeGroup]) -> f64 {
        simulate(self.arch, &lower_jobs(jobs, self.records, groups, self.arch)).makespan_s
    }
}

/// The priced outcome of planning one device's job log.
#[derive(Debug, Clone)]
pub struct DevicePlan {
    /// The planned stream (jobs in final issue order plus surviving merge
    /// groups).
    pub stream: JobStream,
    /// The executed schedule on the device model.
    pub timeline: Timeline,
}

impl DevicePlan {
    /// Merge groups that survived adaptive selection.
    pub fn coalesced_groups(&self) -> usize {
        self.stream.groups.len()
    }

    /// Per-job simulated queue wait: for every record in the log, the delay
    /// between the guest sending the request (`sent_at_s`) and its operation
    /// starting on the planned device timeline, clamped at zero (the plan's
    /// origin is the window start, so a request stamped after its planned
    /// start simply did not wait). Coalesced-away members are charged their
    /// anchor's start. `records` must be the log the plan was built from.
    ///
    /// This is a *model* quantity — deterministic for a deterministic job log
    /// — which is exactly what starvation gates want: wall-clock waits vary
    /// with machine load, planned waits only with the schedule.
    pub fn queue_waits(&self, records: &[JobRecord]) -> Vec<(VpId, f64)> {
        let mut anchor_of: HashMap<u64, u64> = HashMap::new();
        for group in &self.stream.groups {
            for member in &group.dropped {
                anchor_of.insert(member.0, group.anchor.0);
            }
        }
        // Op ids are record indices; the first span of each id is the one
        // `Timeline::span` would find.
        let mut span_of: IntMap<u64, usize> = IntMap::default();
        for (k, span) in self.timeline.spans.iter().enumerate() {
            span_of.entry(span.id).or_insert(k);
        }
        records
            .iter()
            .enumerate()
            .filter_map(|(i, rec)| {
                let op = anchor_of.get(&(i as u64)).copied().unwrap_or(i as u64);
                let span = &self.timeline.spans[*span_of.get(&op)?];
                Some((rec.vp, (span.start_s - rec.sent_at_s).max(0.0)))
            })
            .collect()
    }

    /// Total member launches those groups absorbed.
    pub fn coalesced_members(&self) -> usize {
        self.stream.merged_members()
    }

    /// The plan's device activity as simulated-time trace events, every span
    /// stamped with its stable job uid:
    ///
    /// * one engine-lane span per executed op, named after its source record
    ///   and carrying that record's uid (the *anchor's* uid for merged ops);
    /// * one VP-lane mirror per op on the originating VP's lane (the record's
    ///   true VP, not the widened engine stream id);
    /// * one VP-lane span per coalesced-away member, covering the merged op's
    ///   interval on the member's own lane with the member's uid — so a
    ///   lifecycle join finds device time for *every* job in the log, dropped
    ///   launches included.
    ///
    /// `records` must be the same log the plan was built from.
    pub fn trace_events(&self, records: &[JobRecord]) -> Vec<TraceEvent> {
        let name_of = |rec: &JobRecord| match &rec.kind {
            RecordKind::H2d { bytes, .. } => format!("h2d {bytes}B"),
            RecordKind::D2h { bytes, .. } => format!("d2h {bytes}B"),
            RecordKind::Kernel { name, .. } => name.clone(),
        };
        let mut events = Vec::with_capacity(2 * self.timeline.spans.len());
        for span in &self.timeline.spans {
            let Some(rec) = records.get(span.id as usize) else { continue };
            let uid = job_uid(rec.vp.0, rec.seq);
            let lane = match span.engine {
                GpuEngine::CopyH2D => Lane::CopyH2D,
                GpuEngine::CopyD2H => Lane::CopyD2H,
                GpuEngine::Compute => Lane::Compute,
            };
            let dur = span.end_s - span.start_s;
            events.push(
                TraceEvent::span(TimeDomain::Sim, lane, name_of(rec), span.start_s, dur)
                    .with_job(uid),
            );
            events.push(
                TraceEvent::span(
                    TimeDomain::Sim,
                    Lane::Vp(rec.vp.0),
                    name_of(rec),
                    span.start_s,
                    dur,
                )
                .with_job(uid),
            );
        }
        // Members a merge group absorbed never became ops of their own; give
        // each one a span over its anchor's interval so its device time is
        // still attributable.
        for group in &self.stream.groups {
            let Some(anchor_span) = self.timeline.span(group.anchor.0) else { continue };
            let (start_s, dur) = (anchor_span.start_s, anchor_span.end_s - anchor_span.start_s);
            for member in &group.dropped {
                let Some(rec) = records.get(member.0 as usize) else { continue };
                events.push(
                    TraceEvent::span(
                        TimeDomain::Sim,
                        Lane::Vp(rec.vp.0),
                        format!("{} (merged into op{})", name_of(rec), group.anchor.0),
                        start_s,
                        dur,
                    )
                    .with_job(job_uid(rec.vp.0, rec.seq)),
                );
            }
        }
        events
    }
}

/// Plan one device's job log through `pipeline` and price the result on `arch`:
/// convert records to jobs, run the passes (with the engine-model evaluator
/// injected for adaptive selection), lower the surviving plan, and replay it.
///
/// The passes are heuristics, and a log in simulated send order may already
/// interleave its VPs well: a plan that prices worse than the log as sent is
/// dropped for the log as sent, so planning never costs makespan. (A one-VP
/// log has no other order and nothing to merge.) The log as sent is priced
/// first, so its pricing never holds memory alongside the plan's.
pub fn plan_device(
    pipeline: &Pipeline,
    records: &[JobRecord],
    coalescible: &dyn Fn(VpId) -> bool,
    arch: &GpuArch,
) -> DevicePlan {
    let price = |stream: &JobStream| {
        simulate(arch, &lower_jobs(&stream.jobs, records, &stream.groups, arch))
    };
    let as_sent = || JobStream::new(records_to_jobs(records));
    let one_vp = records.iter().all(|r| r.vp == records[0].vp);
    let as_sent_s = (!one_vp).then(|| price(&as_sent()).makespan_s);
    let evaluator = EngineEvaluator::new(arch, records);
    let ctx = PassCtx::new(coalescible).with_evaluator(&evaluator);
    let stream = pipeline.plan(records_to_jobs(records), &ctx);
    let timeline = price(&stream);
    if as_sent_s.is_some_and(|s| s < timeline.makespan_s) {
        let stream = as_sent();
        return DevicePlan { timeline: price(&stream), stream };
    }
    DevicePlan { stream, timeline }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_sched::Policy;

    fn record(vp: u32, seq: u64, kind: RecordKind, duration_s: f64) -> JobRecord {
        JobRecord { vp: VpId(vp), seq, kind, duration_s, sent_at_s: 0.0 }
    }

    fn fleet_records(n: u32, arch: &GpuArch) -> Vec<JobRecord> {
        // N serial copy-in → kernel → copy-out programs (the Fig. 9 pattern).
        let mut records = Vec::new();
        for vp in 0..n {
            records.push(record(vp, 0, RecordKind::H2d { bytes: 4096, stream: 0 }, 1e-4));
            records.push(record(
                vp,
                1,
                RecordKind::Kernel {
                    name: "k".into(),
                    grid_dim: 8,
                    block_dim: 128,
                    launch_overhead_s: arch.launch_overhead_us * 1e-6,
                    waves: 1,
                    stream: 0,
                },
                2e-4,
            ));
            records.push(record(vp, 2, RecordKind::D2h { bytes: 4096, stream: 0 }, 1e-4));
        }
        records
    }

    #[test]
    fn jobs_mirror_records() {
        let arch = GpuArch::quadro_4000();
        let records = fleet_records(2, &arch);
        let jobs = records_to_jobs(&records);
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].id, JobId(0));
        assert_eq!(jobs[4].vp, VpId(1));
        assert!(matches!(jobs[1].kind, JobKind::Kernel { .. }));
        assert!((jobs[1].expected_duration_s - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn interleaved_plan_beats_serial_plan() {
        // An asymmetric fleet where arrival order blocks the pipeline: VP 0
        // leads with a long upload before a short kernel, VP 1 with a tiny
        // upload before a long kernel. In arrival order VP 1's kernel waits for
        // VP 0's upload to clear the copy engine; earliest-start interleaving
        // hoists VP 1's upload and kernel ahead, overlapping them with VP 0's
        // transfer.
        let arch = GpuArch::quadro_4000();
        let records = vec![
            record(0, 0, RecordKind::H2d { bytes: 1 << 20, stream: 0 }, 1e-3),
            record(
                0,
                1,
                RecordKind::Kernel {
                    name: "k".into(),
                    grid_dim: 8,
                    block_dim: 128,
                    launch_overhead_s: 0.0,
                    waves: 1,
                    stream: 0,
                },
                1e-4,
            ),
            record(1, 0, RecordKind::H2d { bytes: 64, stream: 0 }, 1e-5),
            record(
                1,
                1,
                RecordKind::Kernel {
                    name: "k".into(),
                    grid_dim: 8,
                    block_dim: 128,
                    launch_overhead_s: 0.0,
                    waves: 1,
                    stream: 0,
                },
                5e-4,
            ),
        ];
        let serial =
            plan_device(&Pipeline::from_policy(&Policy::Multiplexed), &records, &|_| false, &arch);
        let interleaved =
            plan_device(&Pipeline::from_policy(&Policy::Fifo), &records, &|_| false, &arch);
        assert!(
            interleaved.timeline.makespan_s < serial.timeline.makespan_s,
            "{} !< {}",
            interleaved.timeline.makespan_s,
            serial.timeline.makespan_s
        );
        assert_eq!(serial.stream.len(), records.len());
        assert_eq!(interleaved.stream.len(), records.len());
    }

    #[test]
    fn adaptive_coalescing_prices_with_the_engine_model() {
        let arch = GpuArch::quadro_4000();
        let records = fleet_records(6, &arch);
        let merged = plan_device(
            &Pipeline::from_policy(&Policy::MultiplexedOptimized),
            &records,
            &|_| true,
            &arch,
        );
        let plain = plan_device(&Pipeline::from_policy(&Policy::Fifo), &records, &|_| true, &arch);
        // Identical single-wave kernels across VPs merge, and merging wins here.
        assert!(merged.coalesced_groups() >= 1);
        assert!(merged.coalesced_members() >= 2);
        assert!(merged.timeline.makespan_s <= plain.timeline.makespan_s + 1e-12);
    }

    #[test]
    fn evaluator_matches_final_pricing() {
        let arch = GpuArch::quadro_4000();
        let records = fleet_records(4, &arch);
        let plan = plan_device(
            &Pipeline::from_policy(&Policy::MultiplexedOptimized),
            &records,
            &|_| true,
            &arch,
        );
        let evaluator = EngineEvaluator::new(&arch, &records);
        let replay = evaluator.makespan_s(&plan.stream.jobs, &plan.stream.groups);
        assert!((replay - plan.timeline.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn trace_events_stamp_every_job_uid() {
        use sigmavp_telemetry::job_uid;
        let arch = GpuArch::quadro_4000();
        let records = fleet_records(6, &arch);
        let plan = plan_device(
            &Pipeline::from_policy(&Policy::MultiplexedOptimized),
            &records,
            &|_| true,
            &arch,
        );
        assert!(plan.coalesced_members() >= 2, "scenario must exercise merging");
        let events = plan.trace_events(&records);
        // Every event is job-stamped, and every record's uid appears at least
        // once — coalesced-away members included.
        assert!(events.iter().all(|e| e.job.is_some()));
        for rec in &records {
            let uid = job_uid(rec.vp.0, rec.seq);
            assert!(
                events.iter().any(|e| e.job == Some(uid)),
                "no device event for vp{} seq{}",
                rec.vp.0,
                rec.seq
            );
        }
        // VP-lane mirrors use the record's true VP id.
        assert!(events.iter().any(|e| e.lane == Lane::Vp(5)));
        assert!(!events.iter().any(|e| matches!(e.lane, Lane::Vp(n) if n >= 6)));
    }

    #[test]
    fn op_job_uid_maps_ops_to_records() {
        use sigmavp_telemetry::job_uid;
        let arch = GpuArch::quadro_4000();
        let records = fleet_records(2, &arch);
        assert_eq!(op_job_uid(&records, 0), Some(job_uid(0, 0)));
        assert_eq!(op_job_uid(&records, 4), Some(job_uid(1, 1)));
        assert_eq!(op_job_uid(&records, 99), None);
    }

    #[test]
    fn queue_waits_match_a_per_record_span_scan() {
        let arch = GpuArch::quadro_4000();
        let mut records = fleet_records(6, &arch);
        for (i, rec) in records.iter_mut().enumerate() {
            rec.sent_at_s = i as f64 * 3e-5;
        }
        let plan = plan_device(
            &Pipeline::from_policy(&Policy::MultiplexedOptimized),
            &records,
            &|_| true,
            &arch,
        );
        assert!(plan.coalesced_members() >= 2, "scenario must exercise merging");
        let mut anchor_of = HashMap::new();
        for group in &plan.stream.groups {
            for member in &group.dropped {
                anchor_of.insert(member.0, group.anchor.0);
            }
        }
        let scanned: Vec<(VpId, f64)> = records
            .iter()
            .enumerate()
            .filter_map(|(i, rec)| {
                let op = anchor_of.get(&(i as u64)).copied().unwrap_or(i as u64);
                let span = plan.timeline.span(op)?;
                Some((rec.vp, (span.start_s - rec.sent_at_s).max(0.0)))
            })
            .collect();
        assert_eq!(scanned.len(), records.len());
        assert!(scanned.iter().any(|&(_, w)| w > 0.0));
        assert_eq!(plan.queue_waits(&records), scanned);
    }

    #[test]
    fn empty_log_plans_to_empty_timeline() {
        let arch = GpuArch::quadro_4000();
        let plan = plan_device(
            &Pipeline::from_policy(&Policy::MultiplexedOptimized),
            &[],
            &|_| true,
            &arch,
        );
        assert_eq!(plan.timeline.makespan_s, 0.0);
        assert_eq!(plan.coalesced_groups(), 0);
    }
}
