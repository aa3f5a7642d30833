//! The scheduling pipeline: composable planning passes over a job stream.
//!
//! The paper's re-scheduler (Fig. 2) is *one* component that plans Kernel
//! Interleaving and Kernel Coalescing for every job arriving from any VP. This
//! module is that component's spine: a [`SchedulePass`] transforms a
//! [`JobStream`] (an ordered job window plus any merge groups discovered so
//! far), and a [`Pipeline`] chains passes. Every runtime — the deterministic
//! scenario engine, the live threaded runtime, and the dispatcher — derives its
//! pipeline from the same [`Policy`] and drives the same passes, so a new
//! policy is a single-site change.
//!
//! The standard passes, in their canonical order:
//!
//! 1. [`DepOrder`] — canonicalize per-VP submission order (`seq`-sorted within
//!    each VP). Identity for well-formed input; guarantees the partial-order
//!    contract for everything downstream.
//! 2. [`Interleave`] — Kernel Interleaving (Fig. 4a): permute the window to
//!    overlap copy and compute engines, via the greedy earliest-start scheduler
//!    or the critical-path list scheduler.
//! 3. [`Coalesce`] — Kernel Coalescing (Fig. 5): group matching jobs from
//!    different coalescing-friendly VPs (same per-VP ordinal, same identity)
//!    into [`MergeGroup`]s. Groups reference jobs by [`JobId`], so they stay
//!    valid under any later reordering.
//! 4. [`AdaptiveSelect`] — keep the merged plan only if the backend's
//!    [`StreamEvaluator`] prices it at or below the plain plan ("by using the
//!    expected time for each invocation" — the re-scheduler applies an
//!    optimization only when it wins).
//!
//! Every pipeline run records each pass's planning time through the global
//! telemetry [`Recorder`](sigmavp_telemetry::Recorder) as
//! `plan.pass.<name>.time_s`.

use std::collections::HashMap;
use std::time::Instant;

use sigmavp_ipc::message::VpId;
#[cfg(any(test, debug_assertions))]
use sigmavp_ipc::queue::preserves_partial_order;
use sigmavp_ipc::queue::{Job, JobId, JobKind};

use crate::deps::reorder_critical_path;
use crate::interleave::reorder_async;
use crate::policy::{InterleaveMode, Policy};

/// A group of matching jobs merged into one device operation by Kernel
/// Coalescing.
///
/// Members are identified by [`JobId`], not by position, so a group survives
/// any partial-order-preserving reordering of the stream. The *anchor* is the
/// member occupying the latest position in the current job order: emitting the
/// merged operation there guarantees every member's intra-VP predecessors have
/// already been issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeGroup {
    /// The member at the latest stream position; the merged op is emitted here.
    pub anchor: JobId,
    /// The remaining members, absorbed into the anchor's operation.
    pub dropped: Vec<JobId>,
}

impl MergeGroup {
    /// Total member launches the group absorbs (anchor included).
    pub fn size(&self) -> usize {
        self.dropped.len() + 1
    }

    /// All member ids, dropped first, anchor last.
    pub fn member_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.dropped.iter().copied().chain(std::iter::once(self.anchor))
    }
}

/// The unit of planning: an ordered job window plus the merge groups discovered
/// so far.
#[derive(Debug, Clone, Default)]
pub struct JobStream {
    /// The pending jobs, in issue order.
    pub jobs: Vec<Job>,
    /// Merge groups produced by [`Coalesce`] (empty until that pass runs, and
    /// cleared again by [`AdaptiveSelect`] when merging does not pay).
    pub groups: Vec<MergeGroup>,
    /// VP → device migrations planned by [`Rebalance`](crate::rebalance::Rebalance)
    /// for VPs whose assigned device is down; applied by the runtime before the
    /// window executes.
    pub migrations: Vec<(VpId, usize)>,
}

impl JobStream {
    /// A stream over `jobs` with no merge groups or migrations.
    pub fn new(jobs: Vec<Job>) -> Self {
        JobStream { jobs, groups: Vec::new(), migrations: Vec::new() }
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total member launches absorbed across all merge groups.
    pub fn merged_members(&self) -> usize {
        self.groups.iter().map(MergeGroup::size).sum()
    }
}

/// Prices a planned stream on the target backend — the pipeline's makespan
/// oracle.
///
/// `sigmavp-sched` deliberately knows nothing about device models; the runtime
/// injects an evaluator (the engine-model simulator in `sigmavp-core`) so that
/// [`AdaptiveSelect`] can compare the merged and plain plans with real numbers.
pub trait StreamEvaluator {
    /// Expected device makespan, in seconds, of executing `jobs` with the given
    /// merge groups applied (an empty slice means the plain, unmerged plan).
    fn makespan_s(&self, jobs: &[Job], groups: &[MergeGroup]) -> f64;
}

/// Shared context handed to every pass.
pub struct PassCtx<'a> {
    coalescible: &'a dyn Fn(VpId) -> bool,
    evaluator: Option<&'a dyn StreamEvaluator>,
    devices: Option<&'a crate::rebalance::DeviceView<'a>>,
    wave_lanes: Option<&'a dyn Fn(u32) -> u32>,
    live_sync: bool,
}

impl<'a> PassCtx<'a> {
    /// A context in which no VP is coalescing-friendly and no evaluator is
    /// available (sufficient for pure reordering pipelines).
    pub fn reorder_only() -> PassCtx<'static> {
        PassCtx {
            coalescible: &|_| false,
            evaluator: None,
            devices: None,
            wave_lanes: None,
            live_sync: false,
        }
    }

    /// A context with a per-VP coalescibility predicate.
    pub fn new(coalescible: &'a dyn Fn(VpId) -> bool) -> Self {
        PassCtx { coalescible, evaluator: None, devices: None, wave_lanes: None, live_sync: false }
    }

    /// Attach a makespan oracle for [`AdaptiveSelect`].
    pub fn with_evaluator(mut self, evaluator: &'a dyn StreamEvaluator) -> Self {
        self.evaluator = Some(evaluator);
        self
    }

    /// Attach a device-health view for
    /// [`Rebalance`](crate::rebalance::Rebalance).
    pub fn with_devices(mut self, devices: &'a crate::rebalance::DeviceView<'a>) -> Self {
        self.devices = Some(devices);
        self
    }

    /// Attach the device's wave geometry — blocks per wave (λ of Eq. 9) as a
    /// function of block size — enabling [`WavePack`](crate::wavepack::WavePack).
    pub fn with_wave_lanes(mut self, wave_lanes: &'a dyn Fn(u32) -> u32) -> Self {
        self.wave_lanes = Some(wave_lanes);
        self
    }

    /// Mark this window as a *live synchronous* window: every job in it is an
    /// in-flight request whose VP is stopped and waiting, so all jobs are
    /// concurrently pending by construction and passes may group across per-VP
    /// ordinals (offline plans must not — ordinals are their only evidence of
    /// concurrency).
    pub fn with_live_sync(mut self, live_sync: bool) -> Self {
        self.live_sync = live_sync;
        self
    }

    /// Whether `vp`'s jobs may participate in coalescing.
    pub fn is_coalescible(&self, vp: VpId) -> bool {
        (self.coalescible)(vp)
    }

    /// The injected makespan oracle, if any.
    pub fn evaluator(&self) -> Option<&dyn StreamEvaluator> {
        self.evaluator
    }

    /// The injected device-health view, if any.
    pub fn devices(&self) -> Option<&crate::rebalance::DeviceView<'a>> {
        self.devices
    }

    /// Blocks per wave (λ) for `block_dim`, when wave geometry was injected.
    pub fn wave_lanes(&self, block_dim: u32) -> Option<u32> {
        self.wave_lanes.map(|f| f(block_dim))
    }

    /// Whether this is a live synchronous window (see
    /// [`PassCtx::with_live_sync`]).
    pub fn is_live_sync(&self) -> bool {
        self.live_sync
    }
}

impl std::fmt::Debug for PassCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassCtx").field("has_evaluator", &self.evaluator.is_some()).finish()
    }
}

/// One planning transformation over a [`JobStream`].
///
/// Contract: the output's job list must be a permutation of the input's that
/// satisfies [`preserves_partial_order`] (jobs from the same VP keep their
/// relative order), and every [`MergeGroup`] must reference ids present in the
/// stream. [`Pipeline::plan`] debug-asserts both.
pub trait SchedulePass {
    /// Short identifier used in telemetry series (`plan.pass.<name>.*`).
    fn name(&self) -> &'static str;

    /// Transform the stream.
    fn apply(&self, stream: JobStream, ctx: &PassCtx<'_>) -> JobStream;
}

/// Canonicalize per-VP submission order: within each VP, jobs are re-sorted by
/// `seq` while VP slot positions in the window are kept. Identity for
/// well-formed input; guarantees the partial-order contract for any input.
#[derive(Debug, Clone, Copy, Default)]
pub struct DepOrder;

impl SchedulePass for DepOrder {
    fn name(&self) -> &'static str {
        "dep_order"
    }

    fn apply(&self, mut stream: JobStream, _ctx: &PassCtx<'_>) -> JobStream {
        let mut per_vp: HashMap<VpId, Vec<Job>> = HashMap::new();
        for job in &stream.jobs {
            per_vp.entry(job.vp).or_default().push(job.clone());
        }
        for queue in per_vp.values_mut() {
            queue.sort_by_key(|j| j.seq);
            queue.reverse(); // pop from the back = lowest seq first
        }
        for slot in &mut stream.jobs {
            *slot = per_vp
                .get_mut(&slot.vp)
                .and_then(Vec::pop)
                .expect("every slot's VP has a queued job");
        }
        stream
    }
}

/// Kernel Interleaving (Fig. 4a): permute the window to overlap the copy and
/// compute engines, preserving per-VP order.
#[derive(Debug, Clone, Copy)]
pub struct Interleave(pub InterleaveMode);

impl SchedulePass for Interleave {
    fn name(&self) -> &'static str {
        match self.0 {
            InterleaveMode::Off => "interleave_off",
            InterleaveMode::EarliestStart => "interleave",
            InterleaveMode::CriticalPath => "interleave_cp",
        }
    }

    fn apply(&self, mut stream: JobStream, _ctx: &PassCtx<'_>) -> JobStream {
        stream.jobs = match self.0 {
            InterleaveMode::Off => stream.jobs,
            InterleaveMode::EarliestStart => reorder_async(stream.jobs),
            InterleaveMode::CriticalPath => reorder_critical_path(stream.jobs),
        };
        stream
    }
}

/// Kernel Coalescing (Fig. 5): group matching jobs from different
/// coalescing-friendly VPs into [`MergeGroup`]s.
///
/// Jobs match when they share the *per-VP ordinal* (the k-th device job each VP
/// submits — invariant under partial-order-preserving reorders) and an identity:
/// copies match by direction (their chunks merge into one contiguous transfer),
/// kernels by name and block size (the Kernel Match test). Groups of fewer than
/// two members are discarded. The anchor is the member latest in the current
/// job order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coalesce;

impl SchedulePass for Coalesce {
    fn name(&self) -> &'static str {
        "coalesce"
    }

    fn apply(&self, mut stream: JobStream, ctx: &PassCtx<'_>) -> JobStream {
        #[derive(Hash, PartialEq, Eq)]
        enum Identity {
            In,
            Out,
            Kernel(String, u32),
        }

        let mut ordinal: HashMap<VpId, u64> = HashMap::new();
        let mut groups: HashMap<(u64, Identity), Vec<usize>> = HashMap::new();
        for (idx, job) in stream.jobs.iter().enumerate() {
            let ord = ordinal.entry(job.vp).or_insert(0);
            if ctx.is_coalescible(job.vp) {
                let identity = match &job.kind {
                    JobKind::CopyIn { .. } => Identity::In,
                    JobKind::CopyOut { .. } => Identity::Out,
                    JobKind::Kernel { name, block_dim, .. } => {
                        Identity::Kernel(name.clone(), *block_dim)
                    }
                };
                groups.entry((*ord, identity)).or_default().push(idx);
            }
            *ord += 1;
        }

        let mut merged: Vec<(usize, MergeGroup)> = groups
            .into_values()
            .filter(|members| members.len() >= 2)
            .map(|members| {
                let anchor_idx = *members.iter().max().expect("non-empty group");
                let dropped = members
                    .iter()
                    .copied()
                    .filter(|&i| i != anchor_idx)
                    .map(|i| stream.jobs[i].id)
                    .collect();
                (anchor_idx, MergeGroup { anchor: stream.jobs[anchor_idx].id, dropped })
            })
            .collect();
        merged.sort_by_key(|(anchor_idx, _)| *anchor_idx);
        stream.groups = merged.into_iter().map(|(_, g)| g).collect();
        stream
    }
}

/// Keep the merged plan only when it wins: compare the evaluator's makespan for
/// the merged and plain plans and clear the merge groups if merging does not
/// pay (or if no evaluator is available). This is the re-scheduler's adaptive
/// policy — it knows the expected time of every invocation, so it applies
/// coalescing only when the merged timeline is actually faster.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveSelect;

impl SchedulePass for AdaptiveSelect {
    fn name(&self) -> &'static str {
        "adaptive_select"
    }

    fn apply(&self, mut stream: JobStream, ctx: &PassCtx<'_>) -> JobStream {
        if stream.groups.is_empty() {
            return stream;
        }
        let Some(evaluator) = ctx.evaluator() else {
            stream.groups.clear();
            return stream;
        };
        let plain = evaluator.makespan_s(&stream.jobs, &[]);
        let merged = evaluator.makespan_s(&stream.jobs, &stream.groups);
        if merged > plain {
            stream.groups.clear();
        }
        stream
    }
}

/// An ordered chain of [`SchedulePass`]es.
pub struct Pipeline {
    passes: Vec<Box<dyn SchedulePass + Send + Sync>>,
}

impl Pipeline {
    /// An empty pipeline (planning is the identity).
    pub fn new() -> Self {
        Pipeline { passes: Vec::new() }
    }

    /// Append a pass (builder style).
    #[must_use]
    pub fn with_pass(mut self, pass: impl SchedulePass + Send + Sync + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The canonical pipeline for a [`Policy`]:
    /// [`Rebalance`](crate::rebalance::Rebalance) (identity unless the runtime
    /// injects a [`DeviceView`](crate::rebalance::DeviceView)), then
    /// [`DepOrder`], then [`Interleave`] if enabled, then [`Coalesce`] (+
    /// [`WavePack`](crate::wavepack::WavePack) under a sync-hold policy) +
    /// [`AdaptiveSelect`] if coalescing is enabled.
    pub fn from_policy(policy: &Policy) -> Self {
        let mut pipeline =
            Pipeline::new().with_pass(crate::rebalance::Rebalance).with_pass(DepOrder);
        if !matches!(policy.interleave, InterleaveMode::Off) {
            pipeline = pipeline.with_pass(Interleave(policy.interleave));
        }
        if policy.coalesce {
            pipeline = pipeline.with_pass(Coalesce);
            if policy.sync_hold {
                pipeline = pipeline.with_pass(crate::wavepack::WavePack);
            }
            pipeline = pipeline.with_pass(AdaptiveSelect);
        }
        pipeline
    }

    /// Build a pipeline from a comma-separated pass list, e.g.
    /// `"rebalance,dep_order,interleave,coalesce"` — the knob behind the bench
    /// binaries' `--passes` flag, so pass-level ablations (with/without
    /// `rebalance`, `coalesce`, ...) don't require recompiling.
    ///
    /// Recognized names (matching [`SchedulePass::name`]): `rebalance`,
    /// `dep_order`, `interleave` (earliest-start), `interleave_cp`
    /// (critical-path), `coalesce`, `wave_pack`, `adaptive_select`. An empty
    /// spec yields the identity pipeline; whitespace around names is ignored.
    ///
    /// # Errors
    ///
    /// Returns the offending name if it is not a known pass.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut pipeline = Pipeline::new();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            pipeline = match name {
                "rebalance" => pipeline.with_pass(crate::rebalance::Rebalance),
                "dep_order" => pipeline.with_pass(DepOrder),
                "interleave" => pipeline.with_pass(Interleave(InterleaveMode::EarliestStart)),
                "interleave_cp" => pipeline.with_pass(Interleave(InterleaveMode::CriticalPath)),
                "coalesce" => pipeline.with_pass(Coalesce),
                "wave_pack" => pipeline.with_pass(crate::wavepack::WavePack),
                "adaptive_select" => pipeline.with_pass(AdaptiveSelect),
                other => return Err(format!("unknown pass `{other}`")),
            };
        }
        Ok(pipeline)
    }

    /// Number of passes.
    pub fn depth(&self) -> usize {
        self.passes.len()
    }

    /// Pass names, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run every pass over `jobs`, recording each pass's planning time
    /// (`plan.pass.<name>.time_s`) through the global telemetry recorder.
    ///
    /// Debug builds assert the pass contract after every pass: the job list
    /// stays a partial-order-preserving permutation and all merge groups
    /// reference live job ids.
    pub fn plan(&self, jobs: Vec<Job>, ctx: &PassCtx<'_>) -> JobStream {
        let recorder = sigmavp_telemetry::recorder();
        let mut stream = JobStream::new(jobs);
        for pass in &self.passes {
            #[cfg(debug_assertions)]
            let before = stream.jobs.clone();
            // The clock is read only when a recorder will take the time.
            #[allow(clippy::disallowed_methods)]
            let started = recorder.enabled().then(Instant::now);
            stream = pass.apply(stream, ctx);
            if let Some(started) = started {
                let name = format!("plan.pass.{}.time_s", pass.name());
                #[allow(clippy::disallowed_methods)]
                recorder.observe_s(&name, started.elapsed().as_secs_f64());
            }
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    preserves_partial_order(&before, &stream.jobs),
                    "pass `{}` violated the per-VP partial order",
                    pass.name()
                );
                let ids: std::collections::HashSet<JobId> =
                    stream.jobs.iter().map(|j| j.id).collect();
                debug_assert!(
                    stream
                        .groups
                        .iter()
                        .flat_map(MergeGroup::member_ids)
                        .all(|id| ids.contains(&id)),
                    "pass `{}` produced a merge group referencing a missing job",
                    pass.name()
                );
            }
        }
        stream
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline").field("passes", &self.pass_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::queue::JobId;

    fn job(id: u64, vp: u32, seq: u64, kind: JobKind, dur: f64) -> Job {
        Job {
            id: JobId(id),
            vp: VpId(vp),
            seq,
            kind,
            sync: false,
            enqueued_at_s: 0.0,
            expected_duration_s: dur,
        }
    }

    fn programs(n: u32, tm: f64, tk: f64) -> Vec<Job> {
        let mut jobs = Vec::new();
        let mut id = 0;
        for vp in 0..n {
            jobs.push(job(id, vp, 0, JobKind::CopyIn { bytes: 64 }, tm));
            id += 1;
            jobs.push(job(
                id,
                vp,
                1,
                JobKind::Kernel { name: "k".into(), grid_dim: 1, block_dim: 32 },
                tk,
            ));
            id += 1;
            jobs.push(job(id, vp, 2, JobKind::CopyOut { bytes: 64 }, tm));
            id += 1;
        }
        jobs
    }

    #[test]
    fn dep_order_is_identity_on_well_formed_input() {
        let jobs = programs(3, 1.0, 2.0);
        let out = DepOrder.apply(JobStream::new(jobs.clone()), &PassCtx::reorder_only());
        assert_eq!(out.jobs, jobs);
    }

    #[test]
    fn dep_order_repairs_scrambled_per_vp_order() {
        let mut jobs = programs(2, 1.0, 1.0);
        jobs.swap(0, 2); // copy-out before copy-in within VP 0
        let out = DepOrder.apply(JobStream::new(jobs.clone()), &PassCtx::reorder_only());
        assert!(preserves_partial_order(&programs(2, 1.0, 1.0), &out.jobs));
        // Slot positions per VP are kept: VP0 still owns slots 0, 1, 2.
        assert_eq!(out.jobs[0].vp, VpId(0));
        assert_eq!(out.jobs[0].seq, 0);
    }

    #[test]
    fn coalesce_groups_by_ordinal_and_identity() {
        let jobs = programs(4, 1.0, 2.0);
        let ctx = PassCtx::new(&|_| true);
        let out = Coalesce.apply(JobStream::new(jobs), &ctx);
        // Copy-in, kernel, copy-out each group across the four VPs.
        assert_eq!(out.groups.len(), 3);
        assert!(out.groups.iter().all(|g| g.size() == 4));
    }

    #[test]
    fn coalesce_respects_coalescibility() {
        let jobs = programs(4, 1.0, 2.0);
        let ctx = PassCtx::new(&|vp| vp.0 < 2);
        let out = Coalesce.apply(JobStream::new(jobs), &ctx);
        assert_eq!(out.groups.len(), 3);
        assert!(out.groups.iter().all(|g| g.size() == 2));
        let none = Coalesce.apply(JobStream::new(programs(4, 1.0, 2.0)), &PassCtx::reorder_only());
        assert!(none.groups.is_empty());
    }

    #[test]
    fn groups_survive_interleaving() {
        // Coalesce after Interleave: the per-VP ordinal is invariant under
        // partial-order-preserving reorders, so the same groups form.
        let jobs = programs(4, 1.0, 2.0);
        let ctx = PassCtx::new(&|_| true);
        let direct = Coalesce.apply(JobStream::new(jobs.clone()), &ctx);
        let interleaved = Interleave(InterleaveMode::EarliestStart)
            .apply(JobStream::new(jobs), &PassCtx::reorder_only());
        let after = Coalesce.apply(interleaved, &ctx);
        let key = |groups: &[MergeGroup]| {
            let mut ids: Vec<Vec<JobId>> =
                groups.iter().map(|g| g.member_ids().collect()).collect();
            for members in &mut ids {
                members.sort();
            }
            ids.sort();
            ids
        };
        assert_eq!(key(&direct.groups), key(&after.groups));
    }

    struct FixedEvaluator {
        plain: f64,
        merged: f64,
    }

    impl StreamEvaluator for FixedEvaluator {
        fn makespan_s(&self, _jobs: &[Job], groups: &[MergeGroup]) -> f64 {
            if groups.is_empty() {
                self.plain
            } else {
                self.merged
            }
        }
    }

    #[test]
    fn adaptive_select_keeps_winning_merges_only() {
        let coalescible = |_| true;
        let jobs = programs(2, 1.0, 1.0);
        let wins = FixedEvaluator { plain: 10.0, merged: 5.0 };
        let ctx = PassCtx::new(&coalescible).with_evaluator(&wins);
        let stream = Coalesce.apply(JobStream::new(jobs.clone()), &ctx);
        assert!(!AdaptiveSelect.apply(stream, &ctx).groups.is_empty());

        let loses = FixedEvaluator { plain: 5.0, merged: 10.0 };
        let ctx = PassCtx::new(&coalescible).with_evaluator(&loses);
        let stream = Coalesce.apply(JobStream::new(jobs.clone()), &ctx);
        assert!(AdaptiveSelect.apply(stream, &ctx).groups.is_empty());

        // Ties keep the merged plan (matches the scenario engine's historical
        // `merged <= plain` rule).
        let tie = FixedEvaluator { plain: 5.0, merged: 5.0 };
        let ctx = PassCtx::new(&coalescible).with_evaluator(&tie);
        let stream = Coalesce.apply(JobStream::new(jobs), &ctx);
        assert!(!AdaptiveSelect.apply(stream, &ctx).groups.is_empty());
    }

    #[test]
    fn adaptive_select_without_evaluator_drops_groups() {
        let coalescible = |_| true;
        let ctx = PassCtx::new(&coalescible);
        let stream = Coalesce.apply(JobStream::new(programs(2, 1.0, 1.0)), &ctx);
        assert!(!stream.groups.is_empty());
        assert!(AdaptiveSelect.apply(stream, &ctx).groups.is_empty());
    }

    #[test]
    fn pipeline_from_policy_shapes() {
        assert_eq!(
            Pipeline::from_policy(&Policy::Multiplexed).pass_names(),
            vec!["rebalance", "dep_order"]
        );
        assert_eq!(
            Pipeline::from_policy(&Policy::MultiplexedOptimized).pass_names(),
            vec!["rebalance", "dep_order", "interleave", "coalesce", "adaptive_select"]
        );
        assert_eq!(
            Pipeline::from_policy(&Policy::Fifo).pass_names(),
            vec!["rebalance", "dep_order", "interleave"]
        );
    }

    #[test]
    fn pipeline_plan_preserves_partial_order_end_to_end() {
        let jobs = programs(6, 1.0, 2.5);
        let evaluator = FixedEvaluator { plain: 1.0, merged: 0.5 };
        let coalescible = |_| true;
        let ctx = PassCtx::new(&coalescible).with_evaluator(&evaluator);
        let out = Pipeline::from_policy(&Policy::MultiplexedOptimized).plan(jobs.clone(), &ctx);
        assert!(preserves_partial_order(&jobs, &out.jobs));
        assert_eq!(out.len(), jobs.len());
        assert!(!out.groups.is_empty());
    }

    #[test]
    fn empty_window_flows_through() {
        let ctx = PassCtx::reorder_only();
        let out = Pipeline::from_policy(&Policy::MultiplexedOptimized).plan(Vec::new(), &ctx);
        assert!(out.is_empty());
        assert!(out.groups.is_empty());
    }

    #[test]
    fn parse_matches_pass_names() {
        let spec = "rebalance, dep_order,interleave,coalesce,adaptive_select";
        assert_eq!(
            Pipeline::parse(spec).unwrap().pass_names(),
            vec!["rebalance", "dep_order", "interleave", "coalesce", "adaptive_select"]
        );
        assert_eq!(
            Pipeline::parse("dep_order,interleave_cp").unwrap().pass_names(),
            vec!["dep_order", "interleave_cp"]
        );
        assert_eq!(Pipeline::parse("").unwrap().depth(), 0);
        assert!(Pipeline::parse("dep_order,bogus").unwrap_err().contains("bogus"));
        // Every from_policy shape is reconstructible from its own names.
        for policy in [Policy::Multiplexed, Policy::MultiplexedOptimized, Policy::Fifo] {
            let canonical = Pipeline::from_policy(&policy);
            let spec = canonical.pass_names().join(",");
            assert_eq!(Pipeline::parse(&spec).unwrap().pass_names(), canonical.pass_names());
        }
    }
}
