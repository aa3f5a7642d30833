//! Cross-device rebalancing: migrate VPs off dead, tripped, or overloaded
//! host GPUs.
//!
//! The ROADMAP's cross-device rebalancing pass, landed as a [`SchedulePass`]:
//! given a view of per-device health and queued load, [`Rebalance`] finds every
//! VP in the window whose assigned device is down and plans its migration to
//! the least-loaded surviving device. When the view carries a [`LoadRebalance`]
//! threshold it additionally fires on *load imbalance* between healthy devices
//! (not only on breaker trips), draining VPs from the hottest device toward
//! the coolest. The pass never reorders jobs — it only fills
//! [`JobStream::migrations`]; the runtime applies them (journal replay +
//! reassignment) before executing the window.

use sigmavp_ipc::message::VpId;

use crate::pipeline::{JobStream, PassCtx, SchedulePass};

/// Deterministic load-imbalance trigger for [`Rebalance`].
///
/// Queued seconds are an integral of backlog: a gap of `min_abs_s` between the
/// hottest and coolest healthy device can only accumulate over a *sustained*
/// run of lopsided windows, so the absolute floor doubles as the "sustained"
/// test — one busy window cannot trip it. Both conditions must hold before
/// any migration is planned:
///
/// * `hot > ratio × cool` (relative imbalance), and
/// * `hot − cool ≥ min_abs_s` (absolute backlog gap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadRebalance {
    /// Relative trigger: hottest projected load must exceed `ratio` times the
    /// coolest.
    pub ratio: f64,
    /// Absolute trigger: the hot−cool gap, in queued seconds, below which the
    /// imbalance is not considered sustained.
    pub min_abs_s: f64,
}

impl LoadRebalance {
    /// Default thresholds: 2× relative imbalance with at least 1 ms of backlog
    /// gap.
    pub const DEFAULT: LoadRebalance = LoadRebalance { ratio: 2.0, min_abs_s: 1e-3 };
}

impl Default for LoadRebalance {
    fn default() -> Self {
        LoadRebalance::DEFAULT
    }
}

/// A read-only snapshot of device state for one planning round.
///
/// Borrowed closures keep `sigmavp-sched` ignorant of the session/runtime
/// types that actually own the state, mirroring how
/// [`StreamEvaluator`](crate::pipeline::StreamEvaluator) injects the makespan
/// oracle.
pub struct DeviceView<'a> {
    /// Expected seconds of work already queued per device.
    pub queued_s: &'a [f64],
    /// Current VP → device assignment (`None` for unknown VPs).
    pub route: &'a dyn Fn(VpId) -> Option<usize>,
    /// Whether a device is down for a request stamped at the given simulated
    /// time (scheduled outage or tripped circuit breaker).
    pub down_for: &'a dyn Fn(usize, f64) -> bool,
    /// Load-imbalance trigger; `None` keeps the pass failure-triggered only.
    pub load: Option<LoadRebalance>,
}

impl std::fmt::Debug for DeviceView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceView").field("queued_s", &self.queued_s).finish()
    }
}

/// Plan migrations for VPs whose device is down.
///
/// For each distinct VP in the window (first-appearance order) whose routed
/// device is down at the VP's latest job timestamp, the pass picks the healthy
/// device with the lowest projected load — queued seconds plus work already
/// migrated onto it this round — and records `(vp, target)` in
/// [`JobStream::migrations`]. With no [`DeviceView`] in the context the pass is
/// the identity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebalance;

impl SchedulePass for Rebalance {
    fn name(&self) -> &'static str {
        "rebalance"
    }

    fn apply(&self, mut stream: JobStream, ctx: &PassCtx<'_>) -> JobStream {
        let Some(view) = ctx.devices() else {
            return stream;
        };
        let mut extra = vec![0.0f64; view.queued_s.len()];
        let mut seen: Vec<VpId> = Vec::new();
        for vp in stream.jobs.iter().map(|j| j.vp) {
            if !seen.contains(&vp) {
                seen.push(vp);
            }
        }
        for vp in seen {
            let Some(device) = (view.route)(vp) else {
                continue;
            };
            // Judge by the VP's newest timestamp in the window: a device that
            // died mid-run is down for the VP's still-pending work.
            let t = stream
                .jobs
                .iter()
                .filter(|j| j.vp == vp)
                .map(|j| j.enqueued_at_s)
                .fold(f64::NEG_INFINITY, f64::max);
            if !(view.down_for)(device, t) {
                continue;
            }
            let cost: f64 =
                stream.jobs.iter().filter(|j| j.vp == vp).map(|j| j.expected_duration_s).sum();
            let target = (0..view.queued_s.len())
                .filter(|&d| d != device && !(view.down_for)(d, t))
                .min_by(|&a, &b| {
                    let la = view.queued_s[a] + extra[a];
                    let lb = view.queued_s[b] + extra[b];
                    la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
                });
            if let Some(target) = target {
                extra[target] += cost;
                stream.migrations.push((vp, target));
            }
        }

        if let Some(cfg) = view.load {
            self.apply_load_trigger(&mut stream, view, &mut extra, cfg);
        }
        stream
    }
}

impl Rebalance {
    /// Drain VPs from the hottest healthy device toward the coolest while the
    /// [`LoadRebalance`] thresholds hold. Candidates move in first-appearance
    /// order, each only if its window cost strictly shrinks the gap, so the
    /// plan is deterministic for a fixed window and view.
    fn apply_load_trigger(
        &self,
        stream: &mut JobStream,
        view: &DeviceView<'_>,
        extra: &mut [f64],
        cfg: LoadRebalance,
    ) {
        let t =
            stream.jobs.iter().map(|j| j.enqueued_at_s).fold(f64::NEG_INFINITY, f64::max).max(0.0);
        let healthy: Vec<usize> =
            (0..view.queued_s.len()).filter(|&d| !(view.down_for)(d, t)).collect();
        if healthy.len() < 2 {
            return;
        }
        let projected = |d: usize, extra: &[f64]| view.queued_s[d] + extra[d];

        let mut seen: Vec<VpId> = Vec::new();
        for vp in stream.jobs.iter().map(|j| j.vp) {
            if !seen.contains(&vp) {
                seen.push(vp);
            }
        }
        let moved: Vec<VpId> = stream.migrations.iter().map(|&(vp, _)| vp).collect();
        for vp in seen {
            if moved.contains(&vp) {
                continue;
            }
            let hot = *healthy
                .iter()
                .max_by(|&&a, &&b| {
                    projected(a, extra)
                        .partial_cmp(&projected(b, extra))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a)) // tie: lowest index wins the max scan
                })
                .expect("len >= 2");
            let cool = *healthy
                .iter()
                .min_by(|&&a, &&b| {
                    projected(a, extra)
                        .partial_cmp(&projected(b, extra))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
                .expect("len >= 2");
            let (load_hot, load_cool) = (projected(hot, extra), projected(cool, extra));
            let gap = load_hot - load_cool;
            if hot == cool || load_hot <= cfg.ratio * load_cool || gap < cfg.min_abs_s {
                return; // thresholds no longer hold: done for this round
            }
            if (view.route)(vp) != Some(hot) {
                continue;
            }
            let cost: f64 =
                stream.jobs.iter().filter(|j| j.vp == vp).map(|j| j.expected_duration_s).sum();
            if cost >= gap {
                continue; // moving this VP would overshoot, not balance
            }
            extra[hot] -= cost;
            extra[cool] += cost;
            stream.migrations.push((vp, cool));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::queue::{Job, JobId, JobKind};

    fn job(id: u64, vp: u32, seq: u64, t: f64, dur: f64) -> Job {
        Job {
            id: JobId(id),
            vp: VpId(vp),
            seq,
            kind: JobKind::CopyIn { bytes: 64 },
            sync: true,
            enqueued_at_s: t,
            expected_duration_s: dur,
        }
    }

    #[test]
    fn identity_without_a_device_view() {
        let stream = JobStream::new(vec![job(0, 0, 0, 1.0, 0.5)]);
        let out = Rebalance.apply(stream, &PassCtx::reorder_only());
        assert!(out.migrations.is_empty());
    }

    #[test]
    fn moves_vps_off_a_dead_device_to_least_loaded_survivor() {
        let route = |vp: VpId| Some(if vp.0 < 2 { 0 } else { 1 });
        let down = |d: usize, _t: f64| d == 0;
        let queued = [0.0, 0.3];
        let view = DeviceView { queued_s: &queued, route: &route, down_for: &down, load: None };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        let jobs = vec![job(0, 0, 0, 1.0, 0.5), job(1, 1, 0, 1.0, 0.5), job(2, 2, 0, 1.0, 0.5)];
        let out = Rebalance.apply(JobStream::new(jobs), &ctx);
        assert_eq!(out.migrations, vec![(VpId(0), 1), (VpId(1), 1)]);
    }

    #[test]
    fn spreads_migrations_by_projected_load() {
        // Three devices; device 0 dies with two heavy VPs. The first goes to the
        // emptier device 2, whose projected load then exceeds device 1, so the
        // second goes to device 1.
        let route = |_vp: VpId| Some(0);
        let down = |d: usize, _t: f64| d == 0;
        let queued = [0.0, 0.4, 0.1];
        let view = DeviceView { queued_s: &queued, route: &route, down_for: &down, load: None };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        let jobs = vec![job(0, 0, 0, 1.0, 1.0), job(1, 1, 0, 1.0, 1.0)];
        let out = Rebalance.apply(JobStream::new(jobs), &ctx);
        assert_eq!(out.migrations, vec![(VpId(0), 2), (VpId(1), 1)]);
    }

    #[test]
    fn no_migration_when_no_survivor_exists() {
        let route = |_vp: VpId| Some(0);
        let down = |_d: usize, _t: f64| true;
        let queued = [0.0, 0.0];
        let view = DeviceView { queued_s: &queued, route: &route, down_for: &down, load: None };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        let out = Rebalance.apply(JobStream::new(vec![job(0, 0, 0, 1.0, 0.5)]), &ctx);
        assert!(out.migrations.is_empty(), "nowhere to go: degrade, don't migrate");
    }

    #[test]
    fn healthy_vps_stay_put() {
        let route = |vp: VpId| Some(vp.0 as usize % 2);
        let down = |_d: usize, _t: f64| false;
        let queued = [0.0, 0.0];
        let view = DeviceView { queued_s: &queued, route: &route, down_for: &down, load: None };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        let jobs = vec![job(0, 0, 0, 1.0, 0.5), job(1, 1, 0, 1.0, 0.5)];
        let out = Rebalance.apply(JobStream::new(jobs), &ctx);
        assert!(out.migrations.is_empty());
    }

    #[test]
    fn load_trigger_drains_the_hottest_device() {
        // Device 0 carries 1.0 s of backlog, device 1 is idle; both healthy.
        // VPs 0 and 1 live on device 0 with 0.2 s of window work each; both
        // thresholds hold, so the trigger moves them to device 1 one at a
        // time (each move shrinks the gap).
        let route = |_vp: VpId| Some(0);
        let down = |_d: usize, _t: f64| false;
        let queued = [1.0, 0.0];
        let view = DeviceView {
            queued_s: &queued,
            route: &route,
            down_for: &down,
            load: Some(LoadRebalance::DEFAULT),
        };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        let jobs = vec![job(0, 0, 0, 1.0, 0.2), job(1, 1, 0, 1.0, 0.2)];
        let out = Rebalance.apply(JobStream::new(jobs), &ctx);
        assert_eq!(out.migrations, vec![(VpId(0), 1), (VpId(1), 1)]);
    }

    #[test]
    fn load_trigger_respects_both_thresholds() {
        let route = |_vp: VpId| Some(0);
        let down = |_d: usize, _t: f64| false;
        let jobs = || vec![job(0, 0, 0, 1.0, 0.01)];

        // Relative imbalance below the ratio: no trigger.
        let queued = [1.0, 0.9];
        let view = DeviceView {
            queued_s: &queued,
            route: &route,
            down_for: &down,
            load: Some(LoadRebalance::DEFAULT),
        };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        assert!(Rebalance.apply(JobStream::new(jobs()), &ctx).migrations.is_empty());

        // Huge ratio but a gap below the absolute floor: not sustained.
        let queued = [8e-4, 1e-5];
        let view = DeviceView {
            queued_s: &queued,
            route: &route,
            down_for: &down,
            load: Some(LoadRebalance::DEFAULT),
        };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        assert!(Rebalance.apply(JobStream::new(jobs()), &ctx).migrations.is_empty());
    }

    #[test]
    fn load_trigger_stops_before_overshooting() {
        // One VP whose window cost exceeds the gap: moving it would just swap
        // which device is hot, so nothing moves.
        let route = |_vp: VpId| Some(0);
        let down = |_d: usize, _t: f64| false;
        let queued = [0.1, 0.0];
        let view = DeviceView {
            queued_s: &queued,
            route: &route,
            down_for: &down,
            load: Some(LoadRebalance::DEFAULT),
        };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        let out = Rebalance.apply(JobStream::new(vec![job(0, 0, 0, 1.0, 0.5)]), &ctx);
        assert!(out.migrations.is_empty());
    }

    #[test]
    fn load_trigger_composes_with_failure_migrations() {
        // Device 0 is down (VP 0 fails over to device 2, the coolest); the
        // load trigger then still drains VP 1 off the overloaded device 1.
        let route = |vp: VpId| Some(if vp.0 == 0 { 0 } else { 1 });
        let down = |d: usize, _t: f64| d == 0;
        let queued = [0.0, 1.0, 0.0];
        let view = DeviceView {
            queued_s: &queued,
            route: &route,
            down_for: &down,
            load: Some(LoadRebalance::DEFAULT),
        };
        let ctx = PassCtx::reorder_only().with_devices(&view);
        let jobs = vec![job(0, 0, 0, 1.0, 0.1), job(1, 1, 0, 1.0, 0.1)];
        let out = Rebalance.apply(JobStream::new(jobs), &ctx);
        assert_eq!(out.migrations, vec![(VpId(0), 2), (VpId(1), 2)]);
    }
}
