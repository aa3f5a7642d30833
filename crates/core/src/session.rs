//! The execution session: one object owning the host device set, VP routing,
//! and the job logs — shared by every runtime.
//!
//! The paper's framework "multiplexes the host GPUs": a host with several
//! devices spreads the VPs across them. [`ExecutionSession`] is that ownership
//! layer. The dispatcher runtime (and with it the scenario engine and the
//! Table 1 ΣVP row) and every fleet shard build one, so multi-GPU routing,
//! record keeping, and planner integration live in exactly one place:
//!
//! * **Device set** — N host GPUs, each with its own [`HostRuntime`] (device,
//!   kernel registry, job log).
//! * **Routing** — [`ExecutionSession::assign`] places each VP on the
//!   least-loaded device (ties go to the lowest index, so sequential
//!   assignment produces the classic round-robin partition).
//! * **Planning** — [`ExecutionSession::drain_and_plan`] drains every device's
//!   [`JobRecord`] log, puts it in simulated send order, and prices it
//!   through a shared scheduling [`Pipeline`], yielding a [`SessionOutcome`]
//!   with per-device timelines and fleet-level aggregates.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use sigmavp_gpu::engine::Engine as GpuEngine;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_sched::{Pipeline, Placement};
use sigmavp_vp::registry::KernelRegistry;

use crate::error::SigmaVpError;
use crate::host::{HostRuntime, JobRecord};
use crate::plan::{plan_device, DevicePlan};

#[derive(Debug)]
struct DeviceSlot {
    arch: GpuArch,
    runtime: Arc<Mutex<HostRuntime>>,
}

/// The device set plus VP routing state for one simulation run.
#[derive(Debug)]
pub struct ExecutionSession {
    devices: Vec<DeviceSlot>,
    /// Per-device connection counts and health — the shared least-loaded
    /// routing policy from `sigmavp-sched`.
    placement: Placement,
    assignments: HashMap<VpId, usize>,
}

impl ExecutionSession {
    /// A session over `archs` host GPUs, each serving kernels from `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaVpError::Config`] if `archs` is empty.
    pub fn new(archs: Vec<GpuArch>, registry: KernelRegistry) -> Result<Self, SigmaVpError> {
        if archs.is_empty() {
            return Err(SigmaVpError::Config("need at least one host gpu".into()));
        }
        let devices: Vec<DeviceSlot> = archs
            .into_iter()
            .map(|arch| DeviceSlot {
                runtime: Arc::new(Mutex::new(HostRuntime::new(arch.clone(), registry.clone()))),
                arch,
            })
            .collect();
        let placement = Placement::new(devices.len());
        Ok(ExecutionSession { devices, placement, assignments: HashMap::new() })
    }

    /// Number of host GPUs in the session.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Architecture of device `d`.
    pub fn arch(&self, d: usize) -> &GpuArch {
        &self.devices[d].arch
    }

    /// Shared handle to device `d`'s host runtime (for runtimes that drive the
    /// dispatch loop themselves).
    pub fn runtime(&self, d: usize) -> Arc<Mutex<HostRuntime>> {
        self.devices[d].runtime.clone()
    }

    /// Device buffers currently allocated across every device in the session
    /// (leak accounting: a relocation must leave none behind, DESIGN.md §12).
    pub fn live_buffers(&self) -> usize {
        self.devices.iter().map(|d| d.runtime.lock().live_handles()).sum()
    }

    /// Route `vp` to a device: least-loaded *healthy* device first, ties to the
    /// lowest index (so sequential assignment of VPs 0..N over D devices yields
    /// the round-robin partition `vp % D`). Re-assigning a VP returns its
    /// existing device. If every device has been marked down, routing falls
    /// back to the full set (degraded, but never unroutable) — use
    /// [`ExecutionSession::try_assign`] for strict routing that surfaces the
    /// all-down case as a typed error instead.
    pub fn assign(&mut self, vp: VpId) -> usize {
        if let Some(&d) = self.assignments.get(&vp) {
            return d;
        }
        let d = self
            .placement
            .least_loaded()
            .or_else(|| self.placement.least_loaded_any())
            .expect("session has at least one device");
        self.placement.add(d);
        self.assignments.insert(vp, d);
        d
    }

    /// Strict routing: like [`ExecutionSession::assign`], but when every device
    /// has been marked down return [`SigmaVpError::AllDevicesDown`] instead of
    /// degrading onto a dead device. A VP that is already assigned keeps its
    /// device even if that device has since gone down (its migration is the
    /// supervisor's job, not the router's).
    ///
    /// # Errors
    ///
    /// Returns [`SigmaVpError::AllDevicesDown`] when no healthy device exists
    /// and `vp` is not already assigned.
    pub fn try_assign(&mut self, vp: VpId) -> Result<usize, SigmaVpError> {
        if let Some(&d) = self.assignments.get(&vp) {
            return Ok(d);
        }
        let d = self.placement.least_loaded().ok_or(SigmaVpError::AllDevicesDown)?;
        self.placement.add(d);
        self.assignments.insert(vp, d);
        Ok(d)
    }

    /// The device `vp` was routed to, if assigned.
    pub fn device_of(&self, vp: VpId) -> Option<usize> {
        self.assignments.get(&vp).copied()
    }

    /// Whether device `d` is still considered healthy.
    pub fn is_healthy(&self, d: usize) -> bool {
        self.placement.is_healthy(d)
    }

    /// Mark device `d` as down: new VPs route around it and its existing VPs
    /// are expected to migrate. Idempotent.
    pub fn mark_down(&mut self, d: usize) {
        self.placement.mark_down(d);
    }

    /// Number of devices still marked healthy.
    pub fn healthy_count(&self) -> usize {
        self.placement.healthy_count()
    }

    /// Move an already-assigned `vp` onto device `d` (failover), keeping the
    /// per-device connection counts consistent. Reassigning a VP to the device
    /// it is already on is a no-op, so repeated failover of the same VP never
    /// skews the load counts.
    pub fn reassign(&mut self, vp: VpId, d: usize) {
        if let Some(old) = self.assignments.insert(vp, d) {
            self.placement.transfer(old, d);
        } else {
            self.placement.add(d);
        }
    }

    /// VPs currently routed to device `d`, in ascending VP order.
    pub fn vps_on(&self, d: usize) -> Vec<VpId> {
        let mut vps: Vec<VpId> =
            self.assignments.iter().filter(|(_, &dev)| dev == d).map(|(&vp, _)| vp).collect();
        vps.sort_by_key(|vp| vp.0);
        vps
    }

    /// Set the block-parallel worker count used for kernel launches on every
    /// device (`0` = one worker per core, `1` = sequential).
    pub fn set_workers(&mut self, workers: u32) {
        for slot in &self.devices {
            slot.runtime.lock().set_workers(workers);
        }
    }

    /// Drain every device's job log and plan each through `pipeline`, pricing
    /// the results on the per-device engine models.
    ///
    /// Each log is read in simulated send order, `(sent_at_s, vp, seq)`, not
    /// in the order threads happened to dispatch it: a VP's clock never runs
    /// backwards, so each VP's own order is kept, and the price of a live run
    /// does not depend on thread timing. Host GPUs are independent, so devices
    /// are planned concurrently on the shared SPTX
    /// [`WorkerPool`](sigmavp_sptx::exec::WorkerPool); results are assembled
    /// back in device order, so the outcome is identical to planning
    /// sequentially.
    pub fn drain_and_plan(
        &mut self,
        pipeline: &Pipeline,
        coalescible: &(dyn Fn(VpId) -> bool + Sync),
    ) -> SessionOutcome {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let inputs: Vec<(GpuArch, Vec<JobRecord>)> = self
            .devices
            .iter()
            .map(|slot| {
                let mut records = slot.runtime.lock().take_records();
                records.sort_by(|a, b| {
                    (a.sent_at_s.total_cmp(&b.sent_at_s)).then((a.vp, a.seq).cmp(&(b.vp, b.seq)))
                });
                (slot.arch.clone(), records)
            })
            .collect();
        let plans: Vec<Mutex<Option<DevicePlan>>> =
            inputs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let task = |_slot: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((arch, records)) = inputs.get(i) else { break };
            *plans[i].lock() = Some(plan_device(pipeline, records, coalescible, arch));
        };
        sigmavp_sptx::exec::WorkerPool::global().run_scoped(inputs.len(), &task);

        let devices = inputs
            .into_iter()
            .zip(plans)
            .map(|((arch, records), plan)| DeviceOutcome {
                arch,
                records,
                plan: plan.into_inner().expect("every device was planned"),
            })
            .collect();
        SessionOutcome { devices }
    }
}

/// One device's share of a session: its job log and the priced plan.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// The device architecture.
    pub arch: GpuArch,
    /// The jobs this device served, in simulated send order.
    pub records: Vec<JobRecord>,
    /// The planned, priced schedule.
    pub plan: DevicePlan,
}

impl DeviceOutcome {
    /// This device's planned activity as job-uid-stamped simulated-time trace
    /// events (see [`DevicePlan::trace_events`]).
    pub fn trace_events(&self) -> Vec<sigmavp_telemetry::TraceEvent> {
        self.plan.trace_events(&self.records)
    }

    /// Per-job simulated queue waits on this device (see
    /// [`DevicePlan::queue_waits`]).
    pub fn queue_waits(&self) -> Vec<(VpId, f64)> {
        self.plan.queue_waits(&self.records)
    }
}

/// Aggregated simulated queue wait for one VP (see
/// [`SessionOutcome::queue_wait_by_vp`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VpQueueWait {
    /// Device-touching jobs the VP ran.
    pub jobs: usize,
    /// Summed queue wait over those jobs, in simulated seconds.
    pub total_s: f64,
    /// Worst single-job queue wait, in simulated seconds.
    pub max_s: f64,
}

impl VpQueueWait {
    /// Mean queue wait per job (zero for a VP with no jobs).
    pub fn mean_s(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_s / self.jobs as f64
        }
    }

    /// Merge per-VP waits, any number of entries per VP, into one entry per
    /// VP in ascending VP order.
    pub fn merge_by_vp(
        waits: impl IntoIterator<Item = (VpId, VpQueueWait)>,
    ) -> Vec<(VpId, VpQueueWait)> {
        let mut by_vp: BTreeMap<VpId, VpQueueWait> = BTreeMap::new();
        for (vp, wait) in waits {
            let entry = by_vp.entry(vp).or_default();
            entry.jobs += wait.jobs;
            entry.total_s += wait.total_s;
            entry.max_s = entry.max_s.max(wait.max_s);
        }
        by_vp.into_iter().collect()
    }

    /// The p99 (nearest-rank) of per-VP *worst* queue waits — the starvation
    /// gate's number. Zero for no VPs.
    pub fn p99_worst_s(waits: &[(VpId, VpQueueWait)]) -> f64 {
        let mut worst: Vec<f64> = waits.iter().map(|(_, w)| w.max_s).collect();
        if worst.is_empty() {
            return 0.0;
        }
        worst.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = (worst.len() * 99).div_ceil(100);
        worst[rank - 1]
    }
}

/// Fleet-level view of a drained session: per-device outcomes plus aggregates.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Per-device outcomes, in device order.
    pub devices: Vec<DeviceOutcome>,
}

impl SessionOutcome {
    /// Device makespan of the fleet: the slowest device's timeline (device
    /// timelines run on independent hardware).
    pub fn makespan_s(&self) -> f64 {
        self.devices.iter().map(|d| d.plan.timeline.makespan_s).fold(0.0, f64::max)
    }

    /// Total device-touching jobs across the fleet.
    pub fn gpu_jobs(&self) -> usize {
        self.devices.iter().map(|d| d.records.len()).sum()
    }

    /// Kernel groups merged by coalescing, summed over devices.
    pub fn coalesced_groups(&self) -> usize {
        self.devices.iter().map(|d| d.plan.coalesced_groups()).sum()
    }

    /// Total member launches those groups absorbed.
    pub fn coalesced_members(&self) -> usize {
        self.devices.iter().map(|d| d.plan.coalesced_members()).sum()
    }

    /// Best compute-engine utilization across devices.
    pub fn compute_utilization(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.plan.timeline.utilization(GpuEngine::Compute))
            .fold(0.0, f64::max)
    }

    /// All records, concatenated by device (back-compat flat view).
    pub fn flat_records(&self) -> Vec<JobRecord> {
        self.devices.iter().flat_map(|d| d.records.iter().cloned()).collect()
    }

    /// Per-VP simulated queue wait across every device, in ascending VP order.
    ///
    /// This is the session-level starvation signal: a VP whose jobs keep
    /// losing the planned schedule shows up with a large `max_s` here, without
    /// anyone re-deriving waits from trace spans. Deterministic for a
    /// deterministic job log (it reads the planned timelines, not wall clocks).
    pub fn queue_wait_by_vp(&self) -> Vec<(VpId, VpQueueWait)> {
        let jobs = self.devices.iter().flat_map(DeviceOutcome::queue_waits);
        let one = |(vp, s)| (vp, VpQueueWait { jobs: 1, total_s: s, max_s: s });
        VpQueueWait::merge_by_vp(jobs.map(one))
    }

    /// The p99 (nearest-rank) of per-VP *worst* queue waits — the fleet
    /// starvation gate's number. Zero for an empty session.
    pub fn p99_queue_wait_s(&self) -> f64 {
        VpQueueWait::p99_worst_s(&self.queue_wait_by_vp())
    }

    /// Every device's job-uid-stamped trace events, concatenated in device
    /// order. Device timelines share a `t = 0` origin (independent hardware),
    /// and with one VP routed to one device the VP lanes never collide; the
    /// shared engine lanes overlay devices, so per-device analysis should use
    /// [`DeviceOutcome::trace_events`] instead.
    pub fn trace_events(&self) -> Vec<sigmavp_telemetry::TraceEvent> {
        self.devices.iter().flat_map(DeviceOutcome::trace_events).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::message::{Envelope, Request, Response};
    use sigmavp_sched::Policy;
    use sigmavp_workloads::app::Application;
    use sigmavp_workloads::apps::VectorAddApp;

    fn registry() -> KernelRegistry {
        VectorAddApp { n: 256 }.kernels().into_iter().collect()
    }

    /// Route `vp` and serve `body` on its device, stamped at simulated time 0.
    fn serve(s: &mut ExecutionSession, vp: u32, seq: u64, body: Request) -> Response {
        let d = s.assign(VpId(vp));
        let envelope =
            Envelope { vp: VpId(vp), seq, sent_at_s: 0.0, deadline_s: Envelope::NO_DEADLINE, body };
        s.runtime(d).lock().process(&envelope).body
    }

    /// Allocate a `data`-sized buffer for `vp`, upload `data` `copies` times
    /// and free it.
    fn upload(s: &mut ExecutionSession, vp: u32, data: &[u8], copies: u64) {
        let Response::Malloc { handle } =
            serve(s, vp, 0, Request::Malloc { bytes: data.len() as u64 })
        else {
            panic!("malloc failed");
        };
        for seq in 1..=copies {
            let copy = Request::MemcpyH2D { handle, data: data.to_vec(), stream: 0 };
            assert_eq!(serve(s, vp, seq, copy), Response::Done);
        }
        assert_eq!(serve(s, vp, copies + 1, Request::Free { handle }), Response::Done);
    }

    #[test]
    fn sequential_assignment_is_round_robin() {
        let mut s =
            ExecutionSession::new(vec![GpuArch::quadro_4000(), GpuArch::grid_k520()], registry())
                .unwrap();
        for vp in 0..6u32 {
            assert_eq!(s.assign(VpId(vp)), (vp % 2) as usize);
        }
        // Re-assignment is stable.
        assert_eq!(s.assign(VpId(0)), 0);
        assert_eq!(s.device_of(VpId(5)), Some(1));
        assert_eq!(s.device_of(VpId(9)), None);
    }

    #[test]
    fn least_loaded_routing_fills_gaps() {
        let mut s = ExecutionSession::new(vec![GpuArch::quadro_4000(); 3], registry()).unwrap();
        assert_eq!(s.assign(VpId(0)), 0);
        assert_eq!(s.assign(VpId(1)), 1);
        assert_eq!(s.assign(VpId(2)), 2);
        assert_eq!(s.assign(VpId(3)), 0);
        // Device 1 and 2 are now lighter than 0.
        assert_eq!(s.assign(VpId(4)), 1);
    }

    #[test]
    fn unhealthy_devices_are_routed_around() {
        let mut s =
            ExecutionSession::new(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()], registry())
                .unwrap();
        assert_eq!(s.assign(VpId(0)), 0);
        s.mark_down(0);
        assert!(!s.is_healthy(0));
        assert_eq!(s.healthy_count(), 1);
        assert_eq!(s.assign(VpId(1)), 1, "new vps avoid the dead device");
        assert_eq!(s.assign(VpId(2)), 1);
        // Failover: vp 0 migrates to the survivor.
        s.reassign(VpId(0), 1);
        assert_eq!(s.device_of(VpId(0)), Some(1));
        // With every device down, routing still succeeds (degraded mode).
        s.mark_down(1);
        assert_eq!(s.healthy_count(), 0);
        assert_eq!(s.assign(VpId(3)), 0, "fallback to the full set");
    }

    #[test]
    fn try_assign_reports_all_devices_down_as_typed_error() {
        let mut s =
            ExecutionSession::new(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()], registry())
                .unwrap();
        assert_eq!(s.try_assign(VpId(0)).unwrap(), 0);
        s.mark_down(0);
        assert_eq!(s.try_assign(VpId(1)).unwrap(), 1, "strict routing avoids the dead device");
        s.mark_down(1);
        // Strict routing refuses; the degraded `assign` still places.
        assert_eq!(s.try_assign(VpId(2)).unwrap_err(), SigmaVpError::AllDevicesDown);
        assert_eq!(s.assign(VpId(2)), 0, "degraded fallback remains available");
        // An already-assigned VP keeps its device even with everything down.
        assert_eq!(s.try_assign(VpId(0)).unwrap(), 0);
    }

    #[test]
    fn mark_down_is_idempotent() {
        let mut s =
            ExecutionSession::new(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()], registry())
                .unwrap();
        s.mark_down(0);
        s.mark_down(0);
        assert_eq!(s.healthy_count(), 1);
        assert!(!s.is_healthy(0));
        assert!(s.is_healthy(1));
    }

    #[test]
    fn reassign_is_idempotent_and_keeps_counts_consistent() {
        let mut s =
            ExecutionSession::new(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()], registry())
                .unwrap();
        assert_eq!(s.assign(VpId(0)), 0);
        assert_eq!(s.assign(VpId(1)), 1);
        // Reassigning a VP onto its current device is a no-op: the next fresh
        // VP still sees balanced loads and round-robins.
        s.reassign(VpId(0), 0);
        s.reassign(VpId(0), 0);
        assert_eq!(s.device_of(VpId(0)), Some(0));
        assert_eq!(s.assign(VpId(2)), 0);
        // Repeated failover of the same VP moves exactly one connection.
        s.reassign(VpId(1), 0);
        s.reassign(VpId(1), 0);
        assert_eq!(s.device_of(VpId(1)), Some(0));
        assert_eq!(s.assign(VpId(3)), 1, "device 1 is now the emptier one");
        // Reassigning an unknown VP registers it (failover before first use).
        s.reassign(VpId(9), 1);
        assert_eq!(s.device_of(VpId(9)), Some(1));
        assert_eq!(s.vps_on(0), vec![VpId(0), VpId(1), VpId(2)]);
    }

    #[test]
    fn queue_waits_are_exposed_per_vp() {
        let mut s = ExecutionSession::new(vec![GpuArch::quadro_4000()], registry()).unwrap();
        for vp in 0..3 {
            upload(&mut s, vp, &[1u8; 4096], 2);
        }
        let outcome = s.drain_and_plan(&Pipeline::from_policy(&Policy::Multiplexed), &|_| false);
        let waits = outcome.queue_wait_by_vp();
        assert_eq!(waits.len(), 3, "every VP appears");
        assert_eq!(waits.iter().map(|(_, w)| w.jobs).sum::<usize>(), 6);
        for (vp, w) in &waits {
            assert!(w.max_s >= 0.0 && w.total_s >= w.max_s - 1e-12, "vp {vp:?}: {w:?}");
            assert!(w.mean_s() <= w.max_s + 1e-12);
        }
        // All six copies serialize on one copy engine with sent_at ≈ 0, so the
        // worst wait is positive and the p99 picks it up.
        assert!(outcome.p99_queue_wait_s() > 0.0);
        let worst = waits.iter().map(|(_, w)| w.max_s).fold(0.0, f64::max);
        assert!((outcome.p99_queue_wait_s() - worst).abs() < 1e-12);
    }

    #[test]
    fn empty_device_set_is_rejected() {
        let err = ExecutionSession::new(vec![], registry()).unwrap_err();
        assert!(matches!(err, SigmaVpError::Config(_)));
    }

    #[test]
    fn connections_share_the_assigned_device() {
        let mut s =
            ExecutionSession::new(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()], registry())
                .unwrap();
        let malloc = Request::Malloc { bytes: 64 };
        let a = serve(&mut s, 0, 0, malloc.clone());
        let b = serve(&mut s, 1, 0, malloc);
        // Separate devices allocate independently: both get the first handle.
        assert_eq!(a, b);
        assert_eq!(s.live_buffers(), 2);
    }

    #[test]
    fn drain_and_plan_aggregates_per_device() {
        let mut s =
            ExecutionSession::new(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()], registry())
                .unwrap();
        for vp in 0..4 {
            upload(&mut s, vp, &[1u8; 256], 1);
        }
        let outcome = s.drain_and_plan(&Pipeline::from_policy(&Policy::Multiplexed), &|_| false);
        assert_eq!(outcome.devices.len(), 2);
        assert_eq!(outcome.gpu_jobs(), 4);
        assert_eq!(outcome.devices[0].records.len(), 2);
        assert_eq!(outcome.flat_records().len(), 4);
        assert!(outcome.makespan_s() > 0.0);
        // A second drain finds empty logs.
        let again = s.drain_and_plan(&Pipeline::from_policy(&Policy::Multiplexed), &|_| false);
        assert_eq!(again.gpu_jobs(), 0);
    }
}
