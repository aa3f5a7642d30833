//! Fleet sizing and policy knobs.

use sigmavp_gpu::GpuArch;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sched::Policy;

/// Configuration for a [`Fleet`](crate::Fleet).
///
/// Defaults are chosen so `FleetConfig::new(sessions)` gives a working fleet:
/// one Quadro-4000 host GPU per session, shared-memory transport, a bounded
/// admission queue of 1024 jobs, and a steal round every 64 admissions.
/// Host runtimes are sequential (one interpreter worker): a fleet scales out
/// with sessions, one shard thread each.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent execution sessions (shards).
    pub sessions: usize,
    /// Host GPUs per session.
    pub gpus_per_session: usize,
    /// Architecture of every host GPU.
    pub arch: GpuArch,
    /// Transport cost model between guests and the fleet.
    pub transport: TransportCost,
    /// Scheduling policy used when draining sessions at shutdown.
    pub policy: Policy,
    /// Maximum in-flight jobs (queued + executing) across the whole fleet;
    /// admissions beyond this are shed with
    /// [`FleetError::Saturated`](crate::FleetError::Saturated).
    pub admission_capacity: usize,
    /// Admissions per work-stealing window; every `steal_interval` admitted
    /// jobs the rebalancer compares per-session submitted cost and plans
    /// migrations. `0` disables stealing.
    pub steal_interval: u64,
}

impl FleetConfig {
    /// A fleet of `sessions` single-GPU sessions with default knobs.
    pub fn new(sessions: usize) -> Self {
        FleetConfig {
            sessions,
            gpus_per_session: 1,
            arch: GpuArch::quadro_4000(),
            transport: TransportCost::shared_memory(),
            policy: Policy::Fifo,
            admission_capacity: 1024,
            steal_interval: 64,
        }
    }

    /// Set the admission capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.admission_capacity = capacity;
        self
    }

    /// Set the steal window (`0` disables stealing).
    pub fn with_steal_interval(mut self, interval: u64) -> Self {
        self.steal_interval = interval;
        self
    }

    /// Set host GPUs per session.
    pub fn with_gpus_per_session(mut self, gpus: usize) -> Self {
        self.gpus_per_session = gpus;
        self
    }

    /// Validate the configuration.
    pub(crate) fn validate(&self) -> Result<(), crate::FleetError> {
        if self.sessions == 0 {
            return Err(crate::FleetError::Config("need at least one session".into()));
        }
        if self.gpus_per_session == 0 {
            return Err(crate::FleetError::Config("need at least one gpu per session".into()));
        }
        if self.admission_capacity == 0 {
            return Err(crate::FleetError::Config("admission capacity must be positive".into()));
        }
        if self.policy.sync_hold && self.gpus_per_session > 1 {
            // A sync window may relocate a VP between its session's GPUs
            // inside the shard's core; the front's cross-session journal
            // replays straight onto a device and cannot follow that move.
            return Err(crate::FleetError::Config(
                "sync_hold needs one gpu per session (scale out with sessions instead)".into(),
            ));
        }
        if self.policy.sync_quorum_pct == 0 || self.policy.sync_quorum_pct > 100 {
            return Err(crate::FleetError::Config(format!(
                "sync quorum must be in 1..=100 percent, got {}",
                self.policy.sync_quorum_pct
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(FleetConfig::new(4).validate().is_ok());
        assert!(FleetConfig::new(0).validate().is_err());
        assert!(FleetConfig::new(1).with_capacity(0).validate().is_err());
        let mut held = FleetConfig::new(2).with_gpus_per_session(2);
        assert!(held.validate().is_ok());
        held.policy = held.policy.with_sync_hold(true);
        assert!(held.validate().is_err(), "sync windows relocate inside a session");
    }
}
