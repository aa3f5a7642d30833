//! Operational incidents: the runtime's failure events worth a post-mortem.
//!
//! The runtime raises an incident through
//! [`Recorder::incident`](crate::Recorder::incident) — one atomic load and
//! nothing else when no collector is installed — and the installed collector
//! hands it to the sinks
//! registered on it with [`Telemetry::on_incident`](crate::Telemetry::on_incident)
//! (the flight recorder subscribes when it attaches). Sinks belong to the
//! collector, so a fresh [`install`](crate::install) starts with none.

use std::sync::Arc;

/// A registered incident callback. Runs on the raising thread and must not
/// raise an incident itself.
pub(crate) type IncidentSink = Arc<dyn Fn(&Incident) + Send + Sync>;

/// One operational incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// What happened.
    pub kind: IncidentKind,
    /// Wall-clock seconds (collector epoch) when it happened.
    pub wall_s: f64,
    /// Free-form context for the post-mortem bundle.
    pub detail: String,
}

/// Classified incident causes.
#[derive(Debug, Clone, PartialEq)]
pub enum IncidentKind {
    /// A per-GPU circuit breaker tripped and the device was marked down.
    BreakerTrip {
        /// Index of the tripped device within its session.
        device: usize,
    },
    /// A fleet session was killed and retired from the placement ring.
    SessionKilled {
        /// Index of the killed session.
        session: usize,
    },
    /// Bounded admission shed a request (`Saturated`).
    Shed {
        /// Fleet-wide in-flight depth at the shed.
        depth: u64,
        /// The admission capacity that was hit.
        capacity: u64,
    },
    /// The hung-VP watchdog quarantined a VP that stopped making progress:
    /// it no longer counts toward the sync-flush quorum and its journal is
    /// failed over to a healthy placement.
    VpHung {
        /// The quarantined VP.
        vp: u32,
    },
}

impl IncidentKind {
    /// Stable label used in bundle file names and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            IncidentKind::BreakerTrip { .. } => "breaker_trip",
            IncidentKind::SessionKilled { .. } => "session_killed",
            IncidentKind::Shed { .. } => "shed",
            IncidentKind::VpHung { .. } => "vp_hung",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incident_labels_are_stable() {
        assert_eq!(IncidentKind::BreakerTrip { device: 0 }.label(), "breaker_trip");
        assert_eq!(IncidentKind::SessionKilled { session: 0 }.label(), "session_killed");
        assert_eq!(IncidentKind::Shed { depth: 1, capacity: 1 }.label(), "shed");
        assert_eq!(IncidentKind::VpHung { vp: 3 }.label(), "vp_hung");
    }
}
