//! The observation bus: process-global fan-out of structured runtime
//! observations to installed sinks.
//!
//! The metrics registry and span ring record *numbers*; some consumers need
//! *structure* — the online profile store wants each completed copy/kernel
//! with its byte count and wave geometry, and the flight recorder wants to
//! know the instant a circuit breaker trips so it can dump a post-mortem.
//! Routing those through name-keyed metrics would lose the payload, and
//! making `core`/`fleet` depend on the observability crate would invert the
//! dependency graph. So this module mirrors the [`recorder`](crate::recorder())
//! facade pattern one level up: the runtime calls [`publish`] (one atomic
//! load, a no-op when nothing is installed) and observability layers register
//! closures with [`add_sink`].
//!
//! Sinks are stored copy-on-write in a leaked `'static` vector, exactly like
//! the recorder's collector: installation is rare, publishing is hot, and a
//! publisher racing [`clear_sinks`] keeps a valid reference.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// A sink callback. Must not call [`publish`] re-entrantly.
pub type Sink = Arc<dyn Fn(&ObsEvent) + Send + Sync>;

/// A structured observation published by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A host↔device copy completed on the dispatch path.
    CopyObserved {
        /// Architecture name of the device that served the copy.
        arch: String,
        /// Bytes moved.
        bytes: u64,
        /// Simulated copy duration.
        duration_s: f64,
        /// Stable [`job_uid`](crate::job_uid) of the originating request —
        /// the canonical ordering key for deterministic folding.
        uid: u64,
    },
    /// A kernel launch completed on the dispatch path.
    KernelObserved {
        /// Architecture name of the device that ran the kernel.
        arch: String,
        /// Kernel name.
        kernel: String,
        /// Grid blocks launched (the paper's ξ).
        blocks: u64,
        /// Waves the grid occupied on the device.
        waves: u64,
        /// The device's blocks-per-wave alignment unit (the paper's λ).
        lambda_blocks: u64,
        /// Launch overhead included in `duration_s` (the paper's To).
        launch_overhead_s: f64,
        /// Simulated end-to-end kernel duration.
        duration_s: f64,
        /// Stable [`job_uid`](crate::job_uid) of the originating request.
        uid: u64,
    },
    /// An operational incident worth capturing a post-mortem for.
    Incident(Incident),
}

/// One operational incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// What happened.
    pub kind: IncidentKind,
    /// Wall-clock seconds (recorder epoch) when it happened.
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

static SINKS: AtomicPtr<Vec<Sink>> = AtomicPtr::new(std::ptr::null_mut());

fn current() -> Option<&'static Vec<Sink>> {
    let ptr = SINKS.load(Ordering::Acquire);
    // Safety: the pointer is either null or a leaked Box with 'static lifetime.
    unsafe { ptr.as_ref() }
}

/// Register a sink. Copy-on-write: the previous sink list keeps serving
/// in-flight publishers; like the recorder's collector, replaced lists are
/// intentionally leaked (installation is rare and bounded).
pub fn add_sink(sink: Sink) {
    let mut observed = SINKS.load(Ordering::Acquire);
    loop {
        let mut next: Vec<Sink> = match unsafe { observed.as_ref() } {
            Some(existing) => existing.clone(),
            None => Vec::new(),
        };
        next.push(sink.clone());
        let leaked: *mut Vec<Sink> = Box::leak(Box::new(next));
        match SINKS.compare_exchange(observed, leaked, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(racing) => observed = racing,
        }
    }
}

/// Remove every sink. Publishers racing this call finish against the old
/// (leaked) list safely.
pub fn clear_sinks() {
    SINKS.store(std::ptr::null_mut(), Ordering::Release);
}

/// Whether any sink is installed (one atomic load).
pub fn has_sinks() -> bool {
    !SINKS.load(Ordering::Acquire).is_null()
}

/// Deliver `event` to every installed sink, in installation order. A no-op
/// costing one atomic load when no sink is installed — safe on hot paths.
pub fn publish(event: &ObsEvent) {
    if let Some(sinks) = current() {
        for sink in sinks {
            sink(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    // Bus tests share one lock: the sink list is process-global.
    fn bus_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn copy_event(uid: u64) -> ObsEvent {
        ObsEvent::CopyObserved { arch: "test".into(), bytes: 64, duration_s: 1e-6, uid }
    }

    #[test]
    fn publish_without_sinks_is_a_noop() {
        let _guard = bus_lock();
        clear_sinks();
        assert!(!has_sinks());
        publish(&copy_event(1)); // must not panic
    }

    #[test]
    fn sinks_receive_events_in_fanout() {
        let _guard = bus_lock();
        clear_sinks();
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (ca, cb) = (a.clone(), b.clone());
        add_sink(Arc::new(move |_| {
            ca.fetch_add(1, Ordering::Relaxed);
        }));
        add_sink(Arc::new(move |e| {
            if matches!(e, ObsEvent::Incident(_)) {
                cb.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert!(has_sinks());
        publish(&copy_event(7));
        publish(&ObsEvent::Incident(Incident {
            kind: IncidentKind::BreakerTrip { device: 1 },
            wall_s: 0.5,
            detail: "test".into(),
        }));
        assert_eq!(a.load(Ordering::Relaxed), 2);
        assert_eq!(b.load(Ordering::Relaxed), 1);
        clear_sinks();
        publish(&copy_event(8));
        assert_eq!(a.load(Ordering::Relaxed), 2, "cleared sinks stop receiving");
    }

    #[test]
    fn incident_labels_are_stable() {
        assert_eq!(IncidentKind::BreakerTrip { device: 0 }.label(), "breaker_trip");
        assert_eq!(IncidentKind::SessionKilled { session: 0 }.label(), "session_killed");
        assert_eq!(IncidentKind::Shed { depth: 1, capacity: 1 }.label(), "shed");
        assert_eq!(IncidentKind::VpHung { vp: 3 }.label(), "vp_hung");
    }
}
