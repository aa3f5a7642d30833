//! The global collector and the cheap [`Recorder`] facade.
//!
//! Instrumented subsystems never own the collector; they call [`recorder()`]
//! (one atomic load) and get a `Copy` handle whose every method is a no-op
//! until [`install`] is called — the `log`-crate facade pattern. The installed
//! collector is leaked intentionally: telemetry lives for the process, and a
//! `&'static` core keeps the handle `Copy` and free of reference counting on
//! hot paths.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::incident::{Incident, IncidentKind, IncidentSink};
use crate::metrics::{MetricsSnapshot, Registry};
use crate::trace::{Lane, SpanRing, TimeDomain, TraceEvent};

/// Default ring capacity (events) for an installed collector.
const DEFAULT_RING_CAPACITY: usize = 1 << 16;

struct Core {
    registry: Registry,
    ring: SpanRing,
    epoch: Instant,
    incident_sinks: Mutex<Vec<IncidentSink>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("registry", &self.registry)
            .field("ring", &self.ring)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Core {
    fn incident_sinks(&self) -> std::sync::MutexGuard<'_, Vec<IncidentSink>> {
        self.incident_sinks.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

static GLOBAL: AtomicPtr<Core> = AtomicPtr::new(std::ptr::null_mut());

/// Install a fresh global collector, replacing any previous one, and return
/// the owning handle used to snapshot metrics and drain trace events.
///
/// The previous collector (if any) is leaked — recorders obtained before the
/// swap keep writing to it safely.
pub fn install() -> Telemetry {
    let core: &'static Core = Box::leak(Box::new(Core {
        registry: Registry::new(),
        ring: SpanRing::with_capacity(DEFAULT_RING_CAPACITY),
        epoch: Instant::now(),
        incident_sinks: Mutex::default(),
    }));
    GLOBAL.store(core as *const Core as *mut Core, Ordering::Release);
    Telemetry { core }
}

/// Disable global collection: subsequent [`recorder()`] handles are no-ops.
/// Existing [`Telemetry`] handles stay readable.
pub fn uninstall() {
    GLOBAL.store(std::ptr::null_mut(), Ordering::Release);
}

fn global_core() -> Option<&'static Core> {
    let ptr = GLOBAL.load(Ordering::Acquire);
    // Safety: the pointer is either null or a leaked Box with 'static lifetime.
    unsafe { ptr.as_ref() }
}

/// The cheap instrumentation handle. `Copy`, and a no-op when collection is
/// disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recorder {
    core: Option<&'static Core>,
}

/// The current global recorder (one atomic load).
pub fn recorder() -> Recorder {
    Recorder { core: global_core() }
}

impl Recorder {
    /// A recorder that never records.
    pub fn disabled() -> Self {
        Recorder { core: None }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(core) = self.core {
            core.registry.counter(name).add(n);
        }
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(core) = self.core {
            core.registry.gauge(name).set(v);
        }
    }

    /// Add each count's change since `last` to its counter: the one way a
    /// stats struct's ledger reaches the registry (rows pair up by position).
    /// Adding deltas, not setting values, lets several ledgers share a name.
    /// With no `last` every row is registered, moved or not, so which names
    /// exist never depends on which events happened to occur.
    pub fn count_changes<const N: usize>(
        &self,
        now: &[(&str, u64); N],
        last: Option<&[(&str, u64); N]>,
    ) {
        if let Some(core) = self.core {
            for (i, &(name, n)) in now.iter().enumerate() {
                let before = last.map_or(0, |last| last[i].1);
                if n != before || last.is_none() {
                    core.registry.counter(name).add(n - before);
                }
            }
        }
    }

    /// Record a sample into histogram `name`.
    pub fn observe_s(&self, name: &str, seconds: f64) {
        if let Some(core) = self.core {
            core.registry.histogram(name).observe(seconds);
        }
    }

    /// Seconds of wall-clock time since the collector was installed
    /// (0.0 when disabled). Use as the `Wall`-domain timestamp origin.
    pub fn wall_now_s(&self) -> f64 {
        self.core.map_or(0.0, |core| core.epoch.elapsed().as_secs_f64())
    }

    /// Raise an incident: stamp it with the collector's wall clock and hand
    /// it to every sink registered with [`Telemetry::on_incident`], in
    /// registration order, on this thread. `detail` runs only when a sink
    /// listens, so an unobserved incident formats nothing.
    pub fn incident(&self, kind: IncidentKind, detail: impl FnOnce() -> String) {
        let Some(core) = self.core else {
            return;
        };
        // Call the sinks outside the lock: a sink may take its own locks.
        let sinks = core.incident_sinks().clone();
        if sinks.is_empty() {
            return;
        }
        let incident = Incident { kind, wall_s: self.wall_now_s(), detail: detail() };
        for sink in &sinks {
            sink(&incident);
        }
    }

    /// Record a span event.
    pub fn span(
        &self,
        domain: TimeDomain,
        lane: Lane,
        name: impl Into<String>,
        start_s: f64,
        dur_s: f64,
    ) {
        if let Some(core) = self.core {
            core.ring.push(TraceEvent::span(domain, lane, name, start_s, dur_s));
        }
    }

    /// Record a span event stamped with a stable job uid
    /// (see [`crate::trace::job_uid`]).
    #[allow(clippy::too_many_arguments)]
    pub fn span_for_job(
        &self,
        domain: TimeDomain,
        lane: Lane,
        name: impl Into<String>,
        start_s: f64,
        dur_s: f64,
        job: u64,
    ) {
        if let Some(core) = self.core {
            core.ring.push(TraceEvent::span(domain, lane, name, start_s, dur_s).with_job(job));
        }
    }

    /// Record a counter-sample event.
    pub fn counter_event(
        &self,
        domain: TimeDomain,
        lane: Lane,
        name: impl Into<String>,
        at_s: f64,
        value: f64,
    ) {
        if let Some(core) = self.core {
            core.ring.push(TraceEvent::counter(domain, lane, name, at_s, value));
        }
    }
}

/// Owning handle over an installed collector: read side of the telemetry.
#[derive(Debug, Clone, Copy)]
pub struct Telemetry {
    core: &'static Core,
}

impl Telemetry {
    /// A recorder bound to this collector (independent of the global slot).
    pub fn recorder(&self) -> Recorder {
        Recorder { core: Some(self.core) }
    }

    /// Snapshot all metrics, including the trace ring's drop count.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.core.registry.snapshot();
        snap.dropped_events = self.core.ring.dropped();
        snap
    }

    /// Drain all buffered trace events, oldest first.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        self.core.ring.drain()
    }

    /// Events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.core.ring.dropped()
    }

    /// Subscribe `sink` to every incident raised against this collector
    /// (see [`Recorder::incident`]). Sinks live as long as the collector; a
    /// fresh [`install`] starts with none.
    pub fn on_incident(&self, sink: impl Fn(&Incident) + Send + Sync + 'static) {
        self.core.incident_sinks().push(Arc::new(sink));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one lock so parallel test threads don't race
    // the install/uninstall cycle.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let _guard = global_lock();
        uninstall();
        let r = recorder();
        assert!(!r.enabled());
        r.count("x", 1);
        r.observe_s("y", 1.0);
        r.span(TimeDomain::Wall, Lane::Dispatcher, "s", 0.0, 1.0);
        assert_eq!(r.wall_now_s(), 0.0);
    }

    #[test]
    fn installed_recorder_collects() {
        let _guard = global_lock();
        let telemetry = install();
        let r = recorder();
        assert!(r.enabled());
        r.count("jobs", 2);
        r.gauge_set("depth", 3.0);
        r.observe_s("wait", 1e-5);
        r.span(TimeDomain::Sim, Lane::Compute, "k", 0.0, 1e-3);
        r.counter_event(TimeDomain::Wall, Lane::JobQueue, "queue depth", 0.0, 1.0);
        assert!(r.wall_now_s() >= 0.0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("jobs"), Some(2));
        assert_eq!(snap.gauge("depth"), Some(3.0));
        assert_eq!(snap.histogram("wait").unwrap().count, 1);
        let events = telemetry.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(telemetry.dropped_events(), 0);
        uninstall();
    }

    #[test]
    fn count_changes_adds_deltas_and_registers_every_row_once() {
        let _guard = global_lock();
        let telemetry = install();
        let r = recorder();
        let (a, b) = ([("moved", 2), ("still", 0)], [("moved", 5), ("still", 0)]);
        r.count_changes(&a, None);
        r.count_changes(&b, Some(&a));
        let snap = telemetry.snapshot();
        assert_eq!((snap.counter("moved"), snap.counter("still")), (Some(5), Some(0)));
        uninstall();
    }

    #[test]
    fn incidents_reach_only_the_installed_collectors_sinks() {
        let _guard = global_lock();
        let telemetry = install();
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = heard.clone();
        telemetry.on_incident(move |incident| log.lock().unwrap().push(incident.clone()));
        recorder().incident(IncidentKind::BreakerTrip { device: 1 }, || "tripped".into());
        let first = heard.lock().unwrap().clone();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].kind, IncidentKind::BreakerTrip { device: 1 });
        assert_eq!(first[0].detail, "tripped");
        assert!(first[0].wall_s >= 0.0);

        // A fresh collector starts with no sinks: nobody hears, nothing formats.
        install();
        recorder().incident(IncidentKind::VpHung { vp: 0 }, || panic!("nobody listens"));
        assert_eq!(heard.lock().unwrap().len(), 1);
        uninstall();
    }

    #[test]
    fn an_incident_with_no_collector_never_formats_its_detail() {
        let _guard = global_lock();
        uninstall();
        recorder().incident(IncidentKind::Shed { depth: 2, capacity: 1 }, || {
            panic!("no collector is installed")
        });
    }

    #[test]
    fn reinstall_swaps_collector() {
        let _guard = global_lock();
        let first = install();
        recorder().count("n", 1);
        let second = install();
        recorder().count("n", 10);
        assert_eq!(first.snapshot().counter("n"), Some(1));
        assert_eq!(second.snapshot().counter("n"), Some(10));
        uninstall();
    }
}
