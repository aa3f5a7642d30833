//! Always-on incident flight recorder.
//!
//! A bounded ring of periodic [`Snapshot`]s (full metrics + histogram
//! quantiles) plus a rolling window of recent trace spans. When an incident
//! crosses the bus — a circuit-breaker trip, a killed session, a sustained
//! `Saturated` shed burst — the recorder freezes the last few snapshots, joins
//! the span window into per-job lifecycles (migration replays stitched to
//! their original uids), and emits a self-contained JSON post-mortem
//! [`Bundle`]: the state *leading up to* the failure, captured without anyone
//! having had to turn tracing on first.
//!
//! Cost model: sampling is explicit (callers decide cadence), incident sinks
//! are one atomic load when nothing is installed, and the ring/window are
//! bounded — "always-on" stays cheap (the `flight` group of the `ablation`
//! bench measures what it costs).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use sigmavp_telemetry::bus::{self, Incident, IncidentKind, ObsEvent};
use sigmavp_telemetry::export::{escape_json, metrics_json};
use sigmavp_telemetry::metrics::MetricsSnapshot;
use sigmavp_telemetry::{Telemetry, TraceEvent};

use crate::lifecycle::{join_lifecycles, JobLifecycle};

/// Post-mortem bundle schema tag (`"schema"` field of every bundle).
pub const BUNDLE_SCHEMA: &str = "sigmavp-postmortem-v1";

/// Sizing and policy for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Snapshots retained in the ring (oldest evicted first).
    pub ring_capacity: usize,
    /// Snapshots frozen into each post-mortem bundle (newest K).
    pub dump_last: usize,
    /// Recent trace spans retained for lifecycle joining on dump.
    pub span_window: usize,
    /// Whether [`FlightRecorder::sample`] drains the telemetry ring into the
    /// span window. Leave off when another consumer (e.g. the audit's
    /// lifecycle join) owns the drained events.
    pub capture_spans: bool,
    /// Consecutive [`IncidentKind::Shed`] incidents required before a burst
    /// dump fires (debounce: one shed under load is routine, a run of them is
    /// an incident). Breaker trips and session kills always dump immediately.
    pub shed_burst_threshold: u64,
    /// When set, each bundle is also written to `<dump_dir>/<name>.json`.
    pub dump_dir: Option<String>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            ring_capacity: 32,
            dump_last: 8,
            span_window: 4096,
            capture_spans: true,
            shed_burst_threshold: 8,
            dump_dir: None,
        }
    }
}

/// One periodic sample: a full metrics snapshot stamped with wall time.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotonic sample index (never resets; survives ring eviction).
    pub index: u64,
    /// Wall-clock seconds since the attached collector was installed.
    pub wall_s: f64,
    /// Counters, gauges and histogram p50/p90/p99 at sample time.
    pub metrics: MetricsSnapshot,
}

/// A rendered post-mortem: `name` is the stable bundle identifier (also the
/// dump filename stem), `json` the self-contained document.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// `postmortem-<seq>-<incident label>`.
    pub name: String,
    /// The full bundle document (see [`BUNDLE_SCHEMA`]).
    pub json: String,
}

#[derive(Debug, Default)]
struct FlightInner {
    telemetry: Option<Telemetry>,
    snapshots: VecDeque<Snapshot>,
    taken: u64,
    spans: VecDeque<TraceEvent>,
    incidents: Vec<Incident>,
    bundles: Vec<Bundle>,
    shed_streak: u64,
}

/// The always-on recorder. Cloning shares the same ring (handles are handed
/// to the bus sink and to dashboards alike).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    config: Arc<FlightConfig>,
    inner: Arc<Mutex<FlightInner>>,
}

impl FlightRecorder {
    /// A recorder with the given sizing; [`attach`](Self::attach) a collector
    /// before sampling.
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder { config: Arc::new(config), inner: Arc::default() }
    }

    fn lock(&self) -> MutexGuard<'_, FlightInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Bind the collector that [`sample`](Self::sample) snapshots.
    pub fn attach(&self, telemetry: Telemetry) {
        self.lock().telemetry = Some(telemetry);
    }

    /// Register this recorder on the global observation bus so published
    /// [`Incident`]s trigger post-mortem dumps. Call [`bus::clear_sinks`] to
    /// detach (drops every bus sink).
    pub fn install_incident_sink(&self) {
        let recorder = self.clone();
        bus::add_sink(Arc::new(move |event| {
            if let ObsEvent::Incident(incident) = event {
                recorder.on_incident(incident);
            }
        }));
    }

    /// Take one snapshot into the ring (and, with `capture_spans`, drain the
    /// telemetry ring into the rolling span window). Returns the sample index,
    /// or `None` when no collector is attached.
    pub fn sample(&self) -> Option<u64> {
        let mut inner = self.lock();
        self.sample_locked(&mut inner)
    }

    fn sample_locked(&self, inner: &mut FlightInner) -> Option<u64> {
        let telemetry = inner.telemetry?;
        let snapshot = Snapshot {
            index: inner.taken,
            wall_s: telemetry.recorder().wall_now_s(),
            metrics: telemetry.snapshot(),
        };
        inner.taken += 1;
        inner.snapshots.push_back(snapshot);
        while inner.snapshots.len() > self.config.ring_capacity.max(1) {
            inner.snapshots.pop_front();
        }
        if self.config.capture_spans {
            inner.spans.extend(telemetry.drain_events());
            while inner.spans.len() > self.config.span_window.max(1) {
                inner.spans.pop_front();
            }
        }
        Some(inner.taken - 1)
    }

    /// The most recent snapshot, if any.
    pub fn newest(&self) -> Option<Snapshot> {
        self.lock().snapshots.back().cloned()
    }

    /// Total snapshots taken (monotonic; not capped by the ring).
    pub fn taken(&self) -> u64 {
        self.lock().taken
    }

    /// Every incident observed so far, in arrival order.
    pub fn incidents(&self) -> Vec<Incident> {
        self.lock().incidents.clone()
    }

    /// Every post-mortem bundle produced so far, in dump order.
    pub fn bundles(&self) -> Vec<Bundle> {
        self.lock().bundles.clone()
    }

    /// Feed one incident. Breaker trips, session kills, and hung-VP
    /// quarantines dump immediately; sheds dump once a consecutive burst
    /// reaches the configured threshold (then the streak resets so a
    /// sustained storm yields periodic bundles, not one per shed).
    pub fn on_incident(&self, incident: &Incident) {
        let mut inner = self.lock();
        inner.incidents.push(incident.clone());
        let dump = match incident.kind {
            IncidentKind::BreakerTrip { .. }
            | IncidentKind::SessionKilled { .. }
            | IncidentKind::VpHung { .. } => {
                inner.shed_streak = 0;
                true
            }
            IncidentKind::Shed { .. } => {
                inner.shed_streak += 1;
                if inner.shed_streak >= self.config.shed_burst_threshold.max(1) {
                    inner.shed_streak = 0;
                    true
                } else {
                    false
                }
            }
        };
        if dump {
            self.dump_locked(&mut inner, incident);
        }
    }

    /// Freeze the current state into a post-mortem bundle (one final sample
    /// first, so the bundle always ends at the incident).
    fn dump_locked(&self, inner: &mut FlightInner, incident: &Incident) {
        self.sample_locked(inner);
        let seq = inner.bundles.len();
        let name = format!("postmortem-{seq:04}-{}", incident.kind.label());
        let skip = inner.snapshots.len().saturating_sub(self.config.dump_last.max(1));
        let snapshots: Vec<String> = inner
            .snapshots
            .iter()
            .skip(skip)
            .map(|s| {
                format!(
                    "    {{\"index\": {}, \"wall_s\": {:.9e}, \"metrics\": {}}}",
                    s.index,
                    s.wall_s,
                    metrics_json(&s.metrics).trim_end().replace('\n', "\n    ")
                )
            })
            .collect();
        let window: Vec<TraceEvent> = inner.spans.iter().cloned().collect();
        let lifecycles: Vec<String> = join_lifecycles(&window).iter().map(lifecycle_json).collect();
        let json = format!(
            "{{\n  \"schema\": \"{}\",\n  \"incident\": {{\"kind\": \"{}\", \"wall_s\": {:.9e}, \
             \"detail\": \"{}\"}},\n  \"snapshots_taken\": {},\n  \"span_window\": {},\n  \
             \"snapshots\": [\n{}\n  ],\n  \"lifecycles\": [\n{}\n  ]\n}}\n",
            BUNDLE_SCHEMA,
            incident.kind.label(),
            incident.wall_s,
            escape_json(&incident.detail),
            inner.taken,
            window.len(),
            snapshots.join(",\n"),
            lifecycles.join(",\n")
        );
        if let Some(dir) = &self.config.dump_dir {
            let path = std::path::Path::new(dir).join(format!("{name}.json"));
            let _ = std::fs::create_dir_all(dir);
            // Dump failures must never take down the runtime being observed.
            let _ = std::fs::write(path, &json);
        }
        inner.bundles.push(Bundle { name, json });
    }
}

fn lifecycle_json(life: &JobLifecycle) -> String {
    format!(
        "    {{\"job\": {}, \"vp\": {}, \"seq\": {}, \"request_wall_s\": {:.9e}, \
         \"queue_wall_s\": {:.9e}, \"dispatch_wall_s\": {:.9e}, \"replay_wall_s\": {:.9e}, \
         \"replays\": {}, \"migrated\": {}, \"transfer_sim_s\": {:.9e}, \
         \"compute_sim_s\": {:.9e}, \"events\": {}}}",
        life.job,
        life.vp,
        life.seq,
        life.request_wall_s,
        life.queue_wall_s,
        life.dispatch_wall_s,
        life.replay_wall_s,
        life.replays,
        life.migrated,
        life.transfer_sim_s,
        life.compute_sim_s,
        life.events
    )
}

/// Minimal strict JSON well-formedness check (objects, arrays, strings,
/// numbers, booleans, null; no trailing garbage). Exists so `ci.sh` can
/// validate post-mortem bundles without assuming a host JSON tool.
pub fn well_formed_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", ch as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(other) => Err(format!("unexpected byte {:?} at offset {}", *other as char, pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 2; // escape + escaped byte (\uXXXX hex digits are plain bytes)
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("invalid number at offset {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("invalid fraction at offset {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("invalid exponent at offset {start}"));
        }
    }
    Ok(())
}

/// Validate a post-mortem bundle: well-formed JSON carrying the
/// [`BUNDLE_SCHEMA`] tag plus incident and snapshot sections.
pub fn validate_bundle(text: &str) -> Result<(), String> {
    well_formed_json(text)?;
    let schema_tag = format!("\"schema\": \"{BUNDLE_SCHEMA}\"");
    for required in [schema_tag.as_str(), "\"incident\"", "\"snapshots\""] {
        if !text.contains(required) {
            return Err(format!("bundle missing {required}"));
        }
    }
    Ok(())
}

// Bus sinks and the global recorder slot are process-wide; tests across this
// crate's modules that touch them serialize on this lock.
#[cfg(test)]
pub(crate) fn test_bus_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_telemetry::{install, uninstall, Lane, TimeDomain};

    fn shed(wall_s: f64) -> Incident {
        Incident {
            kind: IncidentKind::Shed { depth: 9, capacity: 8 },
            wall_s,
            detail: "queue full".into(),
        }
    }

    #[test]
    fn ring_is_bounded_and_taken_is_monotonic() {
        let _guard = test_bus_lock();
        let telemetry = install();
        let recorder = FlightRecorder::new(FlightConfig {
            ring_capacity: 3,
            capture_spans: false,
            ..FlightConfig::default()
        });
        assert!(recorder.sample().is_none(), "unattached recorder cannot sample");
        recorder.attach(telemetry);
        for i in 0..5u64 {
            telemetry.recorder().count("jobs", 1);
            assert_eq!(recorder.sample(), Some(i));
        }
        assert_eq!(recorder.taken(), 5);
        let newest = recorder.newest().unwrap();
        assert_eq!(newest.index, 4);
        assert_eq!(newest.metrics.counter("jobs"), Some(5));
        assert_eq!(recorder.lock().snapshots.len(), 3, "ring evicts oldest");
        uninstall();
    }

    #[test]
    fn breaker_trip_dumps_a_validating_bundle_with_lifecycles() {
        let _guard = test_bus_lock();
        let telemetry = install();
        let recorder = FlightRecorder::new(FlightConfig::default());
        recorder.attach(telemetry);
        let r = telemetry.recorder();
        r.count("trips", 1);
        let uid = sigmavp_telemetry::job_uid(2, 7);
        r.span_for_job(TimeDomain::Wall, Lane::Dispatcher, "request", 0.0, 1e-4, uid);
        r.span_for_job(TimeDomain::Wall, Lane::Dispatcher, "replay request", 1.0, 2e-4, uid);
        recorder.sample();
        recorder.on_incident(&Incident {
            kind: IncidentKind::BreakerTrip { device: 0 },
            wall_s: 1.5,
            detail: "mtbf fired".into(),
        });
        let bundles = recorder.bundles();
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].name, "postmortem-0000-breaker_trip");
        validate_bundle(&bundles[0].json).expect("bundle validates");
        assert!(bundles[0].json.contains("\"trips\": 1"));
        // The replayed span stitched into the same lifecycle, flagged migrated.
        assert!(bundles[0].json.contains("\"replays\": 1"));
        assert!(bundles[0].json.contains("\"migrated\": true"));
        assert_eq!(recorder.incidents().len(), 1);
        uninstall();
    }

    #[test]
    fn shed_bursts_are_debounced_to_the_threshold() {
        let _guard = test_bus_lock();
        let telemetry = install();
        let recorder = FlightRecorder::new(FlightConfig {
            shed_burst_threshold: 3,
            ..FlightConfig::default()
        });
        recorder.attach(telemetry);
        for i in 0..7 {
            recorder.on_incident(&shed(i as f64));
        }
        // 7 sheds at threshold 3 → dumps after #3 and #6, streak=1 residual.
        assert_eq!(recorder.bundles().len(), 2);
        assert_eq!(recorder.incidents().len(), 7);
        for bundle in recorder.bundles() {
            validate_bundle(&bundle.json).expect("bundle validates");
            assert!(bundle.json.contains("\"kind\": \"shed\""));
        }
        uninstall();
    }

    #[test]
    fn incident_sink_routes_bus_incidents_and_dumps_to_dir() {
        let _guard = test_bus_lock();
        bus::clear_sinks();
        let telemetry = install();
        let dir = std::env::temp_dir().join(format!("sigmavp-flight-test-{}", std::process::id()));
        let recorder = FlightRecorder::new(FlightConfig {
            dump_dir: Some(dir.to_string_lossy().into_owned()),
            ..FlightConfig::default()
        });
        recorder.attach(telemetry);
        recorder.install_incident_sink();
        bus::publish(&ObsEvent::Incident(Incident {
            kind: IncidentKind::SessionKilled { session: 1 },
            wall_s: 0.25,
            detail: "chaos".into(),
        }));
        // Non-incident traffic must not dump.
        bus::publish(&ObsEvent::CopyObserved {
            arch: "a".into(),
            bytes: 1,
            duration_s: 1e-9,
            uid: 1,
        });
        let bundles = recorder.bundles();
        assert_eq!(bundles.len(), 1);
        let path = dir.join(format!("{}.json", bundles[0].name));
        let on_disk = std::fs::read_to_string(&path).expect("bundle written to dump_dir");
        assert_eq!(on_disk, bundles[0].json);
        std::fs::remove_dir_all(&dir).ok();
        bus::clear_sinks();
        uninstall();
    }

    #[test]
    fn well_formed_json_accepts_and_rejects() {
        well_formed_json("{\"a\": [1, -2.5e-3, \"x\\\"y\", true, null], \"b\": {}}").unwrap();
        well_formed_json("  [ ]  ").unwrap();
        assert!(well_formed_json("{\"a\": }").is_err());
        assert!(well_formed_json("{\"a\": 1} trailing").is_err());
        assert!(well_formed_json("[1, 2").is_err());
        assert!(well_formed_json("{\"a\": 1.e3}").is_err());
        assert!(well_formed_json("\"unterminated").is_err());
        assert!(validate_bundle("{\"schema\": \"other\"}").is_err());
    }
}
