//! Always-on incident flight recorder.
//!
//! A bounded ring of periodic [`Snapshot`]s (full metrics + histogram
//! quantiles) plus a rolling window of recent trace spans. When the runtime
//! raises an incident against the collector the recorder is attached to — a
//! circuit-breaker trip, a hung VP, a killed session, a sustained `Saturated`
//! shed burst — the recorder freezes the last few snapshots, joins the span
//! window into per-job lifecycles (migration replays stitched to their
//! original uids), and emits a self-contained JSON post-mortem [`Bundle`]: the
//! state *leading up to* the failure, captured without anyone having had to
//! turn tracing on first.
//!
//! Cost model: sampling is explicit (callers decide cadence), raising an
//! incident with no collector installed is one atomic load, and the ring and
//! window are bounded — "always-on" stays cheap (the `flight` group of the
//! `ablation` bench measures what it costs).

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use sigmavp_telemetry::export::{escape_json, metrics_json};
use sigmavp_telemetry::metrics::MetricsSnapshot;
use sigmavp_telemetry::{Incident, IncidentKind, Telemetry, TraceEvent};

use crate::lifecycle::{join_lifecycles, JobLifecycle};

/// Post-mortem bundle schema tag (`"schema"` field of every bundle).
pub const BUNDLE_SCHEMA: &str = "sigmavp-postmortem-v1";

/// Snapshots retained in the ring (oldest evicted first).
const RING_CAPACITY: usize = 32;
/// Snapshots frozen into each post-mortem bundle (the newest ones).
const DUMP_LAST: usize = 8;
/// Recent trace spans retained for lifecycle joining on dump.
const SPAN_WINDOW: usize = 4096;
/// Consecutive [`IncidentKind::Shed`] incidents that make a burst worth a
/// dump (debounce: one shed under load is routine, a run of them is an
/// incident). Every other kind dumps immediately.
const SHED_BURST: u64 = 8;

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

/// The always-on recorder. Cloning shares the same ring (one handle is held
/// by the collector's incident sink, others by dashboards).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    /// When set, each bundle is also written to `<dump_dir>/<name>.json`.
    dump_dir: Option<PathBuf>,
    inner: Arc<Mutex<FlightInner>>,
}

impl FlightRecorder {
    /// A recorder that keeps its bundles in memory only;
    /// [`attach`](Self::attach) a collector before sampling.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that also writes each bundle into `dir` (created on the
    /// first dump).
    pub fn with_dump_dir(dir: impl Into<PathBuf>) -> Self {
        FlightRecorder { dump_dir: Some(dir.into()), inner: Arc::default() }
    }

    fn lock(&self) -> MutexGuard<'_, FlightInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Bind the collector that [`sample`](Self::sample) snapshots, and
    /// subscribe to the incidents raised against it: each one reaches
    /// [`on_incident`](Self::on_incident).
    pub fn attach(&self, telemetry: Telemetry) {
        self.lock().telemetry = Some(telemetry);
        let recorder = self.clone();
        telemetry.on_incident(move |incident| recorder.on_incident(incident));
    }

    /// Take one snapshot into the ring and drain the telemetry ring into the
    /// rolling span window. Returns the sample index,
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
        while inner.snapshots.len() > RING_CAPACITY {
            inner.snapshots.pop_front();
        }
        inner.spans.extend(telemetry.drain_events());
        while inner.spans.len() > SPAN_WINDOW {
            inner.spans.pop_front();
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
    /// reaches `SHED_BURST` (then the streak resets so a
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
                if inner.shed_streak >= SHED_BURST {
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
        let skip = inner.snapshots.len().saturating_sub(DUMP_LAST);
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
        if let Some(dir) = &self.dump_dir {
            let path = dir.join(format!("{name}.json"));
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

// The global recorder slot is process-wide; tests across this crate's
// modules that install a collector serialize on this lock.
#[cfg(test)]
pub(crate) fn test_global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_telemetry::{install, recorder, uninstall, Lane, TimeDomain};

    fn shed(wall_s: f64) -> Incident {
        Incident {
            kind: IncidentKind::Shed { depth: 9, capacity: 8 },
            wall_s,
            detail: "queue full".into(),
        }
    }

    #[test]
    fn ring_is_bounded_and_taken_is_monotonic() {
        let _guard = test_global_lock();
        let telemetry = install();
        let recorder = FlightRecorder::new();
        assert!(recorder.sample().is_none(), "unattached recorder cannot sample");
        recorder.attach(telemetry);
        let samples = RING_CAPACITY as u64 + 3;
        for i in 0..samples {
            telemetry.recorder().count("jobs", 1);
            assert_eq!(recorder.sample(), Some(i));
        }
        assert_eq!(recorder.taken(), samples);
        let newest = recorder.newest().unwrap();
        assert_eq!(newest.index, samples - 1);
        assert_eq!(newest.metrics.counter("jobs"), Some(samples));
        let inner = recorder.lock();
        assert_eq!(inner.snapshots.len(), RING_CAPACITY, "ring evicts oldest");
        assert_eq!(inner.snapshots.front().map(|s| s.index), Some(3));
        drop(inner);
        uninstall();
    }

    #[test]
    fn breaker_trip_dumps_a_validating_bundle_with_lifecycles() {
        let _guard = test_global_lock();
        let telemetry = install();
        let recorder = FlightRecorder::new();
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
        let _guard = test_global_lock();
        let telemetry = install();
        let recorder = FlightRecorder::new();
        recorder.attach(telemetry);
        let sheds = 2 * SHED_BURST + 1;
        for i in 0..sheds {
            recorder.on_incident(&shed(i as f64));
        }
        // Two full bursts dump twice; the one shed after them only starts a streak.
        assert_eq!(recorder.bundles().len(), 2);
        assert_eq!(recorder.incidents().len(), sheds as usize);
        for bundle in recorder.bundles() {
            validate_bundle(&bundle.json).expect("bundle validates");
            assert!(bundle.json.contains("\"kind\": \"shed\""));
        }
        uninstall();
    }

    #[test]
    fn a_raised_incident_reaches_the_attached_recorder_and_its_dump_dir() {
        let _guard = test_global_lock();
        let telemetry = install();
        let dir = std::env::temp_dir().join(format!("sigmavp-flight-test-{}", std::process::id()));
        let flight = FlightRecorder::with_dump_dir(&dir);
        flight.attach(telemetry);
        recorder().incident(IncidentKind::SessionKilled { session: 1 }, || "chaos".into());
        let bundles = flight.bundles();
        assert_eq!(bundles.len(), 1);
        assert_eq!(flight.incidents()[0].detail, "chaos");
        let path = dir.join(format!("{}.json", bundles[0].name));
        let on_disk = std::fs::read_to_string(&path).expect("bundle written to dump_dir");
        assert_eq!(on_disk, bundles[0].json);
        std::fs::remove_dir_all(&dir).ok();

        // A fresh collector has no sinks: the old recorder hears nothing more.
        install();
        recorder().incident(IncidentKind::BreakerTrip { device: 0 }, || "unheard".into());
        assert_eq!(flight.incidents().len(), 1);
        assert_eq!(flight.bundles().len(), 1);
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
