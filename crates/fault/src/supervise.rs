//! Host-side resilience state: circuit breakers, effect-once dedup, and the
//! journal/handle-map pair that replays a VP's device state after a failover.

use std::borrow::Cow;
use std::collections::HashMap;

use sigmavp_ipc::message::{Request, Response, ResponseEnvelope, VpId, WireParam};

/// Observable circuit-breaker state (see [`CircuitBreaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Normal operation; consecutive failures are being counted.
    Closed,
    /// Tripped: the device is treated as down.
    Open,
    /// Cooldown elapsed: exactly one probe request is admitted. Success
    /// closes the breaker; failure re-trips it.
    HalfOpen,
}

/// Per-device consecutive-failure counter that opens after a threshold.
///
/// The dispatcher records every attempted operation outcome; once `threshold`
/// consecutive failures accumulate the breaker opens and the device is
/// treated as down (its VPs are migrated to survivors).
///
/// With no cooldown configured (the default, and the legacy behavior) an open
/// breaker latches open forever. [`CircuitBreaker::with_cooldown`] enables
/// half-open recovery: after `cooldown` *simulated* seconds, [`allow_at`]
/// admits exactly one probe request. [`record_success`] on the probe closes
/// the breaker (the transiently-down GPU rejoins); [`record_failure_at`]
/// re-trips it and restarts the cooldown. The cooldown is simulated time, not
/// wall time, so recovery points are a function of the workload and seed —
/// same-seed runs probe at identical instants.
///
/// [`allow_at`]: CircuitBreaker::allow_at
/// [`record_success`]: CircuitBreaker::record_success
/// [`record_failure_at`]: CircuitBreaker::record_failure_at
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
    cooldown_us: u64,
    state: BreakerState,
    opened_at_s: f64,
    probe_in_flight: bool,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures, with
    /// half-open recovery disabled (an open breaker latches open).
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive: 0,
            cooldown_us: 0,
            state: BreakerState::Closed,
            opened_at_s: 0.0,
            probe_in_flight: false,
        }
    }

    /// Enable half-open recovery: an open breaker admits a single probe once
    /// `cooldown_s` simulated seconds have elapsed since it tripped (builder
    /// style). `0.0` disables recovery again.
    pub fn with_cooldown(mut self, cooldown_s: f64) -> Self {
        self.cooldown_us = if cooldown_s <= 0.0 { 0 } else { (cooldown_s * 1e6).ceil() as u64 };
        self
    }

    /// Record a failed operation. Returns `true` iff this failure trips the
    /// breaker (open edge — reported exactly once per trip).
    ///
    /// Time-less legacy entry point: equivalent to [`record_failure_at`] at
    /// the last known trip instant, so half-open re-trips restart their
    /// cooldown from the original trip when no clock is supplied.
    ///
    /// [`record_failure_at`]: CircuitBreaker::record_failure_at
    pub fn record_failure(&mut self) -> bool {
        self.record_failure_at(self.opened_at_s)
    }

    /// Record a failed operation observed at simulated time `sim_s`. Returns
    /// `true` iff this failure trips the breaker — either the threshold was
    /// crossed while closed, or a half-open probe failed and the breaker
    /// re-tripped (each open edge is reported exactly once).
    pub fn record_failure_at(&mut self, sim_s: f64) -> bool {
        match self.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // The probe failed: re-trip and restart the cooldown.
                self.state = BreakerState::Open;
                self.opened_at_s = sim_s;
                self.probe_in_flight = false;
                self.consecutive = self.threshold;
                true
            }
            BreakerState::Closed => {
                self.consecutive += 1;
                if self.consecutive >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at_s = sim_s;
                    return true;
                }
                false
            }
        }
    }

    /// Record a successful operation. Closed: resets the consecutive-failure
    /// count. Half-open: the probe succeeded — the breaker closes and the
    /// device rejoins. Open: ignored.
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive = 0,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.consecutive = 0;
                self.probe_in_flight = false;
            }
            BreakerState::Open => {}
        }
    }

    /// Whether a request may proceed at simulated time `sim_s`, advancing the
    /// Open → HalfOpen transition when the cooldown has elapsed. Half-open
    /// admits exactly one probe; further requests are refused until the probe
    /// resolves via [`record_success`](CircuitBreaker::record_success) or
    /// [`record_failure_at`](CircuitBreaker::record_failure_at).
    pub fn allow_at(&mut self, sim_s: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
            BreakerState::Open => {
                if self.cooldown_us > 0
                    && sim_s - self.opened_at_s >= self.cooldown_us as f64 * 1e-6
                {
                    self.state = BreakerState::HalfOpen;
                    self.probe_in_flight = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether the breaker is open (device considered down). Half-open counts
    /// as *not* open: it is probing its way back.
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// The current state, for observability and tests.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Force the breaker open (e.g. a scheduled outage was noticed).
    pub fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.probe_in_flight = false;
        self.consecutive = self.consecutive.max(self.threshold);
    }

    /// Force the breaker open at simulated time `sim_s`, arming the cooldown
    /// from that instant.
    pub fn trip_at(&mut self, sim_s: f64) {
        self.trip();
        self.opened_at_s = sim_s;
    }
}

/// Effect-once guard: remembers the last *executed* response per VP so a
/// retried request (same sequence number) is answered from cache instead of
/// being applied twice.
///
/// Guests are synchronous — at most one request is outstanding per VP — so one
/// slot per VP suffices. Only actually-executed responses are stored; injected
/// transient errors never are, so a retry after a transient failure reaches the
/// device again.
#[derive(Debug, Default)]
pub struct DedupCache {
    last: HashMap<VpId, (u64, ResponseEnvelope)>,
}

impl DedupCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached response for `(vp, seq)`, if this exact request was already
    /// executed.
    pub fn lookup(&self, vp: VpId, seq: u64) -> Option<&ResponseEnvelope> {
        self.last.get(&vp).filter(|(s, _)| *s == seq).map(|(_, r)| r)
    }

    /// Remember an executed response as the latest for its VP.
    pub fn store(&mut self, response: &ResponseEnvelope) {
        self.last.insert(response.vp, (response.seq, response.clone()));
    }
}

/// One successfully executed, guest-visible mutating operation.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// VP-local sequence number of the originating request — the key that
    /// lets a migration replay stitch back onto the original job's telemetry
    /// uid.
    pub seq: u64,
    /// The request as the guest sent it (guest handle space).
    pub request: Request,
    /// The successful response the guest saw.
    pub response: Response,
}

/// Per-VP log of successful mutating operations, replayed onto a surviving
/// device to reconstruct the VP's memory state after its GPU dies.
///
/// Only operations that change device state the guest can later observe are
/// kept: `Malloc`, `Free`, `MemcpyH2D` and `Launch`. Reads (`MemcpyD2H`) and
/// `Synchronize` are stateless; failed operations changed nothing.
#[derive(Debug, Clone, Default)]
pub struct VpJournal {
    entries: Vec<JournalEntry>,
}

impl VpJournal {
    /// Append `(request, response)` if it is a successful mutating operation.
    /// `seq` is the VP-local sequence number of the originating request, kept
    /// so a later replay can be stitched back onto the original job's
    /// telemetry uid.
    pub fn record(&mut self, seq: u64, request: &Request, response: &Response) {
        let mutating = matches!(
            (request, response),
            (Request::Malloc { .. }, Response::Malloc { .. })
                | (Request::Free { .. }, Response::Done)
                | (Request::MemcpyH2D { .. }, Response::Done)
                | (Request::Launch { .. }, Response::Launched { .. })
        );
        if mutating {
            self.entries.push(JournalEntry {
                seq,
                request: request.clone(),
                response: response.clone(),
            });
        }
    }

    /// Number of journaled operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journaled operations, oldest first.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }
}

/// Base for virtual guest handles allocated after a migration; high enough to
/// never collide with real device handles.
const VIRTUAL_HANDLE_BASE: u64 = 1 << 32;

/// Guest-handle → device-handle translation for a migrated VP.
///
/// After a failover the survivor's allocator hands out handles that differ from
/// the ones the guest already holds, so every request from a migrated VP is
/// translated on the way in and `Malloc` responses are virtualised on the way
/// out (virtual guest handles start at `1 << 32`).
#[derive(Debug, Clone)]
pub struct HandleMap {
    map: HashMap<u64, u64>,
    next_virtual: u64,
}

impl Default for HandleMap {
    fn default() -> Self {
        HandleMap { map: HashMap::new(), next_virtual: VIRTUAL_HANDLE_BASE }
    }
}

impl HandleMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map a guest handle to the device handle the survivor allocated.
    pub fn insert(&mut self, guest: u64, device: u64) {
        if guest >= self.next_virtual {
            self.next_virtual = guest + 1;
        }
        self.map.insert(guest, device);
    }

    /// The device handle backing `guest`, if mapped.
    pub fn device_of(&self, guest: u64) -> Option<u64> {
        self.map.get(&guest).copied()
    }

    /// Drop a mapping (the guest freed the buffer).
    pub fn remove(&mut self, guest: u64) {
        self.map.remove(&guest);
    }

    /// Allocate a fresh virtual guest handle for a post-migration `device`
    /// handle and record the mapping.
    pub fn virtualize(&mut self, device: u64) -> u64 {
        let guest = self.next_virtual;
        self.next_virtual += 1;
        self.map.insert(guest, device);
        guest
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no mappings are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rewrite every guest handle in `request` to its device handle.
    ///
    /// Returns the translated request, or `Err(handle)` naming the first guest
    /// handle with no mapping.
    pub fn translate(&self, request: &Request) -> Result<Request, u64> {
        let lookup = |h: u64| self.device_of(h).ok_or(h);
        Ok(match request {
            Request::Malloc { .. } | Request::Synchronize => request.clone(),
            Request::Free { handle } => Request::Free { handle: lookup(*handle)? },
            Request::MemcpyH2D { handle, data, stream } => {
                Request::MemcpyH2D { handle: lookup(*handle)?, data: data.clone(), stream: *stream }
            }
            Request::MemcpyD2H { handle, len, stream } => {
                Request::MemcpyD2H { handle: lookup(*handle)?, len: *len, stream: *stream }
            }
            Request::Launch { kernel, grid_dim, block_dim, params, sync, stream } => {
                let mut translated = Vec::with_capacity(params.len());
                for p in params {
                    translated.push(match p {
                        WireParam::Buffer(h) => WireParam::Buffer(lookup(*h)?),
                        other => *other,
                    });
                }
                Request::Launch {
                    kernel: kernel.clone(),
                    grid_dim: *grid_dim,
                    block_dim: *block_dim,
                    params: translated,
                    sync: *sync,
                    stream: *stream,
                }
            }
        })
    }
}

/// Replay a VP's journal onto a surviving device, building the guest→device
/// [`HandleMap`] as allocations land.
///
/// `process` executes one translated request on the survivor and returns its
/// response; it also receives the entry's original sequence number so callers
/// can attribute the replayed work to the original job. Returns the finished
/// map, or `Err(message)` if the survivor rejected a replayed operation.
pub fn replay_journal(
    journal: &VpJournal,
    process: impl FnMut(u64, &Request) -> Response,
) -> Result<HandleMap, String> {
    replay(journal, None, process)
}

/// [`replay_journal`], optionally onto a placement the VP has lived on before
/// (DESIGN.md §12): `retained` is the guest→device map snapshotted when the VP
/// last moved *away* from it. Those buffers were never freed, so a replayed
/// `Malloc` whose guest handle is still retained is remapped in place instead
/// of allocated a second time. Everything else — memcpys that restore current
/// data, frees issued while the VP lived elsewhere, mallocs from later
/// residencies — replays through `process` as usual. Without this, every
/// A→B→A round trip doubles the VP's footprint on A.
fn replay(
    journal: &VpJournal,
    retained: Option<&HandleMap>,
    mut process: impl FnMut(u64, &Request) -> Response,
) -> Result<HandleMap, String> {
    let mut map = HandleMap::new();
    for entry in journal.entries() {
        if let (Request::Malloc { .. }, Response::Malloc { handle: guest }) =
            (&entry.request, &entry.response)
        {
            if let Some(device) = retained.and_then(|r| r.device_of(*guest)) {
                map.insert(*guest, device);
                continue;
            }
        }
        let translated = map
            .translate(&entry.request)
            .map_err(|h| format!("replay references unmapped handle {h}"))?;
        let response = process(entry.seq, &translated);
        match (&entry.request, &entry.response, &response) {
            (
                Request::Malloc { .. },
                Response::Malloc { handle: guest },
                Response::Malloc { handle: device },
            ) => {
                map.insert(*guest, *device);
            }
            (Request::Free { handle }, _, Response::Done) => {
                map.remove(*handle);
            }
            (_, _, Response::Error { message }) => {
                return Err(format!("replay failed: {message}"));
            }
            _ => {}
        }
    }
    Ok(map)
}

/// The guest→device map a VP leaves behind on its *home* device: guest
/// handles equal device handles there, so the departure snapshot is the
/// identity over the handles the journal says are still live.
pub fn journal_live_identity(journal: &VpJournal) -> HandleMap {
    let mut map = HandleMap::new();
    for entry in journal.entries() {
        match (&entry.request, &entry.response) {
            (Request::Malloc { .. }, Response::Malloc { handle }) => map.insert(*handle, *handle),
            (Request::Free { handle }, Response::Done) => map.remove(*handle),
            _ => {}
        }
    }
    map
}

/// What one [`Residency::relocate`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relocation {
    /// Journal entries the move had to reconstruct on the target.
    pub replayed: usize,
    /// The VP had lived on the target before and re-adopted the buffers it
    /// left there instead of allocating them again.
    pub reused: bool,
    /// The target rejected part of the replay: the VP keeps running with an
    /// empty map and requests naming lost handles surface as guest errors.
    pub failed: bool,
}

/// One VP's device state as the guest sees it, independent of where it
/// currently lives: the journal that can rebuild it, the guest→device handle
/// translation of its current placement, and the maps it left behind on
/// placements it moved away from.
///
/// A *placement* is whatever the owner moves VPs between — a host GPU inside
/// one session (the dispatch core's instance) or a whole session (the fleet
/// front's instance); the type only needs its index.
#[derive(Debug, Clone, Default)]
pub struct Residency {
    journal: VpJournal,
    /// Present once the VP has moved at least once; before that guest handles
    /// *are* device handles.
    map: Option<HandleMap>,
    /// Live maps left behind on departed placements, re-adopted on return
    /// (DESIGN.md §12 — without them every A→B→A doubles the footprint).
    visited: HashMap<usize, HandleMap>,
}

impl Residency {
    /// The journal of successful mutating requests, in guest handle space.
    pub fn journal(&self) -> &VpJournal {
        &self.journal
    }

    /// `request` in the handle space of the current placement: borrowed as-is
    /// until the VP first moves, translated through the map afterwards.
    ///
    /// # Errors
    ///
    /// The guest-visible message for a handle the current placement does not
    /// back (its allocation was lost in a rejected replay, or never existed).
    pub fn translate<'a>(&self, request: &'a Request) -> Result<Cow<'a, Request>, String> {
        match &self.map {
            None => Ok(Cow::Borrowed(request)),
            Some(map) => map.translate(request).map(Cow::Owned).map_err(|handle| {
                format!("guest handle {handle} has no buffer on the VP's current placement")
            }),
        }
    }

    /// Account for an executed request: keep the guest's handle space stable
    /// (a moved VP's fresh allocations get virtual guest-side names, its frees
    /// drop their mapping), then journal the guest-visible effect.
    pub fn settle(&mut self, seq: u64, request: &Request, response: &mut Response) {
        if let Some(map) = self.map.as_mut() {
            match (request, &mut *response) {
                (Request::Malloc { .. }, Response::Malloc { handle }) => {
                    *handle = map.virtualize(*handle);
                }
                (Request::Free { handle }, Response::Done) => map.remove(*handle),
                _ => {}
            }
        }
        self.journal.record(seq, request, response);
    }

    /// Move the VP from placement `from` to `to`: stash the map it leaves
    /// behind, rebuild its state on `to` by replaying the journal through
    /// `process` (re-adopting buffers retained from an earlier stay), and
    /// install the resulting translation. Infallible by design — a rejected
    /// replay is reported in [`Relocation::failed`] and leaves an empty map.
    pub fn relocate(
        &mut self,
        from: usize,
        to: usize,
        process: impl FnMut(u64, &Request) -> Response,
    ) -> Relocation {
        let departing = self.map.take().unwrap_or_else(|| journal_live_identity(&self.journal));
        let retained = self.visited.remove(&to);
        let rebuilt = replay(&self.journal, retained.as_ref(), process);
        self.visited.insert(from, departing);
        let failed = rebuilt.is_err();
        self.map = Some(rebuilt.unwrap_or_default());
        Relocation { replayed: self.journal.len(), reused: retained.is_some(), failed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_on_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert!(b.is_open());
        assert!(!b.record_failure(), "trip edge reported once");
    }

    #[test]
    fn breaker_without_cooldown_latches_open_forever() {
        let mut b = CircuitBreaker::new(1);
        assert!(b.allow_at(0.0), "closed breaker admits requests");
        assert!(b.record_failure_at(1.0));
        assert_eq!(b.state(), BreakerState::Open);
        for t in [1.0, 100.0, 1e9] {
            assert!(!b.allow_at(t), "no cooldown: open latches at t={t}");
        }
        b.record_success();
        assert!(b.is_open(), "success while open is ignored");
    }

    #[test]
    fn half_open_probe_success_closes_the_breaker() {
        let mut b = CircuitBreaker::new(2).with_cooldown(5.0);
        assert!(!b.record_failure_at(0.0));
        assert!(b.record_failure_at(1.0), "threshold trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow_at(5.9), "cooldown runs from the trip instant");
        assert!(b.allow_at(6.0), "cooldown elapsed: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.is_open(), "half-open is probing, not down");
        assert!(!b.allow_at(6.1), "only a single probe until it resolves");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow_at(6.2), "closed again: the device rejoined");
        assert!(!b.record_failure_at(7.0), "failure count restarted on close");
    }

    #[test]
    fn half_open_probe_failure_retrips_and_rearms_the_cooldown() {
        let mut b = CircuitBreaker::new(1).with_cooldown(2.0);
        assert!(b.record_failure_at(0.0));
        assert!(b.allow_at(2.0), "first probe");
        assert!(b.record_failure_at(2.5), "probe failure is a fresh trip edge");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow_at(4.0), "cooldown restarted from the re-trip");
        assert!(b.allow_at(4.5), "second probe after the new cooldown");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn trip_at_arms_the_cooldown_from_the_given_instant() {
        let mut b = CircuitBreaker::new(3).with_cooldown(1.0);
        b.trip_at(10.0);
        assert!(b.is_open());
        assert!(!b.allow_at(10.5));
        assert!(b.allow_at(11.0));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn dedup_caches_latest_seq_per_vp() {
        let mut cache = DedupCache::new();
        let r = ResponseEnvelope { vp: VpId(1), seq: 5, sent_at_s: 0.0, body: Response::Done };
        cache.store(&r);
        assert!(cache.lookup(VpId(1), 5).is_some());
        assert!(cache.lookup(VpId(1), 4).is_none(), "older seqs are gone");
        assert!(cache.lookup(VpId(2), 5).is_none(), "per-vp isolation");
    }

    #[test]
    fn journal_keeps_only_successful_mutations() {
        let mut j = VpJournal::default();
        j.record(1, &Request::Malloc { bytes: 64 }, &Response::Malloc { handle: 1 });
        j.record(
            101,
            &Request::MemcpyD2H { handle: 1, len: 64, stream: 0 },
            &Response::Data { data: Vec::new() },
        );
        j.record(2, &Request::Synchronize, &Response::Done);
        j.record(
            102,
            &Request::MemcpyH2D { handle: 1, data: b"abcd".to_vec(), stream: 0 },
            &Response::Error { message: "nope".into() },
        );
        assert_eq!(j.len(), 1, "reads, syncs and failures are not journaled");
    }

    #[test]
    fn replay_builds_handle_map_and_translates() {
        let mut j = VpJournal::default();
        j.record(3, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(
            103,
            &Request::MemcpyH2D { handle: 7, data: b"abcd".to_vec(), stream: 0 },
            &Response::Done,
        );
        j.record(
            104,
            &Request::Launch {
                kernel: "k".into(),
                grid_dim: 1,
                block_dim: 1,
                params: vec![WireParam::Buffer(7)],
                sync: true,
                stream: 0,
            },
            &Response::Launched { device_time_s: 0.0 },
        );

        let mut seen = Vec::new();
        let mut seqs = Vec::new();
        let map = replay_journal(&j, |seq, req| {
            seqs.push(seq);
            seen.push(req.clone());
            match req {
                Request::Malloc { .. } => Response::Malloc { handle: 42 },
                Request::Launch { .. } => Response::Launched { device_time_s: 0.0 },
                _ => Response::Done,
            }
        })
        .expect("replay succeeds");

        assert_eq!(map.device_of(7), Some(42), "guest 7 now backed by device 42");
        match &seen[1] {
            Request::MemcpyH2D { handle, .. } => assert_eq!(*handle, 42),
            other => panic!("unexpected replayed request {other:?}"),
        }
        match &seen[2] {
            Request::Launch { params, .. } => assert_eq!(params[0], WireParam::Buffer(42)),
            other => panic!("unexpected replayed request {other:?}"),
        }
    }

    #[test]
    fn reusing_replay_skips_retained_mallocs_but_restores_data() {
        let mut j = VpJournal::default();
        j.record(4, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(5, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 8 });
        j.record(
            105,
            &Request::MemcpyH2D { handle: 7, data: b"abcd".to_vec(), stream: 0 },
            &Response::Done,
        );
        // Guest 7 still has its original buffer on this device; guest 8 was
        // allocated during a later residency elsewhere.
        let mut retained = HandleMap::new();
        retained.insert(7, 7);

        let mut mallocs = 0u32;
        let mut seen = Vec::new();
        let map = replay(&j, Some(&retained), |_seq, req| {
            seen.push(req.clone());
            match req {
                Request::Malloc { .. } => {
                    mallocs += 1;
                    Response::Malloc { handle: 40 + u64::from(mallocs) }
                }
                _ => Response::Done,
            }
        })
        .expect("replay succeeds");

        assert_eq!(mallocs, 1, "the retained buffer is not allocated again");
        assert_eq!(map.device_of(7), Some(7), "guest 7 reuses its old buffer");
        assert_eq!(map.device_of(8), Some(41), "guest 8 gets a fresh one");
        match &seen[1] {
            Request::MemcpyH2D { handle, .. } => {
                assert_eq!(*handle, 7, "data restored into the reused buffer");
            }
            other => panic!("unexpected replayed request {other:?}"),
        }
    }

    #[test]
    fn reusing_replay_frees_buffers_freed_while_away() {
        let mut j = VpJournal::default();
        j.record(6, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(0, &Request::Free { handle: 7 }, &Response::Done);
        let mut retained = HandleMap::new();
        retained.insert(7, 7);

        let mut freed = Vec::new();
        let map = replay(&j, Some(&retained), |_seq, req| {
            if let Request::Free { handle } = req {
                freed.push(*handle);
            }
            Response::Done
        })
        .expect("replay succeeds");
        assert_eq!(freed, vec![7], "the free issued while away lands here");
        assert!(map.is_empty());
    }

    #[test]
    fn journal_identity_tracks_live_handles() {
        let mut j = VpJournal::default();
        j.record(1, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 3 });
        j.record(2, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 4 });
        j.record(3, &Request::Free { handle: 3 }, &Response::Done);
        let map = journal_live_identity(&j);
        assert_eq!(map.len(), 1);
        assert_eq!(map.device_of(4), Some(4));
        assert_eq!(map.device_of(3), None, "freed handles are not retained");
    }

    #[test]
    fn residency_round_trip_reuses_and_keeps_guest_handles_stable() {
        // A fake placement: hands out device handles from `next`, counts mallocs.
        fn placement(next: &mut u64) -> impl FnMut(u64, &Request) -> Response + '_ {
            move |_, req| match req {
                Request::Malloc { .. } => {
                    *next += 1;
                    Response::Malloc { handle: *next }
                }
                _ => Response::Done,
            }
        }
        let mut r = Residency::default();
        let malloc = Request::Malloc { bytes: 16 };
        // At home guest handles are device handles and requests pass through.
        assert!(matches!(r.translate(&malloc), Ok(Cow::Borrowed(_))));
        let mut response = Response::Malloc { handle: 7 };
        r.settle(0, &malloc, &mut response);
        assert_eq!(response, Response::Malloc { handle: 7 }, "no map, no virtualisation");

        let (mut on_b, mut on_a) = (40u64, 90u64);
        let away = r.relocate(0, 1, placement(&mut on_b));
        assert_eq!(away, Relocation { replayed: 1, reused: false, failed: false });
        assert_eq!(
            r.translate(&Request::Free { handle: 7 }).unwrap().into_owned(),
            Request::Free { handle: 41 }
        );
        // Allocations made while away get virtual guest handles.
        let mut fresh = Response::Malloc { handle: 42 };
        r.settle(1, &malloc, &mut fresh);
        let Response::Malloc { handle: virt } = fresh else { panic!() };
        assert!(virt >= 1 << 32);
        assert!(r.translate(&Request::Free { handle: 99 }).is_err(), "unknown handle is typed");

        // Returning home re-adopts buffer 7 and only allocates the new one.
        let back = r.relocate(1, 0, placement(&mut on_a));
        assert_eq!(back, Relocation { replayed: 2, reused: true, failed: false });
        assert_eq!(on_a, 91, "one malloc replayed at home, not two");
        assert_eq!(
            r.translate(&Request::Free { handle: 7 }).unwrap().into_owned(),
            Request::Free { handle: 7 }
        );

        // A rejected replay leaves an empty map instead of failing the move.
        let lost = r.relocate(0, 2, |_, _| Response::Error { message: "oom".into() });
        assert!(lost.failed);
        assert!(r.translate(&Request::Free { handle: 7 }).is_err());
    }

    #[test]
    fn replay_surfaces_survivor_errors() {
        let mut j = VpJournal::default();
        j.record(4, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        let err = replay_journal(&j, |_, _| Response::Error { message: "oom".into() });
        assert!(err.is_err());
    }

    #[test]
    fn virtual_handles_never_collide() {
        let mut map = HandleMap::new();
        map.insert(7, 42);
        let v = map.virtualize(99);
        assert!(v >= 1 << 32);
        assert_ne!(v, 7);
        assert_eq!(map.device_of(v), Some(99));
        let v2 = map.virtualize(100);
        assert_ne!(v, v2);
    }

    #[test]
    fn translate_reports_unmapped_handles() {
        let map = HandleMap::new();
        let err = map.translate(&Request::Free { handle: 9 });
        assert_eq!(err, Err(9));
    }
}
