//! Host-side resilience state: circuit breakers and the journal/handle-map
//! pair that replays a VP's device state after a failover.

use std::borrow::Cow;
use std::collections::HashMap;

use sigmavp_ipc::message::{Request, Response, WireParam};

/// Observable circuit-breaker state (see [`CircuitBreaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Normal operation; consecutive failures are being counted.
    Closed,
    /// Tripped: the device is treated as down.
    Open,
}

/// Per-device consecutive-failure counter that opens after a threshold.
///
/// The dispatcher records every attempted operation outcome; once `threshold`
/// consecutive failures accumulate the breaker opens and the device is
/// treated as down (its VPs are migrated to survivors). An open breaker
/// latches open: nothing is kept on a dead device for a VP to come back to.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures.
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker { threshold: threshold.max(1), consecutive: 0, state: BreakerState::Closed }
    }

    /// Record a failed operation. Returns `true` iff this failure trips the
    /// breaker (open edge — reported exactly once per trip).
    pub fn record_failure(&mut self) -> bool {
        if self.is_open() {
            return false;
        }
        self.consecutive += 1;
        if self.consecutive >= self.threshold {
            self.state = BreakerState::Open;
        }
        self.is_open()
    }

    /// Record a successful operation: resets the consecutive-failure count
    /// (ignored once open).
    pub fn record_success(&mut self) {
        if !self.is_open() {
            self.consecutive = 0;
        }
    }

    /// Whether the breaker is open (device considered down).
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
        self.consecutive = self.consecutive.max(self.threshold);
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
///
/// The journal forgets: a `Free` that leaves the VP without a live buffer
/// leaves it without guest-visible device state, so there is nothing a replay
/// could rebuild and the log restarts empty. A guest that returns to zero
/// buffers between iterations is replayed at the cost of its current
/// iteration; one that keeps a buffer alive keeps its whole history.
#[derive(Debug, Clone, Default)]
pub struct VpJournal {
    entries: Vec<JournalEntry>,
    /// Guest handles `entries` allocated and has not freed, oldest first.
    live: Vec<u64>,
}

impl VpJournal {
    /// Append `(request, response)` if it is a successful mutating operation.
    /// `seq` is the VP-local sequence number of the originating request, kept
    /// so a later replay can be stitched back onto the original job's
    /// telemetry uid.
    pub fn record(&mut self, seq: u64, request: &Request, response: &Response) {
        match (request, response) {
            (Request::Malloc { .. }, Response::Malloc { handle }) => self.live.push(*handle),
            (Request::Free { handle }, Response::Done) => {
                self.live.retain(|live| live != handle);
                if self.live.is_empty() {
                    self.entries.clear();
                    return;
                }
            }
            (Request::MemcpyH2D { .. }, Response::Done)
            | (Request::Launch { .. }, Response::Launched { .. }) => {}
            _ => return,
        }
        self.entries.push(JournalEntry {
            seq,
            request: request.clone(),
            response: response.clone(),
        });
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

    /// The device handles behind the live mappings, ascending (a reproducible
    /// order out of a hash map).
    fn device_handles(&self) -> Vec<u64> {
        let mut handles: Vec<u64> = self.map.values().copied().collect();
        handles.sort_unstable();
        handles
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
    let mut map = HandleMap::new();
    replay_into(journal, &mut map, process).map(|()| map)
}

/// [`replay_journal`] into the caller's `map`, so a rejected replay still
/// shows what it had allocated on the survivor before the rejection.
fn replay_into(
    journal: &VpJournal,
    map: &mut HandleMap,
    mut process: impl FnMut(u64, &Request) -> Response,
) -> Result<(), String> {
    for entry in journal.entries() {
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
    Ok(())
}

/// What one [`Residency::relocate`] did. The two handle lists are device
/// buffers the VP no longer names; the owner frees them so that a move leaves
/// nothing behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relocation {
    /// Journal entries the move had to reconstruct on the target.
    pub replayed: usize,
    /// The target rejected part of the replay: the VP keeps running with an
    /// empty map and requests naming lost handles surface as guest errors.
    pub failed: bool,
    /// Device handles of the buffers the VP held on the placement it left:
    /// to be freed there if that placement is still in service.
    pub departed: Vec<u64>,
    /// Device handles a rejected replay had already allocated on the target:
    /// to be freed there.
    pub stranded: Vec<u64>,
}

/// One VP's device state as the guest sees it, independent of where it
/// currently lives: the journal that can rebuild it and the guest→device
/// handle translation of its current placement — the only placement that
/// holds any of it.
///
/// A *placement* is whatever the owner moves VPs between — a host GPU inside
/// one session (the dispatch core's instance) or a whole session (the fleet
/// front's instance).
#[derive(Debug, Clone, Default)]
pub struct Residency {
    journal: VpJournal,
    /// Present once the VP has moved at least once; before that guest handles
    /// *are* device handles.
    map: Option<HandleMap>,
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

    /// Move the VP to another placement: rebuild its state there by replaying
    /// the journal through `process`, install the resulting translation, and
    /// report the buffers of the placement it left ([`Relocation::departed`]).
    /// Infallible by design — a rejected replay is reported in
    /// [`Relocation::failed`], hands back what it had allocated
    /// ([`Relocation::stranded`]) and leaves an empty map.
    pub fn relocate(&mut self, process: impl FnMut(u64, &Request) -> Response) -> Relocation {
        let departed = match self.map.take() {
            Some(map) => map.device_handles(),
            // Never moved: guest handles are device handles.
            None => self.journal.live.clone(),
        };
        let mut rebuilt = HandleMap::new();
        let failed = replay_into(&self.journal, &mut rebuilt, process).is_err();
        let stranded =
            if failed { std::mem::take(&mut rebuilt).device_handles() } else { Vec::new() };
        self.map = Some(rebuilt);
        Relocation { replayed: self.journal.len(), failed, departed, stranded }
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
        b.record_success();
        assert_eq!(b.state(), BreakerState::Open, "an open breaker latches");
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
    fn journal_forgets_when_the_last_live_buffer_is_freed() {
        let upload = |handle| Request::MemcpyH2D { handle, data: b"abcd".to_vec(), stream: 0 };
        let mut j = VpJournal::default();
        j.record(1, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 3 });
        j.record(2, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 4 });
        j.record(3, &upload(3), &Response::Done);
        j.record(4, &Request::Free { handle: 3 }, &Response::Done);
        assert_eq!(j.len(), 4, "buffer 4 is live: the whole history stays");
        j.record(5, &Request::Free { handle: 4 }, &Response::Done);
        assert!(j.is_empty(), "no live buffer, nothing a replay could rebuild");
        j.record(6, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 5 });
        j.record(7, &upload(5), &Response::Done);
        assert_eq!(j.len(), 2, "the next epoch starts from scratch");
    }

    #[test]
    fn replay_covers_only_the_current_live_epoch() {
        let upload =
            |handle, data: &[u8]| Request::MemcpyH2D { handle, data: data.into(), stream: 0 };
        let mut j = VpJournal::default();
        j.record(4, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(5, &upload(7, b"old!"), &Response::Done);
        j.record(6, &Request::Free { handle: 7 }, &Response::Done);
        j.record(7, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 8 });
        j.record(8, &upload(8, b"abcd"), &Response::Done);

        let mut seen = Vec::new();
        let map = replay_journal(&j, |seq, req| {
            seen.push((seq, req.clone()));
            match req {
                Request::Malloc { .. } => Response::Malloc { handle: 41 },
                _ => Response::Done,
            }
        })
        .expect("replay succeeds");
        assert_eq!(
            seen,
            [(7, Request::Malloc { bytes: 16 }), (8, upload(41, b"abcd"))],
            "the freed epoch is not re-executed"
        );
        assert_eq!(map.len(), 1);
        assert_eq!(map.device_of(8), Some(41));
    }

    #[test]
    fn a_free_inside_a_live_epoch_is_replayed_and_unmapped() {
        let mut j = VpJournal::default();
        j.record(6, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(7, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 8 });
        j.record(8, &Request::Free { handle: 7 }, &Response::Done);

        let (mut next, mut freed) = (40u64, Vec::new());
        let map = replay_journal(&j, |_seq, req| match req {
            Request::Malloc { .. } => {
                next += 1;
                Response::Malloc { handle: next }
            }
            Request::Free { handle } => {
                freed.push(*handle);
                Response::Done
            }
            _ => Response::Done,
        })
        .expect("replay succeeds");
        assert_eq!(freed, [41], "the free lands on the buffer the replay allocated for 7");
        assert_eq!(map.device_of(7), None);
        assert_eq!(map.device_of(8), Some(42));
    }

    /// A fake placement: hands out device handles from `next` upwards.
    fn placement(next: &mut u64) -> impl FnMut(u64, &Request) -> Response + '_ {
        move |_, req| match req {
            Request::Malloc { .. } => {
                *next += 1;
                Response::Malloc { handle: *next }
            }
            _ => Response::Done,
        }
    }

    #[test]
    fn residency_round_trip_keeps_guest_handles_stable_and_reports_what_it_left() {
        let mut r = Residency::default();
        let malloc = Request::Malloc { bytes: 16 };
        let free = |handle| Request::Free { handle };
        // At home guest handles are device handles and requests pass through.
        assert!(matches!(r.translate(&malloc), Ok(Cow::Borrowed(_))));
        let mut response = Response::Malloc { handle: 7 };
        r.settle(0, &malloc, &mut response);
        assert_eq!(response, Response::Malloc { handle: 7 }, "no map, no virtualisation");

        let (mut on_b, mut on_a) = (40u64, 90u64);
        let away = r.relocate(placement(&mut on_b));
        assert_eq!((away.replayed, away.failed), (1, false));
        assert_eq!(away.departed, [7], "home keeps nothing: its buffer is the owner's to free");
        assert_eq!(r.translate(&free(7)).unwrap().into_owned(), free(41));
        // Allocations made while away get virtual guest handles.
        let mut fresh = Response::Malloc { handle: 42 };
        r.settle(1, &malloc, &mut fresh);
        let Response::Malloc { handle: virt } = fresh else { panic!() };
        assert!(virt >= 1 << 32);
        assert!(r.translate(&free(99)).is_err(), "unknown handle is typed");

        // Returning home is one more ordinary move: both buffers are
        // allocated afresh and both of B's are handed back.
        let back = r.relocate(placement(&mut on_a));
        assert_eq!((back.replayed, back.failed), (2, false));
        assert_eq!(back.departed, [41, 42]);
        assert_eq!(r.translate(&free(7)).unwrap().into_owned(), free(91));
        assert_eq!(r.translate(&free(virt)).unwrap().into_owned(), free(92));

        // Once the guest has freed everything a move replays nothing.
        for (seq, handle) in [(2, 7), (3, virt)] {
            r.settle(seq, &free(handle), &mut Response::Done);
        }
        let idle = r.relocate(placement(&mut on_b));
        assert_eq!(
            idle,
            Relocation { replayed: 0, failed: false, departed: vec![], stranded: vec![] }
        );
        assert_eq!(on_b, 41, "nothing was allocated for an empty journal");
    }

    #[test]
    fn rejected_replay_hands_back_what_it_allocated() {
        let mut r = Residency::default();
        for (seq, handle) in [(0, 7), (1, 8), (2, 9)] {
            r.settle(seq, &Request::Malloc { bytes: 16 }, &mut Response::Malloc { handle });
        }
        // A placement with room for two buffers: the third entry is rejected.
        let mut live: Vec<u64> = Vec::new();
        let (mut mallocs, mut frees) = (0u32, 0u32);
        let lost = r.relocate(|_, req| match req {
            Request::Malloc { .. } if live.len() == 2 => Response::Error { message: "oom".into() },
            Request::Malloc { .. } => {
                mallocs += 1;
                live.push(50 + u64::from(mallocs));
                Response::Malloc { handle: 50 + u64::from(mallocs) }
            }
            _ => Response::Done,
        });
        assert!(lost.failed);
        assert_eq!(lost.departed, [7, 8, 9]);
        // The owner frees what the partial replay left on the target.
        for handle in &lost.stranded {
            live.retain(|h| h != handle);
            frees += 1;
        }
        assert_eq!((mallocs, frees), (2, 2), "mallocs issued == frees issued");
        assert!(live.is_empty(), "a rejected replay leaks nothing on the target");
        // The move itself does not fail: lost handles surface as typed errors.
        let err = r.translate(&Request::Free { handle: 7 }).unwrap_err();
        assert!(err.contains("no buffer on the VP's current placement"), "{err}");
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
