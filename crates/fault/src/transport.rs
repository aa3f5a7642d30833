//! A transport decorator that applies a [`LinkFaults`]
//! stream to every sent frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use sigmavp_ipc::error::IpcError;
use sigmavp_ipc::transport::{Transport, TransportCost};

use crate::plan::{LinkFault, LinkFaults};

/// How long a wait blocks before looking at an attached [`DropNotice`] again:
/// the peer that raises it cannot wake this end's channel, so the notice is
/// the one thing a blocked receiver has to look up for.
const NOTICE_SLICE: Duration = Duration::from_micros(200);

struct FaultState {
    link: LinkFaults,
    /// Frames held back by injected delays, with their release times.
    delayed: Vec<(Instant, Bytes)>,
    /// Notices this endpoint has consumed from the shared [`DropNotice`].
    consumed: u64,
}

/// Shared between the two [`FaultyTransport`] ends of one guest-host link.
///
/// Counts injected faults that killed the round trip in flight: a dropped
/// request, a dropped response, or a corrupted request the receiver will
/// discard. The waiting end's `recv_deadline` consumes one notice per wait and
/// times out *immediately*, which makes injected timeouts simulated-time
/// events — the guest is charged its configured timeout in simulated seconds,
/// but never actually waits it out in wall time. Without this, a timeout would
/// be a wall-clock race: on a loaded machine a slow host looks identical to a
/// dropped frame, and fault counters stop being reproducible.
#[derive(Default)]
pub struct DropNotice {
    raised: AtomicU64,
}

impl DropNotice {
    /// A fresh notice board shared by both ends of a link.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn raise(&self) {
        self.raised.fetch_add(1, Ordering::Release);
    }

    fn raised(&self) -> u64 {
        self.raised.load(Ordering::Acquire)
    }
}

/// Wraps any [`Transport`] and injects the link faults its stream dictates:
/// drops (frame vanishes), corruption (frame truncated so decoding fails on
/// the receiving side), and delays (frame held back, released on a later
/// send/recv on this endpoint).
///
/// Only the *sending* half is decorated — a bidirectional link gets one
/// `FaultyTransport` per endpoint, each with its own direction's fault stream,
/// so the k-th frame in either direction has a scheduling-independent fate.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    state: Mutex<FaultState>,
    notice: Option<Arc<DropNotice>>,
    /// Whether this end's *corrupted* frames also raise the notice: true on
    /// the guest end (the host discards an undecodable request, so the round
    /// trip is dead), false on the host end (the guest sees the corrupt
    /// response and retries without waiting for a timeout).
    raise_on_corrupt: bool,
    /// Run after held frames were released to the peer; see
    /// [`FaultyTransport::on_release`].
    on_release: Option<Box<dyn Fn() + Send + Sync>>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Decorate `inner` with the given fault stream.
    pub fn new(inner: T, link: LinkFaults) -> Self {
        FaultyTransport {
            inner,
            state: Mutex::new(FaultState { link, delayed: Vec::new(), consumed: 0 }),
            notice: None,
            raise_on_corrupt: false,
            on_release: None,
        }
    }

    /// Attach the link's shared [`DropNotice`]. Faults injected by this end
    /// that kill the round trip in flight raise it; this end's `recv_deadline`
    /// consumes notices (raised by either end) as immediate timeouts.
    pub fn with_notice(mut self, notice: Arc<DropNotice>, raise_on_corrupt: bool) -> Self {
        self.notice = Some(notice);
        self.raise_on_corrupt = raise_on_corrupt;
        self
    }

    /// Run `hook` whenever this end releases held frames to the peer. A late
    /// frame reaches a peer that no send call of its sender announces: an
    /// event-driven receiver hangs its wake-up here. The hook runs on the
    /// releasing thread with none of this transport's locks held.
    pub fn on_release(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.on_release = Some(Box::new(hook));
        self
    }

    /// Release every held frame whose delay has elapsed. Send errors are
    /// ignored: a frame for a departed peer is indistinguishable from a drop.
    fn flush_due(&self) {
        let mut released = false;
        {
            let mut state = self.state.lock();
            if state.delayed.is_empty() {
                return;
            }
            let now = Instant::now();
            let mut i = 0;
            while i < state.delayed.len() {
                if state.delayed[i].0 <= now {
                    let (_, frame) = state.delayed.remove(i);
                    let _ = self.inner.send(frame);
                    released = true;
                } else {
                    i += 1;
                }
            }
        }
        if released {
            if let Some(hook) = &self.on_release {
                hook();
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&self, frame: Bytes) -> Result<f64, IpcError> {
        self.flush_due();
        let fault = self.state.lock().link.decide();
        let bytes = frame.len() as u64;
        match fault {
            Some(LinkFault::Drop) => {
                if let Some(notice) = &self.notice {
                    notice.raise();
                }
                // The sender still pays the modeled wire cost; the frame is gone.
                Ok(self.inner.cost().delay_for(bytes))
            }
            Some(LinkFault::Corrupt) => {
                if self.raise_on_corrupt {
                    if let Some(notice) = &self.notice {
                        notice.raise();
                    }
                }
                // Truncation guarantees the length-prefix check fails on decode;
                // a bit-flip could silently alter payload bytes instead.
                let truncated = Bytes::copy_from_slice(&frame[..frame.len() / 2]);
                self.inner.send(truncated)?;
                Ok(self.inner.cost().delay_for(bytes))
            }
            Some(LinkFault::Delay(d)) => {
                let release = Instant::now() + Duration::from_secs_f64(d);
                self.state.lock().delayed.push((release, frame));
                Ok(self.inner.cost().delay_for(bytes) + d)
            }
            None => self.inner.send(frame),
        }
    }

    fn recv(&self) -> Result<Bytes, IpcError> {
        loop {
            self.flush_due();
            let frame = match self.next_release() {
                Some(release) => self.inner.recv_deadline(release)?,
                None => Some(self.inner.recv()?),
            };
            if let Some(frame) = frame {
                return Ok(frame);
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Bytes>, IpcError> {
        self.flush_due();
        self.inner.try_recv()
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Option<Bytes>, IpcError> {
        loop {
            self.flush_due();
            if let Some(frame) = self.inner.try_recv()? {
                return Ok(Some(frame));
            }
            if let Some(notice) = &self.notice {
                let mut state = self.state.lock();
                if notice.raised() > state.consumed {
                    // A frame of this round trip was injected away; the reply
                    // will never come. Time out now — the caller charges the
                    // configured timeout in *simulated* time, so the outcome
                    // is identical on an idle and a saturated machine.
                    state.consumed += 1;
                    return Ok(None);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Block on the link, so an arriving frame wakes this end at once,
            // but no longer than until this end has something of its own to
            // do: release a frame it holds back, or look at the notice.
            let mut until = self.next_release().map_or(deadline, |release| release.min(deadline));
            if self.notice.is_some() {
                until = until.min(now + NOTICE_SLICE);
            }
            if let Some(frame) = self.inner.recv_deadline(until)? {
                return Ok(Some(frame));
            }
        }
    }

    fn next_release(&self) -> Option<Instant> {
        self.state.lock().delayed.iter().map(|(release, _)| *release).min()
    }

    fn cost(&self) -> TransportCost {
        self.inner.cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, LinkDirection, LinkFaultConfig};
    use sigmavp_ipc::message::VpId;
    use sigmavp_ipc::transport::shared_memory_pair;

    fn faulty(
        cfg: LinkFaultConfig,
    ) -> (
        FaultyTransport<sigmavp_ipc::transport::ChannelTransport>,
        sigmavp_ipc::transport::ChannelTransport,
    ) {
        let plan = FaultPlan::seeded(3).with_link(cfg);
        let (a, b) = shared_memory_pair();
        (FaultyTransport::new(a, plan.link_faults(VpId(0), LinkDirection::GuestToHost)), b)
    }

    #[test]
    fn always_drop_never_delivers() {
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 1.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        });
        for _ in 0..10 {
            tx.send(Bytes::from_static(b"payload")).unwrap();
        }
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn corrupt_truncates_frames() {
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 1.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        });
        tx.send(Bytes::from_static(b"0123456789")).unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got.len(), 5, "frame truncated to half its length");
    }

    #[test]
    fn delayed_frames_arrive_late_but_intact() {
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 1.0,
            delay_s: 3e-3,
        });
        let before = Instant::now();
        tx.send(Bytes::from_static(b"slow")).unwrap();
        assert_eq!(rx.try_recv().unwrap(), None, "held back initially");
        // A later operation on the faulty endpoint releases due frames.
        loop {
            tx.try_recv().unwrap();
            if let Some(frame) = rx.try_recv().unwrap() {
                assert_eq!(frame, Bytes::from_static(b"slow"));
                break;
            }
            assert!(before.elapsed() < Duration::from_secs(2), "delayed frame never arrived");
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(before.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn clean_link_passes_everything_through() {
        let (tx, rx) = faulty(LinkFaultConfig::none());
        for i in 0..20u8 {
            tx.send(Bytes::from(vec![i; 4])).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(rx.recv().unwrap(), Bytes::from(vec![i; 4]));
        }
    }

    #[test]
    fn release_runs_the_hook_and_clears_next_release() {
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 1.0,
            delay_s: 1e-3,
        });
        let released = Arc::new(AtomicU64::new(0));
        let tx = {
            let released = released.clone();
            tx.on_release(move || {
                released.fetch_add(1, Ordering::SeqCst);
            })
        };
        assert_eq!(tx.next_release(), None);
        tx.send(Bytes::from_static(b"late")).unwrap();
        let due = tx.next_release().expect("a frame is held back");
        assert_eq!(released.load(Ordering::SeqCst), 0);
        // Nothing will ever arrive on tx: the wait wakes for its own release.
        assert_eq!(tx.recv_deadline(due + Duration::from_millis(20)).unwrap(), None);
        assert_eq!(released.load(Ordering::SeqCst), 1, "one release, one hook call");
        assert_eq!(tx.next_release(), None);
        assert_eq!(rx.try_recv().unwrap(), Some(Bytes::from_static(b"late")));
    }

    #[test]
    fn a_raised_notice_times_the_wait_out_at_once_but_a_queued_frame_wins() {
        let plan = FaultPlan::seeded(3).with_link(LinkFaultConfig {
            drop_prob: 1.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        });
        let (guest, host) = shared_memory_pair();
        let notice = DropNotice::new();
        let guest =
            FaultyTransport::new(guest, plan.link_faults(VpId(0), LinkDirection::GuestToHost))
                .with_notice(notice.clone(), true);
        // A far deadline: only the notice can end these waits.
        let far = Instant::now() + Duration::from_secs(30);
        guest.send(Bytes::from_static(b"dropped")).unwrap();
        assert_eq!(guest.recv_deadline(far).unwrap(), None, "the drop is an immediate timeout");
        // Raised from the other end while this one is already blocked: seen
        // within a slice, long before the deadline.
        let raiser = std::thread::spawn(move || notice.raise());
        assert_eq!(guest.recv_deadline(far).unwrap(), None);
        raiser.join().unwrap();
        // One notice, one timeout — and a frame already on the link beats it.
        guest.send(Bytes::from_static(b"dropped too")).unwrap();
        host.send(Bytes::from_static(b"reply")).unwrap();
        assert_eq!(guest.recv_deadline(far).unwrap(), Some(Bytes::from_static(b"reply")));
        assert_eq!(guest.recv_deadline(far).unwrap(), None);
    }

    #[test]
    fn recv_deadline_releases_own_delayed_frames() {
        // Loop the faulty endpoint back to itself conceptually: endpoint A delays
        // its sends; its own recv_deadline polling must still flush them to B.
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 1.0,
            delay_s: 1e-3,
        });
        tx.send(Bytes::from_static(b"x")).unwrap();
        // Poll on the faulty side long enough for the flush to trigger.
        let deadline = Instant::now() + Duration::from_millis(20);
        let _ = tx.recv_deadline(deadline);
        assert!(rx.try_recv().unwrap().is_some(), "flush released the delayed frame");
    }
}
