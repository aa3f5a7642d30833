//! Transports between the virtual embedded GPU models and the host runtime.
//!
//! The paper's IPC manager supports "an IPC method such as socket or shared memory".
//! Both are provided here as in-process channel transports that differ only in their
//! *cost model*: a shared-memory segment costs ~2 µs per message with negligible
//! per-byte cost, while a local socket costs tens of microseconds plus a per-byte
//! copy cost. The modeled delay is returned from [`Transport::send`] so the
//! simulation clock can account for it; the ablation benches compare the two.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Instant;

use bytes::Bytes;

use crate::error::IpcError;

/// Latency model of a transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportCost {
    /// Fixed per-message latency in seconds.
    pub latency_s: f64,
    /// Additional cost per payload byte in seconds.
    pub per_byte_s: f64,
}

impl TransportCost {
    /// Shared-memory-segment-like cost: ~2 µs per message, essentially free bytes
    /// (the segment is mapped in both address spaces).
    pub fn shared_memory() -> Self {
        TransportCost { latency_s: 2.0e-6, per_byte_s: 0.05e-9 }
    }

    /// Local-socket-like cost: ~30 µs per message plus ~1 ns per byte (kernel copies
    /// and syscall overhead).
    pub fn socket() -> Self {
        TransportCost { latency_s: 30.0e-6, per_byte_s: 1.0e-9 }
    }

    /// Modeled delivery delay for a message of `bytes` bytes.
    pub fn delay_for(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 * self.per_byte_s
    }
}

/// A bidirectional, frame-oriented transport endpoint.
///
/// Thread-safe: endpoints can be moved to different threads. `send` returns the
/// *modeled* delivery delay in simulated seconds (actual delivery through the
/// underlying channel is immediate).
pub trait Transport: Send {
    /// Send a frame to the peer, returning the modeled delivery delay in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Disconnected`] when the peer endpoint was dropped.
    fn send(&self, frame: Bytes) -> Result<f64, IpcError>;

    /// Receive the next frame, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Disconnected`] when the peer endpoint was dropped and the
    /// channel is drained.
    fn recv(&self) -> Result<Bytes, IpcError>;

    /// Receive the next frame if one is ready.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Disconnected`] when the peer endpoint was dropped and the
    /// channel is drained.
    fn try_recv(&self) -> Result<Option<Bytes>, IpcError>;

    /// Receive the next frame, blocking until one arrives or `deadline`
    /// passes. Returns `Ok(None)` when the deadline passed with no frame; a
    /// frame already queued is returned even when `deadline` is in the past.
    ///
    /// Decorated transports that hold frames back (delays) release their own
    /// held frames while waiting.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Disconnected`] when the peer endpoint was dropped and the
    /// channel is drained.
    fn recv_deadline(&self, deadline: Instant) -> Result<Option<Bytes>, IpcError>;

    /// When this endpoint next needs servicing without an arrival: the release
    /// time of the earliest frame it is holding back. `None` (the default)
    /// for transports that deliver every frame at once.
    fn next_release(&self) -> Option<Instant> {
        None
    }

    /// The transport's cost model.
    fn cost(&self) -> TransportCost;
}

/// A channel-backed transport endpoint (both the shared-memory and the socket
/// flavors use this, with different [`TransportCost`]s).
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    cost: TransportCost,
}

impl Transport for ChannelTransport {
    fn send(&self, frame: Bytes) -> Result<f64, IpcError> {
        let bytes = frame.len() as u64;
        self.tx.send(frame).map_err(|_| IpcError::Disconnected)?;
        Ok(self.cost.delay_for(bytes))
    }

    fn recv(&self) -> Result<Bytes, IpcError> {
        self.rx.recv().map_err(|_| IpcError::Disconnected)
    }

    fn try_recv(&self) -> Result<Option<Bytes>, IpcError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(IpcError::Disconnected),
        }
    }

    #[allow(clippy::disallowed_methods)] // std's own timed wait needs a duration
    fn recv_deadline(&self, deadline: Instant) -> Result<Option<Bytes>, IpcError> {
        match self.rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(IpcError::Disconnected),
        }
    }

    fn cost(&self) -> TransportCost {
        self.cost
    }
}

/// Create a connected pair of endpoints with the given cost model. The first
/// endpoint is conventionally the VP side, the second the host side.
pub fn pair(cost: TransportCost) -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (ChannelTransport { tx: a_tx, rx: a_rx, cost }, ChannelTransport { tx: b_tx, rx: b_rx, cost })
}

/// A connected pair with shared-memory cost.
pub fn shared_memory_pair() -> (ChannelTransport, ChannelTransport) {
    pair(TransportCost::shared_memory())
}

/// A connected pair with local-socket cost.
pub fn socket_pair() -> (ChannelTransport, ChannelTransport) {
    pair(TransportCost::socket())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn frames_cross_in_both_directions() {
        let (vp, host) = shared_memory_pair();
        vp.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(host.recv().unwrap(), Bytes::from_static(b"ping"));
        host.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(vp.recv().unwrap(), Bytes::from_static(b"pong"));
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (vp, host) = shared_memory_pair();
        assert_eq!(host.try_recv().unwrap(), None);
        vp.send(Bytes::from_static(b"x")).unwrap();
        assert!(host.try_recv().unwrap().is_some());
    }

    #[test]
    fn disconnect_is_detected() {
        let (vp, host) = socket_pair();
        drop(host);
        assert_eq!(vp.send(Bytes::from_static(b"x")).unwrap_err(), IpcError::Disconnected);
        assert_eq!(vp.recv().unwrap_err(), IpcError::Disconnected);
    }

    #[test]
    fn socket_is_slower_than_shared_memory() {
        let shm = TransportCost::shared_memory();
        let sock = TransportCost::socket();
        for bytes in [0u64, 100, 1_000_000] {
            assert!(sock.delay_for(bytes) > shm.delay_for(bytes));
        }
    }

    #[test]
    fn per_byte_cost_grows_with_size() {
        let sock = TransportCost::socket();
        assert!(sock.delay_for(1_000_000) > sock.delay_for(100) * 2.0);
    }

    #[test]
    fn modeled_delay_matches_cost_model() {
        let (vp, _host) = socket_pair();
        let frame = Bytes::from(vec![0u8; 1000]);
        let d = vp.send(frame).unwrap();
        assert!((d - TransportCost::socket().delay_for(1000)).abs() < 1e-15);
    }

    #[test]
    fn recv_deadline_times_out_and_delivers() {
        let (vp, host) = shared_memory_pair();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(2);
        assert_eq!(host.recv_deadline(deadline).unwrap(), None, "empty channel times out");
        vp.send(Bytes::from_static(b"x")).unwrap();
        assert!(host.recv_deadline(deadline).unwrap().is_some(), "queued beats a past deadline");
        drop(vp);
        assert_eq!(host.recv_deadline(deadline).unwrap_err(), IpcError::Disconnected);
    }

    #[test]
    fn endpoints_work_across_threads() {
        let (vp, host) = shared_memory_pair();
        let t = std::thread::spawn(move || {
            let f = host.recv().unwrap();
            host.send(f).unwrap();
        });
        vp.send(Bytes::from_static(b"echo")).unwrap();
        assert_eq!(vp.recv().unwrap(), Bytes::from_static(b"echo"));
        t.join().unwrap();
    }
}
