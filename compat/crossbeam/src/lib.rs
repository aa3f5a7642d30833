//! Offline stand-in for `crossbeam`: the `channel` module over `std::sync::mpsc`.

pub mod channel {
    //! MPSC channels with the crossbeam-channel API shape.

    use std::sync::mpsc;
    use std::time::Duration;

    /// Sending half of an unbounded channel.
    #[derive(Debug, Clone)]
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    /// Receiving half of an unbounded channel.
    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    /// The channel is empty or disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently available.
        Empty,
        /// All senders have been dropped and the channel is drained.
        Disconnected,
    }

    /// All senders were dropped and the channel is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// A bounded wait ended without a message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// All senders have been dropped and the channel is drained.
        Disconnected,
    }

    /// The receiver was dropped; the unsent message is returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> Sender<T> {
        /// Send a message, failing only if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Block until a message arrives, all senders disconnect, or
        /// `timeout` elapses. A message already queued is returned even when
        /// `timeout` is zero.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Return a pending message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_try_recv() {
            let (tx, rx) = unbounded();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn recv_timeout_blocks_until_a_message_or_the_timeout() {
            let (tx, rx) = unbounded();
            assert_eq!(rx.recv_timeout(Duration::from_millis(2)), Err(RecvTimeoutError::Timeout));
            tx.send(1).unwrap();
            assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(1), "queued beats an elapsed timeout");
            // A sender on another thread wakes the blocked receiver; the
            // generous timeout only bounds a broken wake-up.
            let sender = std::thread::spawn(move || tx.send(2).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(2));
            sender.join().unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(30)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
