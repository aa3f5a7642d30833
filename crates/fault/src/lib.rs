//! # sigmavp-fault — deterministic fault injection and resilience primitives
//!
//! ΣVP multiplexes many VPs over one forwarding channel and a small set of host
//! GPUs, which makes that channel and device set single points of failure.
//! rCUDA-style API-remoting systems treat the forwarding link as an unreliable
//! transport with acknowledged, retryable RPCs; this crate provides the pieces
//! the runtime needs to do the same — and to *test* that it does:
//!
//! * [`FaultPlan`] — a seed-driven, fully reproducible schedule of injected
//!   faults: frame drops, delays, corruption, transient device errors, and
//!   whole host-GPU outages. Link faults are drawn from per-link, per-direction
//!   RNG streams (so thread interleaving cannot change which frames fail), and
//!   outages trigger on *simulated* time carried in each request envelope (so
//!   the set of jobs a dead device served is identical across runs).
//! * [`FaultyTransport`] — a decorator over any
//!   [`Transport`](sigmavp_ipc::transport::Transport) that applies the plan's
//!   link faults to every sent frame.
//! * [`supervise`] — host-side resilience state: a per-device
//!   [`CircuitBreaker`] and the per-VP [`Residency`] ([`VpJournal`] +
//!   [`HandleMap`]) that replays a VP's live device state onto a surviving GPU
//!   or another session, keeps its guest handles stable across the move and
//!   names the buffers the move leaves for its owner to free.
//!
//! Everything here is deterministic by construction: the same plan seed yields
//! the same injected faults, retries, trips and migrations, run after run.

#![warn(missing_docs)]

pub mod plan;
pub mod supervise;
pub mod transport;

pub use plan::{FaultPlan, LinkDirection, LinkFault, LinkFaultConfig, LinkFaults, Outage};
pub use supervise::{
    replay_journal, BreakerState, CircuitBreaker, HandleMap, JournalEntry, Relocation, Residency,
    VpJournal,
};
pub use transport::{DropNotice, FaultyTransport};

/// Prefix marking a device error as retryable: guests retry requests whose
/// error message starts with this, treating the failure as transient.
pub const TRANSIENT_ERROR_PREFIX: &str = "transient:";

/// Whether a device error message marks a transient (retryable) failure.
pub fn is_transient_error(message: &str) -> bool {
    message.starts_with(TRANSIENT_ERROR_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_prefix_is_recognized() {
        assert!(is_transient_error("transient: injected device fault"));
        assert!(!is_transient_error("kernel `k` is not registered"));
    }
}
