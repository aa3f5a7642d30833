//! # sigmavp-fleet — the sharded multi-session front-end
//!
//! ΣVP's single [`ExecutionSession`](sigmavp::ExecutionSession) multiplexes
//! many VPs over one host-GPU set; this crate scales that design out. A
//! [`Fleet`] shards VPs across `S` independent sessions — each with its own
//! host GPUs and its own thread driving a
//! [`DispatchCore`](sigmavp::DispatchCore), the same dispatch state machine
//! the single-session runtime runs — behind one front door that provides:
//!
//! * **consistent-hash placement** plus a **work-stealing rebalancer** that
//!   migrates whole VPs between sessions (replay of the live journal, free on
//!   the source, handle translation — the core's relocation path generalized
//!   across sessions, so a VP's buffers only ever live on one session);
//! * a **bounded admission queue with backpressure** — saturation sheds work
//!   with a typed [`FleetError::Saturated`] instead of buffering without
//!   bound;
//! * **fleet-level health supervision** — [`Fleet::kill_session`] drains a
//!   dead session's VPs to survivors, and requests only fail once no session
//!   is left.
//!
//! Everything the rebalancer decides is a pure function of the admission
//! sequence, so same-seed runs produce byte-identical steal and migration
//! counters — the property the CI determinism gate checks.
//!
//! [`script`] provides self-checking per-VP workloads ([`VpScript`]) and the
//! deterministic wavefront driver ([`drive`]) used by the integration tests
//! and the `fleet` example (sigmabench's `fleet_s1`/`fleet_s2` workloads run
//! the same scripts under their own timed driver).
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod fleet;
pub mod script;

pub use config::FleetConfig;
pub use error::FleetError;
pub use fleet::{Fleet, FleetObservability, FleetOutcome, FleetStats, ShardView};
pub use script::{drive, drive_with, VpScript};
