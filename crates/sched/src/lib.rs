//! # sigmavp-sched — ΣVP's re-scheduler
//!
//! The Re-scheduler (paper Fig. 2) has two functions:
//!
//! 1. "it reorders the asynchronous kernel jobs in the Job Queue by keeping a
//!    partial order in the original VP. It is a non-preemptive, optimal scheduler
//!    augmented for job dependencies" — implemented in [`interleave`]; for
//!    *synchronous* invocations (Fig. 4b) the same pipeline plans the window of
//!    launches the dispatch core holds;
//! 2. "it combines identical kernel requests in the Job Queue into one single kernel
//!    job, by using Kernel Coalescing" — implemented in [`coalesce`], together with
//!    the contiguous-memory layout planning of Fig. 5 and the grid-alignment
//!    analysis behind Eq. 9.
//!
//! Both operate on [`Job`](sigmavp_ipc::queue::Job) lists — a device log at the join, or a held
//! window — and are *order-contract checked*: every reordering they produce satisfies
//! [`preserves_partial_order`](sigmavp_ipc::queue::preserves_partial_order).
//!
//! The [`pipeline`] module composes these mechanisms into the shared planning
//! spine every runtime drives — [`SchedulePass`]es ([`DepOrder`],
//! [`Interleave`], [`Coalesce`], [`AdaptiveSelect`]) chained into a
//! [`Pipeline`] derived from one unified [`Policy`] ([`policy`]).
#![warn(missing_docs)]

pub mod coalesce;
pub mod deps;
pub mod interleave;
pub mod liveness;
pub mod pipeline;
pub mod placement;
pub mod policy;
pub mod rebalance;
pub mod wavepack;

pub use coalesce::MemoryLayout;
pub use deps::{reorder_critical_path, JobDag};
pub use interleave::reorder_async;
pub use liveness::{quorum_met, quorum_threshold};
pub use pipeline::{
    AdaptiveSelect, Coalesce, DepOrder, Interleave, JobStream, MergeGroup, PassCtx, Pipeline,
    SchedulePass, StreamEvaluator,
};
pub use placement::{HashRing, Placement};
pub use policy::{BackendKind, InterleaveMode, Policy, RetryPolicy};
pub use rebalance::{DeviceView, LoadRebalance, Rebalance};
pub use wavepack::WavePack;
