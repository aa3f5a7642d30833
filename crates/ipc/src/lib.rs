//! # sigmavp-ipc — the Inter-Process Communication manager of ΣVP
//!
//! In the paper's architecture (Fig. 2) the host side of ΣVP contains an *IPC
//! Manager* that "allows the virtual embedded GPUs and the host GPU to communicate
//! through an IPC method such as socket or shared memory", a *Job Queue* that
//! buffers kernel requests from all VPs, and a *VP Control* submodule that "stops
//! and resumes the VPs to support the Kernel Interleaving optimization technique for
//! synchronous kernel invocations".
//!
//! This crate provides the first two:
//!
//! * [`message`] — the request/response protocol between a VP's virtual embedded GPU
//!   model and the host, with a compact binary [`codec`] (length-prefixed frames);
//! * [`transport`] — a [`Transport`](transport::Transport) abstraction with
//!   shared-memory-like and socket-like implementations, each carrying a latency
//!   model so simulated time accounts for IPC overhead;
//! * [`queue`] — the thread-safe Job Queue with the dependency metadata the
//!   re-scheduler needs to preserve each VP's partial order.
//!
//! VP Control lives in the core crate's dispatch core: a stopped VP is a
//! synchronous launch the core holds, and the response to it is the resume.
//!
//! The components are thread-safe (VPs may run as real threads) but equally usable
//! from a deterministic single-threaded orchestrator, which is how the experiment
//! harness drives them.
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod message;
pub mod queue;
pub mod transport;

pub use error::IpcError;
pub use message::VpId;
