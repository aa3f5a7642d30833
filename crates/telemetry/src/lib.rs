//! Unified metrics + tracing for the ΣVP runtime.
//!
//! ΣVP's claims are timing claims — engine overlap (paper Eq. 7), coalescing
//! alignment (Eq. 9), profile-driven rescheduling — so the runtime needs one
//! substrate that every layer reports into. This crate provides it, in four
//! pieces:
//!
//! * [`metrics`] — a registry of atomic [`Counter`](metrics::Counter)s,
//!   [`Gauge`](metrics::Gauge)s and fixed-bucket
//!   [`Histogram`](metrics::Histogram)s (p50/p90/p99 summaries), cheap enough
//!   for hot paths;
//! * [`trace`] — a lock-free MPMC ring buffer of spans and counter samples in
//!   two time domains (**simulated** device/VP time and **wall-clock** host
//!   time), organized into lanes for VPs, the dispatcher, the job queue and
//!   the device's copy/compute engines;
//! * [`export`] — a unified Chrome-trace JSON writer (open in
//!   `chrome://tracing` / Perfetto), a JSON metrics snapshot and a plaintext
//!   summary table;
//! * [`incident`] — operational incidents (breaker trip, VP hung, shed,
//!   session killed), raised with [`Recorder::incident`] and handed to the
//!   sinks registered on the installed collector with
//!   [`Telemetry::on_incident`]; the flight recorder is the one subscriber.
//!
//! Completed copies and kernels are not published anywhere: every run returns
//! its device job logs, and profiles fold from those.
//!
//! # The recorder handle
//!
//! Instrumented code calls [`recorder()`], which performs a single atomic load
//! and returns a `Copy` handle; when no collector is [`install`]ed every
//! recording method is a no-op, so the instrumentation costs one branch. This
//! mirrors the `log`-crate facade pattern: the subsystem under measurement
//! never owns the collector.
//!
//! ```
//! let telemetry = sigmavp_telemetry::install();
//! let r = sigmavp_telemetry::recorder();
//! r.count("jobs.enqueued", 1);
//! r.observe_s("queue.wait_s", 125e-6);
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counter("jobs.enqueued"), Some(1));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod incident;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use incident::{Incident, IncidentKind};
pub use recorder::{install, recorder, uninstall, Recorder, Telemetry};
pub use trace::{job_uid, job_uid_seq, job_uid_vp, EventKind, Lane, TimeDomain, TraceEvent};
