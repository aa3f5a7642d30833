//! Observability for the ΣVP runtime: turning telemetry into explanations.
//!
//! `sigmavp-telemetry` (PR 1) *records* — spans, counters, histograms. This
//! crate *explains*: it consumes drained trace events, planned timelines and
//! metric snapshots and answers the two questions every perf investigation
//! starts with:
//!
//! 1. **Where did the time go?** [`lifecycle`] joins per-job events across
//!    the envelope-send → queue-wait → copy-engine → compute-engine lanes
//!    into one [`JobLifecycle`] per job (keyed by the
//!    stable [`job_uid`](sigmavp_telemetry::job_uid) every layer stamps), and
//!    extracts the per-device **critical path** — a gap-free tiling of
//!    `[0, makespan]` into busy and stall segments, so the breakdown provably
//!    sums to the measured makespan.
//! 2. **Does the run still agree with the paper?** [`model`] computes the
//!    analytic predictions — Eq. 7 interleaved makespan
//!    `T = 2·Tm + N·max(Tm, Tk)`, the Eq. 8 speedup bound `3N/(N+2)`, and the
//!    Eq. 9 coalescing alignment `T = To + Te·⌈ξ/λ⌉` — from *observed*
//!    Tm/Tk/N/ξ/λ, and a structured [`AuditReport`] flagging residuals
//!    above tolerance.
//!
//! [`baseline`] closes the loop: a flat-JSON baseline store and comparator
//! that the `audit` bench binary uses as a regression gate (`--check` exits
//! non-zero when a metric moves beyond tolerance in the bad direction).

#![warn(missing_docs)]

pub mod baseline;
pub mod flight;
pub mod lifecycle;
pub mod model;
pub mod profile;

pub use baseline::{
    check_baseline, compare, format_flat_json, parse_flat_json, write_baseline, Direction,
    ParseError, Regression,
};
pub use flight::{
    validate_bundle, well_formed_json, Bundle, FlightConfig, FlightRecorder, Snapshot,
    BUNDLE_SCHEMA,
};
pub use lifecycle::{
    critical_path, device_critical_path, join_lifecycles, CriticalPath, JobLifecycle, PathPhase,
    PathSegment,
};
pub use model::{
    eq7_makespan_s, eq8_speedup_bound, eq9_merged_kernel_s, observed_inputs, residual_frac,
    AuditReport, ModelInputs, ResidualEntry,
};
pub use profile::{Estimate, ProfileSnapshot, ProfileStore, SharedProfileStore};
