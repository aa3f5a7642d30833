//! # sigmavp-vp — the virtual platform (VP) model
//!
//! The paper's target simulator is "a QEMU ARM Versatile PB model": a
//! binary-translating full-system emulator running a guest OS, the GPU user library,
//! a guest GPU driver and a virtual embedded GPU hardware model (paper Fig. 2). This
//! crate models all of that:
//!
//! * [`cpu`] — host-CPU and binary-translation cost models: how long guest
//!   instructions take to *simulate* on the host (everything the paper's Table 1
//!   measures is host wall time);
//! * [`calib`] — the calibration constants behind those models, derived from the
//!   paper's own Table 1 ratios and documented inline;
//! * [`registry`] — the kernel registry mapping kernel names to
//!   [SPTX](sigmavp_sptx) programs (the moral equivalent of fatbin registration);
//! * [`service`] — the [`GpuService`](service::GpuService) trait through which guest
//!   code reaches *some* GPU implementation: the Mesa-like software
//!   [`emulation`] backend (slow path, Fig. 1a), or ΣVP's forwarding backend
//!   implemented in the core crate (fast path, Fig. 1b);
//! * [`platform`] — the [`VirtualPlatform`] instance:
//!   simulated clock, guest CPU work, and the non-CUDA host services (file I/O,
//!   OpenGL) that limit speedups for some of Fig. 11's applications;
//! * [`cuda`] — the guest-side GPU user library: a CUDA-runtime-like API that
//!   "provides the same APIs of the physical GPUs", charging the guest driver
//!   overhead per call and delegating to whichever `GpuService` is installed.
#![warn(missing_docs)]

pub mod calib;
pub mod cpu;
pub mod cuda;
pub mod emulation;
pub mod error;
pub mod platform;
pub mod registry;
pub mod service;

pub use error::{DeadlineStage, VpError};
pub use platform::{SimClock, VirtualPlatform};
