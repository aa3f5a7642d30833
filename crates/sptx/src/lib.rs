//! # SPTX — a small PTX-like virtual ISA for simulated GPUs
//!
//! SPTX is the kernel representation used throughout the ΣVP framework. It plays the
//! role that NVIDIA PTX plays in the original DAC'15 paper: a portable, typed,
//! block-structured intermediate representation that can be
//!
//! * **executed** by a scalar [`interp::Interpreter`] over a full CUDA-style grid
//!   (this is what both the "GPU emulation on VP" path and the functional layer of the
//!   host-GPU device model do),
//! * **profiled** — every execution produces per-instruction-class counters and
//!   per-basic-block iteration counts, exactly the inputs required by the paper's
//!   profile-based execution analysis (Eq. 1), and
//! * **statically analyzed** — per-block instruction counts by class (the paper's
//!   μ\{b,T\}) are available without executing anything.
//!
//! The instruction classes mirror the paper's set: `{FP32, FP64, Int, Bit, Branch,
//! Ld, St}` (see [`isa::InstrClass`]).
//!
//! ## Quick example
//!
//! Build and run a `vectorAdd`-style kernel on a 2-block × 4-thread grid:
//!
//! ```
//! use sigmavp_sptx::builder::ProgramBuilder;
//! use sigmavp_sptx::isa::{BinOp, ScalarType, Special};
//! use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
//!
//! # fn main() -> Result<(), sigmavp_sptx::SptxError> {
//! let mut b = ProgramBuilder::new("vector_add");
//! let (tid, ctaid, ntid) = (b.reg(), b.reg(), b.reg());
//! let (idx, a, x, y, sum) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
//! b.read_special(tid, Special::TidX)
//!     .read_special(ctaid, Special::CtaIdX)
//!     .read_special(ntid, Special::NTidX)
//!     .binop(BinOp::Mul, ScalarType::I64, idx, ctaid, ntid)
//!     .binop(BinOp::Add, ScalarType::I64, idx, idx, tid)
//!     .ld_param(a, 0)
//!     .ld_indexed(ScalarType::F32, x, a, idx, 0)
//!     .ld_param(a, 1)
//!     .ld_indexed(ScalarType::F32, y, a, idx, 0)
//!     .binop(BinOp::Add, ScalarType::F32, sum, x, y)
//!     .ld_param(a, 2)
//!     .st_indexed(ScalarType::F32, a, idx, 0, sum)
//!     .ret();
//! let program = b.build()?;
//!
//! let mut mem = Memory::new(3 * 8 * 4);
//! for i in 0..8 {
//!     mem.write_f32(i * 4, i as f32)?;
//!     mem.write_f32(32 + i * 4, 10.0 * i as f32)?;
//! }
//! let cfg = LaunchConfig::linear(2, 4);
//! let params = vec![ParamValue::Ptr(0), ParamValue::Ptr(32), ParamValue::Ptr(64)];
//! let profile = Interpreter::new().run(&program, &cfg, &params, &mut mem)?;
//!
//! assert_eq!(mem.read_f32(64 + 3 * 4)?, 33.0);
//! assert!(profile.counts.total() > 0);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod counters;
mod decode;
pub mod error;
pub mod exec;
pub mod interp;
pub mod isa;
pub mod opt;
mod parallel;
pub mod program;
pub mod validate;
mod warp;

pub use error::SptxError;
pub use interp::Tier;
pub use parallel::{IntMap, SlotHasher};
pub use program::KernelProgram;
