//! The SPTX interpreter for kernels over a CUDA-style grid, and its scalar
//! engine.
//!
//! The interpreter serves two roles in ΣVP:
//!
//! * **functional execution** — both the host-GPU device model and the GPU-emulation
//!   path on the virtual platform use it to actually compute kernel results, and
//! * **profiling** — every run yields an [`ExecutionProfile`] with per-class dynamic
//!   instruction counts, per-block iteration counts λ and a memory-trace summary.
//!
//! SPTX has no inter-thread communication primitives, so sequential execution is
//! observationally equivalent to any parallel schedule. With `workers = 1` the
//! interpreter executes the grid sequentially, block by block; with more workers,
//! independent thread blocks run concurrently on the process-wide
//! [`exec::WorkerPool`](crate::exec::WorkerPool) and are merged deterministically
//! so results stay byte-identical to the sequential path (per-block overlay memory
//! plus journal replay in `(ctaid, tid)` order). Under [`Tier::Warp`] either driver
//! tries each block in warp lockstep first. Every block that runs one thread at a
//! time — all of a [`Tier::Scalar`] launch, a warp fallback, the parallel merge's
//! budget re-run — goes through the one scalar CTA runner here,
//! `Interpreter::run_cta_scalar`, and every driver counts into one `Tally`.
//!
//! The scalar engine's arithmetic (`eval_bin`, `eval_un`, `eval_mad`, `eval_cvt`)
//! is the reference semantics. The constant folder in [`crate::opt`] calls it
//! too, so a folded constant has the bits the instruction computes at run time.

use crate::counters::{ExecutionProfile, Tally};
use crate::error::SptxError;
use crate::isa::{BinOp, BlockId, CmpOp, Imm, Instr, ScalarType, Special, Terminator, UnaryOp};
use crate::program::KernelProgram;

/// Byte granularity used for the memory-trace spatial-locality summary; matches the
/// 128-byte global-memory transaction segments of real CUDA devices.
pub const MEMORY_SEGMENT_BYTES: u64 = 128;

/// A kernel launch shape: a 1-D grid of 1-D thread blocks (the paper's experiments
/// all use 1-D launches; Fig. 10b sweeps `grid_dim` 1..64 at `block_dim = 512`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid (`gridDim.x`).
    pub grid_dim: u32,
    /// Threads per block (`blockDim.x`).
    pub block_dim: u32,
}

impl LaunchConfig {
    /// Maximum threads per block, mirroring CUDA's limit.
    pub const MAX_BLOCK_DIM: u32 = 1024;

    /// A linear launch of `grid_dim` blocks × `block_dim` threads.
    pub fn linear(grid_dim: u32, block_dim: u32) -> Self {
        Self { grid_dim, block_dim }
    }

    /// The launch shape that covers `n` elements with `block_dim`-thread blocks
    /// (`⌈n / block_dim⌉` blocks).
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::BadLaunch`] when the required grid exceeds
    /// `u32::MAX` blocks (previously the count was silently truncated).
    ///
    /// # Panics
    ///
    /// Panics if `block_dim` is zero.
    pub fn covering(n: u64, block_dim: u32) -> Result<Self, SptxError> {
        assert!(block_dim > 0, "block_dim must be positive");
        let grid = n.div_ceil(block_dim as u64).max(1);
        if grid > u32::MAX as u64 {
            return Err(SptxError::BadLaunch(format!(
                "covering {n} elements with {block_dim}-thread blocks needs {grid} blocks, \
                 exceeding the u32 grid limit"
            )));
        }
        Ok(Self { grid_dim: grid as u32, block_dim })
    }

    /// Total number of threads launched.
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }

    /// Check the configuration against implementation limits.
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::BadLaunch`] for zero-sized dimensions or an oversized
    /// block.
    pub fn validate(&self) -> Result<(), SptxError> {
        if self.grid_dim == 0 || self.block_dim == 0 {
            return Err(SptxError::BadLaunch("grid and block dimensions must be positive".into()));
        }
        if self.block_dim > Self::MAX_BLOCK_DIM {
            return Err(SptxError::BadLaunch(format!(
                "block dimension {} exceeds the limit of {}",
                self.block_dim,
                Self::MAX_BLOCK_DIM
            )));
        }
        Ok(())
    }
}

/// A kernel parameter: either a pointer into kernel global [`Memory`] or an
/// immediate scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// Byte offset into the launch's global memory.
    Ptr(u64),
    /// 64-bit float scalar.
    F64(f64),
    /// 32-bit float scalar.
    F32(f32),
    /// 64-bit integer scalar.
    I64(i64),
}

/// Flat, bounds-checked global memory for a kernel launch.
///
/// ΣVP's Kernel Coalescing copies several VPs' buffers into one contiguous `Memory`
/// before a merged launch and scatters results back afterwards (paper Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Allocate `size` zeroed bytes.
    pub fn new(size: usize) -> Self {
        Self { bytes: vec![0; size] }
    }

    /// Create memory from existing bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the memory is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw byte view.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable raw byte view.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    pub(crate) fn check(&self, addr: u64, width: u64) -> Result<usize, SptxError> {
        let end = addr.checked_add(width).ok_or(SptxError::OutOfBoundsAccess {
            addr,
            width,
            mem_size: self.bytes.len() as u64,
        })?;
        if end > self.bytes.len() as u64 {
            return Err(SptxError::OutOfBoundsAccess {
                addr,
                width,
                mem_size: self.bytes.len() as u64,
            });
        }
        Ok(addr as usize)
    }

    /// Read an `f32` at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the access exceeds the memory.
    pub fn read_f32(&self, addr: u64) -> Result<f32, SptxError> {
        let a = self.check(addr, 4)?;
        Ok(f32::from_le_bytes(self.bytes[a..a + 4].try_into().expect("width checked")))
    }

    /// Read an `f64` at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the access exceeds the memory.
    pub fn read_f64(&self, addr: u64) -> Result<f64, SptxError> {
        let a = self.check(addr, 8)?;
        Ok(f64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("width checked")))
    }

    /// Read an `i64` at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the access exceeds the memory.
    pub fn read_i64(&self, addr: u64) -> Result<i64, SptxError> {
        let a = self.check(addr, 8)?;
        Ok(i64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("width checked")))
    }

    /// Write an `f32` at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the access exceeds the memory.
    pub fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), SptxError> {
        let a = self.check(addr, 4)?;
        self.bytes[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Write an `f64` at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the access exceeds the memory.
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), SptxError> {
        let a = self.check(addr, 8)?;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Write an `i64` at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the access exceeds the memory.
    pub fn write_i64(&mut self, addr: u64, v: i64) -> Result<(), SptxError> {
        let a = self.check(addr, 8)?;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Copy `src` into memory starting at `addr` (a host-to-device memcpy).
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the region exceeds the memory.
    pub fn write_slice(&mut self, addr: u64, src: &[u8]) -> Result<(), SptxError> {
        let a = self.check(addr, src.len() as u64)?;
        self.bytes[a..a + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Borrow `len` bytes starting at `addr` (a device-to-host memcpy view).
    ///
    /// # Errors
    ///
    /// Returns [`SptxError::OutOfBoundsAccess`] if the region exceeds the memory.
    pub fn read_slice(&self, addr: u64, len: u64) -> Result<&[u8], SptxError> {
        let a = self.check(addr, len)?;
        Ok(&self.bytes[a..a + len as usize])
    }
}

/// Internal register value: all registers are 64 bits wide and dynamically typed
/// between float and integer interpretations, like PTX untyped registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value {
    F(f64),
    I(i64),
}

impl Value {
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Value::F(v) => v,
            Value::I(v) => v as f64,
        }
    }

    pub(crate) fn as_i64(self) -> i64 {
        match self {
            Value::F(v) => v as i64,
            Value::I(v) => v,
        }
    }
}

impl From<Imm> for Value {
    fn from(imm: Imm) -> Self {
        match imm {
            Imm::F(v) => Value::F(v),
            Imm::I(v) => Value::I(v),
        }
    }
}

impl From<Value> for Imm {
    fn from(v: Value) -> Self {
        match v {
            Value::F(v) => Imm::F(v),
            Value::I(v) => Imm::I(v),
        }
    }
}

impl From<ParamValue> for Value {
    fn from(p: ParamValue) -> Self {
        match p {
            ParamValue::Ptr(a) => Value::I(a as i64),
            ParamValue::F64(v) => Value::F(v),
            ParamValue::F32(v) => Value::F(v as f64),
            ParamValue::I64(v) => Value::I(v),
        }
    }
}

/// A float `Bin`/`Mad` result with any NaN made the canonical quiet NaN. The
/// hardware takes a NaN result's sign and payload from its *first* NaN
/// operand and the compiler may commute `+` and `*`, so the separately
/// compiled copies of this arithmetic (the scalar engine, which the constant
/// folder calls too, and the warp lane loops) would otherwise disagree on bits
/// a `st.f64` / `ld.i64` of one slot turns into an integer.
#[inline(always)]
pub(crate) fn canonical_nan(v: f64) -> f64 {
    if v.is_nan() {
        f64::NAN
    } else {
        v
    }
}

/// The most bytes one [`DataSpace::read_with`] or [`DataSpace::write_with`]
/// moves: a warp's 32 lanes of 8 bytes.
pub(crate) const MAX_SPAN: usize = 256;

/// The data space a thread's loads and stores resolve against.
///
/// The sequential path executes directly on [`Memory`]; the block-parallel
/// path executes each block on an overlay (base memory plus the block's own
/// logged writes) so independent blocks never contend. Both paths share the
/// same thread-execution code via this trait. Every access is one span of
/// bytes: a coalesced warp access moves all its lanes' bytes at once.
pub(crate) trait DataSpace {
    /// `f` over the `len` bytes starting at `addr`, at most [`MAX_SPAN`]: lent
    /// in place where the space holds them as one slice, else assembled.
    fn read_with<R>(
        &self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, SptxError>;
    /// Write `bytes` starting at `addr`.
    fn write_span(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SptxError>;
    fn read_f32(&self, addr: u64) -> Result<f32, SptxError> {
        self.read_with(addr, 4, |b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
    fn read_f64(&self, addr: u64) -> Result<f64, SptxError> {
        Ok(f64::from_bits(self.read_i64(addr)? as u64))
    }
    fn read_i64(&self, addr: u64) -> Result<i64, SptxError> {
        self.read_with(addr, 8, |b| i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), SptxError> {
        self.write_span(addr, &v.to_le_bytes())
    }
    fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), SptxError> {
        self.write_span(addr, &v.to_le_bytes())
    }
    fn write_i64(&mut self, addr: u64, v: i64) -> Result<(), SptxError> {
        self.write_span(addr, &v.to_le_bytes())
    }
}

impl DataSpace for Memory {
    #[inline(always)]
    fn read_with<R>(
        &self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, SptxError> {
        Ok(f(self.read_slice(addr, len as u64)?))
    }
    fn write_span(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SptxError> {
        self.write_slice(addr, bytes)
    }
}

/// A position in a [`SpanLog`]: its span and byte counts at that moment.
#[derive(Clone, Copy, Default)]
pub(crate) struct Mark(usize, usize);

/// Byte spans in write order: one `(addr, len)` header per span over one
/// shared blob of bytes, both reused from CTA to CTA. The sequential warp
/// driver logs the bytes each write overwrites and rolls them back newest
/// first; a block-parallel overlay logs the bytes it writes and the merge
/// replays them oldest first.
#[derive(Default)]
pub(crate) struct SpanLog {
    spans: Vec<(u64, u32)>,
    bytes: Vec<u8>,
}

impl SpanLog {
    pub(crate) fn mark(&self) -> Mark {
        Mark(self.spans.len(), self.bytes.len())
    }

    /// Forget every span logged after `m`.
    pub(crate) fn truncate(&mut self, m: Mark) {
        self.spans.truncate(m.0);
        self.bytes.truncate(m.1);
    }

    pub(crate) fn push(&mut self, addr: u64, bytes: &[u8]) {
        self.spans.push((addr, bytes.len() as u32));
        self.bytes.extend_from_slice(bytes);
    }

    /// The spans from `m` on, oldest first, each with its bytes.
    pub(crate) fn iter(&self, m: Mark) -> impl ExactSizeIterator<Item = (u64, &[u8])> {
        let mut at = m.1;
        self.spans[m.0..].iter().map(move |&(addr, len)| {
            at += len as usize;
            (addr, &self.bytes[at - len as usize..at])
        })
    }

    /// The newest span from `m` on that overlaps bytes `lo..hi`, with its
    /// bytes, which the caller may rewrite in place.
    pub(crate) fn newest_overlap(&mut self, m: Mark, lo: u64, hi: u64) -> Option<(u64, &mut [u8])> {
        let mut at = self.bytes.len();
        for &(addr, len) in self.spans[m.0..].iter().rev() {
            at -= len as usize;
            if addr < hi && lo < addr + u64::from(len) {
                return Some((addr, &mut self.bytes[at..at + len as usize]));
            }
        }
        None
    }

    /// Write the spans from `from` up to `to` into `mem`, oldest first.
    pub(crate) fn replay(&self, from: Mark, to: Mark, mem: &mut Memory) {
        let bytes = mem.as_bytes_mut();
        for (addr, b) in self.iter(from).take(to.0 - from.0) {
            // Bounds were checked against the same-sized memory when logged.
            bytes[addr as usize..][..b.len()].copy_from_slice(b);
        }
    }

    /// Write every span back into `mem`, newest first, and empty the log.
    pub(crate) fn rollback(&mut self, mem: &mut Memory) {
        for (addr, len) in self.spans.drain(..).rev() {
            let kept = self.bytes.len() - len as usize;
            mem.as_bytes_mut()[addr as usize..][..len as usize]
                .copy_from_slice(&self.bytes[kept..]);
            self.bytes.truncate(kept);
        }
    }
}

/// Selects how the interpreter executes a launch.
///
/// Both tiers produce byte-identical memory, [`ExecutionProfile`]s and
/// errors; the warp tier is simply faster on the common case. See
/// `DESIGN.md` §16 for the tier architecture and the determinism argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// One thread at a time over the program AST — the reference semantics.
    Scalar,
    /// 32-lane warp lockstep over a predecoded op stream, falling back to
    /// [`Tier::Scalar`] per CTA on cross-lane hazards, faults, or budget
    /// exhaustion, and for programs the decoder rejects.
    #[default]
    Warp,
}

/// The SPTX interpreter.
///
/// Construct with [`Interpreter::new`], optionally tighten the per-launch instruction
/// budget with [`Interpreter::with_budget`] or set the block-level parallelism with
/// [`Interpreter::with_workers`], then call [`Interpreter::run`].
#[derive(Debug, Clone)]
pub struct Interpreter {
    pub(crate) budget: u64,
    /// Block-level parallelism: 0 = all available cores, 1 = sequential.
    pub(crate) workers: u32,
    /// Execution tier; [`Tier::Warp`] by default.
    pub(crate) tier: Tier,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Default per-launch dynamic instruction budget (4 × 10⁹).
    pub const DEFAULT_BUDGET: u64 = 4_000_000_000;

    /// An interpreter with the default instruction budget, using every
    /// available core for block-parallel execution.
    pub fn new() -> Self {
        Self { budget: Self::DEFAULT_BUDGET, workers: 0, tier: Tier::default() }
    }

    /// Set the per-launch instruction budget; execution aborts with
    /// [`SptxError::InstructionBudgetExceeded`] when the whole launch exceeds it.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Set block-level parallelism: `0` means all available cores (the
    /// default), `1` forces the sequential path, and `n > 1` caps the number
    /// of concurrent blocks at `n`. The parallel path merges per-worker
    /// results in `(ctaid, tid)` order, so every setting produces
    /// byte-identical memory, profiles and errors.
    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = workers;
        self
    }

    /// Select the execution [`Tier`]. The default is [`Tier::Warp`]; both
    /// tiers are byte-identical in results, profiles, and errors, so this is
    /// purely a performance/ablation knob.
    pub fn with_tier(mut self, tier: Tier) -> Self {
        self.tier = tier;
        self
    }

    /// The currently selected execution tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The effective worker count: `workers`, with 0 resolved to the host's
    /// available parallelism.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => crate::exec::default_workers(),
            n => n as usize,
        }
    }

    /// Execute `program` over the full grid described by `cfg`, reading and writing
    /// `mem`, and return the launch's [`ExecutionProfile`].
    ///
    /// # Errors
    ///
    /// Returns a [`SptxError`] for invalid launches, parameter-index or bounds
    /// violations, integer division by zero, or budget exhaustion.
    pub fn run(
        &self,
        program: &KernelProgram,
        cfg: &LaunchConfig,
        params: &[ParamValue],
        mem: &mut Memory,
    ) -> Result<ExecutionProfile, SptxError> {
        cfg.validate()?;
        if program.num_params() > params.len() {
            return Err(SptxError::BadParamIndex {
                index: program.num_params() - 1,
                supplied: params.len(),
            });
        }

        let dec = match self.tier {
            Tier::Warp => crate::decode::decode(program),
            Tier::Scalar => None,
        };
        let workers = self.effective_workers();
        if workers > 1 && cfg.grid_dim > 1 {
            crate::parallel::run_parallel(self, program, dec, cfg, params, mem, workers)
        } else {
            crate::warp::run_sequential(self, program, dec, cfg, params, mem)
        }
    }

    /// Run CTA `ctaid` on the scalar engine, thread by thread in tid order,
    /// counting into `tally`. The budget is checked against `tally.executed`,
    /// so the caller primes it with what the launch executed before this CTA.
    pub(crate) fn run_cta_scalar<M: DataSpace>(
        &self,
        program: &KernelProgram,
        cfg: &LaunchConfig,
        params: &[ParamValue],
        mem: &mut M,
        ctaid: u32,
        tally: &mut Tally,
    ) -> Result<(), SptxError> {
        let mut t = Thread {
            cfg,
            params,
            ctaid,
            tid: 0,
            regs: vec![Value::I(0); program.num_regs() as usize],
            preds: vec![false; program.num_preds() as usize],
        };
        for tid in 0..cfg.block_dim {
            // Registers are per-thread; reset them rather than reallocate.
            t.tid = tid;
            t.regs.fill(Value::I(0));
            t.preds.fill(false);
            self.run_thread(program, &mut t, mem, tally)?;
        }
        Ok(())
    }

    fn run_thread<M: DataSpace>(
        &self,
        program: &KernelProgram,
        t: &mut Thread,
        mem: &mut M,
        tally: &mut Tally,
    ) -> Result<(), SptxError> {
        let mut block_id = BlockId(0);
        loop {
            let block = program.block(block_id).expect("validated program");
            tally.block_iters[block_id.0 as usize] += 1;

            for instr in &block.instrs {
                tally.executed += 1;
                if tally.executed > self.budget {
                    return Err(SptxError::InstructionBudgetExceeded { budget: self.budget });
                }
                tally.class_counts[instr.class().index()] += 1;
                t.exec(instr, mem, tally, block_id)?;
            }

            match block.terminator {
                Terminator::Ret => return Ok(()),
                Terminator::Bra(target) => {
                    tally.executed += 1;
                    tally.class_counts[crate::isa::InstrClass::Branch.index()] += 1;
                    block_id = target;
                }
                Terminator::CondBra { pred, if_true, if_false } => {
                    tally.executed += 1;
                    tally.class_counts[crate::isa::InstrClass::Branch.index()] += 1;
                    block_id = if t.preds[pred.0 as usize] { if_true } else { if_false };
                }
            }
            if tally.executed > self.budget {
                return Err(SptxError::InstructionBudgetExceeded { budget: self.budget });
            }
        }
    }
}

/// One scalar thread: its place in the launch and its register file.
struct Thread<'a> {
    cfg: &'a LaunchConfig,
    params: &'a [ParamValue],
    ctaid: u32,
    tid: u32,
    regs: Vec<Value>,
    preds: Vec<bool>,
}

impl Thread<'_> {
    fn exec<M: DataSpace>(
        &mut self,
        instr: &Instr,
        mem: &mut M,
        tally: &mut Tally,
        block_id: BlockId,
    ) -> Result<(), SptxError> {
        let regs = &mut self.regs;
        match instr {
            Instr::Bin { op, ty, dst, a, b } => {
                let av = regs[a.0 as usize];
                let bv = regs[b.0 as usize];
                regs[dst.0 as usize] = eval_bin(*op, *ty, av, bv, block_id)?;
            }
            Instr::Un { op, ty, dst, a } => {
                let av = regs[a.0 as usize];
                regs[dst.0 as usize] = eval_un(*op, *ty, av);
            }
            Instr::Mad { ty, dst, a, b, c } => {
                let (av, bv, cv) = (regs[a.0 as usize], regs[b.0 as usize], regs[c.0 as usize]);
                regs[dst.0 as usize] = eval_mad(*ty, av, bv, cv);
            }
            Instr::MovImm { dst, imm } => regs[dst.0 as usize] = (*imm).into(),
            Instr::Mov { dst, src } => regs[dst.0 as usize] = regs[src.0 as usize],
            Instr::Cvt { to, from, dst, src } => {
                regs[dst.0 as usize] = eval_cvt(*to, *from, regs[src.0 as usize]);
            }
            Instr::Setp { cmp, ty, pred, a, b } => {
                let av = regs[a.0 as usize];
                let bv = regs[b.0 as usize];
                self.preds[pred.0 as usize] = match ty {
                    ScalarType::I64 => compare_ord(*cmp, av.as_i64().cmp(&bv.as_i64())),
                    ScalarType::F32 => {
                        compare_f(*cmp, av.as_f64() as f32 as f64, bv.as_f64() as f32 as f64)
                    }
                    ScalarType::F64 => compare_f(*cmp, av.as_f64(), bv.as_f64()),
                };
            }
            Instr::ReadSpecial { dst, special } => {
                let (cfg, ctaid, tid) = (self.cfg, self.ctaid as i64, self.tid as i64);
                let v = match special {
                    Special::TidX => tid,
                    Special::NTidX => cfg.block_dim as i64,
                    Special::CtaIdX => ctaid,
                    Special::NCtaIdX => cfg.grid_dim as i64,
                    Special::GlobalTid => ctaid * cfg.block_dim as i64 + tid,
                };
                regs[dst.0 as usize] = Value::I(v);
            }
            Instr::LdParam { dst, index } => {
                let p = self.params.get(*index).ok_or(SptxError::BadParamIndex {
                    index: *index,
                    supplied: self.params.len(),
                })?;
                regs[dst.0 as usize] = (*p).into();
            }
            Instr::Ld { ty, dst, base, index, offset } => {
                let addr = effective_addr(regs, *base, *index, *offset, *ty);
                tally.trace.accesses += 1;
                tally.trace.load_bytes += ty.width();
                tally.segments.insert(addr / MEMORY_SEGMENT_BYTES);
                regs[dst.0 as usize] = match ty {
                    ScalarType::F32 => Value::F(mem.read_f32(addr)? as f64),
                    ScalarType::F64 => Value::F(mem.read_f64(addr)?),
                    ScalarType::I64 => Value::I(mem.read_i64(addr)?),
                };
            }
            Instr::St { ty, base, index, offset, src } => {
                let addr = effective_addr(regs, *base, *index, *offset, *ty);
                tally.trace.accesses += 1;
                tally.trace.store_bytes += ty.width();
                tally.segments.insert(addr / MEMORY_SEGMENT_BYTES);
                let v = regs[src.0 as usize];
                match ty {
                    ScalarType::F32 => mem.write_f32(addr, v.as_f64() as f32)?,
                    ScalarType::F64 => mem.write_f64(addr, v.as_f64())?,
                    ScalarType::I64 => mem.write_i64(addr, v.as_i64())?,
                }
            }
        }
        Ok(())
    }
}

fn effective_addr(
    regs: &[Value],
    base: crate::isa::Reg,
    index: Option<crate::isa::Reg>,
    offset: i64,
    ty: ScalarType,
) -> u64 {
    let base_v = regs[base.0 as usize].as_i64();
    let idx_v = index.map_or(0, |r| regs[r.0 as usize].as_i64());
    base_v.wrapping_add(idx_v.wrapping_mul(ty.width() as i64)).wrapping_add(offset) as u64
}

pub(crate) fn eval_bin(
    op: BinOp,
    ty: ScalarType,
    a: Value,
    b: Value,
    block: BlockId,
) -> Result<Value, SptxError> {
    if op.is_bitwise() || ty == ScalarType::I64 {
        let (x, y) = (a.as_i64(), b.as_i64());
        let v = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(SptxError::DivisionByZero { block });
                }
                x.wrapping_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return Err(SptxError::DivisionByZero { block });
                }
                x.wrapping_rem(y)
            }
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
        };
        // Bitwise ops on float-typed values operate on the integer view; arithmetic
        // with an integer type yields an integer.
        return Ok(Value::I(v));
    }
    let (x, y) = (a.as_f64(), b.as_f64());
    let v = match (op, ty) {
        (BinOp::Add, ScalarType::F32) => ((x as f32) + (y as f32)) as f64,
        (BinOp::Sub, ScalarType::F32) => ((x as f32) - (y as f32)) as f64,
        (BinOp::Mul, ScalarType::F32) => ((x as f32) * (y as f32)) as f64,
        (BinOp::Div, ScalarType::F32) => ((x as f32) / (y as f32)) as f64,
        (BinOp::Rem, ScalarType::F32) => ((x as f32) % (y as f32)) as f64,
        (BinOp::Min, ScalarType::F32) => ((x as f32).min(y as f32)) as f64,
        (BinOp::Max, ScalarType::F32) => ((x as f32).max(y as f32)) as f64,
        (BinOp::Add, _) => x + y,
        (BinOp::Sub, _) => x - y,
        (BinOp::Mul, _) => x * y,
        (BinOp::Div, _) => x / y,
        (BinOp::Rem, _) => x % y,
        (BinOp::Min, _) => x.min(y),
        (BinOp::Max, _) => x.max(y),
        (bw, _) => unreachable!("bitwise op {bw:?} handled above"),
    };
    Ok(Value::F(canonical_nan(v)))
}

pub(crate) fn eval_un(op: UnaryOp, ty: ScalarType, a: Value) -> Value {
    if op.is_bitwise() {
        return Value::I(!a.as_i64());
    }
    if ty == ScalarType::I64 && matches!(op, UnaryOp::Neg | UnaryOp::Abs) {
        let x = a.as_i64();
        return Value::I(match op {
            UnaryOp::Neg => x.wrapping_neg(),
            UnaryOp::Abs => x.wrapping_abs(),
            _ => unreachable!(),
        });
    }
    let x = if ty == ScalarType::F32 { a.as_f64() as f32 as f64 } else { a.as_f64() };
    let v = match op {
        UnaryOp::Neg => -x,
        UnaryOp::Abs => x.abs(),
        UnaryOp::Sqrt => x.sqrt(),
        UnaryOp::Exp => x.exp(),
        UnaryOp::Log => x.ln(),
        UnaryOp::Sin => x.sin(),
        UnaryOp::Cos => x.cos(),
        UnaryOp::Not => unreachable!("bitwise handled above"),
    };
    Value::F(if ty == ScalarType::F32 { v as f32 as f64 } else { v })
}

pub(crate) fn eval_mad(ty: ScalarType, a: Value, b: Value, c: Value) -> Value {
    match ty {
        // GPU mad/fma fuses the multiply and add with a single rounding,
        // like `f32::mul_add`.
        ScalarType::F32 => Value::F(canonical_nan(
            (a.as_f64() as f32).mul_add(b.as_f64() as f32, c.as_f64() as f32) as f64,
        )),
        ScalarType::F64 => Value::F(canonical_nan(a.as_f64() * b.as_f64() + c.as_f64())),
        ScalarType::I64 => Value::I(a.as_i64().wrapping_mul(b.as_i64()).wrapping_add(c.as_i64())),
    }
}

/// `cvt.<to>.<from>`: the source is read as `from` says, so a float converted
/// from `i64` truncates first, and an `i64` reaches `f32` in one rounding.
pub(crate) fn eval_cvt(to: ScalarType, from: ScalarType, v: Value) -> Value {
    match (from, to) {
        (_, ScalarType::I64) => Value::I(v.as_i64()),
        (ScalarType::I64, ScalarType::F32) => Value::F(v.as_i64() as f32 as f64),
        (ScalarType::I64, ScalarType::F64) => Value::F(v.as_i64() as f64),
        (_, ScalarType::F32) => Value::F(v.as_f64() as f32 as f64),
        (_, ScalarType::F64) => Value::F(v.as_f64()),
    }
}

pub(crate) fn compare_ord(cmp: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match cmp {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

pub(crate) fn compare_f(cmp: CmpOp, a: f64, b: f64) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{for_loop, ProgramBuilder};
    use crate::isa::InstrClass;

    fn run_simple(
        program: &KernelProgram,
        mem: &mut Memory,
        params: &[ParamValue],
    ) -> ExecutionProfile {
        Interpreter::new().run(program, &LaunchConfig::linear(1, 1), params, mem).unwrap()
    }

    #[test]
    fn memory_round_trips() {
        let mut m = Memory::new(32);
        m.write_f32(0, 1.5).unwrap();
        m.write_f64(8, -2.25).unwrap();
        m.write_i64(16, -7).unwrap();
        assert_eq!(m.read_f32(0).unwrap(), 1.5);
        assert_eq!(m.read_f64(8).unwrap(), -2.25);
        assert_eq!(m.read_i64(16).unwrap(), -7);
    }

    #[test]
    fn memory_bounds_are_enforced() {
        let mut m = Memory::new(8);
        assert!(m.read_f64(1).is_err());
        assert!(m.write_f32(6, 0.0).is_err());
        assert!(m.read_f32(u64::MAX - 1).is_err());
        assert!(m.write_slice(4, &[0; 8]).is_err());
    }

    #[test]
    fn launch_validation() {
        assert!(LaunchConfig::linear(0, 32).validate().is_err());
        assert!(LaunchConfig::linear(4, 0).validate().is_err());
        assert!(LaunchConfig::linear(4, 2048).validate().is_err());
        assert!(LaunchConfig::linear(4, 512).validate().is_ok());
        assert_eq!(LaunchConfig::covering(1000, 512), Ok(LaunchConfig::linear(2, 512)));
        assert_eq!(LaunchConfig::covering(0, 512).unwrap().grid_dim, 1);
        // A grid that would overflow u32 must be rejected, not truncated.
        let huge = LaunchConfig::covering(u64::MAX, 1);
        assert!(matches!(huge, Err(SptxError::BadLaunch(_))));
    }

    #[test]
    fn global_tid_spans_grid() {
        // Each thread writes its global id into its slot.
        let mut b = ProgramBuilder::new("ids");
        let (gtid, base) = (b.reg(), b.reg());
        b.read_special(gtid, Special::GlobalTid)
            .ld_param(base, 0)
            .st_indexed(ScalarType::I64, base, gtid, 0, gtid)
            .ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(6 * 8);
        Interpreter::new()
            .run(&p, &LaunchConfig::linear(3, 2), &[ParamValue::Ptr(0)], &mut mem)
            .unwrap();
        for i in 0..6 {
            assert_eq!(mem.read_i64(i * 8).unwrap(), i as i64);
        }
    }

    #[test]
    fn f32_arithmetic_rounds_to_single_precision() {
        let mut b = ProgramBuilder::new("f32");
        let (x, y, z, base) = (b.reg(), b.reg(), b.reg(), b.reg());
        b.mov_imm_f(x, 1.0e8)
            .mov_imm_f(y, 1.0)
            .binop(BinOp::Add, ScalarType::F32, z, x, y)
            .ld_param(base, 0)
            .st(ScalarType::F64, base, 0, z)
            .ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(8);
        run_simple(&p, &mut mem, &[ParamValue::Ptr(0)]);
        // 1e8 + 1 rounds to 1e8 in f32.
        assert_eq!(mem.read_f64(0).unwrap(), 1.0e8);
    }

    #[test]
    fn division_by_zero_is_an_error_for_ints_not_floats() {
        let mut b = ProgramBuilder::new("idiv");
        let (x, z) = (b.reg(), b.reg());
        b.mov_imm_i(x, 4).mov_imm_i(z, 0).binop(BinOp::Div, ScalarType::I64, x, x, z).ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let err =
            Interpreter::new().run(&p, &LaunchConfig::linear(1, 1), &[], &mut mem).unwrap_err();
        assert!(matches!(err, SptxError::DivisionByZero { .. }));

        let mut b = ProgramBuilder::new("fdiv");
        let (x, z, base) = (b.reg(), b.reg(), b.reg());
        b.mov_imm_f(x, 4.0)
            .mov_imm_f(z, 0.0)
            .binop(BinOp::Div, ScalarType::F64, x, x, z)
            .ld_param(base, 0)
            .st(ScalarType::F64, base, 0, x)
            .ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(8);
        run_simple(&p, &mut mem, &[ParamValue::Ptr(0)]);
        assert!(mem.read_f64(0).unwrap().is_infinite());
    }

    #[test]
    fn budget_catches_infinite_loops() {
        let mut b = ProgramBuilder::new("spin");
        let header = b.bra_new_block();
        b.bra(header);
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let err = Interpreter::new()
            .with_budget(10_000)
            .run(&p, &LaunchConfig::linear(1, 1), &[], &mut mem)
            .unwrap_err();
        assert!(matches!(err, SptxError::InstructionBudgetExceeded { .. }));
    }

    #[test]
    fn profile_counts_classes_and_blocks() {
        let mut b = ProgramBuilder::new("prof");
        let (acc, base) = (b.reg(), b.reg());
        b.mov_imm_f(acc, 0.0);
        let one = b.reg();
        b.mov_imm_f(one, 1.0);
        for_loop(&mut b, 5, |b, _| {
            b.binop(BinOp::Add, ScalarType::F64, acc, acc, one);
        });
        b.ld_param(base, 0).st(ScalarType::F64, base, 0, acc).ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(8);
        let profile = Interpreter::new()
            .run(&p, &LaunchConfig::linear(2, 3), &[ParamValue::Ptr(0)], &mut mem)
            .unwrap();
        // 6 threads × 5 iterations × 1 f64 add.
        assert_eq!(profile.counts.get(InstrClass::Fp64), 30);
        assert_eq!(profile.counts.get(InstrClass::St), 6);
        assert_eq!(profile.threads, 6);
        // The loop body block ran 5 times per thread.
        let body = profile.block_iterations.iter().map(|(_, &n)| n).max().unwrap();
        assert!(body >= 30);
        assert_eq!(mem.read_f64(0).unwrap(), 5.0);
    }

    #[test]
    fn memory_trace_tracks_segments() {
        // Two threads store to addresses 0 and 4096 → 2 unique 128B segments.
        let mut b = ProgramBuilder::new("seg");
        let (gtid, base, addr, scale) = (b.reg(), b.reg(), b.reg(), b.reg());
        b.read_special(gtid, Special::GlobalTid)
            .ld_param(base, 0)
            .mov_imm_i(scale, 4096)
            .binop(BinOp::Mul, ScalarType::I64, addr, gtid, scale)
            .binop(BinOp::Add, ScalarType::I64, addr, addr, base)
            .st(ScalarType::I64, addr, 0, gtid)
            .ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(8192 + 8);
        let profile = Interpreter::new()
            .run(&p, &LaunchConfig::linear(1, 2), &[ParamValue::Ptr(0)], &mut mem)
            .unwrap();
        assert_eq!(profile.memory.unique_segments, 2);
        assert_eq!(profile.memory.accesses, 2);
        assert_eq!(profile.memory.store_bytes, 16);
    }

    #[test]
    fn missing_params_are_reported() {
        let mut b = ProgramBuilder::new("needs2");
        let r = b.reg();
        b.ld_param(r, 1).ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let err = Interpreter::new()
            .run(&p, &LaunchConfig::linear(1, 1), &[ParamValue::I64(0)], &mut mem)
            .unwrap_err();
        assert!(matches!(err, SptxError::BadParamIndex { .. }));
    }

    #[test]
    fn transcendentals_match_std() {
        let mut b = ProgramBuilder::new("trans");
        let (x, base) = (b.reg(), b.reg());
        b.mov_imm_f(x, 0.5)
            .unop(UnaryOp::Exp, ScalarType::F64, x, x)
            .unop(UnaryOp::Log, ScalarType::F64, x, x)
            .unop(UnaryOp::Sqrt, ScalarType::F64, x, x)
            .ld_param(base, 0)
            .st(ScalarType::F64, base, 0, x)
            .ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(8);
        run_simple(&p, &mut mem, &[ParamValue::Ptr(0)]);
        assert!((mem.read_f64(0).unwrap() - 0.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cvt_between_types() {
        let mut b = ProgramBuilder::new("cvt");
        let (i, f, base) = (b.reg(), b.reg(), b.reg());
        b.mov_imm_f(f, 3.7)
            .cvt(ScalarType::I64, ScalarType::F64, i, f)
            .ld_param(base, 0)
            .st(ScalarType::I64, base, 0, i)
            .ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(8);
        run_simple(&p, &mut mem, &[ParamValue::Ptr(0)]);
        assert_eq!(mem.read_i64(0).unwrap(), 3);
    }

    #[test]
    fn min_max_and_shifts() {
        let mut b = ProgramBuilder::new("mix");
        let (x, y, r, base) = (b.reg(), b.reg(), b.reg(), b.reg());
        b.mov_imm_i(x, 5)
            .mov_imm_i(y, 9)
            .binop(BinOp::Max, ScalarType::I64, r, x, y)
            .binop(BinOp::Shl, ScalarType::I64, r, r, x)
            .ld_param(base, 0)
            .st(ScalarType::I64, base, 0, r)
            .ret();
        let p = b.build().unwrap();
        let mut mem = Memory::new(8);
        run_simple(&p, &mut mem, &[ParamValue::Ptr(0)]);
        assert_eq!(mem.read_i64(0).unwrap(), 9 << 5);
    }
}
