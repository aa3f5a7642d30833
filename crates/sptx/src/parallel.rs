//! Block-parallel grid execution with a deterministic, byte-identical merge.
//!
//! SPTX has no inter-thread communication primitives (no shared memory,
//! barriers or atomics), so thread blocks are independent and can execute
//! concurrently. The contract of this module is that the parallel path is
//! **observationally identical** to the sequential interpreter — same final
//! memory bytes, same [`ExecutionProfile`], same error value — for every
//! program whose blocks do not read locations written by other blocks (the
//! only behaviour the ISA leaves undefined; the sequential interpreter's
//! ordering of such races is an implementation accident, not a guarantee).
//!
//! How the contract is met:
//!
//! * **Isolation** — each block executes against an [`OverlayMem`]: reads hit
//!   the launch-entry base memory unless the block itself wrote the location;
//!   writes go to a private overlay *and* an append-only journal. Blocks
//!   therefore never observe each other mid-launch.
//! * **Deterministic replay** — after all workers finish, journals are
//!   replayed into the real memory in ascending `ctaid` order (entries within
//!   a block are already in `(tid, program)` order), so overlapping writes
//!   resolve exactly as the sequential `for ctaid { for tid { .. } }` loop
//!   would, including last-writer-wins races *between* journal entries of
//!   different blocks.
//! * **First-error selection** — a worker stops claiming blocks past the
//!   lowest known-faulting `ctaid`; the merge walk replays completed blocks
//!   up to that block, replays its partial journal, and returns its error —
//!   the same error and the same partial memory state the sequential
//!   interpreter produces.
//! * **Exact budget accounting** — the sequential instruction budget is
//!   cumulative across the whole launch. Each parallel block runs under the
//!   full budget (a block can never need more than the launch allows), and
//!   the merge walk re-accumulates per-block counts in `ctaid` order; the
//!   first block whose count crosses the remaining budget is re-executed
//!   sequentially on the merged memory with the cumulative count primed, so
//!   the abort happens at the exact instruction — and with the exact partial
//!   writes — of the sequential run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::counters::{ExecutionProfile, MemoryTraceSummary, SegmentSet};
use crate::decode::DecodedProgram;
use crate::error::SptxError;
use crate::exec::WorkerPool;
use crate::interp::{DataSpace, Interpreter, LaunchConfig, Memory, ParamValue, Value};
use crate::isa::BlockId;
use crate::program::KernelProgram;
use crate::warp::{CtaCounters, WarpExec, WarpStats};

/// One journaled global-memory write: up to 8 little-endian bytes at `addr`.
struct JournalEntry {
    addr: u64,
    bytes: [u8; 8],
    width: u8,
}

/// Identity-strength hasher for 8-byte-aligned slot indices (splitmix-style
/// finalizer); cheaper than SipHash on the per-access overlay lookups. Also
/// used by the warp tier's store-slot hazard map.
#[derive(Default)]
pub(crate) struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        let mut x = n;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        self.0 = x;
    }
}

/// Overlay slot: one 8-byte-aligned span of block-private bytes.
#[derive(Clone, Copy)]
struct Slot {
    bytes: [u8; 8],
    mask: u8,
}

type SlotMap = HashMap<u64, Slot, BuildHasherDefault<SlotHasher>>;

/// A block's view of global memory: launch-entry base bytes shadowed by the
/// block's own writes, with every write also journaled for ordered replay.
struct OverlayMem<'a> {
    base: &'a Memory,
    slots: &'a mut SlotMap,
    journal: &'a mut Vec<JournalEntry>,
}

impl OverlayMem<'_> {
    fn read<const W: usize>(&self, addr: u64) -> Result<[u8; W], SptxError> {
        let a = self.base.check(addr, W as u64)?;
        let mut out = [0u8; W];
        out.copy_from_slice(&self.base.as_bytes()[a..a + W]);
        if !self.slots.is_empty() {
            let first = addr >> 3;
            let last = (addr + W as u64 - 1) >> 3;
            for s in first..=last {
                if let Some(slot) = self.slots.get(&s) {
                    for off in 0..8u64 {
                        if slot.mask & (1 << off) != 0 {
                            let p = s * 8 + off;
                            if p >= addr && p < addr + W as u64 {
                                out[(p - addr) as usize] = slot.bytes[off as usize];
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn write(&mut self, addr: u64, src: &[u8]) -> Result<(), SptxError> {
        self.base.check(addr, src.len() as u64)?;
        let mut bytes = [0u8; 8];
        bytes[..src.len()].copy_from_slice(src);
        self.journal.push(JournalEntry { addr, bytes, width: src.len() as u8 });
        let first = addr >> 3;
        let last = (addr + src.len() as u64 - 1) >> 3;
        for s in first..=last {
            let slot = self.slots.entry(s).or_insert(Slot { bytes: [0; 8], mask: 0 });
            for off in 0..8u64 {
                let p = s * 8 + off;
                if p >= addr && p < addr + src.len() as u64 {
                    slot.bytes[off as usize] = src[(p - addr) as usize];
                    slot.mask |= 1 << off;
                }
            }
        }
        Ok(())
    }
}

impl DataSpace for OverlayMem<'_> {
    fn read_f32(&self, addr: u64) -> Result<f32, SptxError> {
        Ok(f32::from_le_bytes(self.read::<4>(addr)?))
    }
    fn read_f64(&self, addr: u64) -> Result<f64, SptxError> {
        Ok(f64::from_le_bytes(self.read::<8>(addr)?))
    }
    fn read_i64(&self, addr: u64) -> Result<i64, SptxError> {
        Ok(i64::from_le_bytes(self.read::<8>(addr)?))
    }
    fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), SptxError> {
        self.write(addr, &v.to_le_bytes())
    }
    fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), SptxError> {
        self.write(addr, &v.to_le_bytes())
    }
    fn write_i64(&mut self, addr: u64, v: i64) -> Result<(), SptxError> {
        self.write(addr, &v.to_le_bytes())
    }
}

/// Outcome of one block's isolated execution.
struct BlockRecord {
    ctaid: u32,
    /// Dynamic instructions the block executed (terminators included), i.e.
    /// its contribution to the launch-cumulative budget counter.
    instrs: u64,
    journal_start: usize,
    journal_len: usize,
    error: Option<SptxError>,
    /// The block's `sptx.warp.*` contribution, summed by the merge walk.
    stats: WarpStats,
}

/// Everything one pool participant accumulated across the blocks it claimed.
struct WorkerLog {
    class_counts: [u64; 7],
    block_iters: Vec<u64>,
    trace: MemoryTraceSummary,
    segments: SegmentSet,
    journal: Vec<JournalEntry>,
    records: Vec<BlockRecord>,
}

impl WorkerLog {
    fn new(program_blocks: usize) -> Self {
        WorkerLog {
            class_counts: [0; 7],
            block_iters: vec![0; program_blocks],
            trace: MemoryTraceSummary::default(),
            segments: SegmentSet::new(),
            journal: Vec::new(),
            records: Vec::new(),
        }
    }
}

/// Execute the grid with up to `workers` concurrent blocks and merge the
/// per-worker results deterministically. See the module docs for the
/// byte-identity argument.
pub(crate) fn run_parallel(
    interp: &Interpreter,
    program: &KernelProgram,
    dec: Option<&DecodedProgram>,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut Memory,
    workers: usize,
) -> Result<ExecutionProfile, SptxError> {
    let grid = cfg.grid_dim;
    let participants = workers.min(grid as usize);
    let logs: Vec<Mutex<WorkerLog>> =
        (0..participants).map(|_| Mutex::new(WorkerLog::new(program.blocks().len()))).collect();
    let next_block = AtomicU32::new(0);
    // Lowest ctaid known to have faulted: blocks past it cannot influence the
    // launch result, so workers stop claiming them. Blocks at or below it are
    // always executed (the counter only ever decreases).
    let min_error = AtomicU32::new(u32::MAX);

    let base: &Memory = mem;
    let task = |slot: usize| {
        let mut guard = logs[slot].lock().expect("worker log poisoned");
        let log = &mut *guard;
        let mut regs = vec![Value::I(0); program.num_regs() as usize];
        let mut preds = vec![false; program.num_preds() as usize];
        let mut slots = SlotMap::default();
        let mut warp = dec.map(|d| (WarpExec::new(d), CtaCounters::new(program.blocks().len())));
        loop {
            let ctaid = next_block.fetch_add(1, Ordering::Relaxed);
            if ctaid >= grid || ctaid > min_error.load(Ordering::Acquire) {
                break;
            }
            slots.clear();
            let journal_start = log.journal.len();
            let mut executed = 0u64;
            let mut error = None;
            let mut stats = WarpStats::default();

            // Warp-lockstep attempt first: a clean CTA leaves exactly the
            // journal, counters and instruction count the scalar loop below
            // would have produced. On abort the overlay is reset and the CTA
            // re-runs scalar, so records and the merge walk are unchanged.
            let mut lockstep_done = false;
            if let (Some(d), Some((we, cc))) = (dec, warp.as_mut()) {
                cc.reset();
                let outcome = {
                    let mut overlay =
                        OverlayMem { base, slots: &mut slots, journal: &mut log.journal };
                    crate::warp::run_cta(
                        we,
                        d,
                        cfg,
                        params,
                        &mut overlay,
                        ctaid,
                        interp.budget,
                        0,
                        cc,
                    )
                };
                match outcome {
                    Ok(()) => {
                        executed = cc.instrs;
                        for (a, b) in log.class_counts.iter_mut().zip(cc.class_counts) {
                            *a += b;
                        }
                        for (a, b) in log.block_iters.iter_mut().zip(&cc.block_iters) {
                            *a += b;
                        }
                        log.trace.accesses += cc.trace.accesses;
                        log.trace.load_bytes += cc.trace.load_bytes;
                        log.trace.store_bytes += cc.trace.store_bytes;
                        log.segments.absorb(std::mem::take(&mut cc.segments));
                        stats.merge_cta(cc);
                        lockstep_done = true;
                    }
                    Err(cause) => {
                        log.journal.truncate(journal_start);
                        slots.clear();
                        stats.fallback_ctas[cause as usize] += 1;
                    }
                }
            }
            if !lockstep_done {
                let mut overlay = OverlayMem { base, slots: &mut slots, journal: &mut log.journal };
                for tid in 0..cfg.block_dim {
                    regs.iter_mut().for_each(|r| *r = Value::I(0));
                    preds.iter_mut().for_each(|p| *p = false);
                    if let Err(e) = interp.run_thread(
                        program,
                        cfg,
                        params,
                        &mut overlay,
                        ctaid,
                        tid,
                        &mut regs,
                        &mut preds,
                        &mut log.class_counts,
                        &mut log.block_iters,
                        &mut log.segments,
                        &mut log.trace,
                        &mut executed,
                    ) {
                        error = Some(e);
                        break;
                    }
                }
            }
            let faulted = error.is_some();
            log.records.push(BlockRecord {
                ctaid,
                instrs: executed,
                journal_start,
                journal_len: log.journal.len() - journal_start,
                error,
                stats,
            });
            if faulted {
                min_error.fetch_min(ctaid, Ordering::AcqRel);
            }
        }
    };
    let tasks = WorkerPool::global().run_scoped(participants, &task);

    let logs: Vec<WorkerLog> =
        logs.into_iter().map(|m| m.into_inner().expect("worker log poisoned")).collect();

    // Index block records by ctaid for the ordered walk. Entries can be
    // missing only past the first faulting block, which the walk never
    // reaches.
    let mut order: Vec<Option<(u32, u32)>> = vec![None; grid as usize];
    for (s, log) in logs.iter().enumerate() {
        for (i, rec) in log.records.iter().enumerate() {
            order[rec.ctaid as usize] = Some((s as u32, i as u32));
        }
    }

    // `sptx.warp.*` covers the blocks the walk reaches: on a failing launch
    // those up to the fault, as sequentially, not what other workers ran past it.
    let mut stats = WarpStats::default();
    let mut failed = None;
    let mut cum = 0u64;
    for ctaid in 0..grid {
        let (s, i) = order[ctaid as usize].expect("blocks before the first fault always execute");
        let log = &logs[s as usize];
        let rec = &log.records[i as usize];
        stats.absorb(&rec.stats);
        let fits = cum.saturating_add(rec.instrs) <= interp.budget;
        match (&rec.error, fits) {
            (None, true) => {
                replay(mem, &log.journal[rec.journal_start..rec.journal_start + rec.journal_len]);
                cum += rec.instrs;
            }
            (Some(e), true) => {
                // The fault happens before the cumulative budget would, so the
                // block's partial journal is exactly the sequential partial
                // state.
                replay(mem, &log.journal[rec.journal_start..rec.journal_start + rec.journal_len]);
                failed = Some(e.clone());
                break;
            }
            (_, false) => {
                // The cumulative budget runs out somewhere inside this block:
                // re-run just this block sequentially on the merged memory
                // with the cumulative count primed, reproducing the abort at
                // the exact instruction with the exact partial writes.
                match rerun_block(interp, program, cfg, params, mem, ctaid, cum) {
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                    // Unreachable for race-free programs; if a cross-block
                    // race made the parallel count an overestimate, keep the
                    // (authoritative) sequential outcome and continue.
                    Ok(new_cum) => cum = new_cum,
                }
            }
        }
    }
    if dec.is_some() {
        stats.emit();
    }
    if let Some(e) = failed {
        return Err(e);
    }

    let mut class_counts = [0u64; 7];
    let mut block_iters = vec![0u64; program.blocks().len()];
    let mut trace = MemoryTraceSummary::default();
    let mut segments = SegmentSet::new();
    let mut journal_bytes = 0u64;
    let mut steals = 0u64;
    for (s, log) in logs.into_iter().enumerate() {
        for (a, b) in class_counts.iter_mut().zip(log.class_counts) {
            *a += b;
        }
        for (a, b) in block_iters.iter_mut().zip(log.block_iters) {
            *a += b;
        }
        trace.load_bytes += log.trace.load_bytes;
        trace.store_bytes += log.trace.store_bytes;
        trace.accesses += log.trace.accesses;
        segments.absorb(log.segments);
        journal_bytes += (log.journal.len() * std::mem::size_of::<JournalEntry>()) as u64;
        if s != 0 {
            steals += log.records.len() as u64;
        }
    }
    trace.unique_segments = segments.distinct();

    let mut profile = ExecutionProfile::new();
    for (c, n) in crate::isa::InstrClass::ALL.iter().zip(class_counts.iter()) {
        profile.counts.add(*c, *n);
    }
    for (i, n) in block_iters.iter().enumerate() {
        if *n > 0 {
            profile.block_iterations.insert(BlockId(i as u32), *n);
        }
    }
    profile.memory = trace;
    profile.threads = cfg.total_threads();

    let r = sigmavp_telemetry::recorder();
    if r.enabled() {
        r.count("sptx.launches", 1);
        r.count("sptx.instructions_executed", cum);
        r.count("sptx.parallel.launches", 1);
        r.count("sptx.parallel.tasks", tasks as u64);
        r.count("sptx.parallel.blocks", grid as u64);
        r.count("sptx.parallel.steals", steals);
        r.count("sptx.parallel.journal_bytes", journal_bytes);
    }
    Ok(profile)
}

fn replay(mem: &mut Memory, entries: &[JournalEntry]) {
    let bytes = mem.as_bytes_mut();
    for e in entries {
        // Bounds were checked against the same-sized base at execution time.
        let a = e.addr as usize;
        let w = e.width as usize;
        bytes[a..a + w].copy_from_slice(&e.bytes[..w]);
    }
}

/// Sequentially re-execute one block on the merged memory with the launch's
/// cumulative instruction count primed at `cum`, returning the updated count
/// (or, normally, the budget/fault error at its exact sequential position).
fn rerun_block(
    interp: &Interpreter,
    program: &KernelProgram,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut Memory,
    ctaid: u32,
    cum: u64,
) -> Result<u64, SptxError> {
    let mut regs = vec![Value::I(0); program.num_regs() as usize];
    let mut preds = vec![false; program.num_preds() as usize];
    let mut class_counts = [0u64; 7];
    let mut block_iters = vec![0u64; program.blocks().len()];
    let mut segments = SegmentSet::new();
    let mut trace = MemoryTraceSummary::default();
    let mut executed = cum;
    for tid in 0..cfg.block_dim {
        regs.iter_mut().for_each(|r| *r = Value::I(0));
        preds.iter_mut().for_each(|p| *p = false);
        interp.run_thread(
            program,
            cfg,
            params,
            mem,
            ctaid,
            tid,
            &mut regs,
            &mut preds,
            &mut class_counts,
            &mut block_iters,
            &mut segments,
            &mut trace,
            &mut executed,
        )?;
    }
    Ok(executed)
}
