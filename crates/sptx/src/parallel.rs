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
//! * **Isolation** — each block executes against an [`OverlayMem`]: a read
//!   copies the launch-entry base memory and patches in the block's own
//!   writes where it overlaps them; a write is logged as a byte span in the
//!   worker's [`SpanLog`]. Blocks therefore never observe each other
//!   mid-launch.
//! * **Deterministic replay** — after all workers finish, each block's spans
//!   are replayed oldest first into the real memory in ascending `ctaid`
//!   order, so a block leaves its bytes as the sequential
//!   `for ctaid { for tid { .. } }` loop would, and overlapping writes of
//!   different blocks resolve last-writer-wins in block order.
//! * **First-error selection** — a worker stops claiming blocks past the
//!   lowest known-faulting `ctaid`; the merge walk replays completed blocks
//!   up to that block, replays its partial spans, and returns its error —
//!   the same error and the same partial memory state the sequential
//!   interpreter produces.
//! * **Exact budget accounting** — the sequential instruction budget is
//!   cumulative across the whole launch. Each parallel block runs under the
//!   full budget (a block can never need more than the launch allows), and
//!   the merge walk re-accumulates per-block counts in `ctaid` order; the
//!   first block whose count crosses the remaining budget is re-executed by
//!   the scalar CTA runner on the merged memory with its count primed at the
//!   cumulative one, so the abort happens at the exact instruction — and with
//!   the exact partial writes — of the sequential run.
//!
//! A block runs in warp lockstep first when the launch has a decoded program;
//! otherwise, or if lockstep aborts, it runs on the scalar CTA runner
//! (`Interpreter::run_cta_scalar`) — the same one the sequential driver uses.
//! Each block counts into its own `Tally`, absorbed into its worker's.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::counters::{ExecutionProfile, Tally};
use crate::decode::DecodedProgram;
use crate::error::SptxError;
use crate::exec::WorkerPool;
use crate::interp::{
    DataSpace, Interpreter, LaunchConfig, Mark, Memory, ParamValue, SpanLog, MAX_SPAN,
};
use crate::program::KernelProgram;
use crate::warp::{run_cta, CtaCounters, WarpExec, WarpStats};

/// The workspace's one integer hasher (splitmix-style finalizer), for maps
/// keyed by integers the program generates itself: the overlay's slot index,
/// the warp tier's store-slot hazard map, and on the request path the host's
/// buffer handles, the allocator's addresses and VP ids. SipHash's defence
/// against chosen keys buys nothing there — no guest picks an inserted key —
/// and costs tens of nanoseconds a lookup.
#[derive(Default)]
pub struct SlotHasher(u64);

/// A `HashMap` keyed by program-generated integers, hashed with [`SlotHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<SlotHasher>>;

impl Hasher for SlotHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        let mut x = n;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        self.0 = x;
    }
}

/// Bound on the spans a block's reads and re-writes scan. The write that
/// would log one more moves the block's bytes into a per-8-byte-slot index,
/// which then takes every write and serves every read for the rest of the
/// block, and is logged back as spans when the block ends: slower per span,
/// never quadratic, and one span per slot however often it is re-written. A
/// coalesced block logs one span per warp store site and re-writes it in
/// place, so the sigmabench workloads stay under it.
const MAX_SPANS: usize = 32;

/// A block's own bytes per 8-byte slot, each with a mask of the bytes set.
type SlotIndex = IntMap<u64, ([u8; 8], u8)>;

/// A block's view of global memory: launch-entry base bytes shadowed by the
/// block's own writes, which are logged as spans for ordered replay.
struct OverlayMem<'a> {
    base: &'a Memory,
    log: &'a mut SpanLog,
    /// Where the block's spans start in `log`.
    start: Mark,
    /// Bytes `lo..hi` cover every byte the block has written.
    lo: u64,
    hi: u64,
    /// Non-empty once the block has crossed [`MAX_SPANS`]; it then holds
    /// all of the block's bytes, and `log` none.
    slots: &'a mut SlotIndex,
}

impl<'a> OverlayMem<'a> {
    fn new(base: &'a Memory, log: &'a mut SpanLog, slots: &'a mut SlotIndex) -> Self {
        slots.clear();
        OverlayMem { base, start: log.mark(), log, lo: u64::MAX, hi: 0, slots }
    }

    /// Forget every write of the block, as if it had not started.
    fn reset(&mut self) {
        self.log.truncate(self.start);
        self.slots.clear();
        (self.lo, self.hi) = (u64::MAX, 0);
    }

    /// End the block: log an indexed block's bytes, one span per run of set
    /// bytes in a slot. Which write of a byte came last no longer matters to
    /// the merge, which replays whole blocks. Returns where the block's spans
    /// start and whether it was indexed.
    fn finish(self) -> (Mark, bool) {
        for (&s, &(bytes, mask)) in self.slots.iter() {
            let mut m = u16::from(mask);
            while m != 0 {
                let (lo, run) = (m.trailing_zeros(), (m >> m.trailing_zeros()).trailing_ones());
                self.log.push(s * 8 + u64::from(lo), &bytes[lo as usize..(lo + run) as usize]);
                m &= !(((1 << run) - 1) << lo);
            }
        }
        (self.start, !self.slots.is_empty())
    }
}

/// The 8-byte slots that bytes `addr..addr + len` touch, each with the range
/// of those bytes within the slot and the first one's offset from `addr`.
fn slots_of(addr: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>, usize)> {
    let end = addr + len as u64;
    (addr >> 3..=(end - 1) >> 3).map(move |s| {
        let (lo, hi) = (addr.max(s << 3), end.min((s << 3) + 8));
        (s, (lo & 7) as usize..((hi - 1) & 7) as usize + 1, (lo - addr) as usize)
    })
}

fn index(slots: &mut SlotIndex, addr: u64, bytes: &[u8]) {
    for (s, r, at) in slots_of(addr, bytes.len()) {
        let slot = slots.entry(s).or_insert(([0; 8], 0));
        for (i, &b) in r.zip(&bytes[at..]) {
            slot.0[i] = b;
            slot.1 |= 1 << i;
        }
    }
}

impl DataSpace for OverlayMem<'_> {
    #[inline(always)]
    fn read_with<R>(
        &self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, SptxError> {
        let end = addr.saturating_add(len as u64);
        if end <= self.lo || self.hi <= addr {
            // No byte of the span has been written by the block.
            return self.base.read_with(addr, len, f);
        }
        let mut buf = [0; MAX_SPAN];
        let out = &mut buf[..len];
        out.copy_from_slice(self.base.read_slice(addr, len as u64)?);
        if self.slots.is_empty() {
            // Oldest first, so the newest write of each byte wins.
            for (a, b) in self.log.iter(self.start) {
                let (lo, hi) = (a.max(addr), (a + b.len() as u64).min(end));
                if lo < hi {
                    out[(lo - addr) as usize..(hi - addr) as usize]
                        .copy_from_slice(&b[(lo - a) as usize..(hi - a) as usize]);
                }
            }
        } else {
            for (s, r, at) in slots_of(addr, len) {
                if let Some((bytes, mask)) = self.slots.get(&s) {
                    for (i, o) in r.zip(&mut out[at..]) {
                        if mask >> i & 1 != 0 {
                            *o = bytes[i];
                        }
                    }
                }
            }
        }
        Ok(f(out))
    }

    fn write_span(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SptxError> {
        self.base.check(addr, bytes.len() as u64)?;
        let end = addr + bytes.len() as u64;
        let overlaps = addr < self.hi && self.lo < end;
        (self.lo, self.hi) = (self.lo.min(addr), self.hi.max(end));
        if self.slots.is_empty() {
            // Re-writing exactly the bytes of the newest span that overlaps
            // them: replay and every later read see the same bytes whether
            // the span is updated in place or a new one is logged.
            if overlaps {
                if let Some((a, old)) = self.log.newest_overlap(self.start, addr, end) {
                    if a == addr && old.len() == bytes.len() {
                        old.copy_from_slice(bytes);
                        return Ok(());
                    }
                }
            }
            if self.log.iter(self.start).len() < MAX_SPANS {
                self.log.push(addr, bytes);
                return Ok(());
            }
            for (a, b) in self.log.iter(self.start) {
                index(self.slots, a, b);
            }
            self.log.truncate(self.start);
        }
        index(self.slots, addr, bytes);
        Ok(())
    }
}

/// Outcome of one block's isolated execution.
struct BlockRecord {
    ctaid: u32,
    /// Dynamic instructions the block executed (terminators included), i.e.
    /// its contribution to the launch-cumulative budget counter.
    instrs: u64,
    /// The block's spans in its worker's log.
    spans: (Mark, Mark),
    error: Option<SptxError>,
    /// The block's `sptx.warp.*` contribution, summed by the merge walk.
    stats: WarpStats,
}

/// Everything one pool participant accumulated across the blocks it claimed.
struct WorkerLog {
    tally: Tally,
    log: SpanLog,
    records: Vec<BlockRecord>,
    /// Blocks whose overlay crossed [`MAX_SPANS`].
    indexed: u64,
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
    let nblocks = program.blocks().len();
    let participants = workers.min(grid as usize);
    let logs: Vec<Mutex<WorkerLog>> = (0..participants)
        .map(|_| {
            Mutex::new(WorkerLog {
                tally: Tally::new(nblocks),
                log: SpanLog::default(),
                records: Vec::new(),
                indexed: 0,
            })
        })
        .collect();
    let next_block = AtomicU32::new(0);
    // Lowest ctaid known to have faulted: blocks past it cannot influence the
    // launch result, so workers stop claiming them. Blocks at or below it are
    // always executed (the counter only ever decreases).
    let min_error = AtomicU32::new(u32::MAX);

    let base: &Memory = mem;
    let task = |slot: usize| {
        let mut guard = logs[slot].lock().expect("worker log poisoned");
        let log = &mut *guard;
        let mut slots = SlotIndex::default();
        let mut warp = dec.map(WarpExec::new);
        let mut cta = CtaCounters::new(nblocks);
        loop {
            let ctaid = next_block.fetch_add(1, Ordering::Relaxed);
            if ctaid >= grid || ctaid > min_error.load(Ordering::Acquire) {
                break;
            }
            let mut overlay = OverlayMem::new(base, &mut log.log, &mut slots);
            cta.reset();

            // Warp-lockstep attempt first: a clean CTA leaves exactly the
            // spans, counters and instruction count the scalar runner would
            // have produced. On abort the overlay and counters are reset and
            // the CTA re-runs scalar, so records and the merge walk are
            // unchanged.
            let mut lockstep_done = false;
            if let Some(we) = warp.as_mut() {
                match run_cta(we, cfg, params, &mut overlay, ctaid, interp.budget, &mut cta) {
                    Ok(()) => lockstep_done = true,
                    Err(cause) => {
                        overlay.reset();
                        cta.reset();
                        cta.stats.fallback_ctas[cause as usize] += 1;
                    }
                }
            }
            let error = if lockstep_done {
                None
            } else {
                interp
                    .run_cta_scalar(program, cfg, params, &mut overlay, ctaid, &mut cta.tally)
                    .err()
            };
            let (start, indexed) = overlay.finish();
            log.indexed += u64::from(indexed);
            let faulted = error.is_some();
            log.records.push(BlockRecord {
                ctaid,
                instrs: cta.tally.executed,
                spans: (start, log.log.mark()),
                error,
                stats: cta.stats,
            });
            log.tally.absorb(&mut cta.tally);
            if faulted {
                min_error.fetch_min(ctaid, Ordering::AcqRel);
            }
        }
    };
    WorkerPool::global().run_scoped(participants, &task);

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
                log.log.replay(rec.spans.0, rec.spans.1, mem);
                cum += rec.instrs;
            }
            (Some(e), true) => {
                // The fault happens before the cumulative budget would, so the
                // block's partial log is exactly the sequential partial state.
                log.log.replay(rec.spans.0, rec.spans.1, mem);
                failed = Some(e.clone());
                break;
            }
            (_, false) => {
                // The cumulative budget runs out somewhere inside this block:
                // re-run just this block on the scalar runner on the merged
                // memory with its count primed at the cumulative one,
                // reproducing the abort at the exact instruction with the
                // exact partial writes.
                let mut rerun = Tally::new(nblocks);
                rerun.executed = cum;
                match interp.run_cta_scalar(program, cfg, params, mem, ctaid, &mut rerun) {
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                    // Unreachable for race-free programs; if a cross-block
                    // race made the parallel count an overestimate, keep the
                    // (authoritative) sequential outcome and continue.
                    Ok(()) => cum = rerun.executed,
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

    let mut total = Tally::new(nblocks);
    let mut indexed = 0u64;
    for mut log in logs {
        total.absorb(&mut log.tally);
        indexed += log.indexed;
    }
    // The merge walk's count, which a re-run block may have corrected.
    total.executed = cum;
    let profile = total.into_profile(cfg);

    let r = sigmavp_telemetry::recorder();
    if r.enabled() {
        r.count("sptx.parallel.launches", 1);
        r.count("sptx.parallel.indexed_blocks", indexed);
    }
    Ok(profile)
}
