//! Stage 2 of the tiered interpreter: warp-lockstep execution.
//!
//! The warp tier runs all 32 threads of a warp in lockstep over the decoded
//! op stream from [`crate::decode`]. A register is a [`Row`]: 32 raw 64-bit
//! lanes plus one bit per lane saying "this lane holds an `f64`". An op reads
//! its source rows where they are: when every active lane of a source holds
//! the type the op reads, the row's bits are the view. Only a row whose active
//! lanes hold the other type, or both, is converted, into one of
//! [`SCRATCH_ROWS`] rows past the program's registers; that is the one place
//! a row is copied. A register op computes **all 32 lanes** from the source
//! rows in a fixed-width loop the compiler vectorises and writes its
//! destination row once, selecting by the active mask; the lanes land in a
//! local array first, because the destination may also be a source. Inactive
//! lanes are computed and discarded: none of the ops computed this way can
//! fault, and the masked write never lets a discarded result reach a
//! register. Ops that can fault or call libm keep a loop over the active
//! lanes only, which reads each lane's sources before writing it; F32 `exp`
//! and `log` run a polynomial on all lanes and call libm only for the active
//! ones it cannot certify ([`un_certified`]). A setp
//! packs its compare bits into the predicate as it compares. Control flow
//! uses a SIMT divergence stack with reconvergence at each branch's immediate
//! post-dominator; predicates are one `u32` per predicate register.
//!
//! Wide memory ops form each lane's address by shift (a width is 4 or 8
//! bytes) and classify the lanes in the same pass, OR-reducing XOR distances
//! from the first active address (uniform) and from where each lane would sit
//! after it (consecutive), under any mask. So a coalesced access is one bounds
//! check and one [`SegmentSet`] insert per 128-byte segment instead of one of
//! each per lane: a load lands in its destination row straight from memory
//! ([`DataSpace::read_with`]), and a store packs its source row into one
//! buffer for one [`DataSpace::write_span`].
//!
//! # Byte-identity with the scalar tier
//!
//! The scalar interpreter runs threads strictly sequentially: tid `t`
//! completes before tid `t + 1` starts. Lockstep reorders instructions
//! *between* lanes of a warp, which is observable only through memory.
//! The tier therefore keeps the following contract:
//!
//! * **Warps commit in tid order.** A CTA's warps run one after another
//!   against the CTA's memory view, so any cross-warp dependence is exactly
//!   sequential.
//! * **Intra-warp hazards abort.** Every store records which lane owns each
//!   4-byte slot it wrote; a load or store touching a slot owned by a
//!   *different* lane aborts the CTA. (Same-lane program order is preserved
//!   by lockstep, so own-slot traffic is exact.) A coalesced store — active
//!   lanes consecutive, first address slot-aligned — is remembered as one
//!   range, a lossless encoding of its slot→lane entries: a later access is
//!   hazard-free without per-lane work when it misses every range or *is* a
//!   recorded range's access (same first address, width and mask). On any
//!   doubt the ranges are flushed into the per-slot map and the exact
//!   per-lane check runs, so the set of CTAs that abort does not depend on
//!   the encoding.
//! * **Any abort falls back to the scalar tier for the whole CTA.** The
//!   CTA's writes are rolled back, its counter deltas discarded, and the CTA
//!   is re-run thread-by-thread by the one scalar CTA runner,
//!   [`Interpreter::run_cta_scalar`] — so faults, partial writes, and budget
//!   exhaustion land at the exact `(ctaid, tid)` and instruction the scalar
//!   tier would produce. Lane faults, hazards, and budget crossings all take
//!   this path, counted by cause ([`Abort`]).
//! * **NaN results are canonical.** The lane loops are a second compiled copy
//!   of the scalar engine's arithmetic, and which operand a NaN result takes
//!   its sign and payload from is the compiler's choice in each. Both pass
//!   float `Bin`/`Mad` results through [`canonical_nan`], so the bits agree.
//! * **Counters are additive and order-insensitive.** Class counts and λ
//!   block iterations advance by the active-lane count per op/visit, and the
//!   memory trace by the active-lane count per access, so the aggregate
//!   equals the scalar tier's per-thread sum. `SegmentSet` is an unordered
//!   union.
//!
//! # Two compiled copies
//!
//! The CTA runner — [`run_cta`]'s body, the warp loop, the ALU and memory
//! ops, the row views, the store tracker and [`SegmentSet::insert`] — is one
//! source body compiled twice: once for the target's baseline (SSE2 on
//! x86-64) and, on x86-64, once more under
//! `#[target_feature(enable = "avx2,fma,bmi1,bmi2,lzcnt,popcnt")]`, where the
//! 32-lane loops become 256-bit vector code and `f32::mul_add` one
//! instruction instead of a libm call. [`run_cta`] picks the copy per CTA
//! from std's cached CPUID result, checking every feature the copy enables;
//! there is no knob. The copies compute the same bits: Rust never contracts
//! `a * b + c` into a fused multiply-add, so `mad.f64` rounds twice in both,
//! `f32::mul_add` is correctly rounded in both (`fmaf` or `vfmadd`), libm
//! calls are the same calls, and every other lane op is an IEEE-exact
//! operation or an integer one. F32 `exp`/`log` polynomials fuse in the AVX2
//! copy only, but a lane is either certified to round to libm's f32 or makes
//! the same libm call. Where `f32::mul_add` is one instruction (the
//! AVX2 copy) `mad.f32` computes every lane; where it is a libm call, the
//! active ones. To bound the duplicated code, the ALU ops (most of it) get
//! one copy per ISA ([`Isa`]) shared by both data spaces, and each run of ALU
//! ops between two memory ops is one call into it; only the warp loop and
//! the memory ops are instantiated per data space, and a row conversion
//! between lane types is a call into one shared copy (it is rare, and
//! inlining it at every op site tripled the code).
//!
//! Budget accounting is block-granular: each visit charges every active lane
//! the block's cost. Since per-lane counts are non-negative, the sequential
//! prefix sum over tids crosses the budget iff the total does — so one
//! total-crossing check per visit both detects exhaustion exactly and bounds
//! runaway loops (the scalar rerun then reproduces the precise abort point).
//!
//! [`run_sequential`] is the single-worker driver for both tiers: with no
//! decoded program ([`Tier::Scalar`](crate::Tier::Scalar), or a program the
//! decoder rejects) every CTA goes straight to the scalar runner, with no undo
//! log.

use crate::counters::{ExecutionProfile, SegmentSet, Tally};
use crate::decode::{DOp, DTerm, DecodedOp, DecodedProgram, EXIT, NO_INDEX};
use crate::error::SptxError;
use crate::interp::{
    canonical_nan, DataSpace, Interpreter, LaunchConfig, Mark, Memory, ParamValue, SpanLog, Value,
    MAX_SPAN, MEMORY_SEGMENT_BYTES,
};
use crate::isa::{BinOp, CmpOp, ScalarType, Special, UnaryOp};
use crate::parallel::IntMap;
use crate::program::KernelProgram;

/// Lanes per warp, matching the CUDA warp size the paper assumes.
pub(crate) const WARP_WIDTH: usize = 32;

const BRANCH_CLASS: usize = 4; // InstrClass::Branch.index(), asserted in tests

/// One value per lane of a warp.
type Lanes<T> = [T; WARP_WIDTH];

/// Iterate the set lane indices of `mask`; the full-mask case takes the
/// unmasked fixed loop, which the compiler unrolls.
macro_rules! for_lanes {
    ($mask:expr, $l:ident, $body:block) => {
        if $mask == u32::MAX {
            for $l in 0..WARP_WIDTH {
                $body
            }
        } else {
            let mut bits = $mask;
            while bits != 0 {
                let $l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                $body
            }
        }
    };
}

/// Why a CTA left lockstep for the scalar tier.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Abort {
    /// A lane touched a 4-byte slot another lane of its warp had stored.
    Hazard,
    /// A lane faulted: division by zero, out-of-bounds access, missing
    /// parameter.
    Fault,
    /// The launch's cumulative instruction budget runs out inside the CTA.
    Budget,
}

impl Abort {
    const COUNTERS: [&'static str; 3] = [
        "sptx.warp.fallback_ctas.hazard",
        "sptx.warp.fallback_ctas.fault",
        "sptx.warp.fallback_ctas.budget",
    ];
}

/// The active mask of the block being executed, expanded per lane: `keep[l]`
/// is all-ones where lane `l` is active, which makes a masked write a
/// branch-free select, and `rank[l]` counts the active lanes below `l`, which
/// is where lane `l` sits in a consecutive access. Built when the mask
/// changes, not per op.
#[derive(Clone, Copy)]
struct Active {
    mask: u32,
    keep: Lanes<u64>,
    rank: Lanes<u64>,
}

impl Active {
    #[inline(always)]
    fn new(mask: u32) -> Self {
        let rank = std::array::from_fn(|l| u64::from((mask & ((1 << l) - 1)).count_ones()));
        Self { mask, keep: lanes_of(mask), rank }
    }
}

/// All-ones in the lanes of `mask`, zero in the others.
#[inline(always)]
fn lanes_of(mask: u32) -> Lanes<u64> {
    std::array::from_fn(|l| 0u64.wrapping_sub(u64::from(mask >> l & 1)))
}

/// One register across the warp: raw 64-bit payloads, and in `fmask` one bit
/// per lane that is set when the lane holds an `f64` (clear: an `i64`). The
/// mask is per lane, not per row, because the arms of a divergent branch can
/// leave floats in some lanes and integers in others.
#[derive(Clone, Copy)]
#[repr(align(32))] // so no 256-bit load or store of a row's lanes splits a cache line
struct Row {
    bits: Lanes<u64>,
    fmask: u32,
}

impl Row {
    /// Integer zero in every lane: the rows' state before the first warp.
    const ZERO: Row = Row { bits: [0; WARP_WIDTH], fmask: 0 };

    /// The row as float bits, `Value::as_f64` per lane. This and
    /// [`Row::ints_converted`] are the one place a row is copied (see
    /// [`view`]).
    #[inline(never)]
    fn floats_converted(&self) -> Lanes<u64> {
        std::array::from_fn(|l| match self.bits[l] {
            b if self.fmask >> l & 1 != 0 => b,
            b => (b as i64 as f64).to_bits(),
        })
    }

    /// The row as integer bits, `Value::as_i64` per lane.
    #[inline(never)]
    fn ints_converted(&self) -> Lanes<u64> {
        std::array::from_fn(|l| match self.bits[l] {
            b if self.fmask >> l & 1 != 0 => f64::from_bits(b) as i64 as u64,
            b => b,
        })
    }

    /// Type the lanes of `mask` by `fmask`, leaving the others' types alone.
    #[inline(always)]
    fn set_types(&mut self, mask: u32, fmask: u32) {
        self.fmask = (self.fmask & !mask) | (fmask & mask);
    }
}

/// Rows past the program's registers, one per operand of the widest op
/// (`mad`): where a source whose active lanes are not all of the type the op
/// reads gets its converted copy.
const SCRATCH_ROWS: usize = 3;

/// Lane types as an `fmask`: every lane a float, or every lane an integer.
const FLOATS: u32 = u32::MAX;
const INTS: u32 = 0;

/// The rows to read registers `src` through, typed as `want` ([`FLOATS`]:
/// `Value::as_f64` per lane, [`INTS`]: `Value::as_i64`): each register itself
/// when its active lanes all hold that type (the usual case, which costs
/// nothing), else scratch row `k` for operand `k`, holding the converted
/// lanes. Only the active lanes are meaningful; an inactive lane of the other
/// type reads as a value the masked write discards.
#[inline(always)]
fn view<const N: usize>(regs: &mut [Row], mut src: [usize; N], mask: u32, want: u32) -> [usize; N] {
    for (k, r) in src.iter_mut().enumerate() {
        if regs[*r].fmask & mask != want & mask {
            *r = convert(regs, *r, k, want);
        }
    }
    src
}

/// Fill scratch row `k` with row `r` converted to `want`'s type, and name it.
/// A call, so each op site carries one lane loop, not one per source type.
#[inline(never)]
fn convert(regs: &mut [Row], r: usize, k: usize, want: u32) -> usize {
    let slot = regs.len() - SCRATCH_ROWS + k;
    let row = &regs[r];
    regs[slot].bits = if want == FLOATS { row.floats_converted() } else { row.ints_converted() };
    slot
}

/// `regs[d] = f(lanes of regs[src])` in the active lanes, typed by `fmask`;
/// the other lanes keep their bits and types. Every lane is computed and the
/// masked select discards the inactive ones, so `f` must not fault or call
/// libm. The sources are read where they are and `d` is written once, after
/// every lane is computed, so `d` may be one of `src`.
#[inline(always)]
fn write_lanes<const N: usize>(
    regs: &mut [Row],
    act: &Active,
    d: usize,
    src: [usize; N],
    fmask: u32,
    f: impl Fn([u64; N]) -> u64,
) {
    // Plain loops, not `array::map`: that one is not always inlined, and a
    // call per lane undoes the vector loop.
    let mut rows = [&[0; WARP_WIDTH]; N];
    for (r, &s) in rows.iter_mut().zip(&src) {
        *r = &regs[s].bits;
    }
    let mut out = [0u64; WARP_WIDTH];
    for (l, o) in out.iter_mut().enumerate() {
        let mut x = [0; N];
        for (x, r) in x.iter_mut().zip(&rows) {
            *x = r[l];
        }
        *o = f(x);
    }
    store_row(&mut regs[d], act, &out, fmask);
}

/// The active lanes of `row` become those of `out`, typed by `fmask`: a plain
/// store under the full mask, a branch-free select otherwise.
#[inline(always)]
fn store_row(row: &mut Row, act: &Active, out: &Lanes<u64>, fmask: u32) {
    if act.mask == u32::MAX {
        row.bits = *out;
    } else {
        for ((o, &v), &k) in row.bits.iter_mut().zip(out).zip(&act.keep) {
            *o = (v & k) | (*o & !k);
        }
    }
    row.set_types(act.mask, fmask);
}

/// Every active lane of `row` becomes `bits`, typed by `fmask`.
#[inline(always)]
fn splat(row: &mut Row, act: &Active, bits: u64, fmask: u32) {
    for (o, &k) in row.bits.iter_mut().zip(&act.keep) {
        *o = (bits & k) | (*o & !k);
    }
    row.set_types(act.mask, fmask);
}

/// [`write_lanes`] over the active lanes only, for the ops that may fault on
/// a discarded lane (integer `div`/`rem`) or call into libm (all but F32
/// `exp`/`log`, see [`un_certified`]), where one costs a full call: a loop of
/// `exp.f64` or `cos.f64` with 1 lane in 32 active ran 2.7x longer over all
/// lanes (32 ms against 12 ms; 1 in 2: 34 against 23 ms) and no faster under
/// a full mask.
#[inline(always)]
fn write_active<const N: usize>(
    regs: &mut [Row],
    act: &Active,
    d: usize,
    src: [usize; N],
    fmask: u32,
    f: impl Fn([u64; N]) -> u64,
) {
    for_lanes!(act.mask, l, {
        let mut x = [0; N];
        for (x, &s) in x.iter_mut().zip(&src) {
            *x = regs[s].bits[l];
        }
        regs[d].bits[l] = f(x);
    });
    regs[d].set_types(act.mask, fmask);
}

/// A runtime [`Value`] as a lane payload and its type bit (splatted).
fn raw(v: Value) -> (u64, u32) {
    match v {
        Value::F(v) => (v.to_bits(), u32::MAX),
        Value::I(v) => (v as u64, 0),
    }
}

/// One SIMT stack frame: `mask` lanes execute from block `next` until control
/// reaches block `reconv`, where they park and the frame below resumes them.
#[derive(Debug, Clone, Copy)]
struct Frame {
    next: u32,
    mask: u32,
    reconv: u32,
}

/// One CTA's counts, kept apart from the launch's so an aborted CTA can be
/// discarded wholesale before the scalar rerun. λ and class counts advance
/// by active lanes.
#[derive(Debug)]
pub(crate) struct CtaCounters {
    pub tally: Tally,
    pub stats: WarpStats,
}

impl CtaCounters {
    pub(crate) fn new(nblocks: usize) -> Self {
        Self { tally: Tally::new(nblocks), stats: WarpStats::default() }
    }

    pub(crate) fn reset(&mut self) {
        self.tally.reset();
        self.stats = WarpStats::default();
    }
}

/// Warp statistics of a CTA or a launch, emitted as `sptx.warp.*` telemetry
/// by the drivers.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WarpStats {
    /// CTAs that aborted lockstep and re-ran on the scalar tier, by
    /// [`Abort`] cause.
    pub fallback_ctas: [u64; 3],
}

impl WarpStats {
    pub(crate) fn absorb(&mut self, other: &WarpStats) {
        for (a, b) in self.fallback_ctas.iter_mut().zip(other.fallback_ctas) {
            *a += b;
        }
    }

    pub(crate) fn emit(&self) {
        let r = sigmavp_telemetry::recorder();
        if r.enabled() {
            r.count("sptx.warp.fallback_ctas", self.fallback_ctas.iter().sum());
            for (name, n) in Abort::COUNTERS.into_iter().zip(self.fallback_ctas) {
                r.count(name, n);
            }
        }
    }
}

/// One coalesced store: the `k`-th active lane of `mask` owns the slots of
/// bytes `first + k * w .. first + (k + 1) * w`, up to `end`. `first` and `w`
/// are multiples of the 4-byte slot, so the byte range is a whole slot range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreRange {
    first: u64,
    end: u64,
    w: u64,
    mask: u32,
}

/// Bound on the linear scan every access makes over the ranges. A store that
/// would add one more flushes them into the per-slot map instead and the warp
/// goes on per lane: slower, never different. A warp holds one range per
/// distinct span it has stored — at most 2 on the sigmabench workloads and 4
/// on the suite kernels (one-off counter, not kept), so neither gets here.
const MAX_RANGES: usize = 8;

/// Which lane owns each 4-byte slot the warp has stored. Coalesced stores are
/// held as [`StoreRange`]s while every access can be judged against them
/// without per-lane work; the first access that cannot flushes them into the
/// per-slot `map`, which then serves the rest of the warp exactly as it
/// always did. Ranges are pairwise disjoint, and `ranges` is non-empty only
/// while `map` is empty.
#[derive(Default)]
struct StoreTracker {
    ranges: Vec<StoreRange>,
    map: IntMap<u64, u8>,
}

impl StoreTracker {
    fn clear(&mut self) {
        self.ranges.clear();
        self.map.clear();
    }

    /// Whether the ranges alone prove bytes `lo..hi` hazard-free: the span
    /// misses every range, or the access is the very one (`key`) a range
    /// recorded, so each lane meets only its own slots.
    #[inline(always)]
    fn ranges_clear(&self, lo: u64, hi: u64, key: Option<StoreRange>) -> bool {
        self.ranges.iter().all(|r| hi <= r.first || r.end <= lo || key == Some(*r))
    }

    fn flush(&mut self) {
        for r in self.ranges.drain(..) {
            let mut slot = r.first >> 2;
            for_lanes!(r.mask, l, {
                for _ in 0..r.w / 4 {
                    self.map.insert(slot, l as u8);
                    slot += 1;
                }
            });
        }
    }

    /// Abort if any active lane loads a slot another lane has stored.
    #[inline(always)]
    fn check_load(&mut self, acc: &Access, mask: u32) -> Result<(), Abort> {
        if self.map.is_empty() {
            if self.ranges.is_empty() {
                return Ok(());
            }
            let (lo, hi) = acc.extent(mask);
            if self.ranges_clear(lo, hi, acc.range(mask)) {
                return Ok(());
            }
            self.flush();
        }
        for_lanes!(mask, l, {
            let a0 = acc.addrs[l] >> 2;
            let a1 = acc.addrs[l].wrapping_add(acc.w - 1) >> 2;
            let mut s = a0;
            while s <= a1 {
                if self.map.get(&s).is_some_and(|&lane| lane != l as u8) {
                    return Err(Abort::Hazard);
                }
                s += 1;
            }
        });
        Ok(())
    }

    /// Record a store's slots, aborting if another lane already owns one. A
    /// cross-lane overlap is a hazard even if the write itself would fault,
    /// so this runs before the data moves.
    #[inline(always)]
    fn note_store(
        &mut self,
        acc: &Access,
        mask: u32,
        coalesced: Option<StoreRange>,
    ) -> Result<(), Abort> {
        if self.map.is_empty() {
            if let Some(key) = coalesced {
                let known = self.ranges.contains(&key);
                if self.ranges_clear(key.first, key.end, Some(key))
                    && (known || self.ranges.len() < MAX_RANGES)
                {
                    if !known {
                        self.ranges.push(key);
                    }
                    return Ok(());
                }
            }
            self.flush();
        }
        for_lanes!(mask, l, {
            let a0 = acc.addrs[l] >> 2;
            let a1 = acc.addrs[l].wrapping_add(acc.w - 1) >> 2;
            let mut s = a0;
            while s <= a1 {
                if self.map.insert(s, l as u8).is_some_and(|prev| prev != l as u8) {
                    return Err(Abort::Hazard);
                }
                s += 1;
            }
        });
        Ok(())
    }
}

/// How a warp-wide access's active lanes are laid out in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Every active lane has this address.
    Uniform(u64),
    /// Each active lane's address follows the previous active lane's by
    /// exactly the access width: bytes `.0 .. .1`, which does not overflow.
    Consecutive(u64, u64),
    Scatter,
}

/// One warp-wide load or store: every lane's effective address (only the
/// active lanes' are meaningful), the access width, and the layout. The
/// addresses live in the warp's reusable buffer, so an access is formed
/// where it is read and never moved.
struct Access<'a> {
    addrs: &'a Lanes<u64>,
    w: u64,
    shape: Shape,
}

/// Write every lane's address, `addr(l)`, into `addrs` and say how the
/// active lanes' addresses are laid out for an access `1 << shift` bytes
/// wide, in one pass over the lanes: OR-reduced XOR distances from the first
/// active address (uniform) and from where each lane of a consecutive access
/// would sit (consecutive).
#[inline(always)]
fn classify(
    addrs: &mut Lanes<u64>,
    act: &Active,
    shift: u32,
    addr: impl Fn(usize) -> u64,
) -> Shape {
    let first = addr(act.mask.trailing_zeros() as usize);
    let (mut uniform, mut consec) = (0, 0);
    for (l, (o, (&k, &r))) in addrs.iter_mut().zip(act.keep.iter().zip(&act.rank)).enumerate() {
        let a = addr(l);
        *o = a;
        uniform |= (a ^ first) & k;
        consec |= (a ^ first.wrapping_add(r << shift)) & k;
    }
    let n = u64::from(act.mask.count_ones());
    if uniform == 0 {
        Shape::Uniform(first)
    } else if let (0, Some(end)) = (consec, first.checked_add(n << shift)) {
        Shape::Consecutive(first, end)
    } else {
        Shape::Scatter
    }
}

impl<'a> Access<'a> {
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn new(
        addrs: &'a mut Lanes<u64>,
        regs: &mut [Row],
        act: &Active,
        base: u16,
        index: u16,
        offset: i64,
        w: u64,
    ) -> Self {
        let mask = act.mask;
        // `w` is 4 or 8: a shift, where a multiply by a width known only at
        // run time is a 64-bit lane multiply, which AVX2 does not have.
        let shift = w.trailing_zeros();
        let offset = offset as u64;
        let [b] = view(regs, [base as usize], mask, INTS);
        let shape = if index == NO_INDEX {
            let b = &regs[b].bits;
            classify(addrs, act, shift, |l| b[l].wrapping_add(offset))
        } else {
            let [b, i] = view(regs, [b, index as usize], mask, INTS);
            let (b, i) = (&regs[b].bits, &regs[i].bits);
            classify(addrs, act, shift, |l| b[l].wrapping_add(i[l] << shift).wrapping_add(offset))
        };
        Access { addrs, w, shape }
    }

    /// A byte span covering every active lane's access (saturating: a span
    /// that would wrap only has to read as "overlaps everything above it").
    #[inline(always)]
    fn extent(&self, mask: u32) -> (u64, u64) {
        match self.shape {
            Shape::Uniform(a) => (a, a.saturating_add(self.w)),
            Shape::Consecutive(lo, hi) => (lo, hi),
            Shape::Scatter => {
                let (mut lo, mut hi) = (u64::MAX, 0);
                for_lanes!(mask, l, {
                    lo = lo.min(self.addrs[l]);
                    hi = hi.max(self.addrs[l]);
                });
                (lo, hi.saturating_add(self.w))
            }
        }
    }

    /// The range this access would be recorded as, if it is consecutive.
    #[inline(always)]
    fn range(&self, mask: u32) -> Option<StoreRange> {
        match self.shape {
            Shape::Consecutive(first, end) => Some(StoreRange { first, end, w: self.w, mask }),
            _ => None,
        }
    }
}

/// Record the segments of `n` consecutive `w`-byte elements from `first`:
/// one insert per distinct segment an element starts in, which leaves the set
/// exactly as the per-lane inserts would.
#[inline(always)]
fn touch_span(segments: &mut SegmentSet, first: u64, n: u64, w: u64) {
    for seg in first / MEMORY_SEGMENT_BYTES..=(first + (n - 1) * w) / MEMORY_SEGMENT_BYTES {
        segments.insert(seg);
    }
}

/// The `k`-th `W`-byte element of `span` into the `k`-th active lane of
/// `row`, through `elem`: a coalesced load lands in its destination row.
#[inline(always)]
fn unpack<const W: usize>(
    span: &[u8],
    row: &mut Lanes<u64>,
    mask: u32,
    elem: impl Fn([u8; W]) -> u64,
) {
    let mut elems = span.chunks_exact(W).map(|c| elem(c.try_into().expect("one element")));
    if mask == u32::MAX {
        for (o, v) in row.iter_mut().zip(elems) {
            *o = v;
        }
    } else {
        for_lanes!(mask, l, {
            row[l] = elems.next().expect("one element per active lane");
        });
    }
}

/// Inverse of [`unpack`]: the `k`-th active lane of `row` becomes the `k`-th
/// element of `span`, so a coalesced store leaves from its source row.
#[inline(always)]
fn pack<const W: usize>(
    span: &mut [u8],
    row: &Lanes<u64>,
    mask: u32,
    elem: impl Fn(u64) -> [u8; W],
) {
    let mut elems = span.chunks_exact_mut(W);
    if mask == u32::MAX {
        for (c, &v) in elems.zip(row) {
            c.copy_from_slice(&elem(v));
        }
    } else {
        for_lanes!(mask, l, {
            elems.next().expect("one element per active lane").copy_from_slice(&elem(row[l]));
        });
    }
}

/// Reusable warp-execution state for one decoded program: register rows,
/// predicate masks, the SIMT stack, the store tracker, the lane addresses of
/// the current access, and the expansion of the last active mask seen. One of
/// these lives per sequential launch or per parallel worker.
pub(crate) struct WarpExec<'a> {
    dec: &'a DecodedProgram,
    regs: Vec<Row>,
    preds: Vec<u32>,
    stack: Vec<Frame>,
    stores: StoreTracker,
    addrs: Lanes<u64>,
    act: Active,
}

impl<'a> WarpExec<'a> {
    pub(crate) fn new(dec: &'a DecodedProgram) -> Self {
        Self {
            dec,
            regs: vec![Row::ZERO; dec.num_regs as usize + SCRATCH_ROWS],
            preds: vec![0; dec.num_preds as usize],
            stack: Vec::with_capacity(8),
            stores: StoreTracker::default(),
            addrs: [0; WARP_WIDTH],
            act: Active::new(u32::MAX),
        }
    }
}

/// What every lane of a CTA's warps shares: the launch, and where in it the
/// warp sits.
struct WarpCtx<'a> {
    cfg: &'a LaunchConfig,
    params: &'a [ParamValue],
    ctaid: u32,
    base_tid: u32,
}

/// Run one CTA (all its warps, in tid order) in lockstep, counting into the
/// zeroed `cta`. `budget` is what the launch has left for this CTA. On `Err`
/// the caller must roll back the CTA's writes, discard its counters, and
/// re-run it on the scalar tier.
///
/// The CTA runs on the host's vector unit when it has one: [`Avx2::detect`]
/// is one cached feature check, and its copy of the runner computes exactly
/// what the portable copy does (module docs, *Two compiled copies*).
pub(crate) fn run_cta<M: DataSpace>(
    exec: &mut WarpExec,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut M,
    ctaid: u32,
    budget: u64,
    cta: &mut CtaCounters,
) -> Result<(), Abort> {
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = Avx2::detect() {
        return isa.run_cta(exec, cfg, params, mem, ctaid, budget, cta);
    }
    run_cta_on(Portable, exec, cfg, params, mem, ctaid, budget, cta)
}

/// The one source body of the CTA runner, compiled once per [`Isa`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_cta_on<I: Isa, M: DataSpace>(
    isa: I,
    exec: &mut WarpExec,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut M,
    ctaid: u32,
    budget: u64,
    cta: &mut CtaCounters,
) -> Result<(), Abort> {
    let nwarps = (cfg.block_dim as usize).div_ceil(WARP_WIDTH);
    for w in 0..nwarps {
        let base_tid = (w * WARP_WIDTH) as u32;
        let lanes = ((cfg.block_dim - base_tid) as usize).min(WARP_WIDTH);
        let full: u32 = if lanes == WARP_WIDTH { u32::MAX } else { (1u32 << lanes) - 1 };
        let ctx = WarpCtx { cfg, params, ctaid, base_tid };
        run_warp(isa, exec, &ctx, mem, full, budget, cta)?;
    }
    Ok(())
}

/// A compiled copy of the lane loops. The CTA runner and the memory ops are
/// inlined into each copy's entry point; [`exec_alu`], which is most of the
/// code and does not depend on the [`DataSpace`], gets one copy per `Isa`.
trait Isa: Copy {
    fn exec_alu(
        self,
        ops: &[DecodedOp],
        regs: &mut [Row],
        preds: &mut [u32],
        act: &Active,
        ctx: &WarpCtx,
    ) -> Result<(), Abort>;
}

/// The x86-64 baseline (or whatever the target compiles for by default).
#[derive(Clone, Copy)]
struct Portable;

impl Isa for Portable {
    #[inline(always)]
    fn exec_alu(
        self,
        ops: &[DecodedOp],
        regs: &mut [Row],
        preds: &mut [u32],
        act: &Active,
        ctx: &WarpCtx,
    ) -> Result<(), Abort> {
        exec_alu_portable(ops, regs, preds, act, ctx)
    }
}

#[inline(never)]
fn exec_alu_portable(
    ops: &[DecodedOp],
    regs: &mut [Row],
    preds: &mut [u32],
    act: &Active,
    ctx: &WarpCtx,
) -> Result<(), Abort> {
    for d in ops {
        exec_alu::<false>(&d.op, regs, preds, act, ctx)?;
    }
    Ok(())
}

/// Proof that the host runs AVX2 with FMA and the BMI/LZCNT/POPCNT bit
/// instructions: only [`Avx2::detect`] makes one, so holding it makes the
/// feature-enabled copies safe to call.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(());

/// Keep in step with [`Avx2::detect`]: every feature enabled here is checked
/// there.
#[cfg(target_arch = "x86_64")]
macro_rules! avx2_features {
    ($item:item) => {
        #[target_feature(enable = "avx2,fma,bmi1,bmi2,lzcnt,popcnt")]
        $item
    };
}

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// `Some` when the host has every feature the copy is compiled with.
    /// std caches the CPUID result, so after the first call this reads one
    /// static word: no syscall, no environment.
    #[inline]
    fn detect() -> Option<Self> {
        let all = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("bmi1")
            && std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("lzcnt")
            && std::arch::is_x86_feature_detected!("popcnt");
        all.then_some(Avx2(()))
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn run_cta<M: DataSpace>(
        self,
        exec: &mut WarpExec,
        cfg: &LaunchConfig,
        params: &[ParamValue],
        mem: &mut M,
        ctaid: u32,
        budget: u64,
        cta: &mut CtaCounters,
    ) -> Result<(), Abort> {
        // SAFETY: `self` exists only if `detect` saw every enabled feature.
        unsafe { run_cta_avx2(self, exec, cfg, params, mem, ctaid, budget, cta) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Isa for Avx2 {
    #[inline(always)]
    fn exec_alu(
        self,
        ops: &[DecodedOp],
        regs: &mut [Row],
        preds: &mut [u32],
        act: &Active,
        ctx: &WarpCtx,
    ) -> Result<(), Abort> {
        // SAFETY: `self` exists only if `detect` saw every enabled feature.
        unsafe { exec_alu_avx2(ops, regs, preds, act, ctx) }
    }
}

#[cfg(target_arch = "x86_64")]
avx2_features! {
    /// The AVX2 copy of the CTA runner. Calling it needs the features it is
    /// compiled with, which the `Avx2` it takes proves.
    #[allow(clippy::too_many_arguments)]
    fn run_cta_avx2<M: DataSpace>(
        isa: Avx2,
        exec: &mut WarpExec,
        cfg: &LaunchConfig,
        params: &[ParamValue],
        mem: &mut M,
        ctaid: u32,
        budget: u64,
        cta: &mut CtaCounters,
    ) -> Result<(), Abort> {
        run_cta_on(isa, exec, cfg, params, mem, ctaid, budget, cta)
    }
}

#[cfg(target_arch = "x86_64")]
avx2_features! {
    /// The AVX2 copy of [`exec_alu`]; only `Avx2::exec_alu` calls it.
    #[inline(never)]
    fn exec_alu_avx2(
        ops: &[DecodedOp],
        regs: &mut [Row],
        preds: &mut [u32],
        act: &Active,
        ctx: &WarpCtx,
    ) -> Result<(), Abort> {
        for d in ops {
            exec_alu::<true>(&d.op, regs, preds, act, ctx)?;
        }
        Ok(())
    }
}

/// Run one warp to completion; `budget` is what the launch has left for this
/// CTA.
#[inline(always)]
fn run_warp<I: Isa, M: DataSpace>(
    isa: I,
    exec: &mut WarpExec,
    ctx: &WarpCtx,
    mem: &mut M,
    full_mask: u32,
    budget: u64,
    cta: &mut CtaCounters,
) -> Result<(), Abort> {
    let dec = exec.dec;
    // No register or predicate is reset: validation rejects a program in
    // which some path reads one before writing it, so a lane always writes
    // its lane of a row before reading it, and what the last warp left in
    // the rows is never read.
    exec.stores.clear();
    exec.stack.clear();
    exec.stack.push(Frame { next: 0, mask: full_mask, reconv: EXIT });

    loop {
        let Some(&Frame { next, mask, reconv }) = exec.stack.last() else {
            return Ok(());
        };
        if mask == 0 || next == reconv || next == EXIT {
            debug_assert!(next != EXIT || mask == 0 || next == reconv);
            exec.stack.pop();
            continue;
        }
        let bi = next as usize;
        let blk = dec.blocks[bi];
        let active = mask.count_ones() as u64;

        cta.tally.block_iters[bi] += active;
        cta.tally.executed += blk.cost * active;
        // One total-crossing check per visit detects exact budget exhaustion
        // (see module docs) and bounds runaway loops.
        if cta.tally.executed > budget {
            return Err(Abort::Budget);
        }

        if exec.act.mask != mask {
            exec.act = Active::new(mask);
        }
        let mut ops = &dec.ops[blk.start as usize..(blk.start + blk.len) as usize];
        while let Some(dop) = ops.first() {
            // A memory op, or the run of ALU ops up to the next one, which
            // the ISA copy executes in one call.
            let is_mem = |d: &DecodedOp| matches!(d.op, DOp::Ld { .. } | DOp::St { .. });
            let n = if is_mem(dop) { 1 } else { ops.iter().take_while(|d| !is_mem(d)).count() };
            let (run, rest) = ops.split_at(n);
            for d in run {
                cta.tally.class_counts[d.class as usize] += active;
            }
            if is_mem(dop) {
                let (regs, addrs) = (&mut exec.regs, &mut exec.addrs);
                exec_mem(&dop.op, regs, &mut exec.stores, addrs, cta, mem, &exec.act)?;
            } else {
                isa.exec_alu(run, &mut exec.regs, &mut exec.preds, &exec.act, ctx)?;
            }
            ops = rest;
        }

        match blk.term {
            DTerm::Ret => {
                for f in exec.stack.iter_mut() {
                    f.mask &= !mask;
                }
            }
            DTerm::Bra(t) => {
                cta.tally.class_counts[BRANCH_CLASS] += active;
                exec.stack.last_mut().expect("frame present").next = t;
            }
            DTerm::CondBra { pred, if_true, if_false } => {
                cta.tally.class_counts[BRANCH_CLASS] += active;
                let taken = exec.preds[pred as usize] & mask;
                let top = exec.stack.last_mut().expect("frame present");
                if taken == mask {
                    top.next = if_true;
                } else if taken == 0 {
                    top.next = if_false;
                } else {
                    let r = blk.reconv;
                    // The current frame parks at the reconvergence point with
                    // the pre-divergence mask; each side that is not already
                    // the reconvergence block gets its own frame.
                    top.next = r;
                    let not_taken = mask & !taken;
                    if if_false != r {
                        exec.stack.push(Frame { next: if_false, mask: not_taken, reconv: r });
                    }
                    if if_true != r {
                        exec.stack.push(Frame { next: if_true, mask: taken, reconv: r });
                    }
                }
            }
        }
    }
}

/// `dst = f(a, b)` over the float view of two rows. The op/type dispatch
/// happens once per warp-op at the call site; the lane loop only touches
/// values.
#[inline(always)]
fn bin_f(
    regs: &mut [Row],
    act: &Active,
    dst: usize,
    a: usize,
    b: usize,
    f: impl Fn(f64, f64) -> f64,
) {
    let [a, b] = view(regs, [a, b], act.mask, FLOATS);
    write_lanes(regs, act, dst, [a, b], FLOATS, |[x, y]| {
        canonical_nan(f(f64::from_bits(x), f64::from_bits(y))).to_bits()
    });
}

/// Integer-view counterpart of [`bin_f`].
#[inline(always)]
fn bin_i(
    regs: &mut [Row],
    act: &Active,
    dst: usize,
    a: usize,
    b: usize,
    f: impl Fn(i64, i64) -> i64,
) {
    let [a, b] = view(regs, [a, b], act.mask, INTS);
    write_lanes(regs, act, dst, [a, b], INTS, |[x, y]| f(x as i64, y as i64) as u64);
}

/// Unary float op over one row; `f` already folds in any F32 round-tripping.
/// `all_lanes` is false for the libm calls, which run on active lanes only.
#[inline(always)]
fn un_f(
    regs: &mut [Row],
    act: &Active,
    dst: usize,
    a: usize,
    all_lanes: bool,
    f: impl Fn(f64) -> f64,
) {
    let [a] = view(regs, [a], act.mask, FLOATS);
    let f = |[x]: [u64; 1]| f(f64::from_bits(x)).to_bits();
    if all_lanes {
        write_lanes(regs, act, dst, [a], FLOATS, f);
    } else {
        write_active(regs, act, dst, [a], FLOATS, f);
    }
}

/// F32 `exp`/`log` on every lane at once: each lane's `poly` result is
/// [`certify`]-ed, and only the active lanes it fails call `libm`, with the
/// round trips of [`eval_un`](crate::interp::eval_un); inactive lanes never
/// do.
#[inline(always)]
fn un_certified(
    regs: &mut [Row],
    act: &Active,
    dst: usize,
    a: usize,
    poly: impl Fn(f64) -> (f64, bool),
    libm: impl Fn(f64) -> f64,
) {
    let [a] = view(regs, [a], act.mask, FLOATS);
    let src = &regs[a].bits;
    let (mut out, mut unsure) = ([0u64; WARP_WIDTH], 0u64);
    for ((o, &x), &k) in out.iter_mut().zip(src).zip(&act.keep) {
        *o = certify(poly(f64::from_bits(x) as f32 as f64));
        unsure |= k & u64::from(*o == UNSURE);
    }
    if unsure != 0 {
        for_lanes!(act.mask, l, {
            if out[l] == UNSURE {
                out[l] = (libm(f64::from_bits(src[l]) as f32 as f64) as f32 as f64).to_bits();
            }
        });
    }
    store_row(&mut regs[dst], act, &out, FLOATS);
}

/// What [`certify`] gives a lane it cannot vouch for: a NaN no result has.
const UNSURE: u64 = u64::MAX;

/// `y` rounded to f32, as `f64` bits, when its input is in the polynomial's
/// domain and no f32 rounding boundary lies within 9 008 f64 ulps of it (the
/// domains keep results f32-normal, where an f64 rounds to f32 at bit 29 with
/// its tie at `1 << 28`); else [`UNSURE`]. 9 008 ulps span `y·(1 ± 1e-12)`,
/// which holds the true value (the polynomials are within 2e-14 of it) and
/// libm's f64 result (within 4 000 ulps of it; glibc's is within one), so
/// all three lie between the same two boundaries and, rounding being
/// monotone, round to the same f32. With no tie in reach, adding half an f32
/// ulp and truncating rounds to nearest.
#[inline(always)]
fn certify((y, in_domain): (f64, bool)) -> u64 {
    const LOW: u64 = (1 << 29) - 1;
    const TIE: i64 = 1 << 28;
    let off = (y.to_bits() & LOW) as i64 - TIE;
    let sure = in_domain && !(-9008..=9008).contains(&off);
    ((y.to_bits() + TIE as u64) & !LOW) | u64::from(!sure).wrapping_neg()
}

/// `a * b + c`, fused where the copy has the instruction (elsewhere
/// `f64::mul_add` is a libm call); the polynomials' bounds hold either way.
#[inline(always)]
fn fma<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `c[0] + c[1]·x + … + c[N-1]·x^(N-1)`, 9 ≤ N ≤ 12, by Estrin's scheme:
/// terms in pairs, then pairs of pairs, so the chain of dependent operations
/// is 4 long, not N.
#[inline(always)]
fn estrin<const FMA: bool, const N: usize>(x: f64, c: [f64; N]) -> f64 {
    let f = fma::<FMA>;
    let (x2, pair) = (x * x, |i: usize| if i + 1 < N { f(c[i + 1], x, c[i]) } else { c[i] });
    let (x4, quad) = (x2 * x2, |i| if i + 2 < N { f(pair(i + 2), x2, pair(i)) } else { pair(i) });
    f(quad(8), x4 * x4, f(quad(4), x4, quad(0)))
}

/// ln 2 split for Cody–Waite reduction: `k * LN2_HI` is exact for |k| < 2^20.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// e^x within 2e-14 relative, and whether x is in the domain |x| < 87, where
/// e^x is an f32 normal (NaN and ±inf are not). x = k·ln 2 + r, |r| ≤ ln 2 /
/// 2, with k rounded by adding 1.5·2^52, whose low mantissa bits then hold
/// it; e^r by its Taylor polynomial of degree 11 (remainder < e^|r|·|r|^12
/// /12! < 1.3e-14); 2^k from exponent bits.
#[inline(always)]
fn exp_poly<const FMA: bool>(x: f64) -> (f64, bool) {
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // 1/n! for n = 0..12.
    const C: [f64; 12] = {
        let (mut c, mut n) = ([1.0; 12], 2);
        while n < 12 {
            (c[n], n) = (c[n - 1] / n as f64, n + 1);
        }
        c
    };
    let t = fma::<FMA>(x, std::f64::consts::LOG2_E, SHIFT);
    let k = t - SHIFT;
    let r = fma::<FMA>(k, -LN2_LO, fma::<FMA>(k, -LN2_HI, x));
    let two_k = f64::from_bits(t.to_bits().wrapping_sub(SHIFT.to_bits()).wrapping_add(1023) << 52);
    (estrin::<FMA, 12>(r, C) * two_k, x.abs() < 87.0)
}

/// ln x within 2e-14 relative, and whether x is in the domain of finite
/// x > 0. x = 2^k·m, m in [√½, √2); ln m = 2·atanh(s), s = (m − 1)/(m + 1),
/// |s| ≤ 0.172, by its series through s^17 (the tail is below 1e-15 of it);
/// k becomes a float through exponent bits, not an integer conversion.
#[inline(always)]
fn log_poly<const FMA: bool>(x: f64) -> (f64, bool) {
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    const C: [f64; 9] =
        [2.0, 2.0 / 3.0, 0.4, 2.0 / 7.0, 2.0 / 9.0, 2.0 / 11.0, 2.0 / 13.0, 2.0 / 15.0, 2.0 / 17.0];
    let ix = x.to_bits().wrapping_add(1.0f64.to_bits() - SQRT_HALF);
    let m = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) + SQRT_HALF);
    let k = f64::from_bits(ix >> 52 | TWO_52.to_bits()) - (TWO_52 + 1023.0);
    let s = (m - 1.0) / (m + 1.0);
    let y = fma::<FMA>(k, LN2_HI, fma::<FMA>(k, LN2_LO, s * estrin::<FMA, 9>(s * s, C)));
    (y, x > 0.0 && x < f64::INFINITY)
}

/// One predicate bit per lane: `cmp` of the lanes of `a` and `b` read
/// through `read`, packed as they are compared.
#[inline(always)]
fn compare<T: PartialOrd>(cmp: CmpOp, a: &Row, b: &Row, read: impl Fn(u64) -> T) -> u32 {
    #[inline(always)]
    fn bits(a: &Row, b: &Row, f: impl Fn(u64, u64) -> bool) -> u32 {
        let mut bits = 0u32;
        for (l, (&x, &y)) in a.bits.iter().zip(&b.bits).enumerate() {
            bits |= u32::from(f(x, y)) << l;
        }
        bits
    }
    match cmp {
        CmpOp::Eq => bits(a, b, |x, y| read(x) == read(y)),
        CmpOp::Ne => bits(a, b, |x, y| read(x) != read(y)),
        CmpOp::Lt => bits(a, b, |x, y| read(x) < read(y)),
        CmpOp::Le => bits(a, b, |x, y| read(x) <= read(y)),
        CmpOp::Gt => bits(a, b, |x, y| read(x) > read(y)),
        CmpOp::Ge => bits(a, b, |x, y| read(x) >= read(y)),
    }
}

/// Every op that does not touch memory. Deliberately not generic over the
/// [`DataSpace`]: the lane loops are most of the tier's code, and the
/// sequential and block-parallel drivers share one copy of them per [`Isa`].
/// `FMA` says the copy is compiled with a fused multiply-add instruction, so
/// `f32::mul_add` is one instruction rather than a libm call.
#[inline(always)]
fn exec_alu<const FMA: bool>(
    op: &DOp,
    regs: &mut [Row],
    preds: &mut [u32],
    act: &Active,
    ctx: &WarpCtx,
) -> Result<(), Abort> {
    let mask = act.mask;
    match *op {
        DOp::Bin { op, ty, dst, a, b } => {
            let (d, a, b) = (dst as usize, a as usize, b as usize);
            use BinOp as B;
            if op.is_bitwise() || ty == ScalarType::I64 {
                match op {
                    B::Add => bin_i(regs, act, d, a, b, |x, y| x.wrapping_add(y)),
                    B::Sub => bin_i(regs, act, d, a, b, |x, y| x.wrapping_sub(y)),
                    B::Mul => bin_i(regs, act, d, a, b, |x, y| x.wrapping_mul(y)),
                    B::Min => bin_i(regs, act, d, a, b, i64::min),
                    B::Max => bin_i(regs, act, d, a, b, i64::max),
                    B::And => bin_i(regs, act, d, a, b, |x, y| x & y),
                    B::Or => bin_i(regs, act, d, a, b, |x, y| x | y),
                    B::Xor => bin_i(regs, act, d, a, b, |x, y| x ^ y),
                    B::Shl => bin_i(regs, act, d, a, b, |x, y| x.wrapping_shl(y as u32 & 63)),
                    B::Shr => bin_i(regs, act, d, a, b, |x, y| x.wrapping_shr(y as u32 & 63)),
                    B::Div | B::Rem => {
                        // Fault-capable: a zero divisor in any active lane
                        // aborts the CTA; the scalar rerun reproduces the
                        // exact error.
                        let [a, b] = view(regs, [a, b], mask, INTS);
                        for_lanes!(mask, l, {
                            if regs[b].bits[l] == 0 {
                                return Err(Abort::Fault);
                            }
                        });
                        let div = matches!(op, B::Div);
                        write_active(regs, act, d, [a, b], INTS, |[x, y]| {
                            let (x, y) = (x as i64, y as i64);
                            (if div { x.wrapping_div(y) } else { x.wrapping_rem(y) }) as u64
                        });
                    }
                }
            } else if matches!(op, B::Rem) {
                // Float `%` is libm's `fmod`: active lanes only.
                let [a, b] = view(regs, [a, b], mask, FLOATS);
                let f32_round = ty == ScalarType::F32;
                write_active(regs, act, d, [a, b], FLOATS, |[x, y]| {
                    let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                    let r = if f32_round { ((x as f32) % (y as f32)) as f64 } else { x % y };
                    canonical_nan(r).to_bits()
                });
            } else if ty == ScalarType::F32 {
                match op {
                    B::Add => bin_f(regs, act, d, a, b, |x, y| ((x as f32) + (y as f32)) as f64),
                    B::Sub => bin_f(regs, act, d, a, b, |x, y| ((x as f32) - (y as f32)) as f64),
                    B::Mul => bin_f(regs, act, d, a, b, |x, y| ((x as f32) * (y as f32)) as f64),
                    B::Div => bin_f(regs, act, d, a, b, |x, y| ((x as f32) / (y as f32)) as f64),
                    B::Min => bin_f(regs, act, d, a, b, |x, y| (x as f32).min(y as f32) as f64),
                    B::Max => bin_f(regs, act, d, a, b, |x, y| (x as f32).max(y as f32) as f64),
                    _ => unreachable!("bitwise and rem handled above"),
                }
            } else {
                match op {
                    B::Add => bin_f(regs, act, d, a, b, |x, y| x + y),
                    B::Sub => bin_f(regs, act, d, a, b, |x, y| x - y),
                    B::Mul => bin_f(regs, act, d, a, b, |x, y| x * y),
                    B::Div => bin_f(regs, act, d, a, b, |x, y| x / y),
                    B::Min => bin_f(regs, act, d, a, b, f64::min),
                    B::Max => bin_f(regs, act, d, a, b, f64::max),
                    _ => unreachable!("bitwise and rem handled above"),
                }
            }
        }
        DOp::Un { op, ty, dst, a } => {
            let (d, a) = (dst as usize, a as usize);
            use UnaryOp as U;
            // F32's round-trip (input and result through f32) is folded into
            // the hoisted closure, matching `eval_un` exactly.
            macro_rules! un_float {
                ($all_lanes:expr, $f:expr) => {{
                    if ty == ScalarType::F32 {
                        un_f(regs, act, d, a, $all_lanes, |x| {
                            let v: f64 = $f(x as f32 as f64);
                            v as f32 as f64
                        })
                    } else {
                        un_f(regs, act, d, a, $all_lanes, $f)
                    }
                }};
            }
            if op.is_bitwise() || ty == ScalarType::I64 && matches!(op, U::Neg | U::Abs) {
                let [a] = view(regs, [a], mask, INTS);
                match op {
                    U::Neg => write_lanes(regs, act, d, [a], INTS, |[x]| x.wrapping_neg()),
                    U::Abs => write_lanes(regs, act, d, [a], INTS, |[x]| (x as i64).unsigned_abs()),
                    _ => write_lanes(regs, act, d, [a], INTS, |[x]| !x),
                }
            } else {
                match op {
                    U::Neg => un_float!(true, |x: f64| -x),
                    U::Abs => un_float!(true, |x: f64| x.abs()),
                    U::Sqrt => un_float!(true, |x: f64| x.sqrt()),
                    U::Exp if ty == ScalarType::F32 => {
                        un_certified(regs, act, d, a, exp_poly::<FMA>, f64::exp)
                    }
                    U::Log if ty == ScalarType::F32 => {
                        un_certified(regs, act, d, a, log_poly::<FMA>, f64::ln)
                    }
                    U::Exp => un_float!(false, |x: f64| x.exp()),
                    U::Log => un_float!(false, |x: f64| x.ln()),
                    U::Sin => un_float!(false, |x: f64| x.sin()),
                    U::Cos => un_float!(false, |x: f64| x.cos()),
                    U::Not => unreachable!("bitwise handled above"),
                }
            }
        }
        DOp::Mad { ty, dst, a, b, c } => {
            let (d, a, b, c) = (dst as usize, a as usize, b as usize, c as usize);
            if ty == ScalarType::I64 {
                let src = view(regs, [a, b, c], mask, INTS);
                write_lanes(regs, act, d, src, INTS, |[x, y, z]| x.wrapping_mul(y).wrapping_add(z));
            } else {
                let src = view(regs, [a, b, c], mask, FLOATS);
                let f32_mad = |[x, y, z]: [u64; 3]| {
                    let f = |v| f64::from_bits(v) as f32;
                    canonical_nan(f(x).mul_add(f(y), f(z)) as f64).to_bits()
                };
                if ty == ScalarType::F32 && FMA {
                    write_lanes(regs, act, d, src, FLOATS, f32_mad);
                } else if ty == ScalarType::F32 {
                    // Without the instruction `f32::mul_add` is a libm call:
                    // active lanes only.
                    write_active(regs, act, d, src, FLOATS, f32_mad);
                } else {
                    write_lanes(regs, act, d, src, FLOATS, |[x, y, z]| {
                        let f = f64::from_bits;
                        canonical_nan(f(x) * f(y) + f(z)).to_bits()
                    });
                }
            }
        }
        DOp::MovImm { dst, val } => {
            let (bits, fmask) = raw(val);
            splat(&mut regs[dst as usize], act, bits, fmask);
        }
        DOp::Mov { dst, src } => {
            if dst != src {
                let fmask = regs[src as usize].fmask;
                write_lanes(regs, act, dst as usize, [src as usize], fmask, |[x]| x);
            }
        }
        DOp::Cvt { to, from, dst, src } => {
            let (d, s) = (dst as usize, src as usize);
            match (from, to) {
                (_, ScalarType::I64) => {
                    let [s] = view(regs, [s], mask, INTS);
                    write_lanes(regs, act, d, [s], INTS, |[x]| x);
                }
                (ScalarType::I64, _) => {
                    let [s] = view(regs, [s], mask, INTS);
                    let f32_round = to == ScalarType::F32;
                    write_lanes(regs, act, d, [s], FLOATS, |[x]| {
                        let x = x as i64;
                        (if f32_round { x as f32 as f64 } else { x as f64 }).to_bits()
                    });
                }
                (_, ScalarType::F32) => {
                    let [s] = view(regs, [s], mask, FLOATS);
                    write_lanes(regs, act, d, [s], FLOATS, |[x]| {
                        (f64::from_bits(x) as f32 as f64).to_bits()
                    });
                }
                (_, ScalarType::F64) => {
                    let [s] = view(regs, [s], mask, FLOATS);
                    write_lanes(regs, act, d, [s], FLOATS, |[x]| x);
                }
            }
        }
        DOp::Setp { cmp, ty, pred, a, b } => {
            let (a, b) = (a as usize, b as usize);
            let bits = if ty == ScalarType::I64 {
                let [a, b] = view(regs, [a, b], mask, INTS);
                compare(cmp, &regs[a], &regs[b], |x| x as i64)
            } else {
                let [a, b] = view(regs, [a, b], mask, FLOATS);
                if ty == ScalarType::F32 {
                    // F32 compares the values after a round-trip through f32.
                    compare(cmp, &regs[a], &regs[b], |x| f64::from_bits(x) as f32)
                } else {
                    compare(cmp, &regs[a], &regs[b], f64::from_bits)
                }
            };
            let p = &mut preds[pred as usize];
            *p = (*p & !mask) | (bits & mask);
        }
        DOp::ReadSpecial { dst, special } => {
            // The value in lane 0 and its step from lane to lane.
            let (lane0, step) = match special {
                Special::TidX => (ctx.base_tid as i64, 1),
                Special::GlobalTid => {
                    (ctx.ctaid as i64 * ctx.cfg.block_dim as i64 + ctx.base_tid as i64, 1)
                }
                Special::NTidX => (ctx.cfg.block_dim as i64, 0),
                Special::CtaIdX => (ctx.ctaid as i64, 0),
                Special::NCtaIdX => (ctx.cfg.grid_dim as i64, 0),
            };
            let row = &mut regs[dst as usize];
            for (l, (o, &k)) in row.bits.iter_mut().zip(&act.keep).enumerate() {
                *o = ((lane0 + step * l as i64) as u64 & k) | (*o & !k);
            }
            row.set_types(mask, INTS);
        }
        DOp::LdParam { dst, index } => {
            let (bits, fmask) = raw((*ctx.params.get(index as usize).ok_or(Abort::Fault)?).into());
            splat(&mut regs[dst as usize], act, bits, fmask);
        }
        DOp::Ld { .. } | DOp::St { .. } => unreachable!("memory ops go to exec_mem"),
    }
    Ok(())
}

/// Loads and stores: the only ops that need the [`DataSpace`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_mem<M: DataSpace>(
    op: &DOp,
    regs: &mut [Row],
    stores: &mut StoreTracker,
    addrs: &mut Lanes<u64>,
    cta: &mut CtaCounters,
    mem: &mut M,
    act: &Active,
) -> Result<(), Abort> {
    let mask = act.mask;
    let n = u64::from(mask.count_ones());
    let fault = |_: SptxError| Abort::Fault;
    match *op {
        DOp::Ld { ty, dst, base, index, offset } => {
            let w = ty.width();
            let acc = Access::new(addrs, regs, act, base, index, offset, w);
            cta.tally.trace.accesses += n;
            cta.tally.trace.load_bytes += w * n;
            stores.check_load(&acc, mask)?;
            let (d, fmask) = (dst as usize, if ty == ScalarType::I64 { INTS } else { FLOATS });
            match acc.shape {
                Shape::Uniform(first) => {
                    cta.tally.segments.insert(first / MEMORY_SEGMENT_BYTES);
                    let bits = load_bits(mem, ty, first).map_err(fault)?;
                    splat(&mut regs[d], act, bits, fmask);
                }
                Shape::Consecutive(first, _) => {
                    // One bounds check covers the whole span, which lands
                    // in the row straight from memory.
                    touch_span(&mut cta.tally.segments, first, n, w);
                    let row = &mut regs[d];
                    mem.read_with(first, (n * w) as usize, |span| {
                        if ty == ScalarType::F32 {
                            unpack(span, &mut row.bits, mask, |b| {
                                (f32::from_le_bytes(b) as f64).to_bits()
                            });
                        } else {
                            unpack(span, &mut row.bits, mask, u64::from_le_bytes);
                        }
                    })
                    .map_err(fault)?;
                    row.set_types(mask, fmask);
                }
                Shape::Scatter => {
                    for_lanes!(mask, l, {
                        cta.tally.segments.insert(acc.addrs[l] / MEMORY_SEGMENT_BYTES);
                        regs[d].bits[l] = load_bits(mem, ty, acc.addrs[l]).map_err(fault)?;
                    });
                    regs[d].set_types(mask, fmask);
                }
            }
        }
        DOp::St { ty, base, index, offset, src } => {
            let w = ty.width();
            let acc = Access::new(addrs, regs, act, base, index, offset, w);
            cta.tally.trace.accesses += n;
            cta.tally.trace.store_bytes += w * n;
            // Coalesced: consecutive and slot-aligned, so no two lanes share
            // a 4-byte slot and the store can be tracked as one range.
            let coalesced = acc.range(mask).filter(|r| r.first % 4 == 0);
            stores.note_store(&acc, mask, coalesced)?;
            let want = if ty == ScalarType::I64 { INTS } else { FLOATS };
            let [src] = view(regs, [src as usize], mask, want);
            let vals = &regs[src].bits;
            // What `write_f32/f64/i64` of a lane's value puts in memory.
            let f32_bytes = |v: u64| (f64::from_bits(v) as f32).to_le_bytes();
            match coalesced {
                Some(StoreRange { first, .. }) => {
                    touch_span(&mut cta.tally.segments, first, n, w);
                    let mut buf = [0; MAX_SPAN];
                    let span = &mut buf[..(n * w) as usize];
                    if ty == ScalarType::F32 {
                        pack(span, vals, mask, f32_bytes);
                    } else {
                        pack(span, vals, mask, u64::to_le_bytes);
                    }
                    mem.write_span(first, span).map_err(fault)?;
                }
                None => {
                    for_lanes!(mask, l, {
                        cta.tally.segments.insert(acc.addrs[l] / MEMORY_SEGMENT_BYTES);
                        let bytes = vals[l].to_le_bytes();
                        let bytes = if ty == ScalarType::F32 {
                            &f32_bytes(vals[l])[..]
                        } else {
                            &bytes[..]
                        };
                        mem.write_span(acc.addrs[l], bytes).map_err(fault)?;
                    });
                }
            }
        }
        _ => unreachable!("only memory ops reach exec_mem"),
    }
    Ok(())
}

/// One element as a lane payload: floats widen to `f64`, like a scalar load.
#[inline(always)]
fn load_bits<M: DataSpace>(mem: &M, ty: ScalarType, addr: u64) -> Result<u64, SptxError> {
    Ok(match ty {
        ScalarType::F32 => (mem.read_f32(addr)? as f64).to_bits(),
        ScalarType::F64 => mem.read_f64(addr)?.to_bits(),
        ScalarType::I64 => mem.read_i64(addr)? as u64,
    })
}

/// Direct-to-[`Memory`] data space for the sequential warp path, logging the
/// bytes each write overwrites, so an aborted CTA can be rolled back before
/// the scalar rerun. Reads pay no overlay cost — they hit `Memory` straight.
struct DirectMem<'a> {
    mem: &'a mut Memory,
    undo: &'a mut SpanLog,
}

impl DataSpace for DirectMem<'_> {
    #[inline(always)]
    fn read_with<R>(
        &self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, SptxError> {
        self.mem.read_with(addr, len, f)
    }
    fn write_span(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SptxError> {
        self.undo.push(addr, self.mem.read_slice(addr, bytes.len() as u64)?);
        self.mem.write_slice(addr, bytes)
    }
}

/// Sequential (single-worker) driver for both tiers: CTAs run one at a time
/// in ctaid order directly against `mem`, so cross-CTA visibility is exactly
/// sequential. With `dec`, a CTA runs in lockstep first and, if it aborts,
/// rolls back; every other CTA runs on the scalar tier.
pub(crate) fn run_sequential(
    interp: &Interpreter,
    program: &KernelProgram,
    dec: Option<&DecodedProgram>,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut Memory,
) -> Result<ExecutionProfile, SptxError> {
    let nblocks = program.blocks().len();
    let mut total = Tally::new(nblocks);
    let mut stats = WarpStats::default();
    let mut warp = dec.map(|d| (WarpExec::new(d), CtaCounters::new(nblocks)));
    let mut undo = SpanLog::default();
    let mut failed = None;

    for ctaid in 0..cfg.grid_dim {
        if let Some((exec, cta)) = warp.as_mut() {
            cta.reset();
            let budget = interp.budget.saturating_sub(total.executed);
            let mut dmem = DirectMem { mem, undo: &mut undo };
            match run_cta(exec, cfg, params, &mut dmem, ctaid, budget, cta) {
                Ok(()) => {
                    undo.truncate(Mark::default());
                    total.absorb(&mut cta.tally);
                    stats.absorb(&cta.stats);
                    continue;
                }
                Err(cause) => {
                    undo.rollback(mem);
                    stats.fallback_ctas[cause as usize] += 1;
                }
            }
        }
        if let Err(e) = interp.run_cta_scalar(program, cfg, params, mem, ctaid, &mut total) {
            failed = Some(e);
            break;
        }
    }
    // A failing launch still says why its CTAs fell back: fault and budget
    // aborts end in exactly its error.
    if dec.is_some() {
        stats.emit();
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(total.into_profile(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::counters::MemoryTraceSummary;
    use crate::isa::{InstrClass, Reg};

    #[test]
    fn branch_class_index_matches_isa() {
        assert_eq!(BRANCH_CLASS, InstrClass::Branch.index());
    }

    /// Everything one CTA leaves behind: its abort cause, its counters, and
    /// the memory image after it.
    type CtaOutcome = (Option<usize>, [u64; 7], Vec<u64>, u64, MemoryTraceSummary, u64, Vec<u8>);

    /// Run every CTA of `program`, in ctaid order, through `run` against one
    /// memory image. An aborted CTA's partial writes stay, so both copies
    /// must also agree on exactly where they stopped.
    fn run_ctas(
        program: &KernelProgram,
        cfg: &LaunchConfig,
        mem: &Memory,
        run: impl Fn(&mut WarpExec, &mut Memory, u32, &mut CtaCounters) -> Result<(), Abort>,
    ) -> Vec<CtaOutcome> {
        let dec = crate::decode::decode(program).expect("test kernels decode");
        let mut exec = WarpExec::new(dec);
        let mut cta = CtaCounters::new(program.blocks().len());
        let mut mem = mem.clone();
        (0..cfg.grid_dim)
            .map(|ctaid| {
                cta.reset();
                let cause = run(&mut exec, &mut mem, ctaid, &mut cta).err().map(|c| c as usize);
                let t = &mut cta.tally;
                let distinct = t.segments.distinct();
                let iters = t.block_iters.clone();
                (
                    cause,
                    t.class_counts,
                    iters,
                    distinct,
                    t.trace.clone(),
                    t.executed,
                    mem.as_bytes().to_vec(),
                )
            })
            .collect()
    }

    /// The portable runner and the AVX2 entry agree CTA by CTA on `program`
    /// (trivially on a host without AVX2, where only the portable copy runs).
    /// Returns how many CTAs aborted, by cause.
    fn assert_copies_agree(
        program: &KernelProgram,
        cfg: &LaunchConfig,
        params: &[ParamValue],
        mem: &Memory,
        budget: u64,
        what: &str,
    ) -> [usize; 3] {
        let portable = run_ctas(program, cfg, mem, |e, m, c, cta| {
            run_cta_on(Portable, e, cfg, params, m, c, budget, cta)
        });
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = Avx2::detect() {
            let accelerated = run_ctas(program, cfg, mem, |e, m, c, cta| {
                isa.run_cta(e, cfg, params, m, c, budget, cta)
            });
            for (ctaid, (p, a)) in portable.iter().zip(&accelerated).enumerate() {
                assert_eq!(p.0, a.0, "{what}: abort cause of CTA {ctaid}");
                assert_eq!(p.1, a.1, "{what}: class counts of CTA {ctaid}");
                assert_eq!(p.2, a.2, "{what}: block iterations of CTA {ctaid}");
                assert_eq!(p.3, a.3, "{what}: distinct segments of CTA {ctaid}");
                assert_eq!(p.4, a.4, "{what}: memory trace of CTA {ctaid}");
                assert_eq!(p.5, a.5, "{what}: executed count of CTA {ctaid}");
                assert!(p.6 == a.6, "{what}: memory bytes after CTA {ctaid}");
            }
        }
        let mut aborts = [0; 3];
        for (cause, ..) in &portable {
            if let Some(c) = cause {
                aborts[*c] += 1;
            }
        }
        aborts
    }

    /// A small xorshift stream: the tests need many programs and inputs, not
    /// a statistical generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        /// A float spread over many magnitudes, both signs, with the odd
        /// zero, infinity and NaN.
        fn float(&mut self) -> f64 {
            match self.below(16) {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NAN,
                _ => {
                    let m = (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    m * 2f64.powi(self.below(40) as i32 - 20)
                }
            }
        }
    }

    /// Bytes of the image [`image`] lays out for `threads` threads: f64, f32
    /// and i64 inputs, a 256-entry table, six 8-byte outputs per thread, and
    /// a second table for scattered stores.
    const TABLE: u64 = 256 * 8;

    fn image(threads: u64, rng: &mut Rng) -> (Memory, [ParamValue; 6]) {
        let (f64s, f32s, i64s) = (0, threads * 8, threads * 12);
        let table = threads * 20;
        let out = table + TABLE;
        let table2 = out + threads * 48;
        let mut mem = Memory::new((table2 + TABLE) as usize);
        for t in 0..threads {
            mem.write_f64(f64s + t * 8, rng.float()).unwrap();
            mem.write_f32(f32s + t * 4, rng.float() as f32).unwrap();
            mem.write_i64(i64s + t * 8, rng.next() as i64 >> rng.below(64)).unwrap();
        }
        for k in 0..256 {
            mem.write_f64(table + k * 8, rng.float()).unwrap();
        }
        let params = [f64s, f32s, i64s, table, out, table2].map(ParamValue::Ptr);
        (mem, params)
    }

    fn ty(sel: u64) -> ScalarType {
        [ScalarType::F32, ScalarType::F64, ScalarType::I64][sel as usize % 3]
    }

    /// A random straight-line-and-diverge kernel over the [`image`] layout:
    /// typed inputs, every ALU op at every type (integer `div`/`rem`
    /// included, so lanes fault), gathers from the table, scattered stores
    /// into the second one (so warps hazard), and a data-dependent branch
    /// whose arms leave lanes of different types in one row.
    fn random_kernel(rng: &mut Rng) -> KernelProgram {
        let mut b = ProgramBuilder::new("copies");
        let (gtid, tid) = (b.reg(), b.reg());
        b.read_special(gtid, Special::GlobalTid).read_special(tid, Special::TidX);
        let p: Vec<Reg> = (0..6).map(|_| b.reg()).collect();
        for (i, &r) in p.iter().enumerate() {
            b.ld_param(r, i);
        }
        let r: Vec<Reg> = (0..6).map(|_| b.reg()).collect();
        b.ld_indexed(ScalarType::F64, r[0], p[0], gtid, 0)
            .ld_indexed(ScalarType::F32, r[1], p[1], gtid, 0)
            .ld_indexed(ScalarType::I64, r[2], p[2], gtid, 0)
            .mov(r[3], gtid)
            .mov_imm_f(r[4], rng.float())
            .mov_imm_i(r[5], rng.next() as i64 >> 40);
        let (idx, k) = (b.reg(), b.reg());
        b.mov_imm_i(k, 255);
        let ops = |b: &mut ProgramBuilder, rng: &mut Rng, n: u64| {
            for _ in 0..n {
                let mut reg = || r[rng.below(6) as usize];
                let (d, x, y, z) = (reg(), reg(), reg(), reg());
                match rng.below(24) {
                    0..=7 => {
                        let op = [
                            BinOp::Add,
                            BinOp::Sub,
                            BinOp::Mul,
                            BinOp::Div,
                            BinOp::Rem,
                            BinOp::Min,
                            BinOp::Max,
                            BinOp::And,
                            BinOp::Or,
                            BinOp::Xor,
                            BinOp::Shl,
                            BinOp::Shr,
                        ][rng.below(12) as usize];
                        b.binop(op, ty(rng.next()), d, x, y);
                    }
                    8 | 9 => {
                        let op = [
                            UnaryOp::Neg,
                            UnaryOp::Abs,
                            UnaryOp::Sqrt,
                            UnaryOp::Exp,
                            UnaryOp::Log,
                            UnaryOp::Sin,
                            UnaryOp::Cos,
                            UnaryOp::Not,
                        ][rng.below(8) as usize];
                        b.unop(op, ty(rng.next()), d, x);
                    }
                    10..=15 => {
                        b.mad(ty(rng.next()), d, x, y, z);
                    }
                    16 | 17 => {
                        b.cvt(ty(rng.next()), ty(rng.next()), d, x);
                    }
                    18..=22 => {
                        b.cvt(ScalarType::I64, ScalarType::I64, idx, x)
                            .binop(BinOp::And, ScalarType::I64, idx, idx, k)
                            .ld_indexed(ty(rng.next()), d, p[3], idx, 0);
                    }
                    _ => {
                        b.cvt(ScalarType::I64, ScalarType::I64, idx, x)
                            .binop(BinOp::And, ScalarType::I64, idx, idx, k)
                            .st_indexed(ty(rng.next()), p[5], idx, 0, y);
                    }
                }
            }
        };
        let (sel, zero, pr) = (b.reg(), b.reg(), b.pred());
        b.mov_imm_i(sel, rng.below(8) as i64)
            .binop(BinOp::And, ScalarType::I64, sel, tid, sel)
            .mov_imm_i(zero, 0)
            .setp(CmpOp::Ne, ScalarType::I64, pr, sel, zero);
        let (then_blk, else_blk, merge) = (b.declare_block(), b.declare_block(), b.declare_block());
        b.cond_bra(pr, then_blk, else_blk);
        b.switch_to(then_blk);
        let n = 1 + rng.below(10);
        ops(&mut b, rng, n);
        b.bra(merge);
        b.switch_to(else_blk);
        let n = rng.below(10);
        ops(&mut b, rng, n);
        b.bra(merge);
        b.switch_to(merge);
        let n = rng.below(6);
        ops(&mut b, rng, n);
        let (stride, addr) = (b.reg(), b.reg());
        b.mov_imm_i(stride, 48).binop(BinOp::Mul, ScalarType::I64, addr, gtid, stride).binop(
            BinOp::Add,
            ScalarType::I64,
            addr,
            addr,
            p[4],
        );
        for (i, &v) in r.iter().enumerate() {
            let t = if i % 2 == 0 { ScalarType::F64 } else { ScalarType::I64 };
            b.st(t, addr, i as i64 * 8, v);
        }
        b.ret();
        b.build().expect("generated kernel is valid")
    }

    #[test]
    fn both_compiled_copies_agree_on_random_kernels() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut aborts, mut ctas) = ([0; 3], 0);
        for case in 0..200 {
            let program = random_kernel(&mut rng);
            let cfg = LaunchConfig::linear(1 + rng.below(4) as u32, 1 + rng.below(100) as u32);
            let (mem, params) = image(cfg.total_threads(), &mut rng);
            let budget = if rng.below(8) == 0 { rng.below(4000) } else { u64::MAX };
            ctas += cfg.grid_dim as usize;
            let a =
                assert_copies_agree(&program, &cfg, &params, &mem, budget, &format!("case {case}"));
            for (t, n) in aborts.iter_mut().zip(a) {
                *t += n;
            }
        }
        // The stream reaches every way out of lockstep, and most CTAs stay.
        assert!(aborts.iter().all(|&n| n > 0), "abort causes {aborts:?}");
        assert!(aborts.iter().sum::<usize>() * 2 < ctas, "{aborts:?} of {ctas} CTAs aborted");
    }

    /// `classify` on hand-made addresses: each mask and layout and the shape
    /// it must come out as. A layout wrongly taken for a scatter changes no
    /// result, only speed, so the differentials cannot see it; this can.
    #[test]
    fn classify_names_every_layout() {
        const JUNK: u64 = 0xdead_beef;
        let shape = |mask: u32, shift: u32, addr: &dyn Fn(u64) -> u64| {
            let want: Lanes<u64> = std::array::from_fn(|l| addr(l as u64));
            let mut got = [0; WARP_WIDTH];
            let shape = classify(&mut got, &Active::new(mask), shift, |l| want[l]);
            assert_eq!(got, want, "addresses of mask {mask:#x}");
            shape
        };
        let full = u32::MAX;
        assert_eq!(shape(full, 3, &|l| 1000 + 8 * l), Shape::Consecutive(1000, 1256));
        assert_eq!(shape(full, 2, &|l| 1000 + 4 * l), Shape::Consecutive(1000, 1128));
        assert_eq!(shape(full, 3, &|l| 1000 + 4 * l), Shape::Scatter);
        assert_eq!(shape(full, 3, &|_| 77), Shape::Uniform(77));
        assert_eq!(shape(full, 3, &|l| 1000 + 8 * l + u64::from(l == 17)), Shape::Scatter);
        assert_eq!(shape(full, 3, &|l| 1000 + 8 * l + 8 * u64::from(l == 31)), Shape::Scatter);
        // A partial last warp, and a contiguous run that starts past lane 0:
        // inactive lanes hold anything.
        let tail = |l| if l < 7 { 1000 + 8 * l } else { JUNK };
        assert_eq!(shape(0x7f, 3, &tail), Shape::Consecutive(1000, 1056));
        let run = |l| if (4..8).contains(&l) { 1000 + 8 * (l - 4) } else { JUNK };
        assert_eq!(shape(0xf0, 3, &run), Shape::Consecutive(1000, 1032));
        assert_eq!(shape(0x7f, 3, &|l| if l < 7 { 5 } else { JUNK }), Shape::Uniform(5));
        assert_eq!(shape(1 << 9, 2, &|l| if l == 9 { 12 } else { JUNK }), Shape::Uniform(12));
        // Scattered active lanes: the k-th active lane must sit k elements on.
        let mask: u32 = 0b1010_0101;
        let kth = |l: u64| match l {
            0 | 2 | 5 | 7 => 1000 + 8 * u64::from((mask & ((1 << l) - 1)).count_ones()),
            _ => JUNK,
        };
        assert_eq!(shape(mask, 3, &kth), Shape::Consecutive(1000, 1032));
        assert_eq!(shape(mask, 3, &|l| 1000 + 8 * l), Shape::Scatter);
        assert_eq!(shape(0b101, 3, &|l| if l == 1 { JUNK } else { 9 }), Shape::Uniform(9));
        // Consecutive only in wrapping arithmetic: the span has no end.
        let near_top = u64::MAX - 15;
        assert_eq!(shape(full, 3, &|l| near_top.wrapping_add(8 * l)), Shape::Scatter);
        assert_eq!(shape(full, 3, &|l| 0u64.wrapping_sub(256) + 8 * l), Shape::Scatter);
        assert_eq!(
            shape(full, 3, &|l| 0u64.wrapping_sub(264) + 8 * l),
            Shape::Consecutive(u64::MAX - 263, u64::MAX - 7)
        );
    }

    /// Suite-style kernels: the shapes the workloads launch, each at a grid
    /// with a partial last warp.
    #[test]
    fn both_compiled_copies_agree_on_suite_kernels() {
        let kernels = [
            // saxpy through `mad.f32`, coalesced both ways.
            "rs r0, gtid\n ldp r1, 0\n ldp r2, 1\n ld.f32 r3, [r1 + r0]\n \
             ld.f32 r4, [r2 + r0]\n mov.f32 r5, 1.75\n mad.f32 r4, r5, r3, r4\n \
             st.f32 [r2 + r0], r4\n ret",
            // Horner's rule in `mad.f64` over a counted loop.
            "rs r0, gtid\n ldp r1, 0\n ldp r2, 4\n ld.f64 r3, [r1 + r0]\n \
             mov.f64 r4, 0.3333333333333333\n mov r5, 0\n mov r6, 9\n mov r7, 1\n bra head\n\
             head:\n setp.lt.i64 p0, r5, r6\n @p0 bra body, done\n\
             body:\n mad.f64 r4, r4, r3, r3\n add.i64 r5, r5, r7\n bra head\n\
             done:\n mov r8, 6\n mul.i64 r9, r0, r8\n st.f64 [r2 + r9], r4\n ret",
            // A gather through a computed index, then an f32 scale.
            "rs r0, gtid\n ldp r1, 3\n ldp r2, 1\n mov r3, 37\n mul.i64 r4, r0, r3\n \
             mov r5, 255\n and.i64 r4, r4, r5\n ld.f64 r6, [r1 + r4]\n \
             cvt.f32.f64 r6, r6\n sqrt.f32 r6, r6\n st.f32 [r2 + r0], r6\n ret",
            // Integer divide by a lane-dependent divisor: lane 0 faults.
            "rs r0, tid.x\n ldp r1, 2\n ld.i64 r2, [r1 + r0]\n div.i64 r3, r2, r0\n \
             st.i64 [r1 + r0], r3\n ret",
            // Every lane stores one slot: a cross-lane hazard.
            "rs r0, gtid\n ldp r1, 5\n st.f64 [r1], r0\n ret",
        ];
        let mut rng = Rng(7);
        for (i, body) in kernels.iter().enumerate() {
            let program = crate::asm::parse(&format!(".kernel k{i}\nentry:\n {body}\n"))
                .unwrap_or_else(|e| panic!("kernel {i}: {e}"));
            let cfg = LaunchConfig::linear(3, 80);
            let (mem, params) = image(cfg.total_threads(), &mut rng);
            assert_copies_agree(&program, &cfg, &params, &mem, u64::MAX, &format!("kernel {i}"));
        }
    }

    /// What a test's destination row holds before an op writes it.
    const JUNK_ROW: Row = Row { bits: [0x7ff8_dead_beef_0000; WARP_WIDTH], fmask: 0x5a5a_5a5a };

    /// F32 `op` of the lanes `xs` (`f64` bits) as one warp-op of a compiled
    /// copy under `mask`: the destination row, which starts as [`JUNK_ROW`].
    fn un_row(isa: impl Isa, op: UnaryOp, xs: &Lanes<u64>, mask: u32) -> Row {
        let mut regs = vec![JUNK_ROW; 2 + SCRATCH_ROWS];
        regs[0] = Row { bits: *xs, fmask: FLOATS };
        let op = DecodedOp { class: 0, op: DOp::Un { op, ty: ScalarType::F32, dst: 1, a: 0 } };
        let cfg = LaunchConfig::linear(1, 32);
        let ctx = WarpCtx { cfg: &cfg, params: &[], ctaid: 0, base_tid: 0 };
        isa.exec_alu(&[op], &mut regs, &mut [], &Active::new(mask), &ctx).expect("no fault");
        regs[1]
    }

    /// `op` of `xs` under `mask` in every compiled copy this host runs.
    fn un_rows(op: UnaryOp, xs: &Lanes<u64>, mask: u32) -> Vec<Row> {
        let mut rows = vec![un_row(Portable, op, xs, mask)];
        #[cfg(target_arch = "x86_64")]
        rows.extend(Avx2::detect().map(|isa| un_row(isa, op, xs, mask)));
        rows
    }

    /// The bits the scalar engine gives F32 `op` of the lane `x`.
    fn reference(op: UnaryOp, x: u64) -> u64 {
        crate::interp::eval_un(op, ScalarType::F32, Value::F(f64::from_bits(x))).as_f64().to_bits()
    }

    /// F32 `exp` and `log` of every lane of `xs` (`f64` bits), 32 at a time
    /// under a full mask, in every compiled copy: the bits `eval_un` gives.
    fn assert_lanes_match_eval_un(xs: &[u64]) {
        for op in [UnaryOp::Exp, UnaryOp::Log] {
            for chunk in xs.chunks(WARP_WIDTH) {
                let lanes = std::array::from_fn(|l| chunk.get(l).copied().unwrap_or(0));
                for row in un_rows(op, &lanes, u32::MAX) {
                    for (l, &x) in chunk.iter().enumerate() {
                        assert_eq!(row.bits[l], reference(op, x), "{op:?} of {x:#018x}");
                    }
                }
            }
        }
    }

    /// The lane path of F32 `exp`/`log` against `eval_un`, bit for bit, over
    /// every 14 983rd f32 bit pattern (a prime stride: every sign, exponent
    /// and many mantissas) and the edges by hand. The full 2^32 sweep is too
    /// long for a unit test; it read 0 mismatches (CHANGES.md).
    #[test]
    fn certified_exp_and_log_have_the_bits_of_libm() {
        let f = |v: f32| (v as f64).to_bits();
        let near =
            |v: f32| [-1i32, 0, 1].map(|d| f(f32::from_bits(v.to_bits().wrapping_add_signed(d))));
        let mut xs: Vec<u64> =
            (0..=u32::MAX).step_by(14_983).map(|b| f(f32::from_bits(b))).collect();
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN].map(f));
        // Quiet and signalling NaNs with payloads, as f64 and from f32.
        xs.extend([
            0x7ff8_0000_0000_0000,
            0xfff8_0000_0000_0001,
            0x7ff0_0000_0000_0001,
            0x7ff4_dead_0000_0000,
        ]);
        xs.extend(
            [0x7fc0_0001, 0xffc0_0000, 0x7f80_0001, 0x7fa0_0000].map(|b| f(f32::from_bits(b))),
        );
        // f32 subnormals, the smallest normal, and their negatives.
        for b in [1, 2, 0x0040_0000, 0x007f_ffff, 0x0080_0000] {
            xs.extend([f(f32::from_bits(b)), f(-f32::from_bits(b))]);
        }
        // `exp`'s overflow and underflow edges, and the edges of its domain.
        for v in [88.722_84, -103.972_08, 87.0, -87.0, 88.0, -88.0] {
            xs.extend(near(v));
        }
        // `log` around 1 and of negatives.
        xs.extend(near(1.0));
        xs.extend([-1.0, -0.5, -3.0e38].map(f));
        assert_lanes_match_eval_un(&xs);

        // The fast path carries the sweep: in each domain all but a few
        // lanes certify (a lane that fell back would pass the check above
        // through libm and prove nothing about the polynomials), and the
        // polynomials are as close to libm's f64 result as the certificate
        // assumes — a sample cannot be relied on to find a boundary case.
        let check = |name: &str, poly: &dyn Fn(f64) -> (f64, bool), libm: fn(f64) -> f64| {
            let (mut ok, mut of, mut worst) = (0, 0, 0f64);
            for x in xs.iter().map(|&x| f64::from_bits(x) as f32 as f64) {
                let (y, in_domain) = poly(x);
                if in_domain {
                    of += 1;
                    ok += usize::from(certify((y, in_domain)) != UNSURE);
                    worst = worst.max(if y == libm(x) { 0.0 } else { (y / libm(x) - 1.0).abs() });
                }
            }
            assert!(of > 10_000 && ok + 5 >= of, "{name}: {ok} of {of} in-domain lanes certified");
            assert!(worst < 2e-14, "{name}: relative error {worst:e}");
        };
        check("exp", &exp_poly::<false>, f64::exp);
        check("log", &log_poly::<false>, f64::ln);
        check("exp, fused", &exp_poly::<true>, f64::exp);
        check("log, fused", &log_poly::<true>, f64::ln);
    }

    /// Inactive lanes holding NaN, negative, huge and infinite inputs leave
    /// the destination's bits and types as they were; the active ones get
    /// `eval_un`'s bits.
    #[test]
    fn exp_and_log_leave_inactive_lanes_alone() {
        let bad = [f64::NAN, -1.0, -0.0, 1e30, f64::INFINITY, f64::NEG_INFINITY, 3e38, -200.0];
        let xs = std::array::from_fn(|l| {
            if l % 3 == 0 { 0.37 * l as f64 - 4.0 } else { bad[l % bad.len()] }.to_bits()
        });
        for mask in [0x4924_9249u32, 1, 1 << 30] {
            for op in [UnaryOp::Exp, UnaryOp::Log] {
                for row in un_rows(op, &xs, mask) {
                    for (l, &x) in xs.iter().enumerate() {
                        let (bits, float) = (row.bits[l], row.fmask >> l & 1);
                        if mask >> l & 1 != 0 {
                            assert_eq!((bits, float), (reference(op, x), 1), "{op:?} lane {l}");
                        } else {
                            assert_eq!((bits, float), (JUNK_ROW.bits[l], JUNK_ROW.fmask >> l & 1));
                        }
                    }
                }
            }
        }
    }

    /// A divergent kernel whose `exp`/`log` arms see NaN, negative, zero,
    /// huge and infinite inputs in their inactive lanes: the same memory on
    /// the scalar tier, the warp tier and both compiled copies.
    #[test]
    fn divergent_exp_and_log_match_the_scalar_tier() {
        let program = crate::asm::parse(
            ".kernel k\nentry:\n rs r0, gtid\n ldp r1, 0\n ldp r2, 4\n ld.f64 r3, [r1 + r0]\n \
             mov.f64 r4, 0.0\n setp.gt.f64 p0, r3, r4\n @p0 bra pos, other\n\
             pos:\n log.f32 r5, r3\n exp.f32 r6, r5\n bra join\n\
             other:\n exp.f32 r5, r3\n log.f32 r6, r3\n bra join\n\
             join:\n mov r7, 6\n mul.i64 r8, r0, r7\n st.f64 [r2 + r8], r5\n \
             st.f64 [r2 + r8 + 8], r6\n ret\n",
        )
        .expect("kernel parses");
        let cfg = LaunchConfig::linear(3, 80);
        let (mem, params) = image(cfg.total_threads(), &mut Rng(11));
        assert_copies_agree(&program, &cfg, &params, &mem, u64::MAX, "divergent exp/log");
        let run = |tier| {
            let mut mem = mem.clone();
            let interp = Interpreter::new().with_tier(tier).with_workers(1);
            interp.run(&program, &cfg, &params, &mut mem).expect("runs");
            mem.as_bytes().to_vec()
        };
        assert!(run(crate::Tier::Scalar) == run(crate::Tier::Warp), "memory after the launch");
    }

    /// Validation rejects a program in which some path reads a register or
    /// predicate before writing it, so a warp never reads what the rows held
    /// before it: CTAs that start from junk rows end exactly like CTAs that
    /// start from zeroed ones.
    #[test]
    fn a_warp_never_reads_what_its_rows_held_before() {
        let mut rng = Rng(0x5eed_1234_5678_9abc);
        for case in 0..100 {
            let program = random_kernel(&mut rng);
            let cfg = LaunchConfig::linear(1 + rng.below(3) as u32, 1 + rng.below(100) as u32);
            let (mem, params) = image(cfg.total_threads(), &mut rng);
            let run = |junk: bool| {
                run_ctas(&program, &cfg, &mem, |e, m, c, cta| {
                    if junk {
                        e.regs.fill(JUNK_ROW);
                        e.preds.fill(0xa5a5_a5a5);
                    }
                    run_cta(e, &cfg, &params, m, c, u64::MAX, cta)
                })
            };
            assert!(run(false) == run(true), "case {case}");
        }
    }
}
