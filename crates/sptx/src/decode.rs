//! Stage 1 of the tiered interpreter: predecoding kernels into flat op streams.
//!
//! The scalar interpreter walks the [`KernelProgram`] AST per thread: every
//! executed instruction re-reads an `Instr` enum with `Reg`/`Pred` wrappers,
//! re-derives its [`InstrClass`] and re-matches `Option<Reg>` index operands.
//! The warp tier instead lowers each program **once** into a
//! [`DecodedProgram`]: a flat, cache-friendly stream of [`DOp`]s with operands
//! pre-resolved to dense `u16` register indices, immediates inlined as runtime
//! [`Value`]s, per-op classes precomputed, and branch targets patched to block
//! offsets in the stream. ΣVP registers each kernel once and launches it by
//! handle, so the lowering belongs to the program: [`decode`] stores it in the
//! program's own slot on the first warp launch, and every later launch of that
//! program reads it back without a lookup, a lock or a hash.
//!
//! The decoder also computes the per-block **immediate post-dominator**, which
//! the warp tier uses as the reconvergence point for divergent branches (see
//! [`crate::warp`]). Blocks that cannot reach a `ret` (infinite-loop arms)
//! reconverge at the virtual exit ([`EXIT`]): their lanes simply run until
//! they retire or the instruction budget aborts the warp.

use std::sync::Arc;

use crate::interp::Value;
use crate::isa::{BinOp, CmpOp, Instr, ScalarType, Special, Terminator, UnaryOp};
use crate::program::KernelProgram;

/// Sentinel block offset for the virtual exit node: reaching it means the
/// lane retired. Used both as a reconvergence point for branches with no
/// common post-dominator and as the "no target" marker.
pub(crate) const EXIT: u32 = u32::MAX;

/// A predecoded instruction: operands resolved to dense indices, immediates
/// inlined, and the [`InstrClass`](crate::isa::InstrClass) index precomputed
/// so profiling is one array add per op instead of a per-lane rederivation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedOp {
    /// `InstrClass::index()` of this op.
    pub class: u8,
    /// The operation itself.
    pub op: DOp,
}

/// The flattened instruction forms executed by the warp tier. Mirrors
/// [`Instr`] exactly — the lowering is purely representational, never
/// semantic, which is what keeps the tiers byte-identical.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DOp {
    /// `dst = a <op> b`.
    Bin { op: BinOp, ty: ScalarType, dst: u16, a: u16, b: u16 },
    /// `dst = <op> a`.
    Un { op: UnaryOp, ty: ScalarType, dst: u16, a: u16 },
    /// `dst = a * b + c` (fused).
    Mad { ty: ScalarType, dst: u16, a: u16, b: u16, c: u16 },
    /// `dst = imm`, already lowered to a runtime [`Value`].
    MovImm { dst: u16, val: Value },
    /// `dst = src`.
    Mov { dst: u16, src: u16 },
    /// `dst = (to) src`.
    Cvt { to: ScalarType, from: ScalarType, dst: u16, src: u16 },
    /// `pred = a <cmp> b`.
    Setp { cmp: CmpOp, ty: ScalarType, pred: u8, a: u16, b: u16 },
    /// `dst = special`.
    ReadSpecial { dst: u16, special: Special },
    /// `dst = params[index]`.
    LdParam { dst: u16, index: u16 },
    /// Global-memory load; `index == u16::MAX` means no index register.
    Ld { ty: ScalarType, dst: u16, base: u16, index: u16, offset: i64 },
    /// Global-memory store; `index == u16::MAX` means no index register.
    St { ty: ScalarType, base: u16, index: u16, offset: i64, src: u16 },
}

/// Marker for "no index register" in [`DOp::Ld`]/[`DOp::St`].
pub(crate) const NO_INDEX: u16 = u16::MAX;

/// A block's span in the flat op stream plus everything the warp scheduler
/// needs: its terminator, its budget cost, and its reconvergence point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedBlock {
    /// Offset of the block's first op in [`DecodedProgram::ops`].
    pub start: u32,
    /// Number of ops in the block.
    pub len: u32,
    /// Dynamic instructions one thread is charged per visit: `len` plus one
    /// branch for every terminator except `ret` (which is free).
    pub cost: u64,
    /// The block's terminator, with targets as stream block offsets.
    pub term: DTerm,
    /// Immediate post-dominator of this block — the reconvergence point for a
    /// divergent conditional branch here — or [`EXIT`] when the block has no
    /// post-dominator short of the virtual exit.
    pub reconv: u32,
}

/// Decoded terminator with patched targets.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DTerm {
    /// Thread exit.
    Ret,
    /// Unconditional branch.
    Bra(u32),
    /// Two-way conditional branch on a predicate lane.
    CondBra { pred: u8, if_true: u32, if_false: u32 },
}

/// A kernel lowered for the warp tier: the flat op stream plus per-block
/// metadata. Held in its [`KernelProgram`]'s decode slot, behind an `Arc` so
/// clones of the program share it; the interpreter and the worker pool borrow
/// it for the length of a launch.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    /// All blocks' ops, concatenated in block order.
    pub ops: Vec<DecodedOp>,
    /// Per-block spans and terminators, indexed by `BlockId.0`.
    pub blocks: Vec<DecodedBlock>,
    /// Register file size (dense indices `0..num_regs`).
    pub num_regs: u16,
    /// Predicate file size.
    pub num_preds: u8,
}

/// Lower `program` into a [`DecodedProgram`], or `None` if the program uses a
/// feature outside the warp tier's envelope (the caller falls back to the
/// scalar tier). Today the only rejections are resource-shaped: parameter
/// indices beyond `u16::MAX` and programs with more than 2^24 blocks.
fn lower(program: &KernelProgram) -> Option<DecodedProgram> {
    let nblocks = program.blocks().len();
    if nblocks >= (1 << 24) {
        return None;
    }
    let mut ops = Vec::with_capacity(program.static_size() as usize);
    let mut blocks = Vec::with_capacity(nblocks);
    for b in program.blocks() {
        let start = ops.len() as u32;
        for i in &b.instrs {
            let class = i.class().index() as u8;
            let op = match i {
                Instr::Bin { op, ty, dst, a, b } => {
                    DOp::Bin { op: *op, ty: *ty, dst: dst.0, a: a.0, b: b.0 }
                }
                Instr::Un { op, ty, dst, a } => DOp::Un { op: *op, ty: *ty, dst: dst.0, a: a.0 },
                Instr::Mad { ty, dst, a, b, c } => {
                    DOp::Mad { ty: *ty, dst: dst.0, a: a.0, b: b.0, c: c.0 }
                }
                Instr::MovImm { dst, imm } => DOp::MovImm { dst: dst.0, val: (*imm).into() },
                Instr::Mov { dst, src } => DOp::Mov { dst: dst.0, src: src.0 },
                Instr::Cvt { to, from, dst, src } => {
                    DOp::Cvt { to: *to, from: *from, dst: dst.0, src: src.0 }
                }
                Instr::Setp { cmp, ty, pred, a, b } => {
                    DOp::Setp { cmp: *cmp, ty: *ty, pred: pred.0, a: a.0, b: b.0 }
                }
                Instr::ReadSpecial { dst, special } => {
                    DOp::ReadSpecial { dst: dst.0, special: *special }
                }
                Instr::LdParam { dst, index } => {
                    let index = u16::try_from(*index).ok()?;
                    DOp::LdParam { dst: dst.0, index }
                }
                Instr::Ld { ty, dst, base, index, offset } => DOp::Ld {
                    ty: *ty,
                    dst: dst.0,
                    base: base.0,
                    index: index.map_or(NO_INDEX, |r| r.0),
                    offset: *offset,
                },
                Instr::St { ty, base, index, offset, src } => DOp::St {
                    ty: *ty,
                    base: base.0,
                    index: index.map_or(NO_INDEX, |r| r.0),
                    offset: *offset,
                    src: src.0,
                },
            };
            ops.push(DecodedOp { class, op });
        }
        let len = (ops.len() as u32) - start;
        let (term, branch_cost) = match b.terminator {
            Terminator::Ret => (DTerm::Ret, 0u64),
            Terminator::Bra(t) => (DTerm::Bra(t.0), 1),
            Terminator::CondBra { pred, if_true, if_false } => {
                (DTerm::CondBra { pred: pred.0, if_true: if_true.0, if_false: if_false.0 }, 1)
            }
        };
        blocks.push(DecodedBlock {
            start,
            len,
            cost: len as u64 + branch_cost,
            term,
            reconv: EXIT,
        });
    }

    let ipdom = immediate_postdominators(&blocks);
    for (b, r) in blocks.iter_mut().zip(ipdom) {
        b.reconv = r;
    }

    Some(DecodedProgram {
        ops,
        blocks,
        num_regs: program.num_regs(),
        num_preds: program.num_preds(),
    })
}

/// Successor block offsets of a decoded terminator (`ret` has none).
fn successors(term: DTerm) -> [Option<u32>; 2] {
    match term {
        DTerm::Ret => [None, None],
        DTerm::Bra(t) => [Some(t), None],
        DTerm::CondBra { if_true, if_false, .. } => [Some(if_true), Some(if_false)],
    }
}

/// Immediate post-dominator of every block over the CFG augmented with a
/// virtual exit that every `ret` block flows into; [`EXIT`] where none exists
/// (the block cannot reach a `ret`, or the exit itself is the closest
/// post-dominator).
///
/// Uses the classic iterate-to-fixpoint set formulation: block counts are
/// tiny (workload kernels have < 20 blocks), so bitset intersection beats a
/// fancier Cooper–Harvey–Kennedy walk in both code size and constant factor.
fn immediate_postdominators(blocks: &[DecodedBlock]) -> Vec<u32> {
    let n = blocks.len();
    let words = n.div_ceil(64);
    let full = |sets: &mut Vec<u64>| {
        for w in sets.iter_mut() {
            *w = u64::MAX;
        }
    };
    // pdom[b] over real blocks only; the virtual exit post-dominates
    // everything and is represented implicitly. `reaches_exit[b]` tracks
    // whether b can reach a ret at all.
    let mut reaches_exit = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let r = match blocks[b].term {
                DTerm::Ret => true,
                t => successors(t)
                    .into_iter()
                    .flatten()
                    .any(|s| reaches_exit.get(s as usize).copied().unwrap_or(false)),
            };
            if r && !reaches_exit[b] {
                reaches_exit[b] = true;
                changed = true;
            }
        }
    }

    let mut pdom: Vec<Vec<u64>> = vec![vec![u64::MAX; words]; n];
    for (b, set) in pdom.iter_mut().enumerate() {
        if let DTerm::Ret = blocks[b].term {
            // A ret block's only post-dominators are itself (+ virtual exit).
            for w in set.iter_mut() {
                *w = 0;
            }
            set[b / 64] |= 1 << (b % 64);
        }
    }
    let mut tmp = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            if matches!(blocks[b].term, DTerm::Ret) {
                continue;
            }
            full(&mut tmp);
            let mut any_succ = false;
            for s in successors(blocks[b].term).into_iter().flatten() {
                let s = s as usize;
                if s >= n {
                    continue;
                }
                any_succ = true;
                for (t, p) in tmp.iter_mut().zip(&pdom[s]) {
                    *t &= *p;
                }
            }
            if !any_succ {
                for w in tmp.iter_mut() {
                    *w = 0;
                }
            }
            tmp[b / 64] |= 1 << (b % 64);
            if tmp != pdom[b] {
                pdom[b].copy_from_slice(&tmp);
                changed = true;
            }
        }
    }

    let count = |set: &[u64]| set.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    (0..n)
        .map(|b| {
            if !reaches_exit[b] {
                return EXIT;
            }
            // Strict post-dominators of b; the immediate one is the member
            // whose own pdom set is exactly that strict set.
            let strict: Vec<usize> =
                (0..n).filter(|&q| q != b && pdom[b][q / 64] & (1 << (q % 64)) != 0).collect();
            if strict.is_empty() {
                return EXIT;
            }
            strict
                .iter()
                .copied()
                .find(|&p| count(&pdom[p]) == strict.len())
                .map_or(EXIT, |p| p as u32)
        })
        .collect()
}

/// The warp tier's lowering of `program`, made on its first call and kept
/// on the program itself: every later launch of the same program, or of a
/// clone made after that first call, decodes zero times. `None` for a
/// program the decoder rejects; the caller runs the scalar tier instead.
pub(crate) fn decode(program: &KernelProgram) -> Option<&DecodedProgram> {
    program
        .decoded()
        .get_or_init(|| {
            sigmavp_telemetry::recorder().count("sptx.decode.misses", 1);
            lower(program).map(Arc::new)
        })
        .as_deref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{BinOp, InstrClass, ScalarType};

    fn loop_program() -> KernelProgram {
        // entry -> header -> {body -> header, exit(ret)}
        let mut b = ProgramBuilder::new("loop");
        let (i, n, one) = (b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.mov_imm_i(i, 0).mov_imm_i(n, 4).mov_imm_i(one, 1);
        let header = b.declare_block();
        let body = b.declare_block();
        let exit = b.declare_block();
        b.bra(header);
        b.switch_to(header);
        b.setp(crate::isa::CmpOp::Lt, ScalarType::I64, p, i, n).cond_bra(p, body, exit);
        b.switch_to(body);
        b.binop(BinOp::Add, ScalarType::I64, i, i, one).bra(header);
        b.switch_to(exit);
        b.ret();
        b.build().unwrap()
    }

    #[test]
    fn lowering_preserves_shape_and_classes() {
        let p = loop_program();
        let d = lower(&p).unwrap();
        assert_eq!(d.blocks.len(), p.blocks().len());
        assert_eq!(d.ops.len() as u64, p.static_mix().total() - d.branch_terminators());
        // Entry block: 3 mov-imm (Bit class), cost 3 + 1 branch.
        assert_eq!(d.blocks[0].len, 3);
        assert_eq!(d.blocks[0].cost, 4);
        assert_eq!(d.ops[0].class, InstrClass::Bit.index() as u8);
        // Exit block: ret is free.
        let exit = d.blocks.last().unwrap();
        assert_eq!(exit.cost, 0);
        assert!(matches!(exit.term, DTerm::Ret));
    }

    impl DecodedProgram {
        fn branch_terminators(&self) -> u64 {
            self.blocks.iter().filter(|b| !matches!(b.term, DTerm::Ret)).count() as u64
        }
    }

    #[test]
    fn loop_header_reconverges_at_exit() {
        let p = loop_program();
        let d = lower(&p).unwrap();
        // Block 1 is the loop header (entry=0, header=1, body=2, exit=3): its
        // divergent branch must reconverge at the loop exit.
        assert!(matches!(d.blocks[1].term, DTerm::CondBra { .. }));
        assert_eq!(d.blocks[1].reconv, 3);
        // The body's sole successor path rejoins at the header.
        assert_eq!(d.blocks[2].reconv, 1);
    }

    #[test]
    fn infinite_loop_arms_reconverge_at_exit_sentinel() {
        // entry: cond_bra p -> spin | done; spin: bra spin; done: ret.
        let mut b = ProgramBuilder::new("spin");
        let (x, y) = (b.reg(), b.reg());
        let p = b.pred();
        b.mov_imm_i(x, 0).mov_imm_i(y, 1).setp(crate::isa::CmpOp::Lt, ScalarType::I64, p, x, y);
        let spin = b.declare_block();
        let done = b.declare_block();
        b.cond_bra(p, spin, done);
        b.switch_to(spin);
        b.bra(spin);
        b.switch_to(done);
        b.ret();
        let prog = b.build().unwrap();
        let d = lower(&prog).unwrap();
        // Post-dominance ranges over terminating paths only, so the entry's
        // branch reconverges at `done`; the spin block itself can never reach
        // a ret and gets the virtual-exit sentinel (its lanes run until they
        // retire or the budget aborts the warp).
        assert_eq!(d.blocks[0].reconv, 2);
        assert_eq!(d.blocks[1].reconv, EXIT, "spin never reaches a ret");
    }

    #[test]
    fn a_program_decodes_once_and_its_clones_share_the_decode() {
        let p = loop_program();
        let first = decode(&p).unwrap();
        assert!(std::ptr::eq(first, decode(&p).unwrap()), "a second launch decodes nothing");
        assert!(std::ptr::eq(first, decode(&p.clone()).unwrap()), "a clone carries the decode");

        // An equal program built separately is still `==`, and decodes on its own.
        let q = loop_program();
        assert_eq!(p, q);
        assert!(!std::ptr::eq(first, decode(&q).unwrap()));

        // Threads that race to the first decode of one shared program all get
        // the stream the winner stored.
        let shared = Arc::new(loop_program());
        let program: &KernelProgram = &shared;
        let seen: Vec<&DecodedProgram> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4).map(|_| s.spawn(|| decode(program).unwrap())).collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let stored = decode(program).unwrap();
        assert!(seen.iter().all(|&d| std::ptr::eq(d, stored)), "every racer reads one decode");
    }
}
