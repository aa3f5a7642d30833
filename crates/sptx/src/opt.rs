//! Optimization passes over SPTX programs.
//!
//! The ΣVP workflow compiles every kernel twice — once for the host GPU and once
//! for the target (paper Fig. 7, step 1) — and instruction counts differ between
//! the two compilations. This module provides the compiler's middle end: a small
//! set of classic, semantics-preserving passes that a per-target backend can apply
//! with different aggressiveness:
//!
//! * [`fold_constants`] — forward-propagates immediate values through arithmetic
//!   within each basic block and rewrites computable instructions to `MovImm`;
//! * [`eliminate_dead_code`] — removes instructions whose results are never used
//!   (no stores, no terminator influence, no live-out uses);
//! * [`optimize`] — the standard pipeline (fold, then DCE, to fixpoint).
//!
//! Every pass preserves observable behaviour: global-memory effects and per-block
//! control flow are untouched; only the per-class instruction mixes shrink. The
//! differential tests below execute randomized programs before and after
//! optimization and require identical memory images.

use std::collections::{HashMap, HashSet};

use crate::error::SptxError;
use crate::interp::{eval_bin, eval_cvt, eval_mad, eval_un, Value};
use crate::isa::{BinOp, BlockId, Instr, Reg, ScalarType};
use crate::program::{BasicBlock, KernelProgram};
use crate::validate::validate;

/// Statistics from one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Instructions rewritten to immediate moves by constant folding.
    pub folded: usize,
    /// Instructions removed as dead.
    pub removed: usize,
    /// Pipeline iterations until fixpoint.
    pub iterations: usize,
}

/// Run the standard pipeline (constant folding + dead-code elimination) to
/// fixpoint.
///
/// # Errors
///
/// Returns a [`SptxError`] if the rewritten program fails validation — which would
/// indicate a bug in a pass, not in the input (the input is already validated).
pub fn optimize(program: &KernelProgram) -> Result<(KernelProgram, OptStats), SptxError> {
    let mut current = program.clone();
    let mut stats = OptStats::default();
    loop {
        stats.iterations += 1;
        let (folded_program, folded) = fold_constants(&current);
        let (clean_program, removed) = eliminate_dead_code(&folded_program);
        stats.folded += folded;
        stats.removed += removed;
        let done = folded == 0 && removed == 0;
        current = clean_program;
        if done || stats.iterations > 32 {
            break;
        }
    }
    validate(&current)?;
    Ok((current, stats))
}

/// Per-block forward constant propagation: rewrite instructions whose operands are
/// all known immediates into `MovImm`. Returns the rewritten program and the number
/// of instructions folded.
///
/// A folded value is computed by the interpreter's own arithmetic, so it has the
/// bits the instruction would produce at run time.
///
/// Folding is intentionally conservative: it never folds loads, stores, parameter
/// or special-register reads, divisions/remainders (to preserve fault behaviour) or
/// transcendentals on integers, and it resets its knowledge at block boundaries (no
/// cross-block dataflow).
pub fn fold_constants(program: &KernelProgram) -> (KernelProgram, usize) {
    let mut folded = 0;
    let blocks: Vec<BasicBlock> = program
        .blocks()
        .iter()
        .map(|block| {
            let mut known: HashMap<Reg, Value> = HashMap::new();
            let instrs = block
                .instrs
                .iter()
                .map(|instr| {
                    let rewritten = try_fold(instr, &known);
                    let out = rewritten.clone().unwrap_or_else(|| instr.clone());
                    if rewritten.is_some() {
                        folded += 1;
                    }
                    // Update knowledge from the (possibly rewritten) instruction.
                    match &out {
                        Instr::MovImm { dst, imm } => {
                            known.insert(*dst, (*imm).into());
                        }
                        other => {
                            if let Some(d) = other.def() {
                                known.remove(&d);
                            }
                        }
                    }
                    out
                })
                .collect();
            BasicBlock { instrs, terminator: block.terminator, label: block.label.clone() }
        })
        .collect();
    (
        KernelProgram::from_parts(
            program.name().to_string(),
            blocks,
            program.num_regs(),
            program.num_preds(),
            program.num_params(),
        ),
        folded,
    )
}

fn try_fold(instr: &Instr, known: &HashMap<Reg, Value>) -> Option<Instr> {
    let k = |r: Reg| known.get(&r).copied();
    let v = match *instr {
        Instr::Mov { src, .. } => k(src)?,
        Instr::Cvt { to, from, src, .. } => eval_cvt(to, from, k(src)?),
        // Transcendentals on integers are left to the interpreter.
        Instr::Un { op, ty: ScalarType::I64, .. } if op.is_transcendental() => return None,
        Instr::Un { op, ty, a, .. } => eval_un(op, ty, k(a)?),
        // Never fold div/rem: integer division by zero must keep faulting at runtime.
        Instr::Bin { op: BinOp::Div | BinOp::Rem, .. } => return None,
        Instr::Bin { op, ty, a, b, .. } => eval_bin(op, ty, k(a)?, k(b)?, BlockId(0)).ok()?,
        Instr::Mad { ty, a, b, c, .. } => eval_mad(ty, k(a)?, k(b)?, k(c)?),
        // Loads, stores, parameters, specials and setp stay.
        _ => return None,
    };
    Some(Instr::MovImm { dst: instr.def()?, imm: v.into() })
}

/// Remove instructions whose destination register is dead at the point of
/// definition: per-block backward liveness, seeded conservatively at block exits
/// (a block with successors assumes every register read anywhere in the program
/// may still be needed; a `Ret` block ends with nothing live). This removes both
/// never-read results and shadowed definitions, and can only under-remove.
///
/// Instructions with effects other than their register result — loads (may fault),
/// stores, predicate sets, integer div/rem (may fault) — are never removed.
///
/// Returns the rewritten program and the number of instructions removed.
pub fn eliminate_dead_code(program: &KernelProgram) -> (KernelProgram, usize) {
    // Conservative live-out superset for blocks with successors: every register any
    // instruction in the program reads.
    let mut read_anywhere: HashSet<Reg> = HashSet::new();
    for block in program.blocks() {
        for instr in &block.instrs {
            for r in instr.uses() {
                read_anywhere.insert(r);
            }
        }
    }

    let mut removed = 0;
    let blocks: Vec<BasicBlock> = program
        .blocks()
        .iter()
        .map(|block| {
            let mut live: HashSet<Reg> = if block.terminator.successors().is_empty() {
                HashSet::new()
            } else {
                read_anywhere.clone()
            };
            // Backward scan: decide each instruction, then update liveness.
            let mut keep: Vec<bool> = Vec::with_capacity(block.instrs.len());
            for instr in block.instrs.iter().rev() {
                let removable = match instr {
                    Instr::MovImm { dst, .. }
                    | Instr::Mov { dst, .. }
                    | Instr::Cvt { dst, .. }
                    | Instr::ReadSpecial { dst, .. }
                    | Instr::LdParam { dst, .. }
                    | Instr::Un { dst, .. }
                    | Instr::Mad { dst, .. } => !live.contains(dst),
                    Instr::Bin { op, dst, .. } => {
                        // Div/rem may fault; keep them regardless of liveness.
                        !matches!(op, BinOp::Div | BinOp::Rem) && !live.contains(dst)
                    }
                    // Memory and predicate effects always stay.
                    Instr::Ld { .. } | Instr::St { .. } | Instr::Setp { .. } => false,
                };
                if removable {
                    removed += 1;
                    keep.push(false);
                    // A removed instruction contributes neither defs nor uses.
                    continue;
                }
                keep.push(true);
                if let Some(d) = instr.def() {
                    live.remove(&d);
                }
                for r in instr.uses() {
                    live.insert(r);
                }
            }
            keep.reverse();
            let instrs = block
                .instrs
                .iter()
                .zip(keep)
                .filter(|&(_, k)| k)
                .map(|(instr, _)| instr.clone())
                .collect();
            BasicBlock { instrs, terminator: block.terminator, label: block.label.clone() }
        })
        .collect();
    (
        KernelProgram::from_parts(
            program.name().to_string(),
            blocks,
            program.num_regs(),
            program.num_preds(),
            program.num_params(),
        ),
        removed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::interp::{Interpreter, LaunchConfig, Memory, ParamValue};

    fn run_mem(program: &KernelProgram, size: usize, params: &[ParamValue]) -> Memory {
        let mut mem = Memory::new(size);
        Interpreter::new()
            .run(program, &LaunchConfig::linear(1, 4), params, &mut mem)
            .expect("program runs");
        mem
    }

    #[test]
    fn folds_constant_chains() {
        let src = "
.kernel folds
entry:
    mov r0, 6
    mov r1, 7
    mul.i64 r2, r0, r1
    mov r3, 100
    add.i64 r4, r2, r3
    ldp r5, 0
    st.i64 [r5], r4
    ret
";
        let p = asm::parse(src).unwrap();
        let (opt, stats) = optimize(&p).unwrap();
        assert!(stats.folded >= 2, "stats {stats:?}");
        // Result unchanged.
        let before = run_mem(&p, 8, &[ParamValue::Ptr(0)]);
        let after = run_mem(&opt, 8, &[ParamValue::Ptr(0)]);
        assert_eq!(before.read_i64(0).unwrap(), 142);
        assert_eq!(after.read_i64(0).unwrap(), 142);
        // The folded program executes fewer instructions.
        let mut m = Memory::new(8);
        let prof_before = Interpreter::new()
            .run(&p, &LaunchConfig::linear(1, 1), &[ParamValue::Ptr(0)], &mut m)
            .unwrap();
        let mut m = Memory::new(8);
        let prof_after = Interpreter::new()
            .run(&opt, &LaunchConfig::linear(1, 1), &[ParamValue::Ptr(0)], &mut m)
            .unwrap();
        assert!(prof_after.counts.total() < prof_before.counts.total());
    }

    #[test]
    fn removes_dead_instructions() {
        let src = "
.kernel deadish
entry:
    mov r0, 1
    mov r1, 2
    add.i64 r2, r0, r1   # dead: r2 never read
    rs r3, gtid          # dead: r3 never read
    ldp r4, 0
    st.i64 [r4], r0
    ret
";
        let p = asm::parse(src).unwrap();
        let (opt, stats) = optimize(&p).unwrap();
        assert!(stats.removed >= 2, "stats {stats:?}");
        let after = run_mem(&opt, 8, &[ParamValue::Ptr(0)]);
        assert_eq!(after.read_i64(0).unwrap(), 1);
    }

    #[test]
    fn never_folds_division_or_removes_stores() {
        let src = "
.kernel faulty
entry:
    mov r0, 4
    mov r1, 0
    div.i64 r2, r0, r1
    ldp r3, 0
    st.i64 [r3], r2
    ret
";
        let p = asm::parse(src).unwrap();
        let (opt, _) = optimize(&p).unwrap();
        // The division must still fault at runtime.
        let mut mem = Memory::new(8);
        let err = Interpreter::new()
            .run(&opt, &LaunchConfig::linear(1, 1), &[ParamValue::Ptr(0)], &mut mem)
            .unwrap_err();
        assert!(matches!(err, SptxError::DivisionByZero { .. }));
    }

    #[test]
    fn loops_and_loads_are_preserved() {
        // A real kernel (data-dependent, memory-touching) must optimize to an
        // observably identical program.
        let src = "
.kernel looper
entry:
    rs r0, gtid
    ldp r1, 0
    mov r2, 0
    mov r3, 5
    mov r4, 1
    bra header
header:
    setp.lt.i64 p0, r2, r3
    @p0 bra body, exit
body:
    ld.i64 r5, [r1 + r0]
    add.i64 r5, r5, r4
    st.i64 [r1 + r0], r5
    add.i64 r2, r2, r4
    bra header
exit:
    ret
";
        let p = asm::parse(src).unwrap();
        let (opt, _) = optimize(&p).unwrap();
        let before = run_mem(&p, 4 * 8, &[ParamValue::Ptr(0)]);
        let after = run_mem(&opt, 4 * 8, &[ParamValue::Ptr(0)]);
        assert_eq!(before.as_bytes(), after.as_bytes());
        for i in 0..4 {
            assert_eq!(after.read_i64(i * 8).unwrap(), 5);
        }
    }

    #[test]
    fn optimizing_suite_style_kernel_is_behavior_preserving() {
        // The doubling kernel from the crate docs, with a gratuitous constant chain
        // prepended.
        let src = "
.kernel double_plus_junk
entry:
    mov r10, 3
    mov r11, 4
    mul.i64 r12, r10, r11   # foldable and then dead
    rs r0, gtid
    ldp r1, 0
    ld.f32 r2, [r1 + r0]
    add.f32 r2, r2, r2
    st.f32 [r1 + r0], r2
    ret
";
        let p = asm::parse(src).unwrap();
        let (opt, stats) = optimize(&p).unwrap();
        assert!(stats.folded + stats.removed >= 3);
        let mut before = Memory::new(16);
        let mut after = Memory::new(16);
        for i in 0..4u64 {
            before.write_f32(i * 4, i as f32 + 1.0).unwrap();
            after.write_f32(i * 4, i as f32 + 1.0).unwrap();
        }
        Interpreter::new()
            .run(&p, &LaunchConfig::linear(1, 4), &[ParamValue::Ptr(0)], &mut before)
            .unwrap();
        Interpreter::new()
            .run(&opt, &LaunchConfig::linear(1, 4), &[ParamValue::Ptr(0)], &mut after)
            .unwrap();
        assert_eq!(before.as_bytes(), after.as_bytes());
    }

    #[test]
    fn fixpoint_terminates_and_is_idempotent() {
        let p = asm::parse(".kernel nop\nentry:\n    ret\n").unwrap();
        let (opt, stats) = optimize(&p).unwrap();
        assert_eq!(stats.folded + stats.removed, 0);
        let (opt2, stats2) = optimize(&opt).unwrap();
        assert_eq!(opt, opt2);
        assert_eq!(stats2.folded + stats2.removed, 0);
    }
}
