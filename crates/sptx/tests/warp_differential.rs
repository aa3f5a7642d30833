//! Differential property testing of the warp-lockstep tier: for random
//! programs, launch shapes and parameters, warp execution
//! ([`Tier::Warp`], workers ∈ {1, 4}) must be observationally identical to
//! the scalar reference interpreter ([`Tier::Scalar`]) — same
//! [`ExecutionProfile`] (class counts, per-block iteration counts, memory
//! trace, unique segments), same final memory bytes, same error value —
//! across success, divergence-heavy, faulting, intra-warp-hazard and
//! budget-exhaustion outcomes. The deterministic cases at the end pin the
//! warp tier's store tracker (coalesced ranges, flush on doubt) and say which
//! of them must stay in lockstep and which must fall back, by cause.

use std::sync::RwLock;

use proptest::prelude::*;

use sigmavp_sptx::builder::{for_loop, ProgramBuilder};
use sigmavp_sptx::counters::ExecutionProfile;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::isa::{BinOp, CmpOp, Reg, ScalarType, Special, UnaryOp};
use sigmavp_sptx::{asm, KernelProgram, SptxError, Tier};

const NREGS: usize = 5;
const WORKER_COUNTS: [u32; 2] = [1, 4];

/// One randomly chosen fault-free operation over the scratch register file.
/// `St`/`Ld` are a typed store of a scratch register into, and a typed load
/// from, the thread's own slot for that type; an 8-byte `Ld` with `cross` set
/// reads the other 8-byte type's slot instead, so the raw bits of a stored
/// float (a NaN's sign and payload included) reach integer arithmetic and
/// the other way round.
#[derive(Debug, Clone)]
enum RandomOp {
    Bin { op: usize, ty: usize, dst: usize, a: usize, b: usize },
    Un { op: usize, ty: usize, dst: usize, a: usize },
    Mad { ty: usize, dst: usize, a: usize, b: usize, c: usize },
    Cvt { to: usize, from: usize, dst: usize, src: usize },
    St { ty: usize, src: usize },
    Ld { ty: usize, cross: bool, dst: usize },
}

fn arb_op() -> impl Strategy<Value = RandomOp> {
    let r = 0usize..NREGS;
    prop_oneof![
        (0usize..10, 0usize..3, r.clone(), r.clone(), r.clone())
            .prop_map(|(op, ty, dst, a, b)| RandomOp::Bin { op, ty, dst, a, b }),
        (0usize..8, 0usize..3, r.clone(), r.clone()).prop_map(|(op, ty, dst, a)| RandomOp::Un {
            op,
            ty,
            dst,
            a
        }),
        (0usize..3, r.clone(), r.clone(), r.clone(), r.clone())
            .prop_map(|(ty, dst, a, b, c)| RandomOp::Mad { ty, dst, a, b, c }),
        (0usize..3, 0usize..3, r.clone(), r.clone())
            .prop_map(|(to, from, dst, src)| RandomOp::Cvt { to, from, dst, src }),
        (0usize..3, r.clone()).prop_map(|(ty, src)| RandomOp::St { ty, src }),
        (0usize..3, any::<bool>(), r).prop_map(|(ty, cross, dst)| RandomOp::Ld { ty, cross, dst }),
    ]
}

fn ty_of(sel: usize) -> ScalarType {
    [ScalarType::F32, ScalarType::F64, ScalarType::I64][sel % 3]
}

fn bin_of(sel: usize) -> BinOp {
    // Div/Rem excluded here: faults are exercised by the dedicated
    // divergent-fault property below.
    [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ][sel % 10]
}

fn un_of(sel: usize) -> UnaryOp {
    [
        UnaryOp::Neg,
        UnaryOp::Abs,
        UnaryOp::Sqrt,
        UnaryOp::Exp,
        UnaryOp::Log,
        UnaryOp::Sin,
        UnaryOp::Cos,
        UnaryOp::Not,
    ][sel % 8]
}

/// `slots[ty]` is the base of a per-type scratch array indexed by `gtid`, so a
/// thread only ever reads back what it stored itself, at the same width (not
/// always as the same type) — a register's lane types are observed through
/// F32, F64 and I64 stores, and typed loads put fresh float or integer lanes
/// into divergent rows.
fn emit(b: &mut ProgramBuilder, regs: &[Reg], slots: &[Reg; 3], gtid: Reg, ops: &[RandomOp]) {
    for op in ops {
        match op {
            RandomOp::Bin { op, ty, dst, a, b: rb } => {
                b.binop(bin_of(*op), ty_of(*ty), regs[*dst], regs[*a], regs[*rb]);
            }
            RandomOp::Un { op, ty, dst, a } => {
                b.unop(un_of(*op), ty_of(*ty), regs[*dst], regs[*a]);
            }
            RandomOp::Mad { ty, dst, a, b: rb, c } => {
                b.mad(ty_of(*ty), regs[*dst], regs[*a], regs[*rb], regs[*c]);
            }
            RandomOp::Cvt { to, from, dst, src } => {
                b.cvt(ty_of(*to), ty_of(*from), regs[*dst], regs[*src]);
            }
            RandomOp::St { ty, src } => {
                b.st_indexed(ty_of(*ty), slots[*ty % 3], gtid, 0, regs[*src]);
            }
            RandomOp::Ld { ty, cross, dst } => {
                // F32 = 0 has no 8-byte partner; F64 = 1 and I64 = 2 swap.
                let from = if *cross && *ty % 3 != 0 { 3 - *ty % 3 } else { *ty % 3 };
                b.ld_indexed(ty_of(*ty), regs[*dst], slots[from], gtid, 0);
            }
        }
    }
}

/// A divergence-heavy random kernel: every thread reads `input[gtid]`, takes a
/// data-dependent branch (threads whose `tid & mask` is non-zero run `then_ops`
/// inside a *per-thread-variable* counted loop, the rest run `else_ops`
/// straight-line), then both sides reconverge, run `merge_ops` — over rows
/// whose lanes the two arms may have left with different types — and store
/// all scratch registers to the thread's private output slot. Warps see every
/// shape of divergence — full, partial, and none — depending on the mask and
/// block size.
fn build_divergent_kernel(
    seed_i: i64,
    seed_f: f64,
    then_ops: &[RandomOp],
    else_ops: &[RandomOp],
    merge_ops: &[RandomOp],
    mask: i64,
) -> KernelProgram {
    let mut b = ProgramBuilder::new("warp_diff");
    let gtid = b.reg();
    let tid = b.reg();
    b.read_special(gtid, Special::GlobalTid).read_special(tid, Special::TidX);
    let regs: Vec<Reg> = (0..NREGS).map(|_| b.reg()).collect();
    let inbase = b.reg();
    let slots = [b.reg(), b.reg(), b.reg()];
    for (i, slot) in slots.iter().enumerate() {
        b.ld_param(*slot, 2 + i);
    }
    b.ld_param(inbase, 0)
        .ld_indexed(ScalarType::F64, regs[0], inbase, gtid, 0)
        .mov(regs[1], gtid)
        .mov_imm_i(regs[2], seed_i)
        .mov_imm_f(regs[3], seed_f)
        .mov(regs[4], tid);

    // sel = tid & mask; diverge on sel != 0.
    let (selr, zero) = (b.reg(), b.reg());
    let p = b.pred();
    b.mov_imm_i(selr, mask)
        .binop(BinOp::And, ScalarType::I64, selr, tid, selr)
        .mov_imm_i(zero, 0)
        .setp(CmpOp::Ne, ScalarType::I64, p, selr, zero);
    let then_blk = b.declare_block();
    let else_blk = b.declare_block();
    let merge = b.declare_block();
    b.cond_bra(p, then_blk, else_blk);

    // Then side: a loop whose trip count varies per thread (sel ∈ 1..=mask),
    // so lanes fall out of the loop at different iterations.
    b.switch_to(then_blk);
    let (ctr, one) = (b.reg(), b.reg());
    let ploop = b.pred();
    b.mov(ctr, selr).mov_imm_i(one, 1);
    let header = b.declare_block();
    let body = b.declare_block();
    b.bra(header);
    b.switch_to(header);
    b.setp(CmpOp::Gt, ScalarType::I64, ploop, ctr, zero).cond_bra(ploop, body, merge);
    b.switch_to(body);
    emit(&mut b, &regs, &slots, gtid, then_ops);
    b.binop(BinOp::Sub, ScalarType::I64, ctr, ctr, one).bra(header);

    // Else side: straight-line.
    b.switch_to(else_blk);
    emit(&mut b, &regs, &slots, gtid, else_ops);
    b.bra(merge);

    b.switch_to(merge);
    emit(&mut b, &regs, &slots, gtid, merge_ops);
    let (outbase, stride, addr) = (b.reg(), b.reg(), b.reg());
    b.ld_param(outbase, 1)
        .mov_imm_i(stride, (NREGS * 8) as i64)
        .binop(BinOp::Mul, ScalarType::I64, addr, gtid, stride)
        .binop(BinOp::Add, ScalarType::I64, addr, addr, outbase);
    for (i, r) in regs.iter().enumerate() {
        b.st(ScalarType::F64, addr, (i * 8) as i64, *r);
    }
    b.ret();
    b.build().expect("generated kernel is structurally valid")
}

/// Bytes of the memory image [`run_tier`] builds: an f64 input per thread
/// (param 0), `NREGS` f64 outputs per thread (param 1), then one F32, one F64
/// and one I64 scratch array (params 2, 3, 4).
fn mem_size(cfg: &LaunchConfig) -> usize {
    cfg.total_threads() as usize * (8 + NREGS * 8 + 4 + 8 + 8)
}

/// The telemetry collector is process-global: runs that do not read it share
/// this lock, the one that installs a collector to read the warp tier's
/// fallback counters takes it exclusively.
static COLLECTOR: RwLock<()> = RwLock::new(());

/// Run `program` at the given tier and worker count on a fresh memory image
/// (input region seeded deterministically), returning the outcome and the
/// final memory bytes.
fn run_tier(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    tier: Tier,
    workers: u32,
    budget: Option<u64>,
) -> (Result<ExecutionProfile, SptxError>, Vec<u8>) {
    let _shared = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
    run_tier_unlocked(program, cfg, tier, workers, budget)
}

fn run_tier_unlocked(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    tier: Tier,
    workers: u32,
    budget: Option<u64>,
) -> (Result<ExecutionProfile, SptxError>, Vec<u8>) {
    let threads = cfg.total_threads();
    let mut mem = Memory::new(mem_size(cfg));
    for t in 0..threads {
        mem.write_f64(t * 8, (t as f64).mul_add(-3.25, 1000.5)).unwrap();
    }
    let mut interp = Interpreter::new().with_tier(tier).with_workers(workers);
    if let Some(budget) = budget {
        interp = interp.with_budget(budget);
    }
    let out = threads * 8;
    let scratch = out + threads * NREGS as u64 * 8;
    let params = [0, out, scratch, scratch + threads * 4, scratch + threads * 12];
    let result = interp.run(program, cfg, &params.map(ParamValue::Ptr), &mut mem);
    (result, mem.as_bytes().to_vec())
}

/// CTAs the warp tier re-ran on the scalar tier in one launch, by cause:
/// `[hazard, fault, budget]`.
fn warp_fallbacks(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    workers: u32,
    budget: Option<u64>,
) -> [u64; 3] {
    let _exclusive = COLLECTOR.write().unwrap_or_else(|e| e.into_inner());
    let telemetry = sigmavp_telemetry::install();
    let _ = run_tier_unlocked(program, cfg, Tier::Warp, workers, budget);
    sigmavp_telemetry::uninstall();
    let snapshot = telemetry.snapshot();
    let count = |name: &str| snapshot.counter(name).unwrap_or(0);
    let by_cause = ["hazard", "fault", "budget"]
        .map(|cause| count(&format!("sptx.warp.fallback_ctas.{cause}")));
    assert_eq!(by_cause.iter().sum::<u64>(), count("sptx.warp.fallback_ctas"));
    by_cause
}

/// Assert warp execution at every worker count is observationally identical to
/// the scalar reference on the same launch.
fn assert_tiers_agree(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    budget: Option<u64>,
    what: &str,
) {
    let (scalar, scalar_mem) = run_tier(program, cfg, Tier::Scalar, 1, budget);
    for workers in WORKER_COUNTS {
        let (warp, warp_mem) = run_tier(program, cfg, Tier::Warp, workers, budget);
        match (&scalar, &warp) {
            (Ok(s), Ok(w)) => assert_eq!(s, w, "{what}: profile diverged at workers={workers}"),
            (Err(s), Err(w)) => assert_eq!(s, w, "{what}: error diverged at workers={workers}"),
            _ => panic!(
                "{what}: outcome diverged at workers={workers}: scalar={scalar:?} warp={warp:?}"
            ),
        }
        assert_eq!(scalar_mem, warp_mem, "{what}: memory diverged at workers={workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warp_matches_scalar_under_divergence(
        seed_i in -1_000_000i64..1_000_000,
        seed_f in -1.0e6f64..1.0e6,
        then_ops in proptest::collection::vec(arb_op(), 0..12),
        else_ops in proptest::collection::vec(arb_op(), 0..12),
        merge_ops in proptest::collection::vec(arb_op(), 0..6),
        grid in 1u32..7,
        block in 1u32..70,
        mask in 0i64..8,
    ) {
        let program = build_divergent_kernel(seed_i, seed_f, &then_ops, &else_ops, &merge_ops, mask);
        let cfg = LaunchConfig::linear(grid, block);
        let (scalar, scalar_mem) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
        let scalar = scalar.expect("race-free random kernel executes");
        for workers in WORKER_COUNTS {
            let (warp, warp_mem) = run_tier(&program, &cfg, Tier::Warp, workers, None);
            let warp = warp.expect("warp execution of the same kernel succeeds");
            prop_assert_eq!(&scalar, &warp, "profile diverged at workers={}", workers);
            prop_assert_eq!(&scalar_mem, &warp_mem, "memory diverged at workers={}", workers);
        }
    }

    #[test]
    fn divergent_fault_matches_scalar(
        grid in 1u32..6,
        block in 1u32..70,
        fault_thread in 0u32..512,
    ) {
        // Exactly one (ctaid, tid) divides by zero, on the taken side of a
        // divergent branch. The warp tier must surface the identical error —
        // first fault in (ctaid, tid) order — and the identical partial
        // memory image (stores by earlier threads committed, later ones not).
        let fault_gtid = i64::from(fault_thread % (grid * block));
        let mut b = ProgramBuilder::new("warp_fault");
        let (gtid, outbase, k, one) = (b.reg(), b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.read_special(gtid, Special::GlobalTid)
            .ld_param(outbase, 0)
            .st_indexed(ScalarType::I64, outbase, gtid, 0, gtid)
            .mov_imm_i(k, fault_gtid)
            .setp(CmpOp::Eq, ScalarType::I64, p, gtid, k);
        let boom = b.declare_block();
        let done = b.declare_block();
        b.cond_bra(p, boom, done);
        b.switch_to(boom);
        b.binop(BinOp::Sub, ScalarType::I64, k, gtid, k)
            .mov_imm_i(one, 1)
            .binop(BinOp::Div, ScalarType::I64, one, one, k)
            .bra(done);
        b.switch_to(done);
        b.ret();
        let program = b.build().unwrap();
        let cfg = LaunchConfig::linear(grid, block);

        let (scalar, scalar_mem) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
        let scalar_err = scalar.expect_err("the chosen thread divides by zero");
        let is_div_by_zero = matches!(scalar_err, SptxError::DivisionByZero { .. });
        prop_assert!(is_div_by_zero);
        for workers in WORKER_COUNTS {
            let (warp, warp_mem) = run_tier(&program, &cfg, Tier::Warp, workers, None);
            let warp_err = warp.expect_err("warp run faults identically");
            prop_assert_eq!(&scalar_err, &warp_err, "error diverged at workers={}", workers);
            prop_assert_eq!(&scalar_mem, &warp_mem, "partial memory diverged at workers={}",
                workers);
        }
    }

    #[test]
    fn intra_warp_hazards_fall_back_identically(
        grid in 1u32..5,
        block in 2u32..70,
    ) {
        // Every thread stores its gtid to slot `gtid & !1` (so lane pairs
        // write the same address — a write-write race inside the warp), then
        // loads the shared slot back. The warp tier cannot replay this in
        // lane order, so it must detect the hazard, roll back and rerun the
        // CTA scalar — producing exactly the sequential (ctaid, tid)-order
        // result.
        let mut b = ProgramBuilder::new("warp_hazard");
        let (gtid, outbase, slot, m, got, resbase) =
            (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        b.read_special(gtid, Special::GlobalTid)
            .ld_param(outbase, 0)
            .mov_imm_i(m, !1)
            .binop(BinOp::And, ScalarType::I64, slot, gtid, m)
            .st_indexed(ScalarType::I64, outbase, slot, 0, gtid)
            .ld_indexed(ScalarType::I64, got, outbase, slot, 0)
            .ld_param(resbase, 1)
            .st_indexed(ScalarType::I64, resbase, gtid, 0, got)
            .ret();
        let program = b.build().unwrap();
        let cfg = LaunchConfig::linear(grid, block);
        assert_tiers_agree(&program, &cfg, None, "intra-warp hazard");
    }
}

/// A kernel whose per-thread instruction count varies with `tid` (divergent
/// loop trip counts), used to sweep the cumulative budget across warp and
/// block boundaries.
fn variable_cost_kernel() -> KernelProgram {
    let mut b = ProgramBuilder::new("warp_budget");
    let (gtid, tid, outbase, acc, one, zero, ctr, m) =
        (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
    let p = b.pred();
    b.read_special(gtid, Special::GlobalTid)
        .read_special(tid, Special::TidX)
        .ld_param(outbase, 0)
        .mov_imm_i(acc, 0)
        .mov_imm_i(one, 1)
        .mov_imm_i(zero, 0)
        .mov_imm_i(m, 3)
        .binop(BinOp::And, ScalarType::I64, ctr, tid, m);
    let header = b.declare_block();
    let body = b.declare_block();
    let exit = b.declare_block();
    b.bra(header);
    b.switch_to(header);
    b.setp(CmpOp::Gt, ScalarType::I64, p, ctr, zero).cond_bra(p, body, exit);
    b.switch_to(body);
    b.binop(BinOp::Add, ScalarType::I64, acc, acc, one)
        .binop(BinOp::Sub, ScalarType::I64, ctr, ctr, one)
        .bra(header);
    b.switch_to(exit);
    b.st_indexed(ScalarType::I64, outbase, gtid, 0, acc).ret();
    b.build().unwrap()
}

#[test]
fn budget_exhaustion_matches_scalar_at_every_boundary() {
    let program = variable_cost_kernel();
    let cfg = LaunchConfig::linear(3, 50);
    let (full, _) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
    let total = full.unwrap().counts.total();

    // Sweep budgets through: plenty, exactly enough, one short, mid-grid,
    // mid-warp, and nearly nothing. Wherever the budget lands, the warp tier
    // must report the same exhaustion point (or completion) as the scalar
    // reference.
    let mut budgets = vec![total + 10, total, total - 1, total / 2, total / 3 + 1, total / 5, 9, 1];
    budgets.extend((0..16).map(|i| total * (i + 1) / 17));
    for budget in budgets {
        assert_tiers_agree(&program, &cfg, Some(budget), &format!("budget {budget}"));
    }
}

#[test]
fn uniform_and_consecutive_loads_match_scalar() {
    // One kernel with both a warp-uniform load (same address in every lane)
    // and a consecutive load (addr = base + gtid*width): the wide-op fast
    // paths must leave profile, trace and results untouched.
    let mut b = ProgramBuilder::new("warp_wide");
    let (gtid, zero, inbase, shared, own, sum, outbase) =
        (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
    b.read_special(gtid, Special::GlobalTid)
        .mov_imm_i(zero, 0)
        .ld_param(inbase, 0)
        .ld_indexed(ScalarType::F64, shared, inbase, zero, 0)
        .ld_indexed(ScalarType::F64, own, inbase, gtid, 0)
        .binop(BinOp::Add, ScalarType::F64, sum, shared, own)
        .ld_param(outbase, 1)
        .st_indexed(ScalarType::F64, outbase, gtid, 0, sum)
        .ret();
    let program = b.build().unwrap();
    for (grid, block) in [(1, 32), (2, 48), (1, 7), (3, 33)] {
        let cfg = LaunchConfig::linear(grid, block);
        assert_tiers_agree(&program, &cfg, None, "wide loads");
    }
}

#[test]
fn fixed_trip_loops_match_scalar() {
    // Convergent control flow (all lanes take the same branches): the warp
    // scheduler must still count block iterations and branch instructions
    // exactly like the scalar walk.
    let mut b = ProgramBuilder::new("warp_loop");
    let (gtid, outbase, acc, one) = (b.reg(), b.reg(), b.reg(), b.reg());
    b.read_special(gtid, Special::GlobalTid)
        .ld_param(outbase, 0)
        .mov_imm_i(acc, 0)
        .mov_imm_i(one, 1);
    for_loop(&mut b, 7, |b, _| {
        b.binop(BinOp::Add, ScalarType::I64, acc, acc, one);
    });
    b.st_indexed(ScalarType::I64, outbase, gtid, 0, acc).ret();
    let program = b.build().unwrap();
    for (grid, block) in [(1, 1), (1, 32), (2, 33), (4, 64), (2, 100)] {
        let cfg = LaunchConfig::linear(grid, block);
        assert_tiers_agree(&program, &cfg, None, "fixed-trip loop");
    }
}

#[test]
fn two_nan_operands_give_the_same_bits_on_both_tiers() {
    // `sqrt(-1)` and its `abs` are NaNs that differ in sign. The hardware
    // takes a NaN result's sign and payload from its first NaN operand and
    // the compiler may commute `+` and `*`, so each engine has to
    // canonicalise the result for the two to agree. Every result is stored
    // and read back as an integer whose top 13 bits (sign, exponent, quiet
    // bit) are folded into a checksum, so its raw bits reach the image.
    let mut text = format!(
        "{PROLOGUE}    mov.f64 r4, -1.0\n    sqrt.f64 r5, r4\n    abs.f64 r6, r5\n    \
         mov r9, 0\n    mov r10, 31\n    mov r11, 51\n"
    );
    for ty in ["f64", "f32"] {
        for op in ["add", "mul", "min", "max", "sub", "div", "rem", "mad"] {
            for (x, y) in [("r5", "r6"), ("r6", "r5")] {
                let third = if op == "mad" { ", r4" } else { "" };
                text += &format!(
                    "    {op}.{ty} r7, {x}, {y}{third}\n    st.f64 [r3 + r0], r7\n    \
                     ld.i64 r8, [r3 + r0]\n    shr.i64 r8, r8, r11\n    mad.i64 r9, r9, r10, r8\n"
                );
            }
        }
    }
    text += "    st.i64 [r2 + r0], r9\n    ret\n";
    let program = asm::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_tiers_agree(&program, &LaunchConfig::linear(2, 33), None, "two NaN operands");
    // The optimiser folds all of it to constants: the same bits again.
    let (folded, stats) = sigmavp_sptx::opt::optimize(&program).unwrap();
    assert!(stats.folded > 0, "{stats:?}");
    let cfg = LaunchConfig::linear(1, 1);
    let (_, plain) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
    assert_eq!(plain, run_tier(&folded, &cfg, Tier::Scalar, 1, None).1, "folded constants");
}

/// Launch shapes for the store-tracker cases: a partial warp, one full warp,
/// a full warp plus a one-lane warp, and a full warp plus a half warp.
const SHAPES: [(u32, u32); 4] = [(2, 7), (2, 32), (2, 33), (3, 48)];

/// Every kernel below starts the same way: `r0 = gtid`, `r1 = tid`, `r2` the
/// seeded input array (one f64 per thread), `r3` the zeroed output array.
const PROLOGUE: &str =
    ".kernel tracker\nentry:\n    rs r0, gtid\n    rs r1, tid.x\n    ldp r2, 0\n    ldp r3, 1\n";

/// Assert `body` (appended to [`PROLOGUE`]) runs identically on both tiers at
/// every shape and worker count, and that the warp tier fell back for exactly
/// `fallbacks(cfg)` CTAs, `[hazard, fault, budget]`.
fn assert_tracker_case(
    what: &str,
    body: impl Fn(&LaunchConfig) -> String,
    fallbacks: impl Fn(&LaunchConfig) -> [u64; 3],
) {
    for (grid, block) in SHAPES {
        let cfg = LaunchConfig::linear(grid, block);
        let text = format!("{PROLOGUE}{}", body(&cfg));
        let program = asm::parse(&text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
        assert_tiers_agree(&program, &cfg, None, what);
        for workers in WORKER_COUNTS {
            assert_eq!(
                warp_fallbacks(&program, &cfg, workers, None),
                fallbacks(&cfg),
                "{what}: fallbacks at {grid}x{block}, workers={workers}"
            );
        }
    }
}

#[test]
fn own_slot_round_trips_stay_in_lockstep() {
    // Store a value to the thread's own slot and load it straight back, at
    // each width: the load is the very access the store recorded, so the
    // tracker must clear it without falling back.
    for ty in ["f32", "f64", "i64"] {
        assert_tracker_case(
            &format!("own-slot {ty} round trip"),
            |_| {
                format!(
                    "    ld.f64 r4, [r2 + r0]\n    cvt.{ty}.f64 r4, r4\n    st.{ty} [r3 + r0], r4\n    \
                     ld.{ty} r5, [r3 + r0]\n    st.{ty} [r2 + r0], r5\n    ret\n"
                )
            },
            |_| [0, 0, 0],
        );
    }
}

#[test]
fn loading_a_neighbours_fresh_store_is_a_hazard() {
    // Lane l loads the slot lane l + 1 just stored: in thread order that slot
    // is still unwritten. The load overlaps the recorded range without being
    // it, so the range is flushed and the per-lane check aborts every CTA.
    assert_tracker_case(
        "neighbour load",
        |_| {
            "    st.i64 [r3 + r0], r0\n    ld.i64 r4, [r3 + r0 + 8]\n    st.i64 [r2 + r0], r4\n    ret\n"
                .into()
        },
        |cfg| [u64::from(cfg.grid_dim), 0, 0],
    );
}

#[test]
fn unaligned_consecutive_stores_are_a_hazard() {
    // f32 stores at `base + 2`: consecutive, but adjacent lanes share a
    // 4-byte slot, so the store must not be taken for a coalesced range.
    assert_tracker_case(
        "unaligned f32 span",
        |_| "    ld.f64 r4, [r2 + r0]\n    st.f32 [r3 + r0 + 2], r4\n    ret\n".into(),
        |cfg| [u64::from(cfg.grid_dim), 0, 0],
    );
}

#[test]
fn overlapping_spans_are_a_hazard() {
    // An i64 span at `base`, then another at `base + 4`: both coalesced, and
    // each lane's second store covers half of its neighbour's first.
    assert_tracker_case(
        "i64 span then the same span + 4",
        |_| {
            "    ld.f64 r4, [r2 + r0]\n    st.i64 [r3 + r0], r0\n    st.i64 [r3 + r0 + 4], r4\n    ret\n"
                .into()
        },
        |cfg| [u64::from(cfg.grid_dim), 0, 0],
    );
}

#[test]
fn the_same_span_under_another_mask_is_a_hazard() {
    // Even lanes store a consecutive span (lane 2k → element k of the warp's
    // part of the array), then every lane stores the same span (lane l →
    // element l): same first address and width, different owners.
    assert_tracker_case(
        "partial-mask span then full-mask span",
        |_| {
            "    mov r4, 31\n    and.i64 r5, r1, r4\n    sub.i64 r6, r0, r5\n    mov r7, 1\n    \
             shr.i64 r8, r5, r7\n    add.i64 r8, r8, r6\n    and.i64 r9, r5, r7\n    mov r10, 0\n    \
             setp.eq.i64 p0, r9, r10\n    @p0 bra even, all\neven:\n    st.i64 [r3 + r8], r1\n    \
             bra all\nall:\n    ld.f64 r11, [r2 + r0]\n    st.f64 [r3 + r0], r11\n    ret\n"
                .into()
        },
        |cfg| [u64::from(cfg.grid_dim), 0, 0],
    );
}

#[test]
fn a_span_off_the_end_of_memory_faults_like_scalar() {
    // The last three threads' elements lie past the end of memory: the span
    // write must fail as a whole, and the scalar rerun of that one CTA must
    // leave the same `OutOfBoundsAccess` and the same partial image.
    assert_tracker_case(
        "span off the end",
        |cfg| {
            let past = mem_size(cfg) as u64 - (cfg.total_threads() - 3) * 8;
            format!(
                "    mov r4, {past}\n    add.i64 r4, r4, r2\n    st.i64 [r4 + r0], r0\n    ret\n"
            )
        },
        |_| [0, 1, 0],
    );
    let cfg = LaunchConfig::linear(2, 32);
    let text = format!(
        "{PROLOGUE}    mov r4, {}\n    st.i64 [r4 + r0], r0\n    ret\n",
        mem_size(&cfg) - 61 * 8
    );
    let (outcome, _) = run_tier(&asm::parse(&text).unwrap(), &cfg, Tier::Warp, 1, None);
    assert!(matches!(outcome, Err(SptxError::OutOfBoundsAccess { .. })), "{outcome:?}");
}

#[test]
fn a_fault_after_coalesced_stores_rolls_every_byte_back() {
    // Every thread overwrites its seeded input cell (an f64 span) and half of
    // its output cell (an f32 span); then the grid's last thread divides by
    // zero. The warp tier has committed both spans for that thread's whole
    // CTA by then: rollback must restore the old bytes before the scalar
    // rerun stops at the faulting thread.
    assert_tracker_case(
        "divide by zero after span stores",
        |cfg| {
            format!(
                "    mov.f64 r4, 2.5\n    st.f64 [r2 + r0], r4\n    st.f32 [r3 + r0], r4\n    \
                 mov r5, {}\n    sub.i64 r5, r5, r0\n    div.i64 r6, r0, r5\n    ret\n",
                cfg.total_threads() - 1
            )
        },
        |_| [0, 1, 0],
    );
}

#[test]
fn a_failing_launch_counts_the_ctas_up_to_its_fault() {
    // Thread 0 of *every* CTA divides by zero, CTA 0 after a long loop — so
    // the launch fails in CTA 0, but block-parallel workers have run (and
    // aborted) later CTAs by then. Sequentially none of those runs, and they
    // must not show in the counters either way.
    let text = format!(
        "{PROLOGUE}    rs r4, ctaid.x\n    mov r5, 0\n    mov r6, 1\n    mov r7, 20000\n    \
         setp.eq.i64 p0, r4, r5\n    @p0 bra spin, boom\nspin:\n    sub.i64 r7, r7, r6\n    \
         setp.gt.i64 p1, r7, r5\n    @p1 bra spin, boom\nboom:\n    div.i64 r8, r0, r1\n    ret\n"
    );
    let program = asm::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let cfg = LaunchConfig::linear(8, 32);
    assert_tiers_agree(&program, &cfg, None, "fault in every CTA");
    for workers in WORKER_COUNTS {
        assert_eq!(warp_fallbacks(&program, &cfg, workers, None), [0, 1, 0], "workers={workers}");
    }
}

#[test]
fn a_budget_crossing_is_counted_as_one() {
    // Sequentially, the CTA in which the cumulative budget runs out leaves
    // lockstep (cause: budget) and no other does. The block-parallel path
    // runs each CTA under the full budget and re-runs the crossing one in its
    // merge walk, so its warp tier never falls back.
    let program = variable_cost_kernel();
    let cfg = LaunchConfig::linear(3, 50);
    let (full, _) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
    let half = Some(full.unwrap().counts.total() / 2);
    assert_eq!(warp_fallbacks(&program, &cfg, 1, half), [0, 0, 1]);
    assert_eq!(warp_fallbacks(&program, &cfg, 4, half), [0, 0, 0]);
}

#[test]
fn a_destination_that_is_also_a_source_matches_scalar() {
    // Every op kind writing a register it also reads: each lane must read
    // its sources before its destination lane is overwritten. `r4` holds five
    // output slots per thread; each result goes to one of them. The gather
    // `[r9 + r9]` reads bytes `9 * (gtid & 7)` of the input, which no thread
    // writes, and the base register is stored to the i64 scratch array.
    assert_tracker_case(
        "destination aliases a source",
        |_| {
            "    mov r4, 5\n    mul.i64 r4, r0, r4\n    ld.f64 r5, [r2 + r0]\n    \
             add.f64 r5, r5, r5\n    mad.f64 r5, r5, r5, r5\n    neg.f64 r5, r5\n    \
             st.f64 [r3 + r4], r5\n    mov r6, 7\n    mov r7, 3\n    \
             mad.i64 r6, r6, r7, r6\n    mad.i64 r6, r6, r0, r6\n    st.i64 [r3 + r4 + 8], r6\n    \
             cvt.f32.f64 r5, r5\n    cvt.i64.f32 r5, r5\n    cvt.f64.i64 r5, r5\n    \
             st.f64 [r3 + r4 + 16], r5\n    mov r8, r0\n    ld.i64 r8, [r2 + r8]\n    \
             st.i64 [r3 + r4 + 24], r8\n    mov r9, 7\n    and.i64 r9, r0, r9\n    \
             ld.i64 r9, [r9 + r9]\n    st.i64 [r3 + r4 + 32], r9\n    ldp r10, 4\n    \
             st.i64 [r10 + r0], r10\n    ret\n"
                .into()
        },
        |_| [0, 0, 0],
    );
}

#[test]
fn a_full_mask_read_of_a_mixed_type_row_matches_scalar() {
    // After a divergent branch, even lanes of `r5` hold floats and odd lanes
    // integers. The full warp then reads the row as floats and as integers,
    // through the one conversion that copies a row.
    assert_tracker_case(
        "mixed-type row",
        |_| {
            "    mov r4, 1\n    and.i64 r4, r1, r4\n    mov r6, 0\n    setp.eq.i64 p0, r4, r6\n    \
             @p0 bra even, odd\neven:\n    ld.f64 r5, [r2 + r0]\n    bra join\nodd:\n    \
             mov r5, -9\n    mul.i64 r5, r5, r0\n    bra join\njoin:\n    add.f64 r7, r5, r5\n    \
             add.i64 r8, r5, r5\n    setp.lt.f64 p1, r5, r7\n    @p1 bra lt, done\nlt:\n    \
             cvt.f64.i64 r8, r8\n    bra done\ndone:\n    st.f64 [r3 + r0], r7\n    \
             st.f64 [r2 + r0], r8\n    ret\n"
                .into()
        },
        |_| [0, 0, 0],
    );
}

#[test]
fn a_coalesced_f32_round_trip_matches_scalar() {
    // A coalesced f32 store fills the f32 scratch array, a coalesced f32 load
    // reads it back into a row, and a second coalesced store writes that row
    // out: every step moves whole spans, at every mask the shapes give.
    assert_tracker_case(
        "coalesced f32 load and store",
        |_| {
            "    ldp r4, 2\n    ld.f64 r5, [r2 + r0]\n    mov.f64 r6, 0.1\n    \
             mul.f64 r5, r5, r6\n    st.f32 [r4 + r0], r5\n    ld.f32 r7, [r4 + r0]\n    \
             st.f32 [r3 + r0], r7\n    ret\n"
                .into()
        },
        |_| [0, 0, 0],
    );
}

#[test]
fn a_span_whose_end_would_wrap_faults_like_scalar() {
    // The lanes' addresses run on past `u64::MAX` and wrap to 0: consecutive
    // in wrapping arithmetic, but the span has no end, so the access is a
    // scatter whose first lane faults. Loads and stores alike must stop
    // where the scalar tier does.
    for op in ["ld.i64 r5, [r4 + r0]", "st.i64 [r4 + r0], r0"] {
        assert_tracker_case(
            &format!("wrapping span: {op}"),
            |_| format!("    mov r4, -16\n    {op}\n    ret\n"),
            |_| [0, 1, 0],
        );
        let text = format!("{PROLOGUE}    mov r4, -16\n    {op}\n    ret\n");
        let (outcome, _) = run_tier(
            &asm::parse(&text).unwrap(),
            &LaunchConfig::linear(1, 32),
            Tier::Warp,
            1,
            None,
        );
        assert!(matches!(outcome, Err(SptxError::OutOfBoundsAccess { .. })), "{op}: {outcome:?}");
    }
}
