//! Differential property testing of the block-parallel interpreter: for
//! random programs, launch shapes and parameters, parallel execution
//! (workers ∈ {2, 4, 7}) must be observationally identical to the sequential
//! interpreter (`workers = 1`) — same [`ExecutionProfile`], same final memory
//! bytes, same error value — across success, faulting-block and
//! budget-exhaustion outcomes — and for blocks that read bytes they wrote
//! themselves, which the overlay must patch over the launch-entry memory.

use std::sync::RwLock;

use proptest::prelude::*;

use sigmavp_sptx::builder::{for_loop, ProgramBuilder};
use sigmavp_sptx::counters::ExecutionProfile;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::isa::{BinOp, Reg, ScalarType, Special, UnaryOp};
use sigmavp_sptx::{KernelProgram, SptxError};
use ScalarType::{F32, F64, I64};

const NREGS: usize = 6;
const PARALLEL_WORKERS: [u32; 3] = [2, 4, 7];

/// One randomly chosen fault-free operation over the scratch register file.
#[derive(Debug, Clone)]
enum RandomOp {
    Bin { op: usize, ty: usize, dst: usize, a: usize, b: usize },
    Un { op: usize, ty: usize, dst: usize, a: usize },
    Mad { ty: usize, dst: usize, a: usize, b: usize, c: usize },
    Mov { dst: usize, src: usize },
    Cvt { to: usize, from: usize, dst: usize, src: usize },
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
        (r.clone(), r.clone()).prop_map(|(dst, src)| RandomOp::Mov { dst, src }),
        (0usize..3, 0usize..3, r.clone(), r).prop_map(|(to, from, dst, src)| RandomOp::Cvt {
            to,
            from,
            dst,
            src
        }),
    ]
}

fn ty_of(sel: usize) -> ScalarType {
    [ScalarType::F32, ScalarType::F64, ScalarType::I64][sel % 3]
}

fn bin_of(sel: usize) -> BinOp {
    // Div/Rem excluded here: faults are exercised by the dedicated
    // `faulting_block_matches_sequential` property below.
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

fn emit(b: &mut ProgramBuilder, regs: &[Reg], ops: &[RandomOp]) {
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
            RandomOp::Mov { dst, src } => {
                b.mov(regs[*dst], regs[*src]);
            }
            RandomOp::Cvt { to, from, dst, src } => {
                b.cvt(ty_of(*to), ty_of(*from), regs[*dst], regs[*src]);
            }
        }
    }
}

/// A race-free random kernel: every thread reads `input[gtid]` (read-only
/// across the launch), mangles a scratch register file with `ops` (optionally
/// inside a counted loop), and stores all scratch registers to its own
/// private output slot. No thread reads anything another thread writes, so
/// sequential and parallel execution must agree bit-for-bit.
fn build_random_kernel(seed_i: i64, seed_f: f64, ops: &[RandomOp], trips: u32) -> KernelProgram {
    let mut b = ProgramBuilder::new("par_diff");
    let gtid = b.reg();
    b.read_special(gtid, Special::GlobalTid);
    let regs: Vec<Reg> = (0..NREGS).map(|_| b.reg()).collect();
    b.mov(regs[0], gtid);
    b.read_special(regs[1], Special::CtaIdX);
    b.read_special(regs[2], Special::TidX);
    let inbase = b.reg();
    b.ld_param(inbase, 0);
    b.ld_indexed(ScalarType::F64, regs[3], inbase, gtid, 0);
    b.mov_imm_i(regs[4], seed_i);
    b.mov_imm_f(regs[5], seed_f);

    if trips > 0 {
        for_loop(&mut b, i64::from(trips), |b, _| emit(b, &regs, ops));
    } else {
        emit(&mut b, &regs, ops);
    }

    let (outbase, stride, addr) = (b.reg(), b.reg(), b.reg());
    b.ld_param(outbase, 1)
        .mov_imm_i(stride, (NREGS * 16) as i64)
        .binop(BinOp::Mul, ScalarType::I64, addr, gtid, stride)
        .binop(BinOp::Add, ScalarType::I64, addr, addr, outbase);
    for (i, r) in regs.iter().enumerate() {
        b.st(ScalarType::I64, addr, (i * 16) as i64, *r);
        b.st(ScalarType::F64, addr, (i * 16 + 8) as i64, *r);
    }
    b.ret();
    b.build().expect("generated kernel is structurally valid")
}

/// The telemetry collector is process-global: every run shares this lock,
/// the one that installs a collector to read a counter takes it exclusively.
static COLLECTOR: RwLock<()> = RwLock::new(());

/// Run `program` over `cfg` at the given worker count on a fresh memory image
/// (input region seeded with a deterministic pattern), returning the outcome
/// and the final memory bytes.
fn run_with_workers(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    workers: u32,
    budget: Option<u64>,
) -> (Result<ExecutionProfile, SptxError>, Vec<u8>) {
    let _shared = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
    let threads = cfg.total_threads() as usize;
    let out_base = threads * 8;
    let mut mem = Memory::new(out_base + threads * NREGS * 16);
    for t in 0..threads {
        mem.write_f64(t as u64 * 8, (t as f64).mul_add(-3.25, 1000.5)).unwrap();
    }
    let mut interp = Interpreter::new().with_workers(workers);
    if let Some(budget) = budget {
        interp = interp.with_budget(budget);
    }
    let params = [ParamValue::Ptr(0), ParamValue::Ptr(out_base as u64)];
    let result = interp.run(program, cfg, &params, &mut mem);
    (result, mem.as_bytes().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parallel_matches_sequential(
        seed_i in -1_000_000i64..1_000_000,
        seed_f in -1.0e6f64..1.0e6,
        ops in proptest::collection::vec(arb_op(), 0..24),
        grid in 1u32..9,
        block in 1u32..25,
        trips in 0u32..6,
    ) {
        let program = build_random_kernel(seed_i, seed_f, &ops, trips);
        let cfg = LaunchConfig::linear(grid, block);
        let (seq, seq_mem) = run_with_workers(&program, &cfg, 1, None);
        let seq = seq.expect("race-free random kernel executes");
        for workers in PARALLEL_WORKERS {
            let (par, par_mem) = run_with_workers(&program, &cfg, workers, None);
            let par = par.expect("parallel execution of the same kernel succeeds");
            prop_assert_eq!(&seq, &par, "profile diverged at workers={}", workers);
            prop_assert_eq!(&seq_mem, &par_mem, "memory diverged at workers={}", workers);
        }
    }

    #[test]
    fn faulting_block_matches_sequential(
        grid in 2u32..10,
        block in 1u32..17,
        fault_block in 0u32..10,
    ) {
        let fault_block = fault_block % grid;
        // Every thread stores gtid to its slot, then block `fault_block`
        // divides by zero. Sequential semantics: blocks before the faulting
        // one complete, thread 0 of the faulting block stores and then
        // faults, everything after never runs.
        let mut b = ProgramBuilder::new("par_fault");
        let (gtid, ctaid, outbase, k, one) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        b.read_special(gtid, Special::GlobalTid)
            .read_special(ctaid, Special::CtaIdX)
            .ld_param(outbase, 0)
            .st_indexed(ScalarType::I64, outbase, gtid, 0, gtid)
            .mov_imm_i(k, i64::from(fault_block))
            .binop(BinOp::Sub, ScalarType::I64, k, ctaid, k)
            .mov_imm_i(one, 1)
            .binop(BinOp::Div, ScalarType::I64, one, one, k)
            .ret();
        let program = b.build().unwrap();
        let cfg = LaunchConfig::linear(grid, block);

        let (seq, seq_mem) = run_with_workers(&program, &cfg, 1, None);
        let seq_err = seq.expect_err("the faulting block divides by zero");
        let is_div_by_zero = matches!(seq_err, SptxError::DivisionByZero { .. });
        prop_assert!(is_div_by_zero);
        for workers in PARALLEL_WORKERS {
            let (par, par_mem) = run_with_workers(&program, &cfg, workers, None);
            let par_err = par.expect_err("parallel run faults identically");
            prop_assert_eq!(&seq_err, &par_err, "error diverged at workers={}", workers);
            prop_assert_eq!(&seq_mem, &par_mem, "partial memory diverged at workers={}", workers);
        }
    }

    #[test]
    fn write_write_races_replay_in_ctaid_order(
        grid in 2u32..9,
        block in 1u32..17,
    ) {
        // All threads store their gtid to the same address: a write-write
        // race, which the ISA resolves last-writer-wins in (ctaid, tid)
        // order. Journal replay must reproduce it exactly.
        let mut b = ProgramBuilder::new("par_race");
        let (gtid, outbase) = (b.reg(), b.reg());
        b.read_special(gtid, Special::GlobalTid)
            .ld_param(outbase, 0)
            .st(ScalarType::I64, outbase, 0, gtid)
            .ret();
        let program = b.build().unwrap();
        let cfg = LaunchConfig::linear(grid, block);
        let (seq, seq_mem) = run_with_workers(&program, &cfg, 1, None);
        seq.unwrap();
        for workers in PARALLEL_WORKERS {
            let (par, par_mem) = run_with_workers(&program, &cfg, workers, None);
            par.unwrap();
            prop_assert_eq!(&seq_mem, &par_mem, "race order diverged at workers={}", workers);
        }
        // And the winner is the last thread of the grid.
        let winner = i64::from_le_bytes(seq_mem[0..8].try_into().unwrap());
        prop_assert_eq!(winner, cfg.total_threads() as i64 - 1);
    }
}

/// A looped kernel with a statically known per-thread instruction count, used
/// to sweep the cumulative budget across block boundaries.
fn budget_kernel() -> KernelProgram {
    let mut b = ProgramBuilder::new("par_budget");
    let (gtid, outbase, acc, one) = (b.reg(), b.reg(), b.reg(), b.reg());
    b.read_special(gtid, Special::GlobalTid)
        .ld_param(outbase, 0)
        .mov_imm_i(acc, 0)
        .mov_imm_i(one, 1);
    for_loop(&mut b, 7, |b, _| {
        b.binop(BinOp::Add, ScalarType::I64, acc, acc, one);
    });
    b.st_indexed(ScalarType::I64, outbase, gtid, 0, acc).ret();
    b.build().unwrap()
}

#[test]
fn budget_exhaustion_matches_sequential_at_every_boundary() {
    let program = budget_kernel();
    let cfg = LaunchConfig::linear(5, 3);
    let (full, _) = run_with_workers(&program, &cfg, 1, None);
    let total = full.unwrap().counts.total();

    // Sweep budgets through: plenty, exactly enough, one short, mid-grid,
    // mid-block, and nearly nothing.
    let budgets = [total + 10, total, total - 1, total / 2, total / 3 + 1, total / 5, 7, 1];
    for budget in budgets {
        let (seq, seq_mem) = run_with_workers(&program, &cfg, 1, Some(budget));
        for workers in PARALLEL_WORKERS {
            let (par, par_mem) = run_with_workers(&program, &cfg, workers, Some(budget));
            match (&seq, &par) {
                (Ok(s), Ok(p)) => assert_eq!(s, p, "profile diverged at budget {budget}"),
                (Err(s), Err(p)) => assert_eq!(s, p, "error diverged at budget {budget}"),
                _ => panic!(
                    "outcome diverged at budget {budget} workers {workers}: seq={seq:?} par={par:?}"
                ),
            }
            assert_eq!(seq_mem, par_mem, "memory diverged at budget {budget} workers {workers}");
        }
    }
}

#[test]
fn single_block_grids_use_the_sequential_path() {
    // grid_dim = 1 cannot be split; the parallel dispatch must fall through
    // to the sequential loop and still produce the right answer.
    let program = budget_kernel();
    let cfg = LaunchConfig::linear(1, 8);
    let (r, mem) = run_with_workers(&program, &cfg, 8, None);
    r.unwrap();
    for t in 0..8u64 {
        let out =
            i64::from_le_bytes(mem[(t * 8) as usize..(t * 8 + 8) as usize].try_into().unwrap());
        assert_eq!(out, 7);
    }
}

/// How a [`self_read_kernel`] block reads bytes it wrote itself.
#[derive(Debug, Clone, Copy)]
enum SelfRead {
    /// Thread `tid` stores its slot, then loads thread `(tid + shift) % ntid`'s:
    /// later warps read what earlier warps of the CTA stored.
    LaterWarp { shift: i64 },
    /// Round trips across widths: `st.f64`, `st.f32` over its upper half and
    /// an `ld.f64` of both (the newer span wins), then an `st.i64` of exactly
    /// the first span's bytes and an `ld.f32` of its upper half (no in-place
    /// re-write past the span between); an `st.i64` read back as two `ld.f32`
    /// halves; two `st.f32` read back as one `ld.f64` straddling both. Each
    /// lane logs one span per store, so small CTAs stay under the span bound
    /// and larger ones cross it.
    MixedWidths,
    /// `trips` rounds of `a[gtid * stride] += in[gtid]`: stride 1 is one
    /// coalesced span per warp, stride 2 one span per lane.
    Rmw { stride: i64, trips: i64 },
    /// Thread `tid` loads thread `tid ^ 1`'s fresh store: an intra-warp
    /// hazard, so the CTA re-runs on the scalar tier.
    Hazard,
}

/// A kernel over `in` (an f64 per thread, param 0), a scratch array `a` of
/// 32 bytes per thread (param 1) and an output array of 32 bytes per thread
/// (param 2). No block reads a byte another block writes.
fn self_read_kernel(case: SelfRead) -> KernelProgram {
    let mut b = ProgramBuilder::new("par_self_read");
    let [gtid, tid, ntid, cta, inp, a, out, x, y, k] = [(); 10].map(|_| b.reg());
    b.read_special(gtid, Special::GlobalTid)
        .read_special(tid, Special::TidX)
        .read_special(ntid, Special::NTidX)
        .read_special(cta, Special::CtaIdX)
        .ld_param(inp, 0)
        .ld_param(a, 1)
        .ld_param(out, 2)
        .ld_indexed(F64, x, inp, gtid, 0);
    match case {
        SelfRead::LaterWarp { shift } => {
            b.st_indexed(F64, a, gtid, 0, x)
                .mov_imm_i(k, shift)
                .binop(BinOp::Add, I64, k, tid, k)
                .binop(BinOp::Rem, I64, k, k, ntid)
                .mad(I64, k, cta, ntid, k)
                .ld_indexed(F64, y, a, k, 0)
                .st_indexed(F64, out, gtid, 0, y);
        }
        SelfRead::MixedWidths => {
            let (p, q) = (b.reg(), b.reg());
            b.mov_imm_i(k, 32)
                .mad(I64, p, gtid, k, a)
                .mad(I64, q, gtid, k, out)
                .cvt(I64, F64, k, x)
                .st(F64, p, 16, x)
                .st(F32, p, 20, x)
                .ld(F64, y, p, 16)
                .st(I64, p, 16, k)
                .ld(F32, x, p, 20)
                .st(F64, q, 16, y)
                .st(F32, q, 24, x)
                .st(I64, p, 0, k)
                .ld(F32, y, p, 0)
                .st(F32, q, 0, y)
                .ld(F32, y, p, 4)
                .st(F32, q, 4, y)
                .st(F32, p, 8, x)
                .st(F32, p, 12, y)
                .ld(F64, y, p, 8)
                .st(F64, q, 8, y);
        }
        SelfRead::Rmw { stride, trips } => {
            b.mov_imm_i(k, stride).binop(BinOp::Mul, I64, k, gtid, k);
            for_loop(&mut b, trips, |b, _| {
                b.ld_indexed(F32, y, a, k, 0)
                    .binop(BinOp::Add, F32, y, y, x)
                    .st_indexed(F32, a, k, 0, y);
            });
        }
        SelfRead::Hazard => {
            b.st_indexed(F32, a, gtid, 0, x)
                .mov_imm_i(k, 1)
                .binop(BinOp::Xor, I64, k, tid, k)
                .mad(I64, k, cta, ntid, k)
                .ld_indexed(F32, y, a, k, 0)
                .st_indexed(F32, out, gtid, 0, y);
        }
    }
    b.ret();
    b.build().expect("self-read kernel is structurally valid")
}

/// Run a [`self_read_kernel`] at `workers`; the caller holds [`COLLECTOR`].
fn run_self_read(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    workers: u32,
) -> (Result<ExecutionProfile, SptxError>, Vec<u8>) {
    let threads = cfg.total_threads();
    let mut mem = Memory::new(threads as usize * 72);
    for t in 0..threads {
        mem.write_f64(t * 8, (t as f64).mul_add(0.75, -20.25)).unwrap();
    }
    let params = [0, threads * 8, threads * 40].map(ParamValue::Ptr);
    let result = Interpreter::new().with_workers(workers).run(program, cfg, &params, &mut mem);
    (result, mem.as_bytes().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_block_reading_its_own_writes_matches_sequential(
        case in 0usize..5,
        shift in 1i64..80,
        trips in 0i64..5,
        grid in 2u32..6,
        block in prop_oneof![1u32..16, 16u32..97],
    ) {
        let case = match case {
            0 => SelfRead::LaterWarp { shift },
            1 => SelfRead::MixedWidths,
            2 => SelfRead::Rmw { stride: 1, trips },
            3 => SelfRead::Rmw { stride: 2, trips },
            _ => SelfRead::Hazard,
        };
        let program = self_read_kernel(case);
        let cfg = LaunchConfig::linear(grid, block);
        let _shared = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
        let (seq, seq_mem) = run_self_read(&program, &cfg, 1);
        for workers in PARALLEL_WORKERS {
            let (par, par_mem) = run_self_read(&program, &cfg, workers);
            prop_assert_eq!(&seq, &par, "{:?}: outcome diverged at workers={}", case, workers);
            prop_assert_eq!(&seq_mem, &par_mem, "{:?}: memory diverged at workers={}", case, workers);
        }
    }
}

#[test]
fn a_scattered_rmw_loop_crosses_to_the_slot_index_and_a_coalesced_one_does_not() {
    // 256 threads per CTA: one re-written span per warp (8) when coalesced,
    // one per lane (256) at stride 2 — under and over any span bound between.
    let cfg = LaunchConfig::linear(4, 256);
    for (stride, indexed) in [(1, 0), (2, u64::from(cfg.grid_dim))] {
        let program = self_read_kernel(SelfRead::Rmw { stride, trips: 3 });
        let (seq, seq_mem) = {
            let _shared = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
            run_self_read(&program, &cfg, 1)
        };
        let _exclusive = COLLECTOR.write().unwrap_or_else(|e| e.into_inner());
        let telemetry = sigmavp_telemetry::install();
        let (par, par_mem) = run_self_read(&program, &cfg, 2);
        sigmavp_telemetry::uninstall();
        assert_eq!(seq, par, "stride {stride}");
        assert_eq!(seq_mem, par_mem, "stride {stride}");
        let counted = telemetry.snapshot().counter("sptx.parallel.indexed_blocks");
        assert_eq!(counted, Some(indexed), "stride {stride}");
    }
}
