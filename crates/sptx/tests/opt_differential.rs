//! Differential property testing of the optimizer: for randomized programs, the
//! optimized form must produce a bit-identical memory image — across immediate
//! values, arithmetic chains, type conversions and transcendentals, including NaN
//! and infinity propagation.

use proptest::prelude::*;

use sigmavp_sptx::builder::ProgramBuilder;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::isa::{BinOp, Reg, ScalarType, UnaryOp};
use sigmavp_sptx::opt::optimize;
use sigmavp_sptx::KernelProgram;
use sigmavp_sptx::{asm, Tier};

const NREGS: u16 = 8;

/// One randomly chosen straight-line operation over the register file.
#[derive(Debug, Clone)]
enum RandomOp {
    Bin { op: usize, ty: usize, dst: u16, a: u16, b: u16 },
    Un { op: usize, ty: usize, dst: u16, a: u16 },
    Mad { ty: usize, dst: u16, a: u16, b: u16, c: u16 },
    Mov { dst: u16, src: u16 },
    Cvt { to: usize, from: usize, dst: u16, src: u16 },
}

fn arb_op() -> impl Strategy<Value = RandomOp> {
    let r = 0u16..NREGS;
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
    // Div and Rem excluded: random integer operands routinely divide by zero, and
    // fault behaviour is covered by dedicated unit tests.
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

/// Build a straight-line program: seed all registers with immediates, apply the
/// random ops, then store every register (as both i64 and f64 views) to memory.
fn build_program(seeds_i: &[i64; 4], seeds_f: &[f64; 4], ops: &[RandomOp]) -> KernelProgram {
    let mut b = ProgramBuilder::new("random_straightline");
    let regs: Vec<Reg> = (0..NREGS).map(|_| b.reg()).collect();
    for (i, r) in regs.iter().enumerate() {
        if i % 2 == 0 {
            b.mov_imm_i(*r, seeds_i[i / 2]);
        } else {
            b.mov_imm_f(*r, seeds_f[i / 2]);
        }
    }
    for op in ops {
        match op {
            RandomOp::Bin { op, ty, dst, a, b: rb } => {
                b.binop(
                    bin_of(*op),
                    ty_of(*ty),
                    regs[*dst as usize],
                    regs[*a as usize],
                    regs[*rb as usize],
                );
            }
            RandomOp::Un { op, ty, dst, a } => {
                b.unop(un_of(*op), ty_of(*ty), regs[*dst as usize], regs[*a as usize]);
            }
            RandomOp::Mad { ty, dst, a, b: rb, c } => {
                b.mad(
                    ty_of(*ty),
                    regs[*dst as usize],
                    regs[*a as usize],
                    regs[*rb as usize],
                    regs[*c as usize],
                );
            }
            RandomOp::Mov { dst, src } => {
                b.mov(regs[*dst as usize], regs[*src as usize]);
            }
            RandomOp::Cvt { to, from, dst, src } => {
                b.cvt(ty_of(*to), ty_of(*from), regs[*dst as usize], regs[*src as usize]);
            }
        }
    }
    let base = b.reg();
    b.ld_param(base, 0);
    for (i, r) in regs.iter().enumerate() {
        b.st(ScalarType::I64, base, (i * 16) as i64, *r);
        b.st(ScalarType::F64, base, (i * 16 + 8) as i64, *r);
    }
    b.ret();
    b.build().expect("generated program is structurally valid")
}

/// Like [`arb_op`] but restricted to operations the folder is guaranteed to fold
/// (no integer transcendentals, which the folder conservatively leaves alone).
fn arb_foldable_op() -> impl Strategy<Value = RandomOp> {
    let r = 0u16..NREGS;
    prop_oneof![
        (0usize..10, 0usize..3, r.clone(), r.clone(), r.clone())
            .prop_map(|(op, ty, dst, a, b)| RandomOp::Bin { op, ty, dst, a, b }),
        // Unary restricted to neg/abs, which fold for every type.
        (0usize..2, 0usize..3, r.clone(), r.clone()).prop_map(|(op, ty, dst, a)| RandomOp::Un {
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

/// Build a diamond-shaped program: seeds, a data-dependent branch, different
/// random op sequences in each arm, a join, then stores. Exercises the
/// optimizer's cross-block conservatism (per-block folding, liveness seeded at
/// block exits).
fn build_diamond(
    seeds_i: &[i64; 4],
    seeds_f: &[f64; 4],
    then_ops: &[RandomOp],
    else_ops: &[RandomOp],
    threshold: i64,
) -> KernelProgram {
    use sigmavp_sptx::isa::CmpOp;
    let mut b = ProgramBuilder::new("random_diamond");
    let regs: Vec<Reg> = (0..NREGS).map(|_| b.reg()).collect();
    for (i, r) in regs.iter().enumerate() {
        if i % 2 == 0 {
            b.mov_imm_i(*r, seeds_i[i / 2]);
        } else {
            b.mov_imm_f(*r, seeds_f[i / 2]);
        }
    }
    let limit = b.reg();
    let p = b.pred();
    b.mov_imm_i(limit, threshold);
    b.setp(CmpOp::Lt, ScalarType::I64, p, regs[0], limit);
    let then_b = b.declare_block();
    let else_b = b.declare_block();
    let join = b.declare_block();
    b.cond_bra(p, then_b, else_b);

    let emit = |b: &mut ProgramBuilder, ops: &[RandomOp]| {
        for op in ops {
            match op {
                RandomOp::Bin { op, ty, dst, a, b: rb } => {
                    b.binop(
                        bin_of(*op),
                        ty_of(*ty),
                        regs[*dst as usize],
                        regs[*a as usize],
                        regs[*rb as usize],
                    );
                }
                RandomOp::Un { op, ty, dst, a } => {
                    b.unop(un_of(*op), ty_of(*ty), regs[*dst as usize], regs[*a as usize]);
                }
                RandomOp::Mad { ty, dst, a, b: rb, c } => {
                    b.mad(
                        ty_of(*ty),
                        regs[*dst as usize],
                        regs[*a as usize],
                        regs[*rb as usize],
                        regs[*c as usize],
                    );
                }
                RandomOp::Mov { dst, src } => {
                    b.mov(regs[*dst as usize], regs[*src as usize]);
                }
                RandomOp::Cvt { to, from, dst, src } => {
                    b.cvt(ty_of(*to), ty_of(*from), regs[*dst as usize], regs[*src as usize]);
                }
            }
        }
    };
    b.switch_to(then_b);
    emit(&mut b, then_ops);
    b.bra(join);
    b.switch_to(else_b);
    emit(&mut b, else_ops);
    b.bra(join);
    b.switch_to(join);
    let base = b.reg();
    b.ld_param(base, 0);
    for (i, r) in regs.iter().enumerate() {
        b.st(ScalarType::I64, base, (i * 16) as i64, *r);
        b.st(ScalarType::F64, base, (i * 16 + 8) as i64, *r);
    }
    b.ret();
    b.build().expect("generated diamond is structurally valid")
}

fn run(program: &KernelProgram) -> Vec<u8> {
    let mut mem = Memory::new(NREGS as usize * 16);
    Interpreter::new()
        .run(program, &LaunchConfig::linear(1, 1), &[ParamValue::Ptr(0)], &mut mem)
        .expect("straight-line program executes");
    mem.as_bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn assembler_roundtrip_preserves_behaviour(
        seeds_i in proptest::array::uniform4(-1_000_000i64..1_000_000),
        seeds_f in proptest::array::uniform4(-1.0e6f64..1.0e6),
        ops in proptest::collection::vec(arb_op(), 0..30),
    ) {
        // Random programs survive disassemble → parse with identical structure and
        // bit-identical execution. Float immediates print via `{:?}`, which is
        // round-trip exact for f64.
        let program = build_program(&seeds_i, &seeds_f, &ops);
        let text = sigmavp_sptx::asm::disassemble(&program);
        let reparsed = sigmavp_sptx::asm::parse(&text).expect("disassembly reparses");
        prop_assert_eq!(program.static_mix(), reparsed.static_mix());
        prop_assert_eq!(program.blocks().len(), reparsed.blocks().len());
        prop_assert_eq!(run(&program), run(&reparsed));
    }

    #[test]
    fn optimized_programs_are_bit_identical(
        seeds_i in proptest::array::uniform4(-1_000_000i64..1_000_000),
        seeds_f in proptest::array::uniform4(-1.0e6f64..1.0e6),
        ops in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let program = build_program(&seeds_i, &seeds_f, &ops);
        let (optimized, stats) = optimize(&program).expect("optimizer succeeds");
        prop_assert_eq!(run(&program), run(&optimized));
        // The pipeline terminated (fixpoint guard) and never grew the program.
        prop_assert!(stats.iterations <= 33);
        prop_assert!(optimized.static_size() <= program.static_size());
    }

    #[test]
    fn diamond_programs_optimize_soundly(
        seeds_i in proptest::array::uniform4(-1_000_000i64..1_000_000),
        seeds_f in proptest::array::uniform4(-1.0e6f64..1.0e6),
        then_ops in proptest::collection::vec(arb_op(), 0..20),
        else_ops in proptest::collection::vec(arb_op(), 0..20),
        threshold in -1_000_000i64..1_000_000,
    ) {
        let program = build_diamond(&seeds_i, &seeds_f, &then_ops, &else_ops, threshold);
        let (optimized, _) = optimize(&program).expect("optimizer succeeds");
        prop_assert_eq!(run(&program), run(&optimized));
        prop_assert!(optimized.static_size() <= program.static_size());
    }

    #[test]
    fn straight_line_programs_fold_almost_completely(
        seeds_i in proptest::array::uniform4(-1_000i64..1_000),
        seeds_f in proptest::array::uniform4(-100.0f64..100.0),
        ops in proptest::collection::vec(arb_foldable_op(), 1..30),
    ) {
        // Every operand chain starts from immediates, so after folding + DCE the
        // only remaining instructions are the parameter load, the final register
        // materializations (one per live register) and the stores.
        let program = build_program(&seeds_i, &seeds_f, &ops);
        let (optimized, _) = optimize(&program).expect("optimizer succeeds");
        let max_remaining = 1 + NREGS as u64 + 2 * NREGS as u64; // ldp + movs + stores
        prop_assert!(
            optimized.static_size() <= max_remaining,
            "static size {} > {}",
            optimized.static_size(),
            max_remaining
        );
    }
}

/// The image one thread leaves at `tier` with eight bytes of memory.
fn run_on(tier: Tier, program: &KernelProgram) -> Vec<u8> {
    let mut mem = Memory::new(8);
    Interpreter::new()
        .with_tier(tier)
        .run(program, &LaunchConfig::linear(1, 1), &[ParamValue::Ptr(0)], &mut mem)
        .expect("program runs");
    mem.as_bytes().to_vec()
}

#[test]
fn folded_cvt_from_i64_stores_what_both_tiers_store() {
    // `cvt` reads its source as the type it names. An `f64` converted from
    // `i64` truncates first, and an `i64` reaches `f32` in one rounding, not
    // two through `f64` (which would give 2^54).
    let big = (1i64 << 54) + (1 << 30) + 1;
    let cases = [
        ("mov.f64 r0, 3.7".to_string(), "cvt.f64.i64", 3.0),
        (format!("mov r0, {big}"), "cvt.f32.i64", ((1i64 << 54) + (1 << 31)) as f64),
    ];
    for (mov, cvt, want) in cases {
        let text = format!(
            ".kernel cvt_from_i64\nentry:\n    {mov}\n    {cvt} r1, r0\n    ldp r2, 0\n    \
             st.f64 [r2], r1\n    ret\n"
        );
        let program = asm::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let (folded, stats) = optimize(&program).expect("optimizer succeeds");
        assert!(stats.folded > 0, "{cvt}: {stats:?}");
        for tier in [Tier::Scalar, Tier::Warp] {
            let plain = run_on(tier, &program);
            assert_eq!(plain, want.to_le_bytes(), "{cvt} on {tier:?}");
            assert_eq!(run_on(tier, &folded), plain, "{cvt} folded, on {tier:?}");
        }
    }
}
