//! Criterion bench: raw interpreter block throughput, scalar vs warp tier,
//! sequential vs block-parallel.
//!
//! A compute-heavy 32-block Mandelbrot-style kernel is launched through the
//! interpreter on every (tier, workers) combination: `workers = 1` is the
//! sequential grid loop, `workers = 4` the persistent worker pool with
//! deterministic merge; [`Tier::Scalar`] is the per-thread reference
//! interpreter and [`Tier::Warp`] the 32-lane lockstep engine over the
//! pre-decoded op stream. On a multi-core host the parallel rows should
//! approach the core count; on a single core they bound the parallel
//! engine's overhead instead. Warp rows should beat their scalar
//! counterparts outright — that is the tier's whole claim.
//!
//! The `overlay_rmw` group times the block-parallel overlay on the case that
//! stresses it: every thread runs `out[i * stride] += in[i * stride]` many
//! times, so each CTA re-reads and re-writes its own fresh stores. Stride 1
//! is one coalesced span per warp store, re-written in place; stride 2 is one
//! span per lane, which takes a 256-thread CTA past the overlay's span bound
//! onto its slot index. Run `cargo bench -p sigmavp-bench --bench interp` and
//! compare `workers_2` against `workers_1`, and against the parent commit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sigmavp_sptx::asm;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::Tier;

/// An iteration-heavy kernel: every thread runs a 64-trip escape loop over
/// its own f64 cell, then stores the iteration count — compute-dominated,
/// race-free, block-independent.
const KERNEL: &str = r#".kernel escape
entry:
    rs r0, gtid
    ldp r1, 0
    mov r2, 8
    mul.i64 r2, r0, r2
    add.i64 r2, r2, r1
    ld.f64 r3, [r2]
    mov.f64 r4, 0.0
    mov r5, 0
    mov r6, 1
    mov r7, 64
    bra loop
loop:
    mul.f64 r4, r4, r4
    add.f64 r4, r4, r3
    add.i64 r5, r5, r6
    setp.lt.i64 p0, r5, r7
    @p0 bra loop, done
done:
    st.i64 [r2], r5
    ret
"#;

/// `out[gtid * stride] += in[gtid * stride]`, `trips` times (params: in,
/// out, stride, trips).
const ACCUMULATE: &str = r#".kernel accumulate
entry:
    rs r0, gtid
    ldp r1, 0
    ldp r2, 1
    ldp r3, 2
    ldp r4, 3
    mul.i64 r5, r0, r3
    mov r6, 4
    mul.i64 r5, r5, r6
    add.i64 r7, r5, r1
    add.i64 r8, r5, r2
    mov r9, 0
    mov r10, 1
    bra loop
loop:
    ld.f32 r11, [r7]
    ld.f32 r12, [r8]
    add.f32 r12, r12, r11
    st.f32 [r8], r12
    add.i64 r9, r9, r10
    setp.lt.i64 p0, r9, r4
    @p0 bra loop, done
done:
    ret
"#;

fn bench_overlay_rmw(c: &mut Criterion) {
    let program = asm::parse(ACCUMULATE).expect("kernel parses");
    let (grid, block, trips) = (32u32, 256u32, 100i64);
    let cfg = LaunchConfig::linear(grid, block);
    let mut g = c.benchmark_group("overlay_rmw");
    g.sample_size(10);
    for (stride, name) in [(1u64, "coalesced"), (2, "scatter")] {
        let span = u64::from(grid * block) * stride * 4;
        for workers in [1u32, 2] {
            let interp = Interpreter::new().with_workers(workers);
            g.bench_function(format!("{name}_workers_{workers}"), |b| {
                let mut mem = Memory::new(2 * span as usize);
                for i in 0..span / 4 {
                    mem.write_f32(i * 4, 0.25 + (i % 7) as f32).unwrap();
                }
                let params = [
                    ParamValue::Ptr(0),
                    ParamValue::Ptr(span),
                    ParamValue::I64(stride as i64),
                    ParamValue::I64(trips),
                ];
                b.iter(|| {
                    interp
                        .run(&program, &cfg, black_box(&params), &mut mem)
                        .expect("launch succeeds")
                })
            });
        }
    }
    g.finish();
}

fn bench_interp(c: &mut Criterion) {
    let program = asm::parse(KERNEL).expect("kernel parses");
    let (grid, block) = (32u32, 64u32);
    let bytes = u64::from(grid) * u64::from(block) * 8;
    let cfg = LaunchConfig::linear(grid, block);
    let mut g = c.benchmark_group("interp");
    g.sample_size(10);
    for (tier, tier_name) in [(Tier::Scalar, "scalar"), (Tier::Warp, "warp")] {
        for workers in [1u32, 4] {
            let interp = Interpreter::new().with_tier(tier).with_workers(workers);
            g.bench_function(format!("escape_32x64_{tier_name}_workers_{workers}"), |b| {
                let mut mem = Memory::new(bytes as usize);
                for t in 0..(grid * block) as u64 {
                    mem.write_f64(t * 8, -0.1 - (t as f64) * 1e-6).unwrap();
                }
                b.iter(|| {
                    interp
                        .run(&program, &cfg, black_box(&[ParamValue::Ptr(0)]), &mut mem)
                        .expect("launch succeeds")
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_interp, bench_overlay_rmw);
criterion_main!(benches);
