//! The three timing-estimation models (Eqs. 2–5).
//!
//! All three predict the execution time of kernel `K` on target `T` from a host
//! profile, differing in how much microarchitectural detail they use:
//!
//! * **C** (Eq. 2) — pure peak-IPC scaling: `C{K,T} = σ{K,T} / (IPC_H × IPC_{H→T})
//!   = σ{K,T} / IPC_T`. Knows nothing about instruction classes or stalls.
//! * **C′** (Eq. 4) — per-class latencies: the ideal cycles `CP{K,arch} = Σ_i
//!   σ{K_i,arch} × τ{i,arch}` (Eq. 3) plus the *measured* host stall gap:
//!   `C′ = CP_T + (C_H − CP_H)`. Carries the host's stalls to the target verbatim.
//! * **C″** (Eq. 5) — corrects the stall transplant with the probabilistic
//!   data-cache model evaluated on both cache geometries:
//!   `C″ = C′ − Υ[data]_H + Υ[data]_T`.
//!
//! Execution time is "the estimated clock cycles divided by the product of the
//! number of used GPU processors and the GPU clock frequency" (paper, Section 4),
//! plus the target's fixed launch overhead.

use sigmavp_gpu::arch::GpuArch;
use sigmavp_gpu::cache;
use sigmavp_gpu::profiler::HardwareProfile;
use sigmavp_sptx::counters::MemoryTraceSummary;
use sigmavp_sptx::program::{ClassCounts, KernelProgram};

use crate::compile::TargetCompilation;
use crate::sigma::derive_sigma;

/// Output of the three timing models for one kernel on one target.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingEstimates {
    /// Derived target instruction counts σ{K,T} (Eq. 1).
    pub sigma_target: ClassCounts,
    /// Model 1 cycles (Eq. 2), in device-cycles.
    pub c1_cycles: f64,
    /// Model 2 cycles C′ (Eq. 4), in core-cycle work units.
    pub c2_cycles: f64,
    /// Model 3 cycles C″ (Eq. 5), in core-cycle work units.
    pub c3_cycles: f64,
    /// Execution-time estimate from C, seconds.
    pub et1_s: f64,
    /// Execution-time estimate from C′, seconds.
    pub et2_s: f64,
    /// Execution-time estimate from C″, seconds.
    pub et3_s: f64,
}

/// Run the full estimation pipeline: derive σ, then evaluate C, C′ and C″.
///
/// `host_profile` must come from executing `program` on `host_arch`'s device;
/// `compilation` is the target's compilation model.
pub fn estimate_timing(
    program: &KernelProgram,
    host_profile: &HardwareProfile,
    host_arch: &GpuArch,
    target_arch: &GpuArch,
    compilation: &TargetCompilation,
) -> TimingEstimates {
    let sigma_target = derive_sigma(program, host_profile, compilation);
    let sigma_host = host_profile.counts;

    // Model 1 (Eq. 2): peak-IPC scaling. IPC_{H→T} = IPC_T / IPC_H, so the host
    // terms cancel and C = σ_T / IPC_T (whole-device instructions per cycle).
    let c1_cycles = sigma_target.total() as f64 / target_arch.peak_ipc();
    let et1_s = c1_cycles / target_arch.clock_hz() + target_arch.launch_overhead_us * 1e-6;

    // Model 2 (Eqs. 3–4): per-class ideal cycle work on each machine plus the
    // host's measured stall gap. Both CP terms are made *padding-aware* using the
    // "System & Arch Information" of Fig. 7: the estimator knows the launch shape
    // and both devices' wave quanta, so it scales ideal cycles to full waves and
    // strips the host's padding out of the transplanted stall gap (otherwise host
    // grid misalignment would masquerade as data stalls on the target).
    let host_pad =
        host_arch.padding_scale(host_profile.launch.grid_dim, host_profile.launch.block_dim);
    let target_pad =
        target_arch.padding_scale(host_profile.launch.grid_dim, host_profile.launch.block_dim);
    let cp_target = target_arch.latency.dot(&sigma_target) * target_pad;
    let cp_host = host_arch.latency.dot(&sigma_host) * host_pad;
    let stall_gap_host = (host_profile.cycles - cp_host).max(0.0);
    let c2_cycles = cp_target + stall_gap_host;
    let et2_s = c2_cycles / (target_arch.total_cores() as f64 * target_arch.clock_hz())
        + target_arch.launch_overhead_us * 1e-6;

    // Model 3 (Eq. 5): replace the host's data-dependency stalls with the cache
    // model's prediction for the target geometry.
    let trace = MemoryTraceSummary {
        load_bytes: 0,
        store_bytes: 0,
        unique_segments: host_profile.unique_segments,
        accesses: host_profile.memory_accesses,
    };
    let upsilon_host = cache::estimate(&trace, &host_arch.cache).stall_cycles;
    let upsilon_target = cache::estimate(&trace, &target_arch.cache).stall_cycles;
    let c3_cycles = (c2_cycles - upsilon_host + upsilon_target).max(cp_target);
    let et3_s = c3_cycles / (target_arch.total_cores() as f64 * target_arch.clock_hz())
        + target_arch.launch_overhead_us * 1e-6;
    TimingEstimates { sigma_target, c1_cycles, c2_cycles, c3_cycles, et1_s, et2_s, et3_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_gpu::device::GpuDevice;
    use sigmavp_sptx::asm;
    use sigmavp_sptx::interp::{LaunchConfig, ParamValue};
    use sigmavp_sptx::KernelProgram;

    /// A memory-heavy kernel: strided loads over a large buffer plus fp32 work.
    fn workload() -> KernelProgram {
        asm::parse(
            "
.kernel streamy
entry:
    rs r0, gtid
    ldp r1, 0
    mov r2, 0
    mov r3, 16
    mov r4, 1
    bra header
header:
    setp.lt.i64 p0, r2, r3
    @p0 bra body, exit
body:
    ld.f32 r5, [r1 + r0]
    mul.f32 r5, r5, r5
    st.f32 [r1 + r0], r5
    add.i64 r2, r2, r4
    bra header
exit:
    ret
",
        )
        .unwrap()
    }

    fn run_on_host(host_arch: GpuArch) -> (KernelProgram, HardwareProfile, GpuArch) {
        let program = workload();
        let mut dev = GpuDevice::new(host_arch.clone());
        let n = 4096u64;
        let buf = dev.malloc(n * 4).unwrap();
        dev.memcpy_h2d(buf, &vec![1u8; (n * 4) as usize]).unwrap();
        dev.launch(
            &program,
            &LaunchConfig::covering(n, 256).unwrap(),
            &[ParamValue::Ptr(buf.addr())],
        )
        .unwrap();
        let profile = dev.profiler_log().last().unwrap().clone();
        (program, profile, host_arch)
    }

    fn measured_on_target(program: &KernelProgram, target: &GpuArch) -> f64 {
        let mut dev = GpuDevice::new(target.clone());
        let n = 4096u64;
        let buf = dev.malloc(n * 4).unwrap();
        dev.memcpy_h2d(buf, &vec![1u8; (n * 4) as usize]).unwrap();
        let run = dev
            .launch(
                program,
                &LaunchConfig::covering(n, 256).unwrap(),
                &[ParamValue::Ptr(buf.addr())],
            )
            .unwrap();
        run.cost.time_s
    }

    #[test]
    fn estimates_bracket_the_measured_target_time() {
        let (program, profile, host) = run_on_host(GpuArch::quadro_4000());
        let target = GpuArch::tegra_k1();
        let est =
            estimate_timing(&program, &profile, &host, &target, &TargetCompilation::tegra_k1());
        let measured = measured_on_target(&program, &target);

        // The refined model must land within 35% of the measured value; the crude
        // model is allowed to be far off but must at least be positive.
        assert!(est.et1_s > 0.0);
        let err3 = (est.et3_s - measured).abs() / measured;
        assert!(err3 < 0.35, "C'' error {err3:.2} (est {}, measured {measured})", est.et3_s);
    }

    #[test]
    fn refinement_improves_or_matches_accuracy() {
        let (program, profile, host) = run_on_host(GpuArch::quadro_4000());
        let target = GpuArch::tegra_k1();
        let est =
            estimate_timing(&program, &profile, &host, &target, &TargetCompilation::tegra_k1());
        let measured = measured_on_target(&program, &target);
        let e1 = (est.et1_s - measured).abs() / measured;
        let e3 = (est.et3_s - measured).abs() / measured;
        assert!(e3 <= e1 + 0.05, "C'' ({e3:.2}) much worse than C ({e1:.2})");
    }

    #[test]
    fn estimates_are_consistent_across_host_gpus() {
        // The paper's key claim in Fig. 12: estimates land near the measured target
        // time no matter which host GPU produced the profile.
        let target = GpuArch::tegra_k1();
        let tc = TargetCompilation::tegra_k1();
        let (program, p_quadro, quadro) = run_on_host(GpuArch::quadro_4000());
        let (_, p_grid, grid) = run_on_host(GpuArch::grid_k520());
        let from_quadro = estimate_timing(&program, &p_quadro, &quadro, &target, &tc);
        let from_grid = estimate_timing(&program, &p_grid, &grid, &target, &tc);
        let spread =
            (from_quadro.et3_s - from_grid.et3_s).abs() / from_quadro.et3_s.max(from_grid.et3_s);
        assert!(spread < 0.3, "host-GPU spread {spread:.2}");
    }

    #[test]
    fn target_estimates_exceed_host_time() {
        let (program, profile, host) = run_on_host(GpuArch::quadro_4000());
        let target = GpuArch::tegra_k1();
        let est =
            estimate_timing(&program, &profile, &host, &target, &TargetCompilation::tegra_k1());
        assert!(est.et3_s > profile.time_s, "target should be slower than host");
    }

    #[test]
    fn c3_never_drops_below_ideal_target_cycles() {
        let (program, profile, host) = run_on_host(GpuArch::grid_k520());
        let target = GpuArch::tegra_k1();
        let est =
            estimate_timing(&program, &profile, &host, &target, &TargetCompilation::tegra_k1());
        let cp_target = target.latency.dot(&est.sigma_target);
        assert!(est.c3_cycles >= cp_target - 1e-6);
    }
}
