//! The six execution paths of the paper's Table 1.
//!
//! Table 1 runs one GPU workload (matrix multiplication) through every way an
//! embedded designer might execute it:
//!
//! | row | path |
//! |---|---|
//! | 1 | CUDA natively on the (host) GPU |
//! | 2 | CUDA under a software GPU emulator on the host CPU |
//! | 3 | CUDA under a software GPU emulator inside the binary-translating VP |
//! | 4 | CUDA through ΣVP's host-GPU multiplexing (this work) |
//! | 5 | an equivalent C program natively on the host CPU |
//! | 6 | the same C program inside the VP |
//!
//! [`run_table1`] reproduces all six for any [`Application`] plus a scalar-work
//! estimate for the C rows. Absolute magnitudes depend on the calibrated cost
//! models ([`sigmavp_vp::calib`]); the *ordering* and rough ratios are the
//! reproduction target.

use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_vp::cpu::{BinaryTranslation, CpuModel};
use sigmavp_vp::emulation::EmulatedGpu;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{AppEnv, Application};

use crate::dispatcher::DispatchedSigmaVp;
use crate::error::SigmaVpError;
use crate::host::HostRuntime;

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Human-readable path label, matching the paper's rows.
    pub label: String,
    /// Language column ("CUDA" or "C").
    pub language: &'static str,
    /// "Executed by" column.
    pub executed_by: &'static str,
    /// Simulated execution time in seconds.
    pub time_s: f64,
}

/// The whole table: six rows plus the ratio column computed against row 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<PathResult>,
}

impl Table1 {
    /// The native-GPU baseline time.
    pub fn baseline_s(&self) -> f64 {
        self.rows[0].time_s
    }

    /// Ratio of each row to the native-GPU baseline (the paper's last column).
    pub fn ratios(&self) -> Vec<f64> {
        let base = self.baseline_s();
        self.rows.iter().map(|r| r.time_s / base).collect()
    }
}

/// Estimated scalar-CPU instructions for a C implementation of the workload —
/// callers pass the arithmetic work (e.g. `2·n³·reps` flops for matmul) and we
/// charge the standard ~4 instructions per useful flop of scalar loop code.
pub fn c_program_instructions(useful_flops: u64) -> u64 {
    useful_flops * 4
}

/// Run all six Table 1 paths for `app`, with `c_flops` the useful arithmetic work
/// of the equivalent C program. The app is owned because row 4 runs it on a
/// VP thread of its own.
///
/// # Errors
///
/// Propagates application or backend failures from any path.
pub fn run_table1(app: Box<dyn Application + Send>, c_flops: u64) -> Result<Table1, SigmaVpError> {
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let arch = GpuArch::quadro_4000();

    // Row 1: CUDA natively on the GPU. No VP, no translation, no transport: a
    // native process drives the device directly and pays device time only.
    let row1 = {
        let mut vp = VirtualPlatform::native(VpId(0));
        let mut gpu = HostRuntime::new(arch.clone(), registry.clone());
        let mut env = AppEnv::new(&mut vp, &mut gpu);
        app.run_once(&mut env)?;
        PathResult {
            label: "CUDA on GPU (native)".into(),
            language: "CUDA",
            executed_by: "GPU",
            time_s: vp.now_s(),
        }
    };

    // Row 2: CUDA emulated on the host CPU.
    let row2 = {
        let mut vp = VirtualPlatform::native(VpId(0));
        let mut gpu = EmulatedGpu::on_cpu(registry.clone());
        let mut env = AppEnv::new(&mut vp, &mut gpu);
        app.run_once(&mut env)?;
        PathResult {
            label: "CUDA emulated on CPU".into(),
            language: "CUDA",
            executed_by: "Emul. on CPU",
            time_s: vp.now_s(),
        }
    };

    // Row 3: CUDA emulated inside the VP — the configuration ΣVP replaces.
    let row3 = {
        let mut vp = VirtualPlatform::new(VpId(0));
        let mut gpu = EmulatedGpu::on_vp(registry.clone());
        let mut env = AppEnv::new(&mut vp, &mut gpu);
        app.run_once(&mut env)?;
        PathResult {
            label: "CUDA emulated on VP".into(),
            language: "CUDA",
            executed_by: "Emul. on VP",
            time_s: vp.now_s(),
        }
    };

    // Row 4: ΣVP — the VP forwards CUDA calls to the multiplexed host GPU.
    let row4 = {
        let mut sys = DispatchedSigmaVp::single(arch, registry, TransportCost::shared_memory());
        sys.spawn(app);
        let (mut report, _) = sys.join();
        if let Some((_, error)) = report.failed_vps.pop() {
            return Err(error.into());
        }
        PathResult {
            label: "SigmaVP (this work)".into(),
            language: "CUDA",
            executed_by: "This work",
            time_s: report.outcomes[0].simulated_time_s,
        }
    };

    // Rows 5 and 6: the C implementation, natively and under translation.
    let cpu = CpuModel::host_xeon();
    let instr = c_program_instructions(c_flops) as f64;
    let row5 = PathResult {
        label: "C on CPU".into(),
        language: "C",
        executed_by: "CPU",
        time_s: BinaryTranslation::native().guest_time(&cpu, instr),
    };
    let row6 = PathResult {
        label: "C on VP".into(),
        language: "C",
        executed_by: "VP",
        time_s: BinaryTranslation::qemu_arm().guest_time(&cpu, instr),
    };

    Ok(Table1 { rows: vec![row1, row2, row3, row4, row5, row6] })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_workloads::apps::MatrixMulApp;

    fn table() -> Table1 {
        // Reduced-size matmul (the paper used 320×320 × 300 reps on real silicon;
        // the simulated substrate uses 96×96 × 1 — large enough to fill a device
        // wave, so ratios rather than magnitudes are the comparison target).
        let app = MatrixMulApp::with_shape(96, 1);
        let flops = 2 * 96u64.pow(3);
        run_table1(Box::new(app), flops).unwrap()
    }

    #[test]
    fn ordering_matches_the_paper() {
        let t = table();
        let r = t.ratios();
        // r = [GPU, EmulCPU, EmulVP, SigmaVP, C-CPU, C-VP]
        assert!(r[0] == 1.0);
        assert!(r[3] < r[1], "SigmaVP must beat emulation on CPU");
        assert!(r[1] < r[2], "emulation on VP is worst of the CUDA paths");
        assert!(r[4] < r[2], "plain C on CPU beats GPU emulation on VP");
        assert!(r[5] < r[2], "even C on VP beats GPU emulation on VP (paper's point)");
        assert!(r[5] > r[4], "translation slows the C program");
    }

    #[test]
    fn magnitudes_are_in_the_papers_bands() {
        let t = table();
        let r = t.ratios();
        // Paper: SigmaVP 3.32×; accept 1.5–30× for the simulated substrate.
        assert!(r[3] > 1.2 && r[3] < 30.0, "SigmaVP ratio {:.2}", r[3]);
        // Paper: emulation on VP 2193×; accept two orders of magnitude either way.
        assert!(r[2] > 100.0, "emul-on-VP ratio {:.0}", r[2]);
        // Paper: C-on-VP / C-on-CPU = 32.9 by calibration.
        assert!((r[5] / r[4] - 32.9).abs() < 0.5);
    }

    #[test]
    fn c_instruction_model() {
        assert_eq!(c_program_instructions(100), 400);
    }
}
