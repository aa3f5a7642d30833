//! Bring your own kernel: load an SPTX assembly file from disk, optimize it,
//! register it, and run it through the full ΣVP stack.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```
//!
//! This is the downstream-user workflow: write a kernel in `kernels/*.sptx`
//! (PTX-like assembly — see `sigmavp_sptx::asm` for the syntax, or use the
//! `sptxc` tool to check/optimize/run it standalone), then serve it to virtual
//! platforms like any built-in workload.

use std::error::Error;

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::WireParam;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sptx::{asm, opt, KernelProgram};
use sigmavp_vp::error::VpError;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{validation_error, AppEnv, AppTraits, Application};

/// The guest: doubles 1024 floats with the custom `scale` kernel and checks
/// the result.
struct ScaleApp {
    kernel: KernelProgram,
}

impl Application for ScaleApp {
    fn name(&self) -> &str {
        "customScale"
    }

    fn kernels(&self) -> Vec<KernelProgram> {
        vec![self.kernel.clone()]
    }

    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }

    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let mut cuda = env.cuda();
        let n = 1024u64;
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let buf = cuda.malloc(n * 4)?;
        cuda.memcpy_h2d(buf, &data)?;
        cuda.launch_sync(
            "scale",
            n.div_ceil(128) as u32,
            128,
            &[buf.param(), WireParam::I64(n as i64)],
        )?;
        let mut out = vec![0u8; (n * 4) as usize];
        cuda.memcpy_d2h(&mut out, buf)?;
        cuda.free(buf)?;

        for i in [0usize, 1, 500, 1023] {
            let v = f32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
            if v != 2.0 * i as f32 {
                return Err(validation_error(self.name(), format!("out[{i}] = {v}")));
            }
            println!("out[{i}] = {v}");
        }
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Load and optimize the kernel.
    let source = std::fs::read_to_string("kernels/scale.sptx")?;
    let program = asm::parse(&source)?;
    let (program, stats) = opt::optimize(&program)?;
    println!(
        "loaded `{}`: {} static instructions (optimizer folded {}, removed {})",
        program.name(),
        program.static_size(),
        stats.folded,
        stats.removed
    );

    // 2. Serve it from a ΣVP host GPU.
    let mut registry = KernelRegistry::new();
    registry.register(program.clone());
    let mut sigma =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory());

    // 3. Drive it from a guest VP through the CUDA-like user library.
    sigma.spawn(Box::new(ScaleApp { kernel: program }));
    let (report, _) = sigma.join();
    let outcome = &report.outcomes[0];
    if let Some(error) = &outcome.error {
        return Err(error.clone().into());
    }
    println!(
        "custom kernel ran and validated over SigmaVP in {:.1} us simulated",
        outcome.simulated_time_s * 1e6
    );
    Ok(())
}
