//! Quickstart: run one GPU application on a virtual platform, the slow way and
//! the ΣVP way.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The application is `BlackScholes` from the benchmark suite. It first executes over
//! Mesa-style software GPU emulation inside a binary-translating VP (the paper's
//! Fig. 1a), then over ΣVP's host-GPU multiplexing (Fig. 1b) — same binary-
//! compatible guest code, two backends.

use std::error::Error;

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_vp::emulation::EmulatedGpu;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{AppEnv, Application};
use sigmavp_workloads::apps::BlackScholesApp;

fn main() -> Result<(), Box<dyn Error>> {
    let app = BlackScholesApp::new(4);
    let registry: KernelRegistry = app.kernels().into_iter().collect();

    // Path 1: GPU emulation inside the VP (the slow baseline the paper replaces).
    let mut vp = VirtualPlatform::new(VpId(0));
    let mut emulated = EmulatedGpu::on_vp(registry.clone());
    app.run_once(&mut AppEnv::new(&mut vp, &mut emulated))?;
    let emulated_s = vp.now_s();
    println!("GPU emulation on the VP : {:10.3} ms (validated)", emulated_s * 1e3);

    // Path 2: ΣVP — a VP thread forwards the same CUDA calls over a transport
    // to the multiplexed host GPU.
    let mut sigma =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory());
    sigma.spawn(Box::new(app));
    let (report, _) = sigma.join();
    if let Some(error) = &report.outcomes[0].error {
        return Err(error.clone().into());
    }
    let sigma_s = report.outcomes[0].simulated_time_s;
    println!("SigmaVP host-GPU path   : {:10.3} ms (validated)", sigma_s * 1e3);

    println!("speedup                 : {:10.1}x", emulated_s / sigma_s);
    Ok(())
}
