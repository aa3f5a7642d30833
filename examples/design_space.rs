//! Design-space exploration: how does simulation cost scale with the number of
//! concurrent virtual platforms?
//!
//! ```text
//! cargo run --release --example design_space
//! ```
//!
//! This is the use case that motivates ΣVP: "simulation with multiple instances of
//! virtual platforms enables many important design decisions as part of the
//! process of exploring the design space of the target systems." We sweep the VP
//! count for a BlackScholes fleet and compare the three backend configurations;
//! watch how emulation scales linearly-at-best while the optimized multiplexer's
//! coalescing keeps the device makespan nearly flat.

use std::error::Error;

use sigmavp::scenario::{run_scenario, run_scenario_multi_gpu};
use sigmavp::Policy;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::BlackScholesApp;

fn main() -> Result<(), Box<dyn Error>> {
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "VPs", "emulation", "SigmaVP", "SigmaVP+opt", "+opt, 2 GPUs", "x", "+opt x"
    );
    for n_vps in [1usize, 2, 4, 8, 16] {
        let app = BlackScholesApp { n: 8 * 1024, ..BlackScholesApp::new(1) };
        let apps = || (0..n_vps).map(|_| Box::new(app.clone()) as Box<dyn Application + Send>);

        let emul = run_scenario(apps().collect(), Policy::EmulatedOnVp)?;
        let plain = run_scenario(apps().collect(), Policy::Multiplexed)?;
        let opt = run_scenario(apps().collect(), Policy::MultiplexedOptimized)?;
        // The paper "multiplexes the host GPUs": a second device halves the load.
        let dual = run_scenario_multi_gpu(
            apps().collect(),
            Policy::MultiplexedOptimized,
            &[GpuArch::quadro_4000(), GpuArch::quadro_4000()],
            TransportCost::shared_memory(),
        )?;

        println!(
            "{:>5} {:>12.2}ms {:>12.3}ms {:>12.3}ms {:>12.3}ms {:>8.0} {:>8.0}",
            n_vps,
            emul.total_time_s * 1e3,
            plain.total_time_s * 1e3,
            opt.total_time_s * 1e3,
            dual.total_time_s * 1e3,
            plain.speedup_vs(&emul),
            opt.speedup_vs(&emul),
        );
    }
    println!();
    println!("(all runs execute and validate the full option-pricing workload)");
    Ok(())
}
