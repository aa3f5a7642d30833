//! A live fleet: virtual platforms running as real concurrent threads against one
//! multiplexed host GPU.
//!
//! ```text
//! cargo run --release --example live_fleet
//! ```
//!
//! Eight VP threads — a mixed fleet of option pricing, sorting and filtering —
//! share a Quadro-4000-class device through the dispatcher runtime: real
//! transports, the dispatch core pumped by whichever guest thread brings a
//! request. With FIFO the
//! threads race and requests run as they arrive (interleaving is priced on
//! the device logs at the join); with sync-hold the
//! dispatcher stops each VP at its synchronous launch and plans the cross-VP
//! window (the paper's Fig. 4b stop/resume interleaving). A final run splits
//! the same fleet across two host GPUs via the execution session's
//! least-loaded routing, shrinking the device makespan.

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::Policy;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{BlackScholesApp, MergeSortApp, SobelFilterApp, VectorAddApp};

fn fleet() -> Vec<Box<dyn Application + Send>> {
    vec![
        Box::new(BlackScholesApp { n: 4096, ..BlackScholesApp::new(1) }),
        Box::new(BlackScholesApp { n: 4096, ..BlackScholesApp::new(1) }),
        Box::new(MergeSortApp { n: 512 }),
        Box::new(MergeSortApp { n: 512 }),
        Box::new(SobelFilterApp { width: 64, height: 48 }),
        Box::new(SobelFilterApp { width: 64, height: 48 }),
        Box::new(VectorAddApp { n: 8192 }),
        Box::new(VectorAddApp { n: 8192 }),
    ]
}

fn run(policy: Policy, gpus: usize, label: &str) {
    let mut registry = KernelRegistry::new();
    for app in fleet() {
        for k in app.kernels() {
            registry.register(k);
        }
    }
    // Serve SPTX-optimized kernels, like a real driver stack would.
    let registry = registry.optimized();

    let mut system = DispatchedSigmaVp::new(
        vec![GpuArch::quadro_4000(); gpus],
        registry,
        TransportCost::shared_memory(),
    )
    .with_policy(policy);
    for app in fleet() {
        system.spawn(app);
    }
    let (report, stats) = system.join();

    println!("{label}:");
    for o in &report.outcomes {
        println!(
            "  {} {:<14} {:>10.3} ms simulated, {:>3} gpu calls, {}",
            o.vp,
            o.app,
            o.simulated_time_s * 1e3,
            o.gpu_calls,
            o.error.as_deref().unwrap_or("ok"),
        );
    }
    println!(
        "  host dispatched {} device jobs across {} gpu(s) in {} sync windows; \
         device makespan {:.3} ms\n",
        report.records.len(),
        report.device_records.len(),
        stats.sync_windows,
        report.device_makespan_s * 1e3,
    );
    assert!(report.all_ok(), "a VP failed validation");
}

fn main() {
    run(Policy::Fifo, 1, "fifo (threads race for the device)");
    run(Policy::Fifo.with_sync_hold(true), 1, "sync-hold VP control (stop/resume windows)");
    run(Policy::Fifo, 2, "fifo, fleet split across two host gpus");
}
