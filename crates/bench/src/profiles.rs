//! Shared plumbing: run applications on a chosen host GPU and harvest profiler
//! logs for the estimation experiments.

use std::sync::Arc;

use parking_lot::Mutex;

use sigmavp::backend::MultiplexedGpu;
use sigmavp::host::HostRuntime;
use sigmavp_gpu::profiler::HardwareProfile;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sptx::counters::ExecutionProfile;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{AppEnv, Application};

/// Run `app` once natively against a device of architecture `arch` and return the
/// device profiler log — one [`HardwareProfile`] per kernel launch.
///
/// # Panics
///
/// Panics if the application fails (these are the suite's own validated apps),
/// or if it launched more kernels than the device's bounded log keeps.
pub fn host_profiles(app: &dyn Application, arch: GpuArch) -> Vec<HardwareProfile> {
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let runtime = Arc::new(Mutex::new(HostRuntime::new(arch, registry)));
    let mut vp = VirtualPlatform::native(VpId(0));
    let mut gpu = MultiplexedGpu::new(
        VpId(0),
        runtime.clone(),
        TransportCost { latency_s: 0.0, per_byte_s: 0.0 },
    );
    let mut env = AppEnv::new(&mut vp, &mut gpu);
    app.run_once(&mut env).unwrap_or_else(|e| panic!("{} failed: {e}", app.name()));
    let rt = runtime.lock();
    let log = rt.device().profiler_log();
    assert_eq!(log.len() as u64, rt.device().stats().launches, "the bounded log dropped a launch");
    log.to_vec()
}

/// The launch that dominated the app's device time — the kernel the estimation
/// experiments analyze.
///
/// # Panics
///
/// Panics if the log is empty.
pub fn dominant_launch(log: &[HardwareProfile]) -> &HardwareProfile {
    log.iter()
        .max_by(|a, b| a.time_s.partial_cmp(&b.time_s).expect("times are finite"))
        .expect("application launched at least one kernel")
}

/// Reconstruct the execution profile a pricing call needs from a hardware profile.
/// The cache model only consumes access and footprint counters; the byte split is
/// not recorded by real profilers either.
pub fn profile_from_hw(hw: &HardwareProfile) -> ExecutionProfile {
    let mut p = ExecutionProfile::new();
    p.counts = hw.counts;
    p.threads = hw.threads;
    p.block_iterations = hw.block_iterations.clone();
    p.memory.accesses = hw.memory_accesses;
    p.memory.unique_segments = hw.unique_segments;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_workloads::apps::BlackScholesApp;

    #[test]
    fn profiles_are_harvested() {
        let app = BlackScholesApp { n: 256, iterations: 1, ..BlackScholesApp::new(1) };
        let log = host_profiles(&app, GpuArch::quadro_4000());
        assert_eq!(log.len(), 1);
        let hw = dominant_launch(&log);
        assert_eq!(hw.kernel, "black_scholes");
        let p = profile_from_hw(hw);
        assert_eq!(p.counts, hw.counts);
        assert_eq!(p.threads, hw.threads);
    }

    #[test]
    fn every_suite_app_fits_the_profiler_log() {
        // `host_profiles` itself asserts that nothing was dropped.
        let longest = sigmavp_workloads::suite::fig11_suite(1)
            .iter()
            .map(|app| host_profiles(app.as_ref(), GpuArch::quadro_4000()).len())
            .max()
            .expect("the suite is not empty");
        assert!(longest > 1 && longest <= sigmavp_gpu::device::PROFILER_LOG_CAP);
    }
}
