//! Time and power estimation for an embedded GPU, from a host-GPU profile only.
//!
//! ```text
//! cargo run --release --example estimation
//! ```
//!
//! The paper's Section 4 workflow (Fig. 7): execute the kernel on the *host* GPU,
//! gather the profiler counters, derive the expected execution profile for the
//! *target* (a Tegra-K1-class embedded GPU), and estimate its execution time with
//! the three increasingly refined cycle models C, C′, C″ plus its power with
//! Eq. 6 — without ever running on the target.

use std::error::Error;

use sigmavp::host::HostRuntime;
use sigmavp_estimate::compile::TargetCompilation;
use sigmavp_estimate::power::estimate_power;
use sigmavp_estimate::timing::estimate_timing;
use sigmavp_gpu::{GpuArch, GpuDevice};
use sigmavp_ipc::message::VpId;
use sigmavp_sptx::counters::ExecutionProfile;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{AppEnv, Application};
use sigmavp_workloads::apps::BlackScholesApp;

fn main() -> Result<(), Box<dyn Error>> {
    let app = BlackScholesApp { n: 16 * 1024, ..BlackScholesApp::new(1) };
    let host = GpuArch::quadro_4000();
    let target = GpuArch::tegra_k1();
    let compilation = TargetCompilation::tegra_k1();

    // 1. + 2. Compile for both architectures and execute on the host, gathering
    //         the profile.
    //         A native process drives the host GPU directly.
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut runtime = HostRuntime::new(host.clone(), registry);
    let mut vp = VirtualPlatform::native(VpId(0));
    app.run_once(&mut AppEnv::new(&mut vp, &mut runtime))?;
    let hw = runtime.device().profiler_log().last().expect("one launch").clone();
    println!("profiled `{}` on {}:", hw.kernel, host.name);
    println!("  host time            : {:9.1} us", hw.time_s * 1e6);
    println!("  instructions         : {:9}", hw.counts.total());
    println!("  achieved IPC         : {:9.2}", hw.achieved_ipc());
    println!("  data-stall fraction  : {:9.1}%", hw.stall_fraction() * 100.0);

    // 3. + 4. Derive the target execution profile and the time estimates.
    let program = app.kernels().into_iter().find(|k| k.name() == hw.kernel).expect("registered");
    let est = estimate_timing(&program, &hw, &host, &target, &compilation);
    println!("estimates for {}:", target.name);
    println!("  sigma (target)       : {:9} instructions", est.sigma_target.total());
    println!("  ET from C            : {:9.1} us", est.et1_s * 1e6);
    println!("  ET from C'           : {:9.1} us", est.et2_s * 1e6);
    println!("  ET from C''          : {:9.1} us", est.et3_s * 1e6);

    // 5. Power estimate (Eq. 6), against the target device's ground truth.
    let power = estimate_power(&est.sigma_target, est.et3_s, &target);
    let mut measured_profile = ExecutionProfile::new();
    measured_profile.counts = compilation.apply(&hw.counts);
    measured_profile.threads = hw.threads;
    measured_profile.memory.accesses = hw.memory_accesses;
    measured_profile.memory.unique_segments = hw.unique_segments;
    let measured = GpuDevice::new(target.clone()).price(&measured_profile, &hw.launch);
    println!("  measured target time : {:9.1} us", measured.time_s * 1e6);
    println!(
        "  C'' error            : {:9.1}%",
        (est.et3_s - measured.time_s).abs() / measured.time_s * 100.0
    );
    println!("  estimated power      : {:9.2} W", power.total_w());
    println!("  measured power       : {:9.2} W", measured.power_w);
    Ok(())
}
