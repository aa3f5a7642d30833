//! Cross-crate integration tests: the whole stack from guest application through
//! the IPC codec, the host runtime, the simulated device, the re-scheduler and the
//! scenario engine.

use sigmavp::scenario::{run_scenario, run_scenario_multi_gpu, Guests};
use sigmavp::Policy;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{
    BlackScholesApp, HistogramApp, MandelbrotApp, MatrixMulApp, MergeSortApp, NbodyApp,
    SimpleGlApp, StereoDisparityApp, StreamedConvolutionApp, VectorAddApp,
};
use sigmavp_workloads::suite::fig11_suite;

/// One VP per app.
fn vps<const N: usize>(apps: [Box<dyn Application + Send>; N]) -> Guests {
    apps.into()
}

/// `n` VPs running copies of `app`.
fn copies<A: Application + Clone + Send + 'static>(app: &A, n: usize) -> Guests {
    (0..n).map(|_| Box::new(app.clone()) as Box<_>).collect()
}

/// Every suite application completes and self-validates over the *multiplexed*
/// backend (the unit tests cover the emulated backend).
#[test]
fn whole_suite_validates_over_multiplexing() {
    for app in fig11_suite(1) {
        let name = app.name().to_string();
        let report = run_scenario(vec![app], Policy::Multiplexed)
            .unwrap_or_else(|e| panic!("{name} failed over multiplexing: {e}"));
        assert!(report.total_time_s > 0.0, "{name}");
        assert!(report.gpu_jobs > 0, "{name} never touched the device");
    }
}

/// The three modes preserve functional behaviour while ordering total times the
/// way the paper's Fig. 11 does: emulation ≫ multiplexed ≥ optimized.
#[test]
fn mode_ordering_holds_for_mixed_fleet() {
    let apps = || {
        vps([
            Box::new(BlackScholesApp { n: 4096, ..BlackScholesApp::new(1) }),
            Box::new(MatrixMulApp::with_shape(32, 1)),
            Box::new(MergeSortApp { n: 128 }),
            Box::new(VectorAddApp { n: 4096 }),
        ])
    };

    let emul = run_scenario(apps(), Policy::EmulatedOnVp).expect("emulation");
    let plain = run_scenario(apps(), Policy::Multiplexed).expect("plain");
    let opt = run_scenario(apps(), Policy::MultiplexedOptimized).expect("optimized");

    // At toy sizes mergeSort's micro-kernels are launch-overhead-bound, which
    // caps the fleet-level ratio; the Fig. 11 binary at full scale shows the
    // paper-band speedups per app.
    assert!(emul.total_time_s > 3.0 * plain.total_time_s);
    assert!(opt.total_time_s <= plain.total_time_s * 1.001);
    // Heterogeneous apps: nothing should coalesce across *different* kernels.
    assert_eq!(opt.coalesced_groups, 0);
}

/// Homogeneous fleets coalesce; heterogeneous ones do not — and either way the
/// device runs every job.
#[test]
fn coalescing_only_merges_identical_work() {
    let homo = copies(&MergeSortApp { n: 64 }, 4);
    let r = run_scenario(homo, Policy::MultiplexedOptimized).expect("homogeneous fleet");
    assert!(r.coalesced_groups > 0);

    let hetero =
        vps([Box::new(MergeSortApp { n: 64 }), Box::new(HistogramApp { nthreads: 8, chunk: 16 })]);
    let r = run_scenario(hetero, Policy::MultiplexedOptimized).expect("heterogeneous fleet");
    assert_eq!(r.coalesced_groups, 0);
}

/// The transport cost model flows through the whole stack: socket IPC costs more
/// than shared memory for the same fleet.
#[test]
fn socket_ipc_is_costlier_end_to_end() {
    let apps = || copies(&NbodyApp { n: 64 }, 2);
    let arch = [GpuArch::quadro_4000()];
    let shm =
        run_scenario_multi_gpu(apps(), Policy::Multiplexed, &arch, TransportCost::shared_memory())
            .expect("shm");
    let sock = run_scenario_multi_gpu(apps(), Policy::Multiplexed, &arch, TransportCost::socket())
        .expect("socket");
    assert!(sock.ipc_time_s > shm.ipc_time_s);
    assert!(sock.total_time_s > shm.total_time_s);
    // Device work is identical either way.
    assert!((sock.device_makespan_s - shm.device_makespan_s).abs() < 1e-12);
}

/// GL-bound and file-I/O-bound apps keep a non-GPU floor that multiplexing cannot
/// remove — the paper's speedup-limiter analysis.
#[test]
fn non_cuda_work_limits_speedup() {
    let gl: Box<dyn Application + Send> = Box::new(SimpleGlApp { vertices: 512, frames: 2 });
    let io = Box::new(MandelbrotApp { width: 32, height: 16, maxiter: 48 });
    let pure = Box::new(StereoDisparityApp { n: 256, maxd: 8 });
    for (app, has_floor) in [(gl, true), (io, true), (pure, false)] {
        let name = app.name().to_string();
        let r = run_scenario(vec![app], Policy::Multiplexed).expect("scenario");
        let floor_fraction = r.non_gpu_time_s / r.total_time_s;
        if has_floor {
            assert!(floor_fraction > 0.5, "{name}: floor {floor_fraction:.2}");
        } else {
            assert!(floor_fraction < 0.5, "{name}: floor {floor_fraction:.2}");
        }
    }
}

/// Different host GPUs change the device makespan but not functional results.
#[test]
fn host_gpu_choice_only_affects_timing() {
    let apps = || copies(&BlackScholesApp { n: 2048, ..BlackScholesApp::new(1) }, 1);
    let on = |arch: GpuArch| {
        run_scenario_multi_gpu(apps(), Policy::Multiplexed, &[arch], TransportCost::shared_memory())
    };
    let quadro = on(GpuArch::quadro_4000()).expect("quadro");
    let k520 = on(GpuArch::grid_k520()).expect("k520");
    // Both validated internally; the Kepler part is faster for fp32 workloads.
    assert!(k520.device_makespan_s < quadro.device_makespan_s);
}

/// Guest CUDA streams pipeline a single VP's copies against its kernels on the
/// device (the asynchronous-invocation case of Fig. 4a): the streamed
/// double-buffered pipeline must beat the same work issued synchronously.
#[test]
fn guest_streams_pipeline_within_one_vp() {
    let streamed = StreamedConvolutionApp { chunk: 8192, chunks: 4, use_streams: true };
    let sequential = StreamedConvolutionApp { chunk: 8192, chunks: 4, use_streams: false };

    let r_streamed = run_scenario(copies(&streamed, 1), Policy::Multiplexed).expect("streamed");
    let r_sequential =
        run_scenario(copies(&sequential, 1), Policy::Multiplexed).expect("sequential");

    assert!(
        r_streamed.device_makespan_s < r_sequential.device_makespan_s * 0.85,
        "streamed {} vs sequential {}",
        r_streamed.device_makespan_s,
        r_sequential.device_makespan_s
    );
}

/// Scenario runs are bit-deterministic: identical inputs give identical reports
/// (inputs are seeded per app name, schedulers are deterministic, and the
/// coalescer's role assignment is order-independent).
#[test]
fn scenarios_are_deterministic() {
    let apps = || copies(&MergeSortApp { n: 128 }, 4);
    for mode in [Policy::EmulatedOnVp, Policy::Multiplexed, Policy::MultiplexedOptimized] {
        let a = run_scenario(apps(), mode).expect("first run");
        let b = run_scenario(apps(), mode).expect("second run");
        assert_eq!(a, b, "{mode:?} diverged between runs");
    }
}

/// Every suite application returns all of its device memory: after a run the
/// host device is back to full capacity (no leaked buffers).
#[test]
fn suite_apps_do_not_leak_device_memory() {
    use sigmavp::host::HostRuntime;
    use sigmavp_ipc::message::VpId;
    use sigmavp_vp::platform::VirtualPlatform;
    use sigmavp_workloads::app::AppEnv;

    for app in fig11_suite(1) {
        let mut host =
            HostRuntime::new(GpuArch::quadro_4000(), app.kernels().into_iter().collect());
        let capacity = host.device().free_bytes();
        let mut vp = VirtualPlatform::new(VpId(0));
        let mut env = AppEnv::new(&mut vp, &mut host);
        app.run_once(&mut env).unwrap_or_else(|e| panic!("{} failed: {e}", app.name()));
        assert_eq!(host.device().free_bytes(), capacity, "{} leaked device memory", app.name());
        assert_eq!(host.live_handles(), 0, "{} left handles behind", app.name());
    }
}

/// Scenario reports compose: total ≥ each component, vp count matches input.
#[test]
fn report_invariants() {
    for mode in [Policy::EmulatedOnVp, Policy::Multiplexed, Policy::MultiplexedOptimized] {
        let r = run_scenario(copies(&VectorAddApp { n: 2048 }, 3), mode).expect("scenario");
        assert_eq!(r.n_vps, 3);
        assert_eq!(r.vp_times_s.len(), 3);
        assert!(r.total_time_s >= r.non_gpu_time_s);
        assert!(r.total_time_s >= r.device_makespan_s);
        assert!(r.total_time_s >= r.ipc_time_s);
        assert!(r.vp_times_s.iter().all(|&t| t > 0.0));
    }
}
