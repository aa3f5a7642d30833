//! Binary compatibility: the same guest application code must produce identical
//! results over the software-emulation backend and over ΣVP's multiplexing
//! backend — the paper's "without requiring any change to the original
//! GPU-optimized application code" property, verified at the data level.

use std::sync::{Arc, Mutex};

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{VpId, WireParam};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sptx::KernelProgram;
use sigmavp_vp::emulation::EmulatedGpu;
use sigmavp_vp::error::VpError;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{AppEnv, AppTraits, Application};
use sigmavp_workloads::kernels;
use sigmavp_workloads::util::{bytes_to_f32s, f32s_to_bytes, random_f32s};

/// A guest that runs one convolution and hands the downloaded output bytes
/// back through `out`.
#[derive(Default)]
struct Convolution {
    out: Arc<Mutex<Vec<u8>>>,
}

impl Application for Convolution {
    fn name(&self) -> &str {
        "convolution"
    }

    fn kernels(&self) -> Vec<KernelProgram> {
        vec![kernels::convolution_separable()]
    }

    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }

    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let mut cuda = env.cuda();
        let n_out = 500usize;
        let input = random_f32s("equivalence", 0, n_out + 8, -2.0, 2.0);
        let taps: [f32; 9] = [0.05, 0.09, 0.12, 0.15, 0.18, 0.15, 0.12, 0.09, 0.05];

        let din = cuda.malloc((input.len() * 4) as u64)?;
        cuda.memcpy_h2d(din, &f32s_to_bytes(&input))?;
        let dtaps = cuda.malloc(36)?;
        cuda.memcpy_h2d(dtaps, &f32s_to_bytes(&taps))?;
        let dout = cuda.malloc((n_out * 4) as u64)?;
        cuda.launch_sync(
            "convolution_separable",
            (n_out as u64).div_ceil(128) as u32,
            128,
            &[din.param(), dtaps.param(), dout.param(), WireParam::I64(n_out as i64)],
        )?;
        let mut out = vec![0u8; n_out * 4];
        cuda.memcpy_d2h(&mut out, dout)?;
        for buf in [din, dtaps, dout] {
            cuda.free(buf)?;
        }
        *self.out.lock().expect("output slot") = out;
        Ok(())
    }
}

fn registry() -> KernelRegistry {
    [kernels::convolution_separable()].into_iter().collect()
}

/// The convolution's output under software emulation on the VP.
fn emulated() -> Vec<u8> {
    let app = Convolution::default();
    let mut vp = VirtualPlatform::new(VpId(0));
    let mut gpu = EmulatedGpu::on_vp(registry());
    app.run_once(&mut AppEnv::new(&mut vp, &mut gpu)).expect("emulated convolution");
    let out = app.out.lock().expect("output slot").clone();
    out
}

/// The convolution's output from a ΣVP guest on a host GPU of `arch` serving
/// `registry`, reached over a transport of cost `cost`.
fn multiplexed(arch: GpuArch, registry: KernelRegistry, cost: TransportCost) -> Vec<u8> {
    let app = Convolution::default();
    let out = Arc::clone(&app.out);
    let mut sys = DispatchedSigmaVp::single(arch, registry, cost);
    sys.spawn(Box::new(app));
    let (report, _) = sys.join();
    assert!(report.all_ok(), "{:?}", report.outcomes);
    let out = out.lock().expect("output slot").clone();
    out
}

fn quadro() -> Vec<u8> {
    multiplexed(GpuArch::quadro_4000(), registry(), TransportCost::shared_memory())
}

#[test]
fn emulated_and_multiplexed_backends_agree_bit_for_bit() {
    let out_multiplexed = quadro();
    assert_eq!(emulated(), out_multiplexed, "backends diverged");
    // And both match the host reference.
    let input = random_f32s("equivalence", 0, 508, -2.0, 2.0);
    let taps: [f32; 9] = [0.05, 0.09, 0.12, 0.15, 0.18, 0.15, 0.12, 0.09, 0.05];
    let expected = kernels::convolution_reference(&input, &taps, 500);
    let got = bytes_to_f32s(&out_multiplexed);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert!((g - e).abs() <= e.abs() * 1e-5 + 1e-6, "sample {i}: {g} vs {e}");
    }
}

#[test]
fn host_gpu_architecture_does_not_change_results() {
    let out_k = multiplexed(GpuArch::grid_k520(), registry(), TransportCost::shared_memory());
    assert_eq!(quadro(), out_k, "results must be architecture-independent");
}

#[test]
fn optimizer_does_not_change_results() {
    // The host may serve SPTX-optimized kernels (constant folding + DCE): the
    // guest must observe bit-identical outputs.
    let optimized_registry = registry().optimized();
    assert!(optimized_registry.contains("convolution_separable"));
    let out_opt =
        multiplexed(GpuArch::quadro_4000(), optimized_registry, TransportCost::shared_memory());
    assert_eq!(quadro(), out_opt, "optimized kernels diverged");
}

/// The planned device schedule is a property of the job log, not of the
/// runtime that recorded it: replanning a live run's log through the same
/// scheduling pipeline yields the same device timeline, and the scenario
/// engine reports exactly that timeline.
#[test]
fn runtimes_agree_on_the_planned_device_timeline() {
    use sigmavp::scenario::run_scenario;
    use sigmavp::{plan_device, Pipeline, Policy};
    use sigmavp_workloads::apps::VectorAddApp;

    let policy = Policy::Fifo;
    let arch = GpuArch::quadro_4000();
    let app = VectorAddApp { n: 2048 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();

    let vps = || (0..3).map(|_| Box::new(app.clone()) as Box<dyn Application + Send>);
    let scenario = run_scenario(vps().collect(), policy).expect("scenario");

    let mut dispatched =
        DispatchedSigmaVp::single(arch.clone(), registry, TransportCost::shared_memory())
            .with_policy(policy);
    for vp in vps() {
        dispatched.spawn(vp);
    }
    let (dispatched, _) = dispatched.join();
    assert!(dispatched.all_ok());

    // Replan the runtime's own job log (op ids index its send order; the
    // physical schedule does not depend on them).
    let pipeline = Pipeline::from_policy(&policy);
    let t_dispatched = plan_device(&pipeline, &dispatched.device_records[0], &|_| false, &arch);
    // The live runtime priced its own log through the same pipeline…
    assert!((dispatched.device_makespan_s - t_dispatched.timeline.makespan_s).abs() < 1e-12);
    // …and the scenario engine, a run of the same guests, lands on it too.
    assert!((scenario.device_makespan_s - t_dispatched.timeline.makespan_s).abs() < 1e-12);
}

#[test]
fn transport_choice_does_not_change_results() {
    let out_sock = multiplexed(GpuArch::quadro_4000(), registry(), TransportCost::socket());
    assert_eq!(quadro(), out_sock);
}
