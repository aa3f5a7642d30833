//! Ablation bench: the four-way interleaving × coalescing design space, plus the
//! IPC-transport and sync-interleaving ablations called out in DESIGN.md.
//!
//! Unlike the figure benches this one reports *simulated makespans* through
//! Criterion's timing of the planning pipeline, and prints the makespan table once
//! at start-up so the ablation numbers land in bench_output.txt.
//! The `flight` group is the one wall-clock ablation (DESIGN §14): a
//! measurement, not a gate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::scenario::run_scenario_multi_gpu;
use sigmavp::Policy;
use sigmavp_gpu::engine::{simulate, Engine, GpuOp, StreamId};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::queue::{Job, JobId, JobKind};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_obs::FlightRecorder;
use sigmavp_sched::deps::reorder_critical_path;
use sigmavp_sched::interleave::reorder_async;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{MandelbrotApp, MatrixMulApp, MergeSortApp, NbodyApp};

/// Four VPs sorting `n` keys each.
fn merge_sorts(n: u64) -> Vec<Box<dyn Application + Send>> {
    (0..4).map(|_| Box::new(MergeSortApp { n }) as Box<_>).collect()
}

fn print_ablation_table() {
    let archs = [GpuArch::quadro_4000()];

    println!("ablation: mergeSort x4 VPs, device makespans");
    for (label, mode, cost) in [
        ("plain + shm", Policy::Multiplexed, TransportCost::shared_memory()),
        ("optimized + shm", Policy::MultiplexedOptimized, TransportCost::shared_memory()),
        ("plain + socket", Policy::Multiplexed, TransportCost::socket()),
        ("optimized + socket", Policy::MultiplexedOptimized, TransportCost::socket()),
    ] {
        let r = run_scenario_multi_gpu(merge_sorts(256), mode, &archs, cost).expect("scenario");
        println!(
            "  {label:<20} makespan {:>10.1} us  ipc {:>8.1} us  groups {}",
            r.device_makespan_s * 1e6,
            r.ipc_time_s * 1e6,
            r.coalesced_groups
        );
    }
}

fn print_scheduler_ablation() {
    // Greedy earliest-start vs critical-path list scheduling on the Fig. 9
    // pipeline pattern.
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for vp in 0..8u32 {
        for (seq, (kind, dur)) in [
            (JobKind::CopyIn { bytes: 0 }, 1.0),
            (JobKind::Kernel { name: "k".into(), grid_dim: 1, block_dim: 256 }, 1.5),
            (JobKind::CopyOut { bytes: 0 }, 1.0),
        ]
        .into_iter()
        .enumerate()
        {
            jobs.push(Job {
                id: JobId(id),
                vp: VpId(vp),
                seq: seq as u64,
                kind,
                sync: true,
                enqueued_at_s: 0.0,
                expected_duration_s: dur,
            });
            id += 1;
        }
    }
    let to_ops = |jobs: &[Job]| -> Vec<GpuOp> {
        jobs.iter()
            .map(|j| GpuOp {
                id: j.id.0,
                stream: StreamId(j.vp.0),
                engine: match j.kind {
                    JobKind::CopyIn { .. } => Engine::CopyH2D,
                    JobKind::CopyOut { .. } => Engine::CopyD2H,
                    JobKind::Kernel { .. } => Engine::Compute,
                },
                duration_s: j.expected_duration_s,
                after: vec![],
            })
            .collect()
    };
    let arch = sigmavp_gpu::GpuArch::quadro_4000();
    let serial: f64 = jobs.iter().map(|j| j.expected_duration_s).sum();
    let greedy = simulate(&arch, &to_ops(&reorder_async(jobs.clone()))).makespan_s;
    let cp = simulate(&arch, &to_ops(&reorder_critical_path(jobs))).makespan_s;
    println!("ablation: scheduler policy on the 8-VP Fig. 9 pattern (Tm=1, Tk=1.5)");
    println!("  synchronous serialization {serial:>6.2}");
    println!("  greedy earliest-start     {greedy:>6.2}");
    println!("  critical-path list        {cp:>6.2}");
}

fn bench_ablation(c: &mut Criterion) {
    print_ablation_table();
    print_scheduler_ablation();
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (name, mode) in
        [("plain", Policy::Multiplexed), ("optimized", Policy::MultiplexedOptimized)]
    {
        g.bench_function(name, |b| {
            b.iter(|| {
                let archs = [GpuArch::quadro_4000()];
                run_scenario_multi_gpu(
                    merge_sorts(128),
                    mode,
                    &archs,
                    TransportCost::shared_memory(),
                )
                .expect("scenario")
            })
        });
    }
    g.finish();
}

/// Four compute-heavy VPs (Mandelbrot ×2, MatrixMul, N-body at scale 2)
/// through the live dispatcher on one host GPU.
fn compute_fleet() {
    let apps = || -> Vec<Box<dyn Application + Send>> {
        vec![
            Box::new(MandelbrotApp::new(2)),
            Box::new(MatrixMulApp::new(2)),
            Box::new(NbodyApp::new(2)),
            Box::new(MandelbrotApp::new(2)),
        ]
    };
    let registry: KernelRegistry = apps().iter().flat_map(|app| app.kernels()).collect();
    let mut sys =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory());
    for app in apps() {
        sys.spawn(app);
    }
    let (report, _) = sys.join();
    assert!(report.all_ok(), "{:?}", report.outcomes);
}

/// Flight-off vs flight-on: the same fleet with no flight recorder, then with
/// one attached and sampling on a 2 ms cadence.
fn bench_flight(c: &mut Criterion) {
    let telemetry = sigmavp_telemetry::install();
    let mut g = c.benchmark_group("flight");
    g.sample_size(10);
    g.bench_function("off", |b| b.iter(compute_fleet));

    let recorder = FlightRecorder::new();
    recorder.attach(telemetry);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                recorder.sample();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        g.bench_function("on", |b| b.iter(compute_fleet));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(recorder.taken() > 0, "the flight recorder sampled nothing");
    sigmavp_telemetry::uninstall();
    g.finish();
}

criterion_group!(benches, bench_ablation, bench_flight);
criterion_main!(benches);
