//! Export one unified Chrome trace (chrome://tracing / Perfetto) of a
//! multi-VP ΣVP run, plus a metrics snapshot.
//!
//! ```text
//! cargo run --release -p sigmavp-bench --bin trace > timeline.json
//! ```
//!
//! The JSON on stdout holds two process groups:
//!
//! * **runtime (wall clock)** — a *live* dispatcher run (fig11-style fleet of
//!   VP threads over real transports): one lane per VP, the dispatcher's
//!   per-job execution spans, and the job queue's depth as a counter track;
//! * **device (simulated time)** — the interleaved device timeline replayed
//!   through the engine model: copy-engine and compute-engine lanes plus a
//!   per-VP stream mirror.
//!
//! The metrics snapshot (queue-wait percentiles, engine overlap, coalescing,
//! profiler counters, and the scheduling pipeline's per-pass `plan.pass.*`
//! series) goes to stderr as a summary table and JSON.

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp_gpu::engine::{simulate, Engine, GpuOp, StreamId};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::queue::{Job, JobId, JobKind};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sched::{PassCtx, Pipeline, Policy};
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::VectorAddApp;

fn jobs(n: u32) -> Vec<Job> {
    let mut out = Vec::new();
    let mut id = 0;
    for vp in 0..n {
        for (seq, (kind, dur)) in [
            (JobKind::CopyIn { bytes: 0 }, 1.0),
            (JobKind::Kernel { name: "k".into(), grid_dim: 1, block_dim: 256 }, 1.2),
            (JobKind::CopyOut { bytes: 0 }, 1.0),
        ]
        .into_iter()
        .enumerate()
        {
            out.push(Job {
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
    out
}

fn to_ops(jobs: &[Job]) -> Vec<GpuOp> {
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
}

fn main() {
    let telemetry = sigmavp_telemetry::install();

    // Part 1: live wall-clock run — a 4-VP fleet over real transports with the
    // full dispatcher loop. Every layer (queue, dispatcher, VP threads,
    // interpreter) reports into the installed collector.
    let app = VectorAddApp { n: 4096 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut sys =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory());
    for _ in 0..4 {
        sys.spawn(Box::new(VectorAddApp { n: 4096 }));
    }
    let (report, stats) = sys.join();
    assert!(report.all_ok(), "fleet must validate: {:?}", report.outcomes);

    // Part 2: simulated device timeline — the schedule planned through the
    // shared pipeline (recording per-pass plan.pass.* metrics) and replayed on
    // the engine model, mirrored onto per-VP stream lanes.
    let arch = GpuArch::quadro_4000();
    let pipeline = Pipeline::from_policy(&Policy::Fifo);
    let reordered = pipeline.plan(jobs(6), &PassCtx::reorder_only()).jobs;
    let timeline = simulate(&arch, &to_ops(&reordered));

    // One unified trace: wall-clock events drained from the collector plus the
    // simulated-time device events.
    let mut events = telemetry.drain_events();
    events.extend(timeline.trace_events_with_streams());
    println!("{}", sigmavp_telemetry::export::chrome_trace_json(&events));

    let snapshot = telemetry.snapshot();
    eprintln!(
        "live fleet: {} requests, max window {} ({} served by their own guest's pump, {} by \
         another holder, {} rounds, {} timer wake-ups); device replay: makespan {:.2}s, \
         compute utilization {:.0}%, overlap {:.0}%",
        stats.requests,
        stats.max_window,
        stats.inline_requests,
        stats.combined_requests,
        stats.pump_rounds,
        stats.timer_wakeups,
        timeline.makespan_s,
        timeline.utilization(Engine::Compute) * 100.0,
        timeline.overlap_fraction() * 100.0
    );
    eprintln!();
    eprint!("{}", sigmavp_telemetry::export::summary_table(&snapshot));
    eprintln!();
    eprint!("{}", sigmavp_telemetry::export::metrics_json(&snapshot));
    if telemetry.dropped_events() > 0 {
        eprintln!("warning: {} trace events dropped (ring full)", telemetry.dropped_events());
    }
}
