//! Cross-crate telemetry integration tests: a live multi-VP dispatcher run with
//! a collector installed must produce a conserved job ledger, non-zero queue
//! waits in both time domains, and a well-formed unified trace.
//!
//! The collector is process-global, so every test here serializes on one lock
//! and installs a fresh collector (or uninstalls it) before running a fleet.

use std::sync::Mutex;

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::Policy;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_telemetry::EventKind;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{BlackScholesApp, VectorAddApp};

/// Serializes access to the process-global collector across the tests below.
static COLLECTOR: Mutex<()> = Mutex::new(());

fn vector_add_fleet(
    vps: usize,
) -> (sigmavp::threaded::ThreadedReport, sigmavp::dispatcher::DispatchStats) {
    let app = VectorAddApp { n: 2048 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut sys =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory());
    for _ in 0..vps {
        sys.spawn(Box::new(VectorAddApp { n: 2048 }));
    }
    sys.join()
}

/// Satellite: `Envelope::sent_at_s` comes from the VP's simulated clock, so the
/// host's job log sees strictly advancing guest timestamps — every request after
/// a VP's first shows a non-zero simulated wait since that VP started.
#[test]
fn guest_clock_stamps_reach_the_host_job_log() {
    let _guard = COLLECTOR.lock().unwrap();
    sigmavp_telemetry::uninstall();
    let (report, _) = vector_add_fleet(3);
    assert!(report.all_ok(), "{:?}", report.outcomes);

    // Group device-touching records per VP in sequence order.
    let mut per_vp: std::collections::HashMap<u32, Vec<(u64, f64)>> =
        std::collections::HashMap::new();
    for r in &report.records {
        per_vp.entry(r.vp.0).or_default().push((r.seq, r.sent_at_s));
    }
    assert_eq!(per_vp.len(), 3);
    for (vp, mut stamps) in per_vp {
        stamps.sort_by_key(|(seq, _)| *seq);
        // Simulated time only moves forward within a VP.
        for pair in stamps.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "VP {vp}: sim clock went backwards: {stamps:?}");
        }
        // By the time a VP issues its later requests it has accumulated
        // simulated transport/compute cost, so the stamp is non-zero — the
        // wait between request issue times is real simulated time.
        let last = stamps.last().unwrap().1;
        assert!(last > 0.0, "VP {vp}: final request still stamped 0.0: {stamps:?}");
    }
}

/// Satellite: conservation + non-zero queue waits. Every job a VP enqueues is
/// dequeued and answered (enqueued == dequeued == requests served), and the
/// wall-clock queue-wait histogram covers every job with non-zero percentiles.
#[test]
fn dispatcher_run_conserves_jobs_and_measures_waits() {
    let _guard = COLLECTOR.lock().unwrap();
    let telemetry = sigmavp_telemetry::install();
    let (report, stats) = vector_add_fleet(4);
    assert!(report.all_ok(), "{:?}", report.outcomes);

    let snapshot = telemetry.snapshot();
    let enqueued = snapshot.counter("jobs.enqueued").expect("jobs.enqueued");
    let dequeued = snapshot.counter("jobs.dequeued").expect("jobs.dequeued");
    assert_eq!(enqueued, dequeued, "jobs leaked in the queue");
    assert_eq!(enqueued, stats.requests, "every request flows through the job queue");

    let wait = snapshot.histogram("queue.wait_s").expect("queue.wait_s");
    assert_eq!(wait.count, stats.requests, "every job's wait is measured");
    assert!(wait.p50 > 0.0, "queue-wait p50 must be non-zero: {wait:?}");
    assert!(wait.p99 >= wait.p50, "{wait:?}");
    assert!(wait.max > 0.0, "{wait:?}");

    // The drained trace is well-formed: non-negative span times, and the
    // expected lanes (job queue + at least two VPs) are present.
    let events = telemetry.drain_events();
    assert!(!events.is_empty());
    let mut vp_lanes = std::collections::HashSet::new();
    let mut queue_samples = 0u32;
    for e in &events {
        match e.kind {
            EventKind::Span { start_s, dur_s } => {
                assert!(start_s >= 0.0 && dur_s >= 0.0, "negative span: {e:?}");
                if let sigmavp_telemetry::Lane::Vp(n) = e.lane {
                    vp_lanes.insert(n);
                }
            }
            EventKind::Counter { at_s, value } => {
                assert!(at_s >= 0.0 && value >= 0.0, "negative counter: {e:?}");
                if e.lane == sigmavp_telemetry::Lane::JobQueue {
                    queue_samples += 1;
                }
            }
        }
    }
    assert!(vp_lanes.len() >= 2, "expected spans from ≥2 VPs, got {vp_lanes:?}");
    assert!(queue_samples > 0, "expected queue-depth samples on the job-queue lane");
}

/// The profiler feedback loop registers hits once a kernel repeats, and the
/// ledger stays conserved under a repeating workload too.
#[test]
fn profiler_feedback_hits_show_up_under_repetition() {
    let _guard = COLLECTOR.lock().unwrap();
    let telemetry = sigmavp_telemetry::install();
    let mk = || BlackScholesApp { n: 1024, iterations: 4, ..BlackScholesApp::new(1) };
    let registry: KernelRegistry = mk().kernels().into_iter().collect();
    let mut sys =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory())
            .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true));
    for _ in 0..3 {
        sys.spawn(Box::new(mk()));
    }
    let (report, stats) = sys.join();
    assert!(report.all_ok(), "{:?}", report.outcomes);

    let snapshot = telemetry.snapshot();
    let hits = snapshot.counter("profiler.feedback.hits").unwrap_or(0);
    let misses = snapshot.counter("profiler.feedback.misses").unwrap_or(0);
    // 3 VPs × 4 held launches of one kernel, in lockstep windows: the first
    // window's three launches are planned before any has run (a miss each),
    // and every later window's launches hit. Only held launches (and
    // deadlined requests) consult the feedback table.
    assert_eq!((hits, misses), (9, 3));
    assert_eq!(hits + misses, stats.holds, "every held launch consults the feedback table");
    // The held launches skip the async queue; everything else flows through it.
    let queued = stats.requests - stats.holds;
    assert_eq!(queued, 36);
    assert_eq!(snapshot.counter("jobs.enqueued"), Some(queued));
    assert_eq!(snapshot.counter("jobs.dequeued"), Some(queued));
}
