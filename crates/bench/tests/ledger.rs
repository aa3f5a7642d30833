//! The one ledger, checked. A dispatch or fleet count lives in its stats
//! struct; the registry is its published view, added at the end of each turn
//! or hand-off batch and before each incident. Every other metric name is
//! per-event data with a named reader.
//!
//! [`LEDGER`] is the committed (name, reader) table. One traced run covers
//! the audit's five live rows, a two-shard fleet with one session killed, a
//! fleet that sheds once and one two-worker compute launch; the registry it
//! leaves must hold exactly the table's names, and every `counts()` row must
//! equal its struct field.
//! A name added without a reader, or a count bumped beside its field, fails.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use sigmavp::dispatcher::{DispatchStats, DispatchedSigmaVp};
use sigmavp::Policy;
use sigmavp_bench::scenarios::{arch, Live};
use sigmavp_fleet::{drive_with, Fleet, FleetConfig, FleetError, FleetStats, VpScript};
use sigmavp_ipc::message::{Request, VpId};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_obs::{Bundle, FlightRecorder};
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::VectorAddApp;

/// Every metric name the traced run registers, with who reads it. A
/// `counts()` row is read at least by this file's field check.
const LEDGER: &[(&str, &str)] = &[
    // `DispatchStats::counts()`, summed over every dispatch core.
    ("dispatch.multi_job_windows", "field check: DispatchStats::multi_job_windows"),
    ("fault.dedup_hits", "field check: DispatchStats::dedup_hits"),
    ("fault.migrations", "tests/chaos.rs"),
    ("fault.replayed_jobs", "tests/chaos.rs"),
    ("fault.replay_failures", "field check: DispatchStats::replay_failures"),
    ("fault.gpu_trips", "tests/chaos.rs; the breaker-trip bundle check below"),
    ("fault.injected.transient", "tests/chaos.rs"),
    ("dispatch.sync.holds", "field check: DispatchStats::holds"),
    ("dispatch.sync.windows", "field check: DispatchStats::sync_windows"),
    ("dispatch.sync.live_groups", "field check: DispatchStats::live_groups"),
    ("dispatch.sync.live_members", "field check: DispatchStats::live_members"),
    ("dispatch.sync.quorum_flushes", "field check: DispatchStats::quorum_flushes"),
    ("dispatch.sync.timeout_flushes", "field check: DispatchStats::timeout_flushes"),
    ("liveness.backstop_trips", "field check: DispatchStats::backstop_trips"),
    ("liveness.quarantined", "the vp_hung bundle check below"),
    ("liveness.rejoins", "field check: DispatchStats::rejoins"),
    ("liveness.deadline_misses", "core execute_boundary_charges_recovery_into_the_budget"),
    ("dispatch.driver.inline", "field check: DispatchStats::inline_requests"),
    ("dispatch.driver.combined", "field check: DispatchStats::combined_requests"),
    ("dispatch.driver.rounds", "field check: DispatchStats::pump_rounds"),
    ("dispatch.driver.timer_wakeups", "field check: DispatchStats::timer_wakeups"),
    // `FleetStats::counts()`: the front's part.
    ("fleet.admitted", "field check: FleetStats::admitted"),
    ("fleet.completed", "field check: FleetStats::completed"),
    ("fleet.shed", "field check: FleetStats::shed"),
    ("fleet.steals", "field check: FleetStats::steals"),
    ("fleet.migrations", "field check: FleetStats::migrations"),
    ("fleet.replayed_jobs", "field check: FleetStats::replayed_jobs"),
    ("fleet.replay_failures", "field check: FleetStats::replay_failures"),
    ("fleet.session_trips", "field check: FleetStats::session_trips"),
    ("fleet.rescued_jobs", "field check: FleetStats::rescued_jobs"),
    ("fleet.sync_holds", "field check: FleetStats::sync_holds"),
    ("fleet.deadline_misses", "fleet held_launch_past_its_deadline_gets_a_typed_hold_error"),
    ("fleet.quarantined_vps", "field check: FleetStats::quarantined_vps"),
    ("fleet.quarantined", "field check: FleetStats::quarantined"),
    ("fleet.readmitted", "field check: FleetStats::readmitted"),
    // Per-event data: a guest's retries, a gauge, a histogram, an
    // interpreter count no stats struct carries.
    ("fault.retries", "tests/chaos.rs; audit chaos.fault_retries"),
    ("fleet.s0.queue_depth", "crates/fleet/tests/handoff.rs"),
    ("fleet.s1.queue_depth", "crates/fleet/tests/handoff.rs (shard 0's twin)"),
    ("ipc.codec.bytes_copied", "ipc codec framing_no_longer_recopies_the_payload"),
    ("jobs.enqueued", "tests/telemetry_integration.rs"),
    ("jobs.dequeued", "tests/telemetry_integration.rs"),
    ("queue.wait_s", "tests/telemetry_integration.rs"),
    ("profiler.feedback.hits", "tests/telemetry_integration.rs"),
    ("profiler.feedback.misses", "tests/telemetry_integration.rs"),
    ("plan.pass.adaptive_select.time_s", "audit: BENCH_audit.json passes"),
    ("plan.pass.coalesce.time_s", "audit: BENCH_audit.json passes"),
    ("plan.pass.dep_order.time_s", "audit: BENCH_audit.json passes"),
    ("plan.pass.interleave.time_s", "audit: BENCH_audit.json passes"),
    ("plan.pass.rebalance.time_s", "audit: BENCH_audit.json passes"),
    ("plan.pass.wave_pack.time_s", "audit: BENCH_audit.json passes"),
    ("sptx.launches", "sigmabench count.launches"),
    ("sptx.instructions_executed", "sigmabench count.instructions"),
    ("sptx.parallel.launches", "sigmabench count.parallel_launches"),
    ("sptx.parallel.indexed_blocks", "sptx tests/parallel_differential.rs"),
    ("sptx.decode.misses", "sigmabench count.decode_misses"),
    ("sptx.warp.fallback_ctas", "sigmabench count.warp_fallback_ctas; top header"),
    ("sptx.warp.fallback_ctas.hazard", "top header"),
    ("sptx.warp.fallback_ctas.fault", "top header"),
    ("sptx.warp.fallback_ctas.budget", "top header"),
];

/// What the traced run left behind.
struct Traced {
    /// Every metric name in the registry, sorted.
    names: Vec<String>,
    /// Each `counts()` row: its name, the registry's counter, the field.
    counts: Vec<(&'static str, Option<u64>, u64)>,
    /// The flight recorder's post-mortems, in dump order.
    bundles: Vec<Bundle>,
}

/// The telemetry collector is process-global: one test at a time.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn traced() -> &'static Traced {
    static RUN: OnceLock<Traced> = OnceLock::new();
    let _exclusive = exclusive();
    RUN.get_or_init(run)
}

/// One `vector_add` through the dispatcher on two interpreter workers: the
/// block-parallel pool's counters.
fn two_worker_launch() -> DispatchStats {
    let app = VectorAddApp { n: 4096 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut sys = DispatchedSigmaVp::single(arch(), registry, TransportCost::shared_memory())
        .with_policy(Policy::Fifo.with_workers(2));
    sys.spawn(Box::new(app));
    let (report, stats) = sys.join();
    assert!(report.all_ok(), "{:?}", report.outcomes);
    stats
}

/// Eight scripted VPs on two shards; session 0 dies halfway.
fn fleet_with_one_session_killed() -> FleetStats {
    let registry: KernelRegistry = VectorAddApp { n: 256 }.kernels().into_iter().collect();
    let fleet = Fleet::new(FleetConfig::new(2), registry).expect("fleet builds");
    let mut scripts: Vec<(VpId, VpScript)> =
        (0..8).map(|vp| (VpId(vp), VpScript::vector_add(256, 2, u64::from(vp)))).collect();
    for (vp, _) in &scripts {
        fleet.admit(*vp).expect("admitted");
    }
    let total: u64 = scripts.iter().map(|(_, s)| s.jobs_total()).sum();
    drive_with(&fleet, &mut scripts, |fleet, admitted| {
        if admitted == total / 2 {
            fleet.kill_session(0).expect("session 0 exists");
        }
    })
    .expect("every script completes");
    fleet.shutdown().stats
}

/// A one-slot fleet with its shard held: the second request is shed.
fn fleet_shedding_once() -> FleetStats {
    let registry: KernelRegistry = VectorAddApp { n: 256 }.kernels().into_iter().collect();
    let fleet = Fleet::new(FleetConfig::new(1).with_capacity(1), registry).expect("fleet builds");
    fleet.hold_workers();
    for vp in 0..2 {
        fleet.admit(VpId(vp)).expect("admitted");
    }
    fleet.submit(VpId(0), Request::Malloc { bytes: 64 }).expect("a free slot");
    let shed = fleet.submit(VpId(1), Request::Malloc { bytes: 64 });
    assert!(matches!(shed, Err(FleetError::Saturated { .. })), "{shed:?}");
    fleet.release_workers();
    fleet.wait(VpId(0)).expect("answered");
    fleet.shutdown().stats
}

/// Add `counts` into `ledger`, row by row: every core (or front) publishes
/// under the same names, so the registry holds their sum.
fn add(ledger: &mut BTreeMap<&'static str, u64>, counts: &[(&'static str, u64)]) {
    for &(name, n) in counts {
        *ledger.entry(name).or_insert(0) += n;
    }
}

fn run() -> Traced {
    let telemetry = sigmavp_telemetry::install();
    let flight = FlightRecorder::new();
    flight.attach(telemetry);

    let mut dispatch = BTreeMap::new();
    add(&mut dispatch, &two_worker_launch().counts());
    for row in Live::all() {
        let first = row.run_once(telemetry, None);
        let second = row.run_once(telemetry, row.calibrated(&first));
        add(&mut dispatch, &first.stats.counts());
        add(&mut dispatch, &second.stats.counts());
    }
    let snapshot = telemetry.snapshot();
    let mut counts: Vec<_> =
        dispatch.into_iter().map(|(name, n)| (name, snapshot.counter(name), n)).collect();

    // The fleets' shard cores publish under the dispatch names too, so only
    // the fronts' rows are compared after them.
    let mut fleet = BTreeMap::new();
    add(&mut fleet, &fleet_with_one_session_killed().counts());
    add(&mut fleet, &fleet_shedding_once().counts());
    let snapshot = telemetry.snapshot();
    counts.extend(fleet.into_iter().map(|(name, n)| (name, snapshot.counter(name), n)));

    sigmavp_telemetry::uninstall();
    let mut names: Vec<String> = (snapshot.counters.iter().map(|(name, _)| name))
        .chain(snapshot.gauges.iter().map(|(name, _)| name))
        .chain(snapshot.histograms.iter().map(|(name, _)| name))
        .cloned()
        .collect();
    names.sort();
    Traced { names, counts, bundles: flight.bundles() }
}

#[test]
fn every_registered_name_has_a_reader() {
    let names = &traced().names;
    let table: Vec<&str> = LEDGER.iter().map(|(name, _)| *name).collect();
    let unread: Vec<&String> = names.iter().filter(|n| !table.contains(&n.as_str())).collect();
    let unseen: Vec<&&str> = table.iter().filter(|n| !names.iter().any(|m| m == *n)).collect();
    assert!(
        unread.is_empty() && unseen.is_empty(),
        "registered but not in the table: {unread:?}; in the table but not registered: {unseen:?}"
    );
}

#[test]
fn every_published_count_equals_its_field() {
    let wrong: Vec<_> =
        traced().counts.iter().filter(|(_, published, field)| *published != Some(*field)).collect();
    assert!(wrong.is_empty(), "(name, published, field): {wrong:?}");
}

/// Counter `name` in the last snapshot a post-mortem froze: the one its
/// incident triggered.
fn trigger_count(bundle: &Bundle, name: &str) -> Option<u64> {
    let snapshots = &bundle.json[..bundle.json.find("\"lifecycles\"")?];
    let last = &snapshots[snapshots.rfind("{\"index\"")?..];
    let key = format!("\"{name}\": ");
    let value = &last[last.find(&key)? + key.len()..];
    value[..value.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

/// A bundle carries the count of its own trigger: the core publishes before
/// it raises the incident, not only at the end of its turn.
#[test]
fn a_post_mortem_carries_its_trigger() {
    let bundles = &traced().bundles;
    let kind = |label: &'static str| bundles.iter().filter(move |b| b.name.ends_with(label));
    // The chaos row's outage on two GPUs: the process's first trip.
    let trip = kind("breaker_trip").next().expect("the chaos outage trips a breaker");
    assert_eq!(trigger_count(trip, "fault.gpu_trips"), Some(1), "{}", trip.name);
    let hung: Vec<_> = kind("vp_hung").collect();
    assert!(!hung.is_empty(), "the hang row quarantines a VP");
    for bundle in hung {
        assert!(trigger_count(bundle, "liveness.quarantined") >= Some(1), "{}", bundle.name);
    }
}
