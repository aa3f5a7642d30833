//! Fleet smoke example: shard 32 VPs across 2 execution sessions, steal load
//! between them, kill one session mid-run, and finish everything on the
//! survivor.
//!
//! Run with `cargo run -p sigmavp-fleet --example fleet`.

use sigmavp_fleet::{drive_with, Fleet, FleetConfig, VpScript};
use sigmavp_ipc::message::VpId;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::VectorAddApp;

fn main() {
    let registry: KernelRegistry = VectorAddApp { n: 256 }.kernels().into_iter().collect();
    let config = FleetConfig::new(2).with_steal_interval(32).with_capacity(64);
    let fleet = Fleet::new(config, registry).expect("fleet builds");

    let mut scripts: Vec<(VpId, VpScript)> = (0..32u32)
        .map(|vp| (VpId(vp), VpScript::vector_add(2048, 1 + vp % 4, vp as u64)))
        .collect();
    for (vp, _) in &scripts {
        fleet.admit(*vp).expect("admission succeeds");
    }
    let total: u64 = scripts.iter().map(|(_, s)| s.jobs_total()).sum();

    let submitted = drive_with(&fleet, &mut scripts, |fleet, admitted| {
        if admitted == total / 2 {
            println!("halfway ({admitted} jobs) — killing session 0");
            fleet.kill_session(0).expect("session 0 exists");
        }
    })
    .expect("every script validates");

    let outcome = fleet.shutdown();
    println!(
        "submitted {submitted} jobs over {} sessions: completed={} shed={} steals={} \
         migrations={} replayed={} rescued={} trips={}",
        outcome.sessions.len(),
        outcome.stats.completed,
        outcome.stats.shed,
        outcome.stats.steals,
        outcome.stats.migrations,
        outcome.stats.replayed_jobs,
        outcome.stats.rescued_jobs,
        outcome.stats.session_trips,
    );
    println!(
        "gpu jobs {} | makespan {:.6}s | p99 queue wait {:.6}s",
        outcome.gpu_jobs(),
        outcome.makespan_s(),
        outcome.p99_queue_wait_s()
    );
    assert_eq!(outcome.stats.completed, submitted, "no job was lost to the dead session");
}
