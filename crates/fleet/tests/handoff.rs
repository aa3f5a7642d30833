//! The shard hand-off as [`Fleet::observability`] reports it. A test binary
//! of its own: it installs the process-global telemetry collector.

use sigmavp_fleet::{Fleet, FleetConfig};
use sigmavp_ipc::message::{Request, Response, VpId};
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::VectorAddApp;

#[test]
fn a_held_inbox_is_taken_in_one_handoff() {
    let telemetry = sigmavp_telemetry::install();
    let registry = VectorAddApp { n: 256 }.kernels().into_iter().collect();
    let fleet = Fleet::new(FleetConfig::new(1), registry).expect("fleet builds");
    fleet.hold_workers();
    for vp in 0..64 {
        fleet.admit(VpId(vp)).unwrap();
        fleet.submit(VpId(vp), Request::Malloc { bytes: 64 }).unwrap();
    }
    let held = fleet.observability(&telemetry).shards[0];
    assert_eq!((held.queue_depth, held.handoffs), (64, 0), "{held:?}");

    fleet.release_workers();
    for vp in 0..64 {
        let (response, _) = fleet.wait(VpId(vp)).unwrap();
        assert!(matches!(response.body, Response::Malloc { .. }), "{response:?}");
    }
    // 64 joins and 64 offers crossed in one hand-off; the gauge keeps the
    // depth the shard found when it took them.
    let view = fleet.observability(&telemetry);
    assert_eq!((view.shards[0].queue_depth, view.shards[0].handoffs), (0, 1), "{view:?}");
    assert_eq!(view.metrics.gauge("fleet.s0.queue_depth"), Some(64.0));
    fleet.shutdown();
}
