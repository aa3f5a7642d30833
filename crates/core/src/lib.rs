//! # sigmavp — Simulation using GPU-Multiplexing for Acceleration of Virtual Platforms
//!
//! The top-level framework of the ΣVP reproduction (Jung & Carloni, DAC 2015): it
//! ties the substrates together exactly as the paper's Fig. 2 does.
//!
//! * On each **VP side**: a guest application (from
//!   [`sigmavp_workloads`]) talks to the CUDA-like GPU user library
//!   ([`sigmavp_vp::cuda`]), which delegates either to software
//!   [emulation](sigmavp_vp::emulation) (the slow path, Fig. 1a) or, on a VP
//!   thread of [`DispatchedSigmaVp`], to the forwarding backend that sends
//!   every call over a transport to the host (Fig. 1b).
//! * On the **host side**: the [`DispatchCore`] queues, plans and executes the
//!   requests arriving through the [IPC codec](sigmavp_ipc::codec); the
//!   [`HostRuntime`] runs them on the simulated
//!   [host GPU](sigmavp_gpu::GpuDevice) and records every job for timeline
//!   analysis.
//! * The [`scenario`] module runs N virtual platforms through a complete
//!   application and prices the result in three modes — GPU emulation on the VP,
//!   plain host-GPU multiplexing, and multiplexing plus Kernel Interleaving and
//!   Kernel Coalescing — producing the numbers behind the paper's Fig. 11. Its
//!   ΣVP modes are live [`DispatchedSigmaVp`] runs, like every other guest.
//! * The [`paths`] module reproduces Table 1's six execution paths for a single
//!   workload.
//!
//! ## Quickstart
//!
//! ```
//! use sigmavp::scenario::run_scenario;
//! use sigmavp::Policy;
//! use sigmavp_workloads::apps::VectorAddApp;
//! use sigmavp_workloads::Application;
//!
//! # fn main() -> Result<(), sigmavp::SigmaVpError> {
//! let vps = || -> Vec<Box<dyn Application + Send>> {
//!     (0..2).map(|_| Box::new(VectorAddApp { n: 1024 }) as Box<_>).collect()
//! };
//! let slow = run_scenario(vps(), Policy::EmulatedOnVp)?;
//! let fast = run_scenario(vps(), Policy::MultiplexedOptimized)?;
//! assert!(fast.total_time_s < slow.total_time_s);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub mod dispatch;
pub mod dispatcher;
pub mod error;
pub mod host;
pub mod paths;
pub mod plan;
pub mod scenario;
pub mod session;

/// The live-run report types under the path they have always been imported
/// from; they are defined next to [`DispatchedSigmaVp`], the runtime that
/// produces them.
pub mod threaded {
    pub use crate::dispatcher::{ThreadedReport, VpOutcome};

    /// The report's contract, checked on the live runtime that fills it in.
    #[cfg(test)]
    mod tests {
        use super::ThreadedReport;
        use crate::host::RecordKind;
        use crate::DispatchedSigmaVp;
        use sigmavp_gpu::GpuArch;
        use sigmavp_ipc::message::VpId;
        use sigmavp_ipc::transport::TransportCost;
        use sigmavp_vp::error::VpError;
        use sigmavp_vp::registry::KernelRegistry;
        use sigmavp_workloads::app::{AppEnv, Application};
        use sigmavp_workloads::apps::{MergeSortApp, VectorAddApp};

        fn run(gpus: usize, apps: Vec<Box<dyn Application + Send>>) -> ThreadedReport {
            let registry: KernelRegistry = apps.iter().flat_map(|app| app.kernels()).collect();
            let mut sys = DispatchedSigmaVp::new(
                vec![GpuArch::quadro_4000(); gpus],
                registry,
                TransportCost::shared_memory(),
            );
            for app in apps {
                sys.spawn(app);
            }
            sys.join().0
        }

        fn vector_adds(count: usize, n: u64) -> Vec<Box<dyn Application + Send>> {
            (0..count)
                .map(|_| Box::new(VectorAddApp { n }) as Box<dyn Application + Send>)
                .collect()
        }

        #[test]
        fn concurrent_vps_all_validate() {
            let report = run(1, vector_adds(6, 1024));
            assert!(report.all_ok(), "{:?}", report.outcomes);
            assert_eq!(report.outcomes.len(), 6);
            // 6 VPs × (2 h2d + 1 kernel + 1 d2h) device jobs.
            assert_eq!(report.records.len(), 6 * 4);
            assert_eq!(report.device_records.len(), 1);
            assert!(report.device_makespan_s > 0.0);
            for o in &report.outcomes {
                assert!(o.simulated_time_s > 0.0);
                // vectorAdd issues 10 calls: 3 mallocs, 2 h2d, 1 launch, 1 d2h, 3 frees.
                assert_eq!(o.gpu_calls, 10);
            }
        }

        #[test]
        fn two_host_gpus_reduce_the_live_makespan() {
            // The same eight-VP fleet on one device vs two: least-loaded
            // routing spreads it four-and-four and the planned device makespan
            // must drop by ≥ 1.5×.
            let one = run(1, vector_adds(8, 4096));
            let two = run(2, vector_adds(8, 4096));
            assert!(one.all_ok() && two.all_ok());
            assert_eq!(one.records.len(), two.records.len());
            assert_eq!(two.device_records.len(), 2);
            assert!(two.device_records.iter().all(|r| !r.is_empty()));
            let ratio = one.device_makespan_s / two.device_makespan_s;
            assert!(ratio >= 1.5, "makespan ratio {ratio:.2}");
        }

        #[test]
        fn failures_are_isolated_per_vp() {
            /// An application that launches a kernel missing from the registry.
            struct Broken;
            impl Application for Broken {
                fn name(&self) -> &str {
                    "broken"
                }
                fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
                    vec![]
                }
                fn characteristics(&self) -> sigmavp_workloads::AppTraits {
                    sigmavp_workloads::AppTraits::pure_cuda()
                }
                fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
                    env.cuda().launch_sync("missing_kernel", 1, 1, &[])
                }
            }
            let report = run(
                1,
                vec![
                    Box::new(VectorAddApp { n: 512 }),
                    Box::new(Broken),
                    Box::new(VectorAddApp { n: 512 }),
                ],
            );
            assert!(!report.all_ok());
            assert_eq!(report.outcomes.iter().filter(|o| o.error.is_some()).count(), 1);
            assert_eq!(report.failed_vps.len(), 1);
            assert_eq!(report.failed_vps[0].0, VpId(1));
            // The healthy VPs still completed and validated.
            assert!(report.outcomes[0].error.is_none());
            assert!(report.outcomes[2].error.is_none());
        }

        #[test]
        fn mixed_apps_share_the_device() {
            let report =
                run(1, vec![Box::new(VectorAddApp { n: 512 }), Box::new(MergeSortApp { n: 64 })]);
            assert!(report.all_ok(), "{:?}", report.outcomes);
            // Both kernel kinds appear in the shared log.
            let kernels: std::collections::HashSet<&str> = report
                .records
                .iter()
                .filter_map(|r| match &r.kind {
                    RecordKind::Kernel { name, .. } => Some(name.as_str()),
                    _ => None,
                })
                .collect();
            assert!(kernels.contains("vector_add"));
            assert!(kernels.contains("bitonic_step"));
        }
    }
}

pub use dispatch::{DispatchCore, DispatchStats};
pub use dispatcher::DispatchedSigmaVp;
pub use error::SigmaVpError;
pub use host::HostRuntime;
pub use plan::{op_job_uid, plan_device, DevicePlan, EngineEvaluator};
pub use scenario::{run_scenario, ScenarioReport};
pub use session::{DeviceOutcome, ExecutionSession, SessionOutcome, VpQueueWait};
pub use sigmavp_fault::FaultPlan;
pub use sigmavp_sched::{BackendKind, InterleaveMode, Pipeline, Policy, RetryPolicy};
