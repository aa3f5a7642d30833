//! Application implementations of the benchmark suite.
//!
//! Grouped by domain; every type implements [`Application`](crate::app::Application)
//! and is re-exported here. Constructors take a `scale` factor (1 = test scale,
//! larger values grow the data sizes linearly) so the same apps serve unit tests
//! and the Fig. 11 experiments. [`StaggeredAdd`] and [`CopyStream`] are not
//! suite members: they are the guests the live sync-window and liveness
//! scenarios are built from.

mod finance;
mod imaging;
mod linalg;
mod misc;
mod scenario;

pub use finance::{BlackScholesApp, MonteCarloApp};
pub use imaging::{
    BicubicTextureApp, ConvolutionSeparableApp, Dct8x8App, RecursiveGaussianApp, SobelFilterApp,
    StereoDisparityApp, StreamedConvolutionApp, VolumeFilteringApp,
};
pub use linalg::{MatrixMulApp, ReductionApp, ScalarProdApp, TransposeApp, VectorAddApp};
pub use misc::{
    HistogramApp, MandelbrotApp, MarchingCubesApp, MergeSortApp, NbodyApp, SegmentationTreeApp,
    SimpleGlApp, SmokeParticlesApp,
};
pub use scenario::{CopyStream, StaggeredAdd};

#[cfg(test)]
pub(crate) mod testenv {
    //! Shared test fixture: run an app once over CPU-hosted emulation.

    use crate::app::{AppEnv, Application};
    use sigmavp_ipc::message::VpId;
    use sigmavp_vp::emulation::EmulatedGpu;
    use sigmavp_vp::platform::VirtualPlatform;
    use sigmavp_vp::registry::KernelRegistry;

    /// Run `app` once over a fresh emulated backend; panics on failure and returns
    /// the VP's simulated end time.
    pub fn run_app(app: &dyn Application) -> f64 {
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut vp = VirtualPlatform::new(VpId(0));
        let mut gpu = EmulatedGpu::on_cpu(registry);
        let mut env = AppEnv::new(&mut vp, &mut gpu);
        app.run_once(&mut env).unwrap_or_else(|e| panic!("{} failed: {e}", app.name()));
        vp.now_s()
    }
}
