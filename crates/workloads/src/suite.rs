//! The full Fig. 11 benchmark suite.

use crate::app::Application;
use crate::apps::*;

/// All twenty-two suite applications at the given scale (1 = smallest), in the
/// paper's Fig. 11 presentation order, each ready to run on a VP thread.
pub fn fig11_suite(scale: u32) -> Vec<Box<dyn Application + Send>> {
    vec![
        Box::new(SimpleGlApp::new(scale)),
        Box::new(MandelbrotApp::new(scale)),
        Box::new(BicubicTextureApp::new(scale)),
        Box::new(RecursiveGaussianApp::new(scale)),
        Box::new(MonteCarloApp::new(scale)),
        Box::new(SegmentationTreeApp::new(scale)),
        Box::new(MarchingCubesApp::new(scale)),
        Box::new(VolumeFilteringApp::new(scale)),
        Box::new(SobelFilterApp::new(scale)),
        Box::new(NbodyApp::new(scale)),
        Box::new(SmokeParticlesApp::new(scale)),
        Box::new(ConvolutionSeparableApp::new(scale)),
        Box::new(Dct8x8App::new(scale)),
        Box::new(StereoDisparityApp::new(scale)),
        Box::new(MergeSortApp::new(scale)),
        Box::new(BlackScholesApp::new(scale)),
        Box::new(MatrixMulApp::new(scale)),
        Box::new(VectorAddApp::new(scale)),
        Box::new(ScalarProdApp::new(scale)),
        Box::new(TransposeApp::new(scale)),
        Box::new(ReductionApp::new(scale)),
        Box::new(HistogramApp::new(scale)),
    ]
}

/// Names of the suite applications, in order.
pub fn suite_names(scale: u32) -> Vec<String> {
    fig11_suite(scale).iter().map(|a| a.name().to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testenv::run_app;

    #[test]
    fn suite_has_at_least_twenty_distinct_apps() {
        let mut names = suite_names(1);
        assert!(names.len() >= 20);
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_suite_app_runs_and_validates_at_scale_1() {
        for app in fig11_suite(1) {
            let t = run_app(app.as_ref());
            assert!(t > 0.0, "{} reported zero simulated time", app.name());
        }
    }

    #[test]
    fn suite_covers_the_papers_speedup_limiters() {
        let suite = fig11_suite(1);
        let gl_bound = suite.iter().filter(|a| a.characteristics().gl_pixels > 0).count();
        let io_bound = suite.iter().filter(|a| a.characteristics().file_io_bytes > 0).count();
        let non_coalescible = suite.iter().filter(|a| !a.characteristics().coalescible).count();
        assert!(gl_bound >= 5, "paper lists six GL-bound apps");
        assert!(io_bound >= 4, "paper lists five file-I/O apps");
        assert!(non_coalescible >= 5, "paper lists six apps the optimizations skip");
    }

    #[test]
    fn every_app_registers_at_least_one_kernel() {
        for app in fig11_suite(1) {
            assert!(!app.kernels().is_empty(), "{}", app.name());
        }
    }
}
