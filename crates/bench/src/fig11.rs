//! Fig. 11: the full benchmark suite on concurrent VPs, three configurations.
//!
//! For every application, `n_vps` identical VP instances run to completion under
//! (1) GPU emulation on the VP, (2) plain ΣVP multiplexing, and (3) ΣVP plus the
//! two optimizations. Reported per app: the emulation time (the paper's blue bar)
//! and the two speedups (red and green lines).

use sigmavp::scenario::{run_scenario, ScenarioReport};
use sigmavp::Policy;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::suite::fig11_suite;

/// Number of concurrent VP instances (the paper uses eight).
pub const N_VPS: usize = 8;

/// One Fig. 11 bar/line triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Application name.
    pub app: String,
    /// Emulation-on-VP total, seconds (blue bar).
    pub emulation_s: f64,
    /// Speedup of plain multiplexing over emulation (red line).
    pub multiplexed_speedup: f64,
    /// Speedup of optimized multiplexing over emulation (green line).
    pub optimized_speedup: f64,
    /// Kernel/copy groups coalesced in the optimized run.
    pub coalesced_groups: usize,
    /// Whether the app is GL- or file-I/O-bound (the paper's speedup limiters).
    pub io_or_gl_bound: bool,
    /// Whether the app's kernels were eligible for coalescing.
    pub coalescible: bool,
}

/// Run the Fig. 11 experiment over the whole suite at `scale`, with `n_vps`
/// concurrent instances per application.
///
/// # Panics
///
/// Panics if any scenario fails (the suite is self-validating).
pub fn run(scale: u32, n_vps: usize) -> Vec<Fig11Row> {
    // Suite apps are parameter structs: a fresh suite per VP costs nothing.
    let apps = fig11_suite(scale).len();
    (0..apps).map(|i| run_app(&|| fig11_suite(scale).swap_remove(i), n_vps)).collect()
}

/// One app's three configurations, each on `n_vps` instances from `app`.
fn run_app(app: &dyn Fn() -> Box<dyn Application + Send>, n_vps: usize) -> Fig11Row {
    let vps = || (0..n_vps).map(|_| app()).collect();
    let emul = run_scenario(vps(), Policy::EmulatedOnVp).expect("emulation scenario");
    let plain = run_scenario(vps(), Policy::Multiplexed).expect("multiplexed scenario");
    let opt = run_scenario(vps(), Policy::MultiplexedOptimized).expect("optimized scenario");
    row(app().as_ref(), &emul, &plain, &opt)
}

fn row(
    app: &dyn Application,
    emul: &ScenarioReport,
    plain: &ScenarioReport,
    opt: &ScenarioReport,
) -> Fig11Row {
    let traits_ = app.characteristics();
    Fig11Row {
        app: app.name().to_string(),
        emulation_s: emul.total_time_s,
        multiplexed_speedup: plain.speedup_vs(emul),
        optimized_speedup: opt.speedup_vs(emul),
        coalesced_groups: opt.coalesced_groups,
        io_or_gl_bound: traits_.file_io_bytes > 0 || traits_.gl_pixels > 0,
        coalescible: traits_.coalescible,
    }
}

/// Print the Fig. 11 table.
pub fn print(rows: &[Fig11Row]) {
    println!("Fig. 11: {N_VPS} VPs per app — emulation time and SigmaVP speedups");
    println!(
        "{:<24} {:>12} {:>10} {:>10} {:>7} {:>7}",
        "application", "emul. time", "SigmaVP x", "+opt x", "groups", "limit"
    );
    println!("{}", "-".repeat(76));
    for r in rows {
        println!(
            "{:<24} {:>12} {:>10.0} {:>10.0} {:>7} {:>7}",
            r.app,
            crate::fmt_time(r.emulation_s),
            r.multiplexed_speedup,
            r.optimized_speedup,
            r.coalesced_groups,
            if r.io_or_gl_bound { "io/gl" } else { "-" }
        );
    }
    println!();
    println!("paper bands: raw speedups 622x (mergeSort) .. 2045x (BlackScholes);");
    println!("             optimized 1098x (SobelFilter) .. 6304x (BlackScholes)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced Fig. 11 (3 VPs, a few apps) exercising the full pipeline; the
    /// binary runs the real 8-VP configuration.
    #[test]
    fn reduced_fig11_shapes_hold() {
        use sigmavp_workloads::apps::{BlackScholesApp, MergeSortApp, SobelFilterApp};
        let bs = BlackScholesApp { n: 4096, ..BlackScholesApp::new(1) };
        let ms = MergeSortApp { n: 256 };
        let sf = SobelFilterApp { width: 32, height: 24 };

        let r_bs = run_app(&|| Box::new(bs.clone()), 3);
        let r_ms = run_app(&|| Box::new(ms.clone()), 3);
        let r_sf = run_app(&|| Box::new(sf.clone()), 3);

        // FP-heavy BlackScholes speeds up more than the integer SobelFilter
        // (paper: "applications that use less floating-point instructions ... have
        // relatively lower speedups").
        assert!(
            r_bs.multiplexed_speedup > r_sf.multiplexed_speedup,
            "BlackScholes {:.0}x vs SobelFilter {:.0}x",
            r_bs.multiplexed_speedup,
            r_sf.multiplexed_speedup
        );
        // mergeSort gains the most from the optimizations (paper: +10x).
        let gain_ms = r_ms.optimized_speedup / r_ms.multiplexed_speedup;
        let gain_sf = r_sf.optimized_speedup / r_sf.multiplexed_speedup;
        assert!(gain_ms > gain_sf, "mergeSort gain {gain_ms:.2} vs SobelFilter {gain_sf:.2}");
        assert!(gain_ms > 1.5, "mergeSort optimization gain only {gain_ms:.2}");
        // The optimizations never hurt.
        for r in [&r_bs, &r_ms, &r_sf] {
            assert!(r.optimized_speedup >= r.multiplexed_speedup * 0.999, "{}", r.app);
        }
    }

    /// The whole suite at scale 1 on two VPs: for every app emulation is the
    /// slowest configuration and the optimizations never lose to plain
    /// multiplexing, and mergeSort gains the most from them (the paper's
    /// Fig. 11 shape).
    #[test]
    fn every_app_orders_emulation_above_plain_above_optimized() {
        let rows = run(1, 2);
        assert_eq!(rows.len(), 22);
        for r in &rows {
            assert!(r.multiplexed_speedup > 1.0, "{}: plain {:.2}x", r.app, r.multiplexed_speedup);
            assert!(r.optimized_speedup >= r.multiplexed_speedup, "{}: {r:?}", r.app);
        }
        let gain = |r: &Fig11Row| r.optimized_speedup / r.multiplexed_speedup;
        let best = rows.iter().max_by(|a, b| gain(a).total_cmp(&gain(b))).expect("22 rows");
        assert_eq!(best.app, "mergeSort", "largest plain/optimized ratio: {best:?}");
    }
}
