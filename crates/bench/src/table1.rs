//! Table 1: execution time of matrix multiplication over six paths.

use sigmavp::paths::{run_table1, Table1};
use sigmavp_workloads::apps::MatrixMulApp;

/// Matrix dimension used by the reproduction (the paper used 320 on real silicon;
/// 96 fills the simulated device's wave while keeping interpretation tractable).
pub const MATRIX_N: u64 = 96;

/// Multiplication repetitions (paper: 300).
pub const REPS: u32 = 2;

/// Run the Table 1 experiment at reproduction scale.
///
/// # Panics
///
/// Panics if any path fails (the workload is self-validating).
pub fn run() -> Table1 {
    let app = MatrixMulApp::with_shape(MATRIX_N, REPS);
    let flops = 2 * MATRIX_N.pow(3) * REPS as u64;
    run_table1(Box::new(app), flops).expect("table 1 paths run")
}

/// Print the table in the paper's format.
pub fn print(t: &Table1) {
    println!(
        "Table 1: execution time of matrix multiplication ({MATRIX_N}x{MATRIX_N} f64, x{REPS})"
    );
    println!("{:<22} {:<14} {:>12} {:>9}", "Language/Path", "Executed by", "Time", "Ratio");
    println!("{}", "-".repeat(60));
    for (row, ratio) in t.rows.iter().zip(t.ratios()) {
        println!(
            "{:<22} {:<14} {:>12} {:>9}",
            row.label,
            row.executed_by,
            crate::fmt_time(row.time_s),
            crate::fmt_ratio(ratio)
        );
    }
    println!();
    println!("paper reference ratios: 1.00 / 53.52 / 2192.95 / 3.32 / 48.09 / 1580.15");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reproduces_paper_ordering() {
        let t = run();
        let r = t.ratios();
        assert_eq!(r.len(), 6);
        // GPU < SigmaVP < Emul-CPU < C-VP-ish < Emul-VP ordering core claims.
        assert!(r[3] < r[1] && r[1] < r[2] && r[5] < r[2]);
    }
}
