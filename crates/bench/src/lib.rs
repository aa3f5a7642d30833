//! # sigmavp-bench — the experiment harness
//!
//! One module per paper artifact, each exposing a pure function that computes the
//! experiment's data points plus a `print_*` helper that renders the paper-style
//! table. The `src/bin/*` binaries regenerate each table/figure on stdout; the
//! Criterion benches in `benches/` measure the *simulator's own* throughput on the
//! same code paths.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`]  | Table 1 — six execution paths for matrix multiplication |
//! | [`fig9`]    | Fig. 9a/9b — Kernel Interleaving speedups |
//! | [`fig10`]   | Fig. 10a/10b — Kernel Coalescing and grid alignment |
//! | [`fig11`]   | Fig. 11 — the 22-application suite on 8 VPs, three modes |
//! | [`fig12`]   | Fig. 12 — timing estimation (H, T, C, C′, C″) |
//! | [`fig13`]   | Fig. 13 — power estimation (T vs P) |
//!
//! [`scenarios`] is the table `--bin audit` runs: the planned Eq. 7/8/9 rows and
//! the live same-seed-ledger rows, with the gate keys each one feeds.
#![warn(missing_docs)]

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig9;
pub mod profiles;
pub mod scenarios;
pub mod table1;

/// Render a ratio as the paper prints it.
pub fn fmt_ratio(r: f64) -> String {
    if r >= 100.0 {
        format!("{r:.0}")
    } else {
        format!("{r:.2}")
    }
}

/// Render simulated seconds with an adaptive unit.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ratio(3.321), "3.32");
        assert_eq!(fmt_ratio(2192.95), "2193");
        assert!(fmt_time(0.5).ends_with("ms"));
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(5e-6).ends_with("us"));
    }
}
