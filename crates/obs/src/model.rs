//! Model-residual auditing: do measured timelines still match the paper?
//!
//! ΣVP's value proposition is analytic: Eq. 7 predicts the interleaved
//! makespan `T = 2·Tm + N·max(Tm, Tk)`, Eq. 8 bounds the speedup over
//! serialized execution at `3N/(N+2)` (for `Tm = Tk`), and Eq. 9 prices a
//! coalesced launch as `T = To + Te·⌈ξ/λ⌉` — one launch overhead plus the
//! per-wave time times the merged grid's wave count (ξ merged blocks over the
//! device's alignment unit λ, its blocks-per-wave). The functions here compute
//! those predictions from *observed* quantities so a run can be audited
//! against the model it claims to implement; [`AuditReport`] collects the
//! residuals and flags any entry whose relative residual exceeds the
//! tolerance.

use sigmavp::host::{JobRecord, RecordKind};

/// Eq. 7: makespan of N interleaved `copy-in → kernel → copy-out` programs on
/// a duplex-copy device: `2·Tm + N·max(Tm, Tk)`.
pub fn eq7_makespan_s(n: usize, tm_s: f64, tk_s: f64) -> f64 {
    2.0 * tm_s + n as f64 * tm_s.max(tk_s)
}

/// Eq. 8: the interleaving speedup bound for `Tm = Tk`: serialized `3N·T`
/// over interleaved `(N + 2)·T`, i.e. `3N/(N+2)` (approaches 3 as N grows).
pub fn eq8_speedup_bound(n: usize) -> f64 {
    3.0 * n as f64 / (n as f64 + 2.0)
}

/// Eq. 9: duration of a coalesced kernel launch: `To + Te·⌈ξ/λ⌉`, with `To`
/// the single launch overhead, `Te` the per-wave execution time, `ξ` the
/// merged grid's total blocks, and `λ` the device's wave alignment unit
/// (blocks per wave).
pub fn eq9_merged_kernel_s(to_s: f64, te_s: f64, xi_blocks: u64, lambda_blocks: u64) -> f64 {
    to_s + te_s * xi_blocks.div_ceil(lambda_blocks.max(1)) as f64
}

/// Relative residual `|measured − predicted| / |predicted|` (0 when both are
/// zero; the predicted magnitude is floored to avoid division blow-ups).
pub fn residual_frac(predicted: f64, measured: f64) -> f64 {
    let scale = predicted.abs();
    if scale <= 1e-30 {
        if measured.abs() <= 1e-30 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - predicted).abs() / scale
    }
}

/// Model inputs observed from a device's job log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelInputs {
    /// Number of distinct VPs in the log (the paper's N).
    pub n: usize,
    /// Mean copy duration (the paper's Tm), 0 when no copies.
    pub tm_s: f64,
    /// Mean kernel duration (the paper's Tk), 0 when no kernels.
    pub tk_s: f64,
}

/// Observe Eq. 7's inputs — N, Tm, Tk — from a job log.
pub fn observed_inputs(records: &[JobRecord]) -> ModelInputs {
    let mut vps = std::collections::BTreeSet::new();
    let (mut copy_sum, mut copies) = (0.0f64, 0u64);
    let (mut kernel_sum, mut kernels) = (0.0f64, 0u64);
    for r in records {
        vps.insert(r.vp);
        match r.kind {
            RecordKind::H2d { .. } | RecordKind::D2h { .. } => {
                copy_sum += r.duration_s;
                copies += 1;
            }
            RecordKind::Kernel { .. } => {
                kernel_sum += r.duration_s;
                kernels += 1;
            }
        }
    }
    ModelInputs {
        n: vps.len(),
        tm_s: if copies > 0 { copy_sum / copies as f64 } else { 0.0 },
        tk_s: if kernels > 0 { kernel_sum / kernels as f64 } else { 0.0 },
    }
}

/// One audited prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualEntry {
    /// Short name (`eq7.makespan`, `eq8.speedup`, …); also the gauge key stem.
    pub name: String,
    /// The model's prediction.
    pub predicted: f64,
    /// What the run measured.
    pub measured: f64,
    /// `|measured − predicted| / |predicted|`.
    pub residual_frac: f64,
    /// Whether the residual is within the report's tolerance.
    pub within_tolerance: bool,
}

/// A structured audit: every checked prediction with its residual, plus the
/// tolerance verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Relative residual above which an entry is flagged.
    pub tolerance: f64,
    /// Audited predictions, in push order.
    pub entries: Vec<ResidualEntry>,
}

impl AuditReport {
    /// An empty report flagging residuals above `tolerance`.
    pub fn new(tolerance: f64) -> Self {
        AuditReport { tolerance, entries: Vec::new() }
    }

    /// Audit one prediction against its measurement.
    pub fn push(&mut self, name: impl Into<String>, predicted: f64, measured: f64) {
        let name = name.into();
        let frac = residual_frac(predicted, measured);
        self.entries.push(ResidualEntry {
            within_tolerance: frac <= self.tolerance,
            name,
            predicted,
            measured,
            residual_frac: frac,
        });
    }

    /// Entries whose residual exceeds the tolerance.
    pub fn flagged(&self) -> Vec<&ResidualEntry> {
        self.entries.iter().filter(|e| !e.within_tolerance).collect()
    }

    /// Whether every audited prediction is within tolerance.
    pub fn all_within(&self) -> bool {
        self.entries.iter().all(|e| e.within_tolerance)
    }

    /// Look up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&ResidualEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The report as a JSON array (hand-rolled; the environment has no serde).
    pub fn to_json(&self) -> String {
        use sigmavp_telemetry::export::escape_json;
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"name\": \"{}\", \"predicted\": {:.9e}, \"measured\": {:.9e}, \
                     \"residual_frac\": {:.6}, \"within_tolerance\": {}}}",
                    escape_json(&e.name),
                    e.predicted,
                    e.measured,
                    e.residual_frac,
                    e.within_tolerance
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::message::VpId;

    fn record(vp: u32, seq: u64, kind: RecordKind, duration_s: f64) -> JobRecord {
        JobRecord { vp: VpId(vp), seq, kind, duration_s, sent_at_s: 0.0 }
    }

    #[test]
    fn eq7_matches_hand_computation() {
        // Tk-bound: 2·1 + 4·3 = 14. Tm-bound: 2·2 + 4·2 = 12.
        assert!((eq7_makespan_s(4, 1.0, 3.0) - 14.0).abs() < 1e-12);
        assert!((eq7_makespan_s(4, 2.0, 1.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn eq8_bound_approaches_three() {
        assert!((eq8_speedup_bound(1) - 1.0).abs() < 1e-12);
        assert!((eq8_speedup_bound(4) - 2.0).abs() < 1e-12);
        assert!(eq8_speedup_bound(1000) > 2.99);
        assert!(eq8_speedup_bound(1000) < 3.0);
    }

    #[test]
    fn eq9_rounds_up_to_wave_boundaries() {
        // ξ = 9 blocks over λ = 4 → 3 waves.
        assert!((eq9_merged_kernel_s(1e-5, 1e-4, 9, 4) - (1e-5 + 3e-4)).abs() < 1e-15);
        // Exact multiple: no padding.
        assert!((eq9_merged_kernel_s(0.0, 1e-4, 8, 4) - 2e-4).abs() < 1e-15);
        // λ = 0 is clamped, not a division panic.
        assert!(eq9_merged_kernel_s(0.0, 1e-4, 8, 0).is_finite());
    }

    #[test]
    fn residuals_are_relative_and_zero_safe() {
        assert_eq!(residual_frac(2.0, 2.0), 0.0);
        assert!((residual_frac(2.0, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(residual_frac(0.0, 0.0), 0.0);
        assert_eq!(residual_frac(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn observed_inputs_average_per_kind() {
        let records = vec![
            record(0, 0, RecordKind::H2d { bytes: 1, stream: 0 }, 1e-4),
            record(
                0,
                1,
                RecordKind::Kernel {
                    name: "k".into(),
                    grid_dim: 1,
                    block_dim: 32,
                    launch_overhead_s: 0.0,
                    waves: 1,
                    stream: 0,
                },
                4e-4,
            ),
            record(1, 0, RecordKind::D2h { bytes: 1, stream: 0 }, 3e-4),
        ];
        let inputs = observed_inputs(&records);
        assert_eq!(inputs.n, 2);
        assert!((inputs.tm_s - 2e-4).abs() < 1e-15);
        assert!((inputs.tk_s - 4e-4).abs() < 1e-15);
        assert_eq!(observed_inputs(&[]), ModelInputs { n: 0, tm_s: 0.0, tk_s: 0.0 });
    }

    #[test]
    fn audit_report_flags_and_serializes() {
        let mut report = AuditReport::new(0.10);
        report.push("eq7.makespan", 1.0, 1.05); // 5% — fine
        report.push("eq8.speedup", 2.0, 1.0); // 50% — flagged
        assert!(!report.all_within());
        let flagged = report.flagged();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].name, "eq8.speedup");
        assert!(report.entry("eq7.makespan").unwrap().within_tolerance);
        let json = report.to_json();
        assert!(json.contains("\"eq7.makespan\""));
        assert!(json.contains("\"within_tolerance\": false"));
    }
}
