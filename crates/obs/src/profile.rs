//! Per-(kernel, `GpuArch`) execution profiles, folded from job logs.
//!
//! The paper's cost model runs on three observed quantities: Tm (copy time,
//! which we track *per byte* so it generalizes across transfer sizes), Tk
//! (kernel time, tracked *per block* and *per wave*), and the ξ/λ wave
//! alignment of each launch (Eq. 9's fill fraction). This module folds
//! streaming estimates of all three from the [`JobRecord`] logs every run
//! already returns (a planned row's records, a dispatched fleet's
//! `ThreadedReport`, a fleet session's `DeviceOutcome`s). It is pure
//! observation ([`ProfileSnapshot`] is the read API): no scheduling decision
//! consumes it.
//!
//! # Determinism: canonical-order folding
//!
//! A multi-device log is concatenated device by device, and the same job can
//! land on a different device run to run — but EWMA and Welford variance are
//! order-sensitive, and the audit gate requires byte-identical serialized
//! profiles across same-seed runs. So [`ProfileStore::observe_records`] only
//! *appends* each observation, tagged with its stable [`job_uid`], and the
//! estimators fold them **sorted by uid** — the canonical `(vp, seq)` order
//! every same-seed run produces identically — when a [`ProfileSnapshot`] is
//! taken. Observations with equal uids (the same job in two runs) fold in
//! the order their logs were observed.

use std::collections::BTreeMap;

use sigmavp::host::{JobRecord, RecordKind};
use sigmavp_gpu::GpuArch;
use sigmavp_telemetry::export::escape_json;
use sigmavp_telemetry::job_uid;

/// EWMA smoothing factor: recent jobs dominate after ~5 samples.
const EWMA_ALPHA: f64 = 0.2;

/// A streaming estimate: exact count/mean/variance (Welford) plus an EWMA
/// that tracks drift faster than the all-time mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimate {
    /// Samples folded in.
    pub count: u64,
    /// All-time mean.
    pub mean: f64,
    /// Sum of squared deviations (Welford's M2).
    m2: f64,
    /// Exponentially weighted moving average (seeded by the first sample).
    pub ewma: f64,
}

impl Estimate {
    fn fold(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.ewma = if self.count == 1 {
            value
        } else {
            EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self.ewma
        };
    }

    /// Population variance (0 below two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"count\": {}, \"mean\": {:.9e}, \"var\": {:.9e}, \"ewma\": {:.9e}}}",
            self.count,
            self.mean,
            self.variance(),
            self.ewma
        )
    }
}

/// One buffered copy observation (value precomputed, uid for ordering).
#[derive(Debug, Clone, Copy)]
struct CopyObs {
    uid: u64,
    bytes: u64,
    duration_s: f64,
}

/// One buffered kernel observation.
#[derive(Debug, Clone, Copy)]
struct KernelObs {
    uid: u64,
    blocks: u64,
    waves: u64,
    lambda_blocks: u64,
    launch_overhead_s: f64,
    duration_s: f64,
}

/// The write side: appends observations per key, folds on snapshot.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    copies: BTreeMap<String, Vec<CopyObs>>,
    kernels: BTreeMap<(String, String), Vec<KernelObs>>,
}

impl ProfileStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append every job of a device log served by a device of architecture
    /// `arch`: each copy and each kernel launch is one observation.
    pub fn observe_records(&mut self, arch: &GpuArch, records: &[JobRecord]) {
        for r in records {
            let uid = job_uid(r.vp.0, r.seq);
            match &r.kind {
                RecordKind::H2d { bytes, .. } | RecordKind::D2h { bytes, .. } => {
                    let obs = CopyObs { uid, bytes: *bytes, duration_s: r.duration_s };
                    self.copies.entry(arch.name.clone()).or_default().push(obs);
                }
                RecordKind::Kernel {
                    name, grid_dim, block_dim, launch_overhead_s, waves, ..
                } => {
                    let obs = KernelObs {
                        uid,
                        blocks: u64::from(*grid_dim),
                        waves: *waves,
                        lambda_blocks: u64::from(arch.blocks_per_wave(*block_dim)),
                        launch_overhead_s: *launch_overhead_s,
                        duration_s: r.duration_s,
                    };
                    self.kernels.entry((arch.name.clone(), name.clone())).or_default().push(obs);
                }
            }
        }
    }

    /// Fold every pending observation in canonical uid order and return the
    /// deterministic read-side view.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut copies = BTreeMap::new();
        for (arch, obs) in &self.copies {
            let mut sorted = obs.clone();
            sorted.sort_by_key(|o| o.uid);
            let mut stats = CopyStats::default();
            for o in sorted {
                stats.copies += 1;
                stats.bytes += o.bytes;
                stats.copy_s.fold(o.duration_s);
                stats.tm_per_byte_s.fold(o.duration_s / o.bytes.max(1) as f64);
            }
            copies.insert(arch.clone(), stats);
        }
        let mut kernels = BTreeMap::new();
        for (key, obs) in &self.kernels {
            let mut sorted = obs.clone();
            sorted.sort_by_key(|o| o.uid);
            let mut stats = KernelStats::default();
            for o in sorted {
                stats.launches += 1;
                let waves = o.waves.max(1);
                let exec_s = (o.duration_s - o.launch_overhead_s).max(0.0);
                stats.launch_overhead_s.fold(o.launch_overhead_s);
                stats.tk_per_block_s.fold(exec_s / o.blocks.max(1) as f64);
                stats.te_per_wave_s.fold(exec_s / waves as f64);
                let slots = (waves * o.lambda_blocks.max(1)) as f64;
                stats.alignment.fold(o.blocks as f64 / slots.max(1.0));
            }
            kernels.insert(key.clone(), stats);
        }
        let updates = copies.values().map(|s: &CopyStats| s.copies).sum::<u64>()
            + kernels.values().map(|s: &KernelStats| s.launches).sum::<u64>();
        ProfileSnapshot { updates, copies, kernels }
    }
}

/// Folded copy-path statistics for one architecture.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CopyStats {
    /// Copies folded in.
    pub copies: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// End-to-end copy duration estimate (the paper's Tm, per copy).
    pub copy_s: Estimate,
    /// Copy time per byte — Tm normalized so it transfers across sizes.
    pub tm_per_byte_s: Estimate,
}

/// Folded kernel statistics for one (architecture, kernel) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Launches folded in.
    pub launches: u64,
    /// Launch overhead estimate (Eq. 9's To).
    pub launch_overhead_s: Estimate,
    /// Execution time per block (Tk normalized by grid size).
    pub tk_per_block_s: Estimate,
    /// Execution time per wave (Eq. 9's Te).
    pub te_per_wave_s: Estimate,
    /// ξ/(waves·λ) wave-fill fraction in `(0, 1]` — 1.0 means every launch
    /// landed exactly on a wave boundary.
    pub alignment: Estimate,
}

/// The deterministic read side: folded estimates keyed by architecture and
/// (architecture, kernel).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Observations folded into this snapshot.
    pub updates: u64,
    /// Per-architecture copy statistics.
    pub copies: BTreeMap<String, CopyStats>,
    /// Per-(architecture, kernel) launch statistics.
    pub kernels: BTreeMap<(String, String), KernelStats>,
}

impl ProfileSnapshot {
    /// Number of distinct profiled entries (copy archs + kernel pairs).
    pub fn entries(&self) -> usize {
        self.copies.len() + self.kernels.len()
    }

    /// Serialize deterministically: `BTreeMap` iteration order plus fixed
    /// `{:.9e}` float formatting make same-seed runs byte-identical (the
    /// audit gate asserts this).
    pub fn to_json(&self) -> String {
        let copies: Vec<String> = self
            .copies
            .iter()
            .map(|(arch, s)| {
                format!(
                    "    {{\"arch\": \"{}\", \"copies\": {}, \"bytes\": {}, \"copy_s\": {}, \
                     \"tm_per_byte_s\": {}}}",
                    escape_json(arch),
                    s.copies,
                    s.bytes,
                    s.copy_s.to_json(),
                    s.tm_per_byte_s.to_json()
                )
            })
            .collect();
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|((arch, kernel), s)| {
                format!(
                    "    {{\"arch\": \"{}\", \"kernel\": \"{}\", \"launches\": {}, \
                     \"launch_overhead_s\": {}, \"tk_per_block_s\": {}, \"te_per_wave_s\": {}, \
                     \"alignment\": {}}}",
                    escape_json(arch),
                    escape_json(kernel),
                    s.launches,
                    s.launch_overhead_s.to_json(),
                    s.tk_per_block_s.to_json(),
                    s.te_per_wave_s.to_json(),
                    s.alignment.to_json()
                )
            })
            .collect();
        format!(
            "{{\n  \"updates\": {},\n  \"copies\": [\n{}\n  ],\n  \"kernels\": [\n{}\n  ]\n}}\n",
            self.updates,
            copies.join(",\n"),
            kernels.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::message::VpId;

    fn copy(vp: u32, seq: u64, bytes: u64, duration_s: f64) -> JobRecord {
        let kind = RecordKind::H2d { bytes, stream: 0 };
        JobRecord { vp: VpId(vp), seq, kind, duration_s, sent_at_s: 0.0 }
    }

    fn kernel(vp: u32, seq: u64, duration_s: f64) -> JobRecord {
        let kind = RecordKind::Kernel {
            name: "vector_add".into(),
            grid_dim: 9,
            block_dim: 1024,
            launch_overhead_s: 1e-5,
            waves: 2,
            stream: 0,
        };
        JobRecord { vp: VpId(vp), seq, kind, duration_s, sent_at_s: 0.0 }
    }

    #[test]
    fn estimate_tracks_mean_variance_and_ewma() {
        let mut e = Estimate::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            e.fold(v);
        }
        assert_eq!(e.count, 4);
        assert!((e.mean - 2.5).abs() < 1e-12);
        assert!((e.variance() - 1.25).abs() < 1e-12);
        // EWMA seeded at 1.0, then 0.2 of the way toward each sample:
        // 1, 1.2, 1.56, 2.048.
        assert!((e.ewma - 2.048).abs() < 1e-12);
        assert_eq!(Estimate::default().variance(), 0.0);
    }

    #[test]
    fn folding_is_order_independent_across_ingest_orders() {
        // The same jobs in two log orders (a two-device log concatenates
        // device by device, and which device serves a job can vary).
        let arch = GpuArch::quadro_4000();
        let log: Vec<JobRecord> = (0..6u32)
            .flat_map(|i| {
                let (vp, seq) = (i % 3, u64::from(i / 3) * 2);
                [copy(vp, seq, 256 << i, 1e-6 * f64::from(i + 1)), kernel(vp, seq + 1, 1e-4)]
            })
            .collect();
        let (front, back) = log.split_at(5);
        let mut a = ProfileStore::new();
        a.observe_records(&arch, &log);
        let mut b = ProfileStore::new();
        b.observe_records(&arch, back);
        b.observe_records(&arch, front);
        let reversed: Vec<JobRecord> = log.iter().rev().cloned().collect();
        let mut c = ProfileStore::new();
        c.observe_records(&arch, &reversed);
        let (sa, sb, sc) = (a.snapshot(), b.snapshot(), c.snapshot());
        assert_eq!(sa.to_json(), sb.to_json(), "serialized bytes identical");
        assert_eq!(sa.to_json(), sc.to_json(), "serialized bytes identical");
        assert_eq!((sa.updates, sa.entries()), (12, 2));
    }

    #[test]
    fn copy_and_kernel_profiles_fold_the_papers_quantities() {
        let arch = GpuArch::quadro_4000();
        let lambda = arch.blocks_per_wave(1024);
        let mut store = ProfileStore::new();
        store.observe_records(
            &arch,
            &[copy(0, 1, 1000, 1e-5), copy(0, 2, 2000, 2e-5), kernel(0, 3, 2.1e-4)],
        );
        let snap = store.snapshot();
        assert_eq!((snap.updates, snap.entries()), (3, 2));
        let copy = snap.copies.get(&arch.name).unwrap();
        assert_eq!(copy.copies, 2);
        assert_eq!(copy.bytes, 3000);
        assert!((copy.tm_per_byte_s.mean - 1e-8).abs() < 1e-20);
        let kernel = snap.kernels.get(&(arch.name.clone(), "vector_add".into())).unwrap();
        assert_eq!(kernel.launches, 1);
        // exec = 2.1e-4 - 1e-5 = 2e-4 over 2 waves / 9 blocks.
        assert!((kernel.te_per_wave_s.mean - 1e-4).abs() < 1e-15);
        assert!((kernel.tk_per_block_s.mean - 2e-4 / 9.0).abs() < 1e-15);
        // ξ/(waves·λ).
        assert!((kernel.alignment.mean - 9.0 / f64::from(2 * lambda)).abs() < 1e-12);
    }
}
