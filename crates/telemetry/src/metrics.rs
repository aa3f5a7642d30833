//! Low-overhead metric primitives and the name-keyed registry.
//!
//! All primitives are updated with relaxed atomics — individual updates are
//! totals, not synchronization points — and snapshots are taken by reading the
//! same atomics, so a snapshot racing a hot path sees a consistent-enough
//! recent value without stalling writers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` value (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Buckets per decade of the histogram's log-spaced grid.
const BUCKETS_PER_DECADE: usize = 5;
/// Smallest resolvable value (seconds-oriented, but unit-agnostic).
const BUCKET_MIN: f64 = 1e-9;
/// Number of decades covered above [`BUCKET_MIN`].
const DECADES: usize = 13;
/// Total buckets: one underflow bucket plus the log grid (the last grid bucket
/// absorbs overflow).
const NUM_BUCKETS: usize = 1 + DECADES * BUCKETS_PER_DECADE;

/// A fixed-bucket histogram of non-negative `f64` samples on a log-spaced grid
/// from 1e-9 to 1e4, with exact count/sum/min/max and bucket-interpolated
/// percentiles.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// Bucket index for a sample.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= BUCKET_MIN {
        return 0; // underflow (and NaN, defensively)
    }
    let pos = ((v / BUCKET_MIN).log10() * BUCKETS_PER_DECADE as f64).floor();
    if pos >= (NUM_BUCKETS - 2) as f64 {
        return NUM_BUCKETS - 1; // the last grid bucket absorbs overflow (and +inf)
    }
    pos as usize + 1
}

/// Upper bound of bucket `i` (the underflow bucket's bound is [`BUCKET_MIN`]).
fn bucket_upper_bound(i: usize) -> f64 {
    BUCKET_MIN * 10f64.powf(i as f64 / BUCKETS_PER_DECADE as f64)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Negative and NaN samples land in the underflow
    /// bucket and still count toward `count`/`sum`.
    pub fn observe(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&self.sum_bits, |s| s + v);
        cas_f64(&self.min_bits, |m| m.min(v));
        cas_f64(&self.max_bits, |m| m.max(v));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An immutable summary (count, sum, min, max, p50/p90/p99).
    ///
    /// # NaN-free quantile contract
    ///
    /// The quantiles (`p50`/`p90`/`p99`) and extremes (`min`/`max`) of the
    /// returned summary are **always finite and never NaN**, for every
    /// sequence of `observe` calls:
    ///
    /// * an **empty** histogram returns [`HistogramSummary::default()`] —
    ///   every field zero (min/max report 0.0, not the internal ±∞
    ///   sentinels);
    /// * a **single-sample** histogram collapses every quantile to that
    ///   sample's bucket midpoint clamped to the observed value, so
    ///   `p50 == p90 == p99` and `min == max == sample`;
    /// * **NaN samples** are routed to the underflow bucket by `observe` and
    ///   ignored by the min/max tracking (`f64::min`/`max` discard NaN), so a
    ///   histogram of only NaN samples reports zero extremes and zero
    ///   quantiles instead of panicking in the clamp.
    ///
    /// `sum` (and therefore [`HistogramSummary::mean`]) is the one field that
    /// faithfully reflects NaN poisoning: summing a NaN sample yields a NaN
    /// sum, by design — masking it would hide the bad input.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        if count == 0 {
            return HistogramSummary::default();
        }
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let mut min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let mut max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if min > max {
            // Every sample was NaN: the ±∞ init sentinels never moved.
            // Report zero extremes so the quantile clamp below stays valid.
            (min, max) = (0.0, 0.0);
        }
        let total: u64 = counts.iter().sum();
        let percentile = |p: f64| -> f64 {
            let rank = (p * total as f64).ceil().max(1.0) as u64;
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    // Geometric bucket midpoint, clamped to observed extremes.
                    let hi = bucket_upper_bound(i);
                    let lo = if i == 0 { BUCKET_MIN / 10.0 } else { bucket_upper_bound(i - 1) };
                    return (lo * hi).sqrt().clamp(min, max);
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
        }
    }
}

fn cas_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0.0 when empty).
    pub min: f64,
    /// Largest sample (0.0 when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSummary {
    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Name-keyed collection of metrics. Lookups take a lock; the returned `Arc`s
/// can be cached by hot paths to skip it.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Arc::new(Gauge::new());
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock");
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// A point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSummary)> = self
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, histograms, dropped_events: 0 }
    }
}

/// A point-in-time copy of a [`Registry`]'s contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Trace events lost because the span ring was full. Zero for snapshots
    /// taken straight off a [`Registry`]; `Telemetry::snapshot` fills it from
    /// the ring so exporters can surface the loss.
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(1);
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0;
        for i in 0..2000 {
            let v = 1e-10 * 1.03f64.powi(i);
            let b = bucket_index(v);
            assert!(b >= last, "bucket index regressed at {v}");
            assert!(b < NUM_BUCKETS);
            last = b;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_bracket_their_samples() {
        for v in [3e-9, 1e-6, 42e-6, 1e-3, 0.77, 12.0, 9000.0] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i) * (1.0 + 1e-12), "{v} above bucket {i}");
            if i > 1 && i < NUM_BUCKETS - 1 {
                assert!(v > bucket_upper_bound(i - 1) * (1.0 - 1e-12), "{v} below bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-6); // 1µs ..= 1ms, uniform
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.sum - 500.5e-3).abs() < 1e-9);
        assert!((s.mean() - 500.5e-6).abs() < 1e-12);
        assert!((s.min - 1e-6).abs() < 1e-18);
        assert!((s.max - 1e-3).abs() < 1e-18);
        // Log-bucket percentiles are coarse: within one decade step is fine.
        assert!(s.p50 >= 250e-6 && s.p50 <= 1000e-6, "p50 {}", s.p50);
        assert!(s.p90 >= 500e-6 && s.p90 <= 1e-3, "p90 {}", s.p90);
        assert!(s.p99 >= s.p90 && s.p99 <= 1e-3, "p99 {}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    #[test]
    fn histogram_single_value_percentiles_collapse() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(5e-4);
        }
        let s = h.summary();
        // All percentiles clamp to the single observed value.
        assert_eq!(s.min, 5e-4);
        assert_eq!(s.max, 5e-4);
        assert_eq!(s.p50, s.p99);
        assert!((s.p50 - 5e-4).abs() <= 5e-4 * 0.6, "p50 {} too far", s.p50);
    }

    #[test]
    fn empty_histogram_summary_is_all_zero_and_nan_free() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s, HistogramSummary::default());
        // The contract: no ±∞ sentinels and no NaN leak out of an empty
        // histogram — every field is exactly zero.
        for v in [s.sum, s.min, s.max, s.p50, s.p90, s.p99, s.mean()] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn single_sample_summary_quantiles_are_finite_and_collapse() {
        let h = Histogram::new();
        h.observe(3e-4);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 3e-4);
        assert_eq!(s.max, 3e-4);
        assert_eq!((s.p50, s.p90), (s.p99, s.p99), "one sample: all quantiles equal");
        assert!(s.p50.is_finite());
        // Clamped to the observed extremes, a one-sample quantile IS the sample.
        assert_eq!(s.p50, 3e-4);
        assert!((s.mean() - 3e-4).abs() < 1e-18);
    }

    #[test]
    fn nan_samples_never_poison_quantiles_or_extremes() {
        // Only-NaN histogram: min/max sentinels never move; summary must not
        // panic in the quantile clamp and must report finite zeros.
        let h = Histogram::new();
        h.observe(f64::NAN);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (0.0, 0.0));
        for q in [s.p50, s.p90, s.p99] {
            assert!(q.is_finite() && !q.is_nan());
            assert_eq!(q, 0.0);
        }
        // Sum (and mean) faithfully reflect the bad input.
        assert!(s.sum.is_nan());
        assert!(s.mean().is_nan());

        // Mixed NaN + real samples: extremes and quantiles track the real ones.
        let h = Histogram::new();
        h.observe(1e-3);
        h.observe(f64::NAN);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!((s.min, s.max), (1e-3, 1e-3));
        for q in [s.p50, s.p90, s.p99] {
            assert!(q.is_finite());
        }
    }

    #[test]
    fn negative_single_sample_stays_finite() {
        let h = Histogram::new();
        h.observe(-2.0);
        let s = h.summary();
        assert_eq!((s.min, s.max), (-2.0, -2.0));
        assert_eq!(s.p50, -2.0, "underflow-bucket quantile clamps to the sample");
        assert!(s.p99.is_finite());
    }

    #[test]
    fn histogram_is_thread_safe() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        h.observe(1e-6 + i as f64 * 1e-9);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.summary().count, 40_000);
    }

    #[test]
    fn registry_dedupes_and_snapshots() {
        let r = Registry::new();
        r.counter("a").add(1);
        r.counter("a").add(2);
        r.gauge("g").set(1.5);
        r.histogram("h").observe(1e-3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }
}
