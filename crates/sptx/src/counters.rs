//! Execution profiles: the dynamic counters produced by running a kernel.
//!
//! These are the SPTX equivalent of the hardware profiler the paper relies on
//! ("the Profiler, which is provided by the manufacturer, acquires execution
//! information such as the number of executed instructions per instruction type ...").

use std::collections::HashMap;

use crate::interp::LaunchConfig;
use crate::isa::{BlockId, InstrClass};
use crate::parallel::IntMap;
use crate::program::ClassCounts;

/// Summary of the memory behaviour of one kernel execution, consumed by the GPU
/// device model's cache/stall estimator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryTraceSummary {
    /// Total bytes loaded from global memory.
    pub load_bytes: u64,
    /// Total bytes stored to global memory.
    pub store_bytes: u64,
    /// Number of distinct 128-byte memory segments touched. A low
    /// `unique_segments / accesses` ratio indicates well-coalesced, cache-friendly
    /// access; a high ratio indicates scattered access.
    pub unique_segments: u64,
    /// Total number of load/store operations.
    pub accesses: u64,
}

impl MemoryTraceSummary {
    /// Mean bytes per access; `0.0` when no accesses occurred.
    pub fn mean_access_width(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        (self.load_bytes + self.store_bytes) as f64 / self.accesses as f64
    }

    /// Spatial-locality score in `[0, 1]`: 1 means every access hit an already
    /// touched 128-byte segment, 0 means every access opened a new segment.
    pub fn locality(&self) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        1.0 - (self.unique_segments as f64 / self.accesses as f64).min(1.0)
    }
}

/// Exact set of touched 128-byte memory segments, as a paged bitmap.
///
/// Segment `s` is bit `s % 64` of page `s / 64`. Kernel access streams are
/// strongly run-structured — consecutive accesses usually hit the same or an
/// adjacent segment, or alternate between two buffers — so the two pages
/// being written are held in registers (`cur`, `cur_bits`) and only a third
/// page touches the map. Sets merge by OR-ing pages and count by summing
/// popcounts: no sort, no dedup, and the count is exact, so every
/// cache-model input stays what a `HashSet<u64>` would give.
#[derive(Debug, Clone, Default)]
pub struct SegmentSet {
    /// Every page left behind, possibly including a current one from an
    /// earlier visit.
    pages: IntMap<u64, u64>,
    /// The two pages used last, the latest first, and their bits set since
    /// they became current; not yet OR-ed into `pages`. They differ whenever
    /// both hold bits.
    cur: [u64; 2],
    cur_bits: [u64; 2],
}

impl SegmentSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a touched segment.
    #[inline(always)]
    pub fn insert(&mut self, seg: u64) {
        let page = seg >> 6;
        if page != self.cur[0] {
            // The older page comes first; if it is not `page` either, it
            // makes way.
            self.cur.swap(0, 1);
            self.cur_bits.swap(0, 1);
            if page != self.cur[0] {
                self.spill(0, page);
            }
        }
        self.cur_bits[0] |= 1 << (seg & 63);
    }

    /// OR current page `i`'s bits into the map and make `page` current there.
    #[inline(never)]
    fn spill(&mut self, i: usize, page: u64) {
        if self.cur_bits[i] != 0 {
            *self.pages.entry(self.cur[i]).or_insert(0) |= self.cur_bits[i];
        }
        (self.cur[i], self.cur_bits[i]) = (page, 0);
    }

    /// OR both current pages' bits into the map.
    fn flush(&mut self) {
        self.spill(0, self.cur[0]);
        self.spill(1, self.cur[1]);
    }

    /// Fold another set into this one, leaving `other` empty with its
    /// allocation kept. Order-insensitive: the union does not depend on which
    /// worker touched a segment first.
    pub fn absorb(&mut self, other: &mut SegmentSet) {
        other.flush();
        for (page, bits) in other.pages.drain() {
            *self.pages.entry(page).or_insert(0) |= bits;
        }
    }

    /// Forget every segment, keeping the allocation.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.cur_bits = [0; 2];
    }

    /// Number of distinct segments recorded so far.
    pub fn distinct(&mut self) -> u64 {
        self.flush();
        self.pages.values().map(|bits| u64::from(bits.count_ones())).sum()
    }
}

/// Full dynamic profile of one kernel launch over an entire grid.
///
/// Contains everything the paper's Profile-Based Execution Analysis consumes:
/// per-class dynamic instruction counts (σ on the machine that ran it), per-block
/// iteration counts (λ_b, obtained in the paper by "dynamically inserting PTX
/// instructions"), and a memory-trace summary for the data-cache stall model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionProfile {
    /// Dynamic instruction counts by class, summed over all threads.
    pub counts: ClassCounts,
    /// Per-basic-block execution counts λ_b, summed over all threads.
    pub block_iterations: HashMap<BlockId, u64>,
    /// Memory behaviour summary.
    pub memory: MemoryTraceSummary,
    /// Number of threads that ran.
    pub threads: u64,
}

impl ExecutionProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// λ for one block (0 if never executed).
    pub fn iterations(&self, block: BlockId) -> u64 {
        self.block_iterations.get(&block).copied().unwrap_or(0)
    }

    /// Merge another profile into this one (e.g. accumulate per-thread profiles).
    pub fn merge(&mut self, other: &ExecutionProfile) {
        self.counts = self.counts.merged(&other.counts);
        for (b, n) in &other.block_iterations {
            *self.block_iterations.entry(*b).or_insert(0) += n;
        }
        self.memory.load_bytes += other.memory.load_bytes;
        self.memory.store_bytes += other.memory.store_bytes;
        self.memory.unique_segments += other.memory.unique_segments;
        self.memory.accesses += other.memory.accesses;
        self.threads += other.threads;
    }

    /// Per-thread average instruction count; `0.0` for an empty profile.
    pub fn instructions_per_thread(&self) -> f64 {
        if self.threads == 0 {
            return 0.0;
        }
        self.counts.total() as f64 / self.threads as f64
    }

    /// Fraction of dynamic instructions in a class.
    pub fn class_fraction(&self, class: InstrClass) -> f64 {
        let total = self.counts.total();
        if total == 0 {
            return 0.0;
        }
        self.counts.get(class) as f64 / total as f64
    }
}

/// What a launch counts while it runs. Every driver keeps its counts in these:
/// the scalar runner and the warp tier count into one, a CTA's own is absorbed
/// into the launch's once the CTA is kept, and the launch's becomes its
/// [`ExecutionProfile`].
#[derive(Debug)]
pub(crate) struct Tally {
    /// Dynamic instruction counts by class index.
    pub class_counts: [u64; 7],
    /// Per-block visit counts (λ).
    pub block_iters: Vec<u64>,
    /// 128-byte segments touched.
    pub segments: SegmentSet,
    /// Load/store byte and access totals; `unique_segments` is filled in by
    /// [`Tally::into_profile`].
    pub trace: MemoryTraceSummary,
    /// Dynamic instructions executed, terminators included: the count the
    /// instruction budget is checked against.
    pub executed: u64,
}

impl Tally {
    pub(crate) fn new(nblocks: usize) -> Self {
        Tally {
            class_counts: [0; 7],
            block_iters: vec![0; nblocks],
            segments: SegmentSet::new(),
            trace: MemoryTraceSummary::default(),
            executed: 0,
        }
    }

    /// Zero every count, keeping the allocations.
    pub(crate) fn reset(&mut self) {
        self.class_counts = [0; 7];
        self.block_iters.fill(0);
        self.segments.clear();
        self.trace = MemoryTraceSummary::default();
        self.executed = 0;
    }

    /// Add `other`'s counts to these, taking its segments.
    pub(crate) fn absorb(&mut self, other: &mut Tally) {
        for (a, b) in self.class_counts.iter_mut().zip(other.class_counts) {
            *a += b;
        }
        for (a, b) in self.block_iters.iter_mut().zip(&other.block_iters) {
            *a += b;
        }
        self.segments.absorb(&mut other.segments);
        self.trace.accesses += other.trace.accesses;
        self.trace.load_bytes += other.trace.load_bytes;
        self.trace.store_bytes += other.trace.store_bytes;
        self.executed += other.executed;
    }

    /// The launch's profile. Emits `sptx.launches` and
    /// `sptx.instructions_executed`.
    pub(crate) fn into_profile(mut self, cfg: &LaunchConfig) -> ExecutionProfile {
        let mut profile = ExecutionProfile::new();
        for (c, n) in InstrClass::ALL.iter().zip(self.class_counts) {
            profile.counts.add(*c, n);
        }
        for (i, &n) in self.block_iters.iter().enumerate() {
            if n > 0 {
                profile.block_iterations.insert(BlockId(i as u32), n);
            }
        }
        self.trace.unique_segments = self.segments.distinct();
        profile.memory = self.trace;
        profile.threads = cfg.total_threads();
        let r = sigmavp_telemetry::recorder();
        if r.enabled() {
            r.count("sptx.launches", 1);
            r.count("sptx.instructions_executed", self.executed);
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_everything() {
        let mut a = ExecutionProfile::new();
        a.counts.add(InstrClass::Fp32, 10);
        a.block_iterations.insert(BlockId(0), 5);
        a.memory.load_bytes = 64;
        a.memory.accesses = 4;
        a.threads = 1;

        let mut b = ExecutionProfile::new();
        b.counts.add(InstrClass::Fp32, 6);
        b.counts.add(InstrClass::Ld, 2);
        b.block_iterations.insert(BlockId(0), 3);
        b.block_iterations.insert(BlockId(1), 1);
        b.memory.load_bytes = 32;
        b.memory.accesses = 2;
        b.threads = 1;

        a.merge(&b);
        assert_eq!(a.counts.get(InstrClass::Fp32), 16);
        assert_eq!(a.counts.get(InstrClass::Ld), 2);
        assert_eq!(a.iterations(BlockId(0)), 8);
        assert_eq!(a.iterations(BlockId(1)), 1);
        assert_eq!(a.memory.load_bytes, 96);
        assert_eq!(a.threads, 2);
        assert_eq!(a.instructions_per_thread(), 9.0);
    }

    #[test]
    fn locality_bounds() {
        let m =
            MemoryTraceSummary { load_bytes: 0, store_bytes: 0, unique_segments: 0, accesses: 0 };
        assert_eq!(m.locality(), 1.0);
        let m =
            MemoryTraceSummary { load_bytes: 4, store_bytes: 0, unique_segments: 10, accesses: 10 };
        assert_eq!(m.locality(), 0.0);
        let m =
            MemoryTraceSummary { load_bytes: 4, store_bytes: 0, unique_segments: 1, accesses: 10 };
        assert!((m.locality() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn class_fraction_of_empty_profile_is_zero() {
        let p = ExecutionProfile::new();
        assert_eq!(p.class_fraction(InstrClass::Int), 0.0);
        assert_eq!(p.instructions_per_thread(), 0.0);
    }

    #[test]
    fn segment_set_matches_a_hash_set() {
        use std::collections::HashSet;
        // A run-structured stream with repeats that jumps between a few
        // dozen pages.
        let mut set = SegmentSet::new();
        let mut reference = HashSet::new();
        let stream: Vec<u64> = (0..5000u64).map(|i| (i / 7) ^ ((i * 2654435761) % 97)).collect();
        for &s in &stream {
            set.insert(s);
            reference.insert(s);
        }
        assert_eq!(set.distinct(), reference.len() as u64);
        // distinct() is idempotent.
        assert_eq!(set.distinct(), reference.len() as u64);
    }

    proptest::proptest! {
        /// The paged bitmap is an exact set: runs that cross page edges, with
        /// repeats and far jumps, split across any number of sets and folded
        /// back together, count what a `BTreeSet` counts — also when the
        /// count is read midway and inserts go on.
        #[test]
        fn segment_set_matches_a_btree_set(
            runs in proptest::collection::vec((0u64..1 << 22, 1u64..300, 0u64..3), 0..24),
            cuts in proptest::collection::vec(0usize..4000, 0..8),
            peek in 0usize..4000,
            other in 0u64..1 << 22,
        ) {
            // Every other run alternates element by element with a walk from
            // `other` (one page, half pages or whole pages per step): two
            // buffers' pages in turn, as `matrix_mul` reads A and B.
            let stream: Vec<u64> = runs
                .iter()
                .enumerate()
                .flat_map(|(r, &(start, len, step))| {
                    (0..len).flat_map(move |i| {
                        let own = start + i * step;
                        if r % 2 == 1 { vec![own, other + i * step * 32] } else { vec![own] }
                    })
                })
                .collect();
            let reference: std::collections::BTreeSet<u64> = stream.iter().copied().collect();
            let mut cuts = cuts;
            cuts.push(stream.len());
            cuts.sort_unstable();
            let mut total = SegmentSet::new();
            let mut part = SegmentSet::new();
            let mut seen = std::collections::BTreeSet::new();
            let mut seen_by_part = std::collections::BTreeSet::new();
            for (i, &seg) in stream.iter().enumerate() {
                while cuts.first().is_some_and(|&c| c <= i) {
                    cuts.remove(0);
                    total.absorb(&mut part);
                    seen_by_part = std::collections::BTreeSet::new();
                }
                part.insert(seg);
                seen.insert(seg);
                seen_by_part.insert(seg);
                if i == peek {
                    proptest::prop_assert_eq!(part.clone().distinct(), seen_by_part.len() as u64);
                    let mut both = total.clone();
                    both.absorb(&mut part.clone());
                    proptest::prop_assert_eq!(both.distinct(), seen.len() as u64);
                }
            }
            total.absorb(&mut part);
            proptest::prop_assert_eq!(part.distinct(), 0);
            proptest::prop_assert_eq!(total.distinct(), reference.len() as u64);
            proptest::prop_assert_eq!(total.distinct(), reference.len() as u64);
            total.clear();
            proptest::prop_assert_eq!(total.distinct(), 0);
        }
    }

    #[test]
    fn segment_set_absorb_unions() {
        let mut a = SegmentSet::new();
        let mut b = SegmentSet::new();
        for s in [1u64, 2, 3, 3, 4] {
            a.insert(s);
        }
        for s in [3u64, 4, 5, 1] {
            b.insert(s);
        }
        a.absorb(&mut b);
        assert_eq!(a.distinct(), 5);
        assert_eq!(SegmentSet::default().distinct(), 0);
    }

    #[test]
    fn mean_access_width() {
        let m =
            MemoryTraceSummary { load_bytes: 12, store_bytes: 4, unique_segments: 1, accesses: 4 };
        assert_eq!(m.mean_access_width(), 4.0);
    }
}
