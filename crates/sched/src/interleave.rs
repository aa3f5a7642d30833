//! Kernel Interleaving: reordering GPU jobs to overlap the copy and compute engines.
//!
//! Two mechanisms, matching the paper's Fig. 4:
//!
//! * **asynchronous requests** (Fig. 4a) — [`reorder_async`] permutes the pending
//!   job list. It is a greedy non-preemptive list scheduler over the two engines:
//!   at every step it issues, among the *ready* jobs (the head job of each VP, so
//!   the per-VP partial order is preserved by construction), the one that can start
//!   earliest given current engine availability, using each job's
//!   `expected_duration_s` ("by using the expected time for each invocation").
//!   For the copy-in → kernel → copy-out loops of Fig. 9 this produces exactly the
//!   pipelined schedule of Eq. 7, `T = 2·Tm + N·max(Tm, Tk)`.
//!
//! * **synchronous requests** (Fig. 4b) — a synchronous invocation blocks its VP,
//!   so the queue never holds more than one job per VP; instead ΣVP stops whole
//!   VPs. The dispatch core holds each VP's synchronous launch (`sync_hold`),
//!   plans the held window with the same pipeline, and its answer resumes the VP.

use sigmavp_ipc::message::VpId;
use sigmavp_ipc::queue::{Job, JobKind};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Engine availability tracked by the greedy scheduler. Mirrors the device model's
/// duplex copy engine: independent H2D and D2H channels plus one compute engine.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct EngineClock {
    h2d_free: f64,
    d2h_free: f64,
    compute_free: f64,
}

#[cfg(test)]
impl EngineClock {
    fn slot(&mut self, kind: &JobKind) -> &mut f64 {
        match kind {
            JobKind::CopyIn { .. } => &mut self.h2d_free,
            JobKind::CopyOut { .. } => &mut self.d2h_free,
            JobKind::Kernel { .. } => &mut self.compute_free,
        }
    }
}

/// Which of the three engines a job runs on.
fn engine(kind: &JobKind) -> usize {
    match kind {
        JobKind::CopyIn { .. } => 0,
        JobKind::CopyOut { .. } => 1,
        JobKind::Kernel { .. } => 2,
    }
}

/// A time or duration as a heap key, ordered by value (`-0.0` is read as
/// `0.0`, as `<` reads it).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Time {
    fn new(t: f64) -> Self {
        Time(t + 0.0)
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One engine and the VP heads waiting for it. A head whose VP is free by the
/// time the engine is (`vp_free <= free`) can start at `free`, so among those
/// the shortest, then the lowest VP, goes first (`ready`); the others start
/// when their VP frees up (`waiting`). Every waiting head starts later than
/// every ready one, and heads move from `waiting` to `ready` as `free`
/// passes their VP's time — which only grows, since durations are
/// non-negative.
#[derive(Default)]
struct Lane {
    free: f64,
    /// `(duration, vp index)`.
    ready: BinaryHeap<Reverse<(Time, usize)>>,
    /// `(vp_free, duration, vp index)`.
    waiting: BinaryHeap<Reverse<(Time, Time, usize)>>,
}

impl Lane {
    fn push(&mut self, vp_free: f64, duration: f64, vp: usize) {
        if vp_free <= self.free {
            self.ready.push(Reverse((Time::new(duration), vp)));
        } else {
            self.waiting.push(Reverse((Time::new(vp_free), Time::new(duration), vp)));
        }
    }

    /// The lane's earliest head as `(start, duration, vp index)`.
    fn best(&self) -> Option<(f64, f64, usize)> {
        match self.ready.peek() {
            Some(&Reverse((d, vp))) => Some((self.free, d.0, vp)),
            None => self.waiting.peek().map(|&Reverse((s, d, vp))| (s.0, d.0, vp)),
        }
    }

    /// Take the head [`Lane::best`] named.
    fn pop(&mut self) {
        if self.ready.pop().is_none() {
            self.waiting.pop();
        }
    }

    /// The engine is busy until `t`: every head whose VP is free by then
    /// becomes ready.
    fn advance(&mut self, t: f64) {
        self.free = t;
        while let Some(&Reverse((s, d, vp))) = self.waiting.peek() {
            if s.0 > t {
                break;
            }
            self.waiting.pop();
            self.ready.push(Reverse((d, vp)));
        }
    }
}

/// Reorder pending asynchronous jobs to maximize copy/compute overlap while
/// preserving each VP's submission order.
///
/// Each step issues the VP head with the least `(start, duration, vp)`, where
/// `start` is the later of its engine's and its VP's free time. Each engine
/// keeps its candidates in two heaps, so a step costs O(log V)
/// rather than a scan of every VP: O(n log V) for n jobs over V VPs.
/// Durations must be non-negative.
///
/// The output always satisfies
/// [`preserves_partial_order`](sigmavp_ipc::queue::preserves_partial_order) with
/// respect to the input (checked by property tests).
pub fn reorder_async(jobs: Vec<Job>) -> Vec<Job> {
    let total = jobs.len();
    // Per-VP FIFO queues, in original order; indices follow VP id order, so
    // comparing indices breaks ties as comparing ids would.
    let mut by_vp: BTreeMap<VpId, VecDeque<Job>> = BTreeMap::new();
    for job in jobs {
        by_vp.entry(job.vp).or_default().push_back(job);
    }
    let mut queues: Vec<VecDeque<Job>> = by_vp.into_values().collect();
    // Per-VP completion time of the previously scheduled job (stream dependency).
    let mut vp_free = vec![0.0f64; queues.len()];
    let mut lanes: [Lane; 3] = Default::default();
    for (vp, q) in queues.iter().enumerate() {
        if let Some(head) = q.front() {
            lanes[engine(&head.kind)].push(0.0, head.expected_duration_s, vp);
        }
    }

    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for (e, lane) in lanes.iter().enumerate() {
            if let Some((s, d, vp)) = lane.best() {
                if best.is_none_or(|(bs, bd, bvp, _)| (s, d, vp) < (bs, bd, bvp)) {
                    best = Some((s, d, vp, e));
                }
            }
        }
        let (_, _, vp, e) = best.expect("some queue is non-empty");
        let lane = &mut lanes[e];
        lane.pop();
        let job = queues[vp].pop_front().expect("head exists");
        debug_assert!(job.expected_duration_s >= 0.0, "negative duration {job:?}");
        let start = lane.free.max(vp_free[vp]);
        let end = start + job.expected_duration_s;
        lane.advance(end);
        vp_free[vp] = end;
        if let Some(next) = queues[vp].front() {
            lanes[engine(&next.kind)].push(end, next.expected_duration_s, vp);
        }
        out.push(job);
    }
    out
}

/// The scan [`reorder_async`] replaced, kept as its oracle: every step
/// looks at every VP's head.
#[cfg(test)]
fn reorder_async_scan(jobs: Vec<Job>) -> Vec<Job> {
    let mut queues: BTreeMap<VpId, VecDeque<Job>> = BTreeMap::new();
    for job in jobs {
        queues.entry(job.vp).or_default().push_back(job);
    }

    let mut clock = EngineClock::default();
    let mut vp_free: BTreeMap<VpId, f64> = BTreeMap::new();
    let total: usize = queues.values().map(|q| q.len()).sum();
    let mut out = Vec::with_capacity(total);

    while out.len() < total {
        let mut best: Option<(f64, f64, VpId)> = None;
        for (&vp, q) in &queues {
            let Some(head) = q.front() else { continue };
            let engine_free = *clock.clone().slot(&head.kind);
            let start = engine_free.max(vp_free.get(&vp).copied().unwrap_or(0.0));
            let key = (start, head.expected_duration_s, vp);
            if best.is_none_or(|(bs, bd, bvp)| key < (bs, bd, bvp)) {
                best = Some(key);
            }
        }
        let (_, _, vp) = best.expect("some queue is non-empty");
        let job = queues.get_mut(&vp).expect("chosen vp exists").pop_front().expect("head exists");

        let slot = clock.slot(&job.kind);
        let start = slot.max(vp_free.get(&vp).copied().unwrap_or(0.0));
        let end = start + job.expected_duration_s;
        *slot = end;
        vp_free.insert(vp, end);
        out.push(job);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_ipc::queue::{preserves_partial_order, JobId};

    fn job(id: u64, vp: u32, seq: u64, kind: JobKind, dur: f64) -> Job {
        Job {
            id: JobId(id),
            vp: VpId(vp),
            seq,
            kind,
            sync: false,
            enqueued_at_s: 0.0,
            expected_duration_s: dur,
        }
    }

    /// N copy-in/kernel/copy-out programs queued VP by VP (the un-interleaved
    /// order).
    fn serial_programs(n: u32, tm: f64, tk: f64) -> Vec<Job> {
        let mut jobs = Vec::new();
        let mut id = 0;
        for vp in 0..n {
            jobs.push(job(id, vp, 0, JobKind::CopyIn { bytes: 1 }, tm));
            id += 1;
            jobs.push(job(
                id,
                vp,
                1,
                JobKind::Kernel { name: "k".into(), grid_dim: 1, block_dim: 32 },
                tk,
            ));
            id += 1;
            jobs.push(job(id, vp, 2, JobKind::CopyOut { bytes: 1 }, tm));
            id += 1;
        }
        jobs
    }

    /// Simulate a job order on duplex engines, returning the makespan.
    fn makespan(jobs: &[Job]) -> f64 {
        let mut clock = EngineClock::default();
        let mut vp_free: BTreeMap<VpId, f64> = BTreeMap::new();
        let mut end_max = 0.0f64;
        for j in jobs {
            let slot = clock.slot(&j.kind);
            let start = slot.max(vp_free.get(&j.vp).copied().unwrap_or(0.0));
            let end = start + j.expected_duration_s;
            *slot = end;
            vp_free.insert(j.vp, end);
            end_max = end_max.max(end);
        }
        end_max
    }

    #[test]
    fn reordering_preserves_partial_order() {
        let original = serial_programs(8, 1.0, 1.0);
        let reordered = reorder_async(original.clone());
        assert!(preserves_partial_order(&original, &reordered));
    }

    #[test]
    fn reordering_achieves_eq7_makespan() {
        // Eq. 7: T = 2·Tm + N·max(Tm, Tk). The equation is exact for Tk ≥ Tm
        // (compute-bound pipeline); for Tm > Tk the duplex copy engine lets the
        // drain overlap, so the scheduler may do even better — never worse.
        for (n, tm, tk) in
            [(2u32, 1.0, 1.0), (8, 1.0, 1.0), (4, 1.0, 3.0), (4, 3.0, 1.0), (16, 2.0, 2.0)]
        {
            let original = serial_programs(n, tm, tk);
            let reordered = reorder_async(original.clone());
            let t = makespan(&reordered);
            let expected = 2.0 * tm + n as f64 * tk.max(tm);
            if tk >= tm {
                assert!(
                    (t - expected).abs() < 1e-9,
                    "n={n} tm={tm} tk={tk}: got {t}, expected {expected}"
                );
            } else {
                assert!(t <= expected + 1e-9, "n={n} tm={tm} tk={tk}: got {t} > {expected}");
            }
        }
    }

    #[test]
    fn reordering_beats_synchronous_serialization() {
        // Without interleaving, synchronous invocations serialize completely: each
        // VP blocks on every call, so the total is the plain sum 3N·T (the paper's
        // "3N instructions"). Interleaving brings it to (2+N)·T.
        let original = serial_programs(8, 1.0, 1.0);
        let serial_t: f64 = original.iter().map(|j| j.expected_duration_s).sum();
        let reordered_t = makespan(&reorder_async(original));
        assert!((serial_t - 24.0).abs() < 1e-9);
        assert!((reordered_t - 10.0).abs() < 1e-9);
        assert!(reordered_t < serial_t / 2.0);
    }

    #[test]
    fn single_vp_order_is_untouched() {
        let original = serial_programs(1, 1.0, 2.0);
        let reordered = reorder_async(original.clone());
        let ids: Vec<JobId> = reordered.iter().map(|j| j.id).collect();
        let orig_ids: Vec<JobId> = original.iter().map(|j| j.id).collect();
        assert_eq!(ids, orig_ids);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(reorder_async(vec![]).is_empty());
        let one = vec![job(0, 0, 0, JobKind::CopyIn { bytes: 1 }, 1.0)];
        assert_eq!(reorder_async(one.clone()), one);
    }

    /// The heaps issue exactly what the scan issues, on random logs built
    /// for ties: few distinct durations, many VPs per engine, equal VP and
    /// engine free times.
    #[test]
    fn heaps_match_the_scan() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..3000 {
            let vps = 1 + next(12) as u32;
            let mut seq = vec![0u64; vps as usize];
            let jobs: Vec<Job> = (0..next(40))
                .map(|id| {
                    let vp = next(u64::from(vps)) as u32;
                    let kind = match next(3) {
                        0 => JobKind::CopyIn { bytes: 1 },
                        1 => JobKind::CopyOut { bytes: 1 },
                        _ => JobKind::Kernel { name: "k".into(), grid_dim: 1, block_dim: 32 },
                    };
                    let dur = [0.0, 0.5, 1.0, 1.0, 2.0, 3.0][next(6) as usize];
                    seq[vp as usize] += 1;
                    job(id, vp, seq[vp as usize], kind, dur)
                })
                .collect();
            let ids = |js: Vec<Job>| js.into_iter().map(|j| j.id).collect::<Vec<_>>();
            assert_eq!(
                ids(reorder_async(jobs.clone())),
                ids(reorder_async_scan(jobs)),
                "case {case}"
            );
        }
    }

    #[test]
    fn deterministic_output() {
        let original = serial_programs(5, 1.5, 0.7);
        let a = reorder_async(original.clone());
        let b = reorder_async(original);
        assert_eq!(a, b);
    }
}
