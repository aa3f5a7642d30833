//! The Job Queue's vocabulary: [`Job`], [`JobId`], [`JobKind`] and the per-VP
//! partial-order contract the re-scheduler must keep. (The host-side buffer of
//! pending jobs itself is the dispatch core's async window.)
//!
//! The re-scheduler (in `sigmavp-sched`) reorders the queue's *asynchronous* jobs to
//! interleave copy- and compute-engine work, and merges identical kernel jobs for
//! coalescing — but it must "keep a partial order in the original VP" (paper,
//! Section 2): jobs from the same VP may never be reordered relative to each other.
//! [`preserves_partial_order`] checks exactly that property and is used both by the
//! scheduler's unit tests and by its property-based tests.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::message::VpId;

/// Unique identifier of a queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// What a job asks the device to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Host-to-device transfer of `bytes`.
    CopyIn {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Device-to-host transfer of `bytes`.
    CopyOut {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A kernel launch.
    Kernel {
        /// Kernel name (the coalescer matches on this plus the shape).
        name: String,
        /// Grid dimension in blocks.
        grid_dim: u32,
        /// Block dimension in threads.
        block_dim: u32,
    },
}

/// A queued GPU job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Queue-assigned unique id.
    pub id: JobId,
    /// Originating VP.
    pub vp: VpId,
    /// The VP's request sequence number; defines the per-VP partial order.
    pub seq: u64,
    /// The work.
    pub kind: JobKind,
    /// Whether the VP invoked this synchronously (blocking).
    pub sync: bool,
    /// Simulated enqueue timestamp in seconds.
    pub enqueued_at_s: f64,
    /// Expected execution time in seconds; the interleaving re-scheduler uses this
    /// ("by using the expected time for each invocation", paper Section 3).
    pub expected_duration_s: f64,
}

/// Thread-safe FIFO job queue with bulk drain/replace for rescheduling.
///
/// **No runtime path uses this type.** The dispatch core has exactly one
/// `&mut self` owner, so its async window is a plain `Vec` and it emits the
/// queue metrics (`jobs.*`, `queue.wait_s`) itself. The type is still here only because sigmabench's
/// `ipc.queue.push_pop_ns` micro-benchmark builds one and `benchmark/**`
/// changes only in a `[benchmark]` PR (ROADMAP item 1 drops both).
#[derive(Debug, Default)]
pub struct JobQueue {
    inner: Mutex<VecDeque<Job>>,
    next_id: AtomicU64,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh [`JobId`].
    pub fn next_id(&self) -> JobId {
        JobId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Append a job.
    pub fn push(&self, job: Job) {
        self.inner.lock().push_back(job);
    }

    /// Remove and return the frontmost job.
    pub fn pop(&self) -> Option<Job> {
        self.inner.lock().pop_front()
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Remove and return all pending jobs in order — either to execute them
    /// or to reorder and [`replace`](JobQueue::replace) them.
    pub fn drain_all(&self) -> Vec<Job> {
        self.inner.lock().drain(..).collect()
    }

    /// Install a new pending-job order (after rescheduling).
    ///
    /// # Panics
    ///
    /// Panics if the queue is not empty — `replace` must only follow a
    /// [`drain_all`](JobQueue::drain_all) with no concurrent producers, otherwise
    /// jobs would be silently dropped or duplicated.
    pub fn replace(&self, jobs: Vec<Job>) {
        let mut q = self.inner.lock();
        assert!(q.is_empty(), "replace on a non-empty queue would lose jobs");
        q.extend(jobs);
    }

    /// A copy of the pending jobs, front first, without removing them.
    pub fn snapshot(&self) -> Vec<Job> {
        self.inner.lock().iter().cloned().collect()
    }
}

/// Check that `reordered` is a permutation of `original` that preserves the relative
/// order of jobs within each VP (the re-scheduler's correctness contract).
pub fn preserves_partial_order(original: &[Job], reordered: &[Job]) -> bool {
    if original.len() != reordered.len() {
        return false;
    }
    // Same multiset of job ids.
    let mut orig_ids: Vec<JobId> = original.iter().map(|j| j.id).collect();
    let mut reord_ids: Vec<JobId> = reordered.iter().map(|j| j.id).collect();
    orig_ids.sort_unstable();
    reord_ids.sort_unstable();
    if orig_ids != reord_ids {
        return false;
    }
    // Per-VP sequences must appear in the same relative order.
    let mut per_vp_original: HashMap<VpId, Vec<JobId>> = HashMap::new();
    for j in original {
        per_vp_original.entry(j.vp).or_default().push(j.id);
    }
    let mut per_vp_reordered: HashMap<VpId, Vec<JobId>> = HashMap::new();
    for j in reordered {
        per_vp_reordered.entry(j.vp).or_default().push(j.id);
    }
    per_vp_original == per_vp_reordered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(queue: &JobQueue, vp: u32, seq: u64) -> Job {
        Job {
            id: queue.next_id(),
            vp: VpId(vp),
            seq,
            kind: JobKind::CopyIn { bytes: 64 },
            sync: false,
            enqueued_at_s: 0.0,
            expected_duration_s: 1e-3,
        }
    }

    #[test]
    fn fifo_order() {
        let q = JobQueue::new();
        let a = job(&q, 0, 0);
        let b = job(&q, 0, 1);
        q.push(a.clone());
        q.push(b.clone());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().id, a.id);
        assert_eq!(q.pop().unwrap().id, b.id);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drain_and_replace() {
        let q = JobQueue::new();
        let a = job(&q, 0, 0);
        let b = job(&q, 1, 0);
        q.push(a.clone());
        q.push(b.clone());
        let mut jobs = q.drain_all();
        assert!(q.is_empty());
        jobs.reverse();
        q.replace(jobs);
        assert_eq!(q.pop().unwrap().id, b.id);
    }

    #[test]
    #[should_panic(expected = "non-empty queue")]
    fn replace_on_nonempty_queue_panics() {
        let q = JobQueue::new();
        q.push(job(&q, 0, 0));
        q.replace(vec![]);
    }

    #[test]
    fn partial_order_accepts_cross_vp_interleaving() {
        let q = JobQueue::new();
        let a0 = job(&q, 0, 0);
        let a1 = job(&q, 0, 1);
        let b0 = job(&q, 1, 0);
        let b1 = job(&q, 1, 1);
        let original = vec![a0.clone(), a1.clone(), b0.clone(), b1.clone()];
        let interleaved = vec![a0.clone(), b0.clone(), a1.clone(), b1.clone()];
        assert!(preserves_partial_order(&original, &interleaved));
    }

    #[test]
    fn partial_order_rejects_within_vp_swap() {
        let q = JobQueue::new();
        let a0 = job(&q, 0, 0);
        let a1 = job(&q, 0, 1);
        let swapped = vec![a1.clone(), a0.clone()];
        assert!(!preserves_partial_order(&[a0, a1], &swapped));
    }

    #[test]
    fn partial_order_rejects_dropped_or_added_jobs() {
        let q = JobQueue::new();
        let a0 = job(&q, 0, 0);
        let a1 = job(&q, 0, 1);
        assert!(!preserves_partial_order(&[a0.clone(), a1.clone()], std::slice::from_ref(&a0)));
        let alien = job(&q, 0, 2);
        assert!(!preserves_partial_order(&[a0.clone(), a1], &[a0, alien]));
    }

    #[test]
    fn queue_is_usable_from_threads() {
        let q = std::sync::Arc::new(JobQueue::new());
        let producers: Vec<_> = (0..4u32)
            .map(|vp| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for seq in 0..100u64 {
                        let j = Job {
                            id: q.next_id(),
                            vp: VpId(vp),
                            seq,
                            kind: JobKind::CopyOut { bytes: 1 },
                            sync: false,
                            enqueued_at_s: 0.0,
                            expected_duration_s: 0.0,
                        };
                        q.push(j);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(q.len(), 400);
        // Ids must be unique.
        let mut ids: Vec<_> = q.snapshot().iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }
}
