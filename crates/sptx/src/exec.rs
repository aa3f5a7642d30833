//! A process-wide persistent worker pool for block-parallel execution.
//!
//! ΣVP funnels every kernel launch from every VP through the sPTX
//! interpreter, so the interpreter's grid loop is the hot path of the whole
//! simulator. SPTX has no inter-thread communication primitives, which makes
//! thread blocks independent: the pool lets launches spread blocks across
//! host cores while callers keep the plain synchronous
//! [`run`](crate::interp::Interpreter::run) interface.
//!
//! Design:
//!
//! * **Persistent** — `available_parallelism() - 1` background threads are
//!   spawned once per process ([`WorkerPool::global`]); the per-launch cost
//!   is one queue push and one condvar broadcast, not thread creation.
//! * **Caller participates** — the submitting thread claims a slot and works
//!   too, so a launch always makes progress even when every background
//!   worker is busy with other launches (multiple VP threads share the one
//!   pool, and several jobs can be in flight at once).
//! * **Scoped borrows** — tasks borrow the caller's stack (program, params,
//!   base memory). [`WorkerPool::run_scoped`] blocks until every participant
//!   has returned, which is what makes the lifetime erasure sound.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of participants the process-wide pool uses: the host's available
/// parallelism, or 1 when it cannot be determined. Read once per process:
/// `available_parallelism` reads cgroup files on Linux (tens of µs), and
/// every launch at the default worker count asks.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// A borrowed parallel task, invoked once per claimed slot with a distinct
/// slot index in `0..participants`.
pub type Task<'a> = &'a (dyn Fn(usize) + Sync + 'a);

struct ErasedTask(&'static (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (concurrent shared calls are fine), and
// `run_scoped` does not return until no worker can still hold the reference,
// so handing it to pool threads never outlives the borrow it was erased from.
unsafe impl Send for ErasedTask {}
unsafe impl Sync for ErasedTask {}

struct Job {
    task: ErasedTask,
    /// Next participant slot to hand out; claims stop at `max_slots`.
    next_slot: AtomicUsize,
    max_slots: usize,
    /// Set once the submitter has removed the job from the queue.
    closed: AtomicBool,
    panicked: AtomicBool,
    /// Number of threads currently inside the task (submitter included).
    active: Mutex<usize>,
    done: Condvar,
}

impl Job {
    fn leave(&self) {
        let mut active = self.active.lock().expect("worker pool poisoned");
        *active -= 1;
        if *active == 0 {
            self.done.notify_all();
        }
    }
}

struct PoolShared {
    queue: Mutex<Vec<Arc<Job>>>,
    work: Condvar,
}

/// A persistent pool of worker threads executing scoped, borrowed tasks.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` total participants. The submitting thread counts
    /// as one, so `workers - 1` background threads are spawned; `workers = 1`
    /// spawns nothing and [`run_scoped`](WorkerPool::run_scoped) degenerates
    /// to an inline call.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared { queue: Mutex::new(Vec::new()), work: Condvar::new() });
        for _ in 1..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sptx-worker".into())
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn sptx worker thread");
        }
        WorkerPool { shared, workers }
    }

    /// The process-wide pool shared by every runtime, created on first use
    /// with [`default_workers`] participants.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(default_workers()))
    }

    /// Total participants (background threads plus the submitting thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `task` with up to `participants` concurrent invocations —
    /// `task(slot)` for distinct slots in `0..participants` — blocking until
    /// every invocation has returned. The submitting thread always runs slot
    /// 0 itself, so the call completes even if every background worker is
    /// busy with other jobs. Returns the number of slots actually claimed.
    ///
    /// # Panics
    ///
    /// Panics (after all participants have returned, keeping the scoped
    /// borrows sound) if any invocation of `task` panicked.
    pub fn run_scoped(&self, participants: usize, task: Task<'_>) -> usize {
        let participants = participants.clamp(1, self.workers);
        // SAFETY: see `ErasedTask` — we block until all participants return.
        let erased = ErasedTask(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        });
        let job = Arc::new(Job {
            task: erased,
            next_slot: AtomicUsize::new(1), // the submitter pre-claims slot 0
            max_slots: participants,
            closed: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            active: Mutex::new(1),
            done: Condvar::new(),
        });

        if participants > 1 {
            let mut queue = self.shared.queue.lock().expect("worker pool poisoned");
            queue.push(Arc::clone(&job));
            drop(queue);
            self.shared.work.notify_all();
        }

        if catch_unwind(AssertUnwindSafe(|| (job.task.0)(0))).is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }

        job.closed.store(true, Ordering::Release);
        let claimed = if participants > 1 {
            let mut queue = self.shared.queue.lock().expect("worker pool poisoned");
            queue.retain(|j| !Arc::ptr_eq(j, &job));
            drop(queue);
            let claimed = job.next_slot.load(Ordering::Acquire).min(participants);

            let mut active = job.active.lock().expect("worker pool poisoned");
            *active -= 1;
            while *active > 0 {
                active = job.done.wait(active).expect("worker pool poisoned");
            }
            claimed
        } else {
            let mut active = job.active.lock().expect("worker pool poisoned");
            *active -= 1;
            1
        };

        assert!(
            !job.panicked.load(Ordering::Relaxed),
            "sptx worker panicked during parallel kernel execution"
        );
        claimed
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let (job, slot) = {
            let mut queue = shared.queue.lock().expect("worker pool poisoned");
            loop {
                if let Some(claimed) = claim(&queue) {
                    break claimed;
                }
                queue = shared.work.wait(queue).expect("worker pool poisoned");
            }
        };
        if catch_unwind(AssertUnwindSafe(|| (job.task.0)(slot))).is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        job.leave();
    }
}

/// Claim a slot on the first job with capacity. Must be called with the
/// queue lock held — the lock serializes the check-then-increment.
fn claim(queue: &[Arc<Job>]) -> Option<(Arc<Job>, usize)> {
    for job in queue {
        if job.closed.load(Ordering::Acquire) {
            continue;
        }
        let slot = job.next_slot.load(Ordering::Relaxed);
        if slot >= job.max_slots {
            continue;
        }
        job.next_slot.store(slot + 1, Ordering::Release);
        *job.active.lock().expect("worker pool poisoned") += 1;
        return Some((Arc::clone(job), slot));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_slots_run_once_with_distinct_indices() {
        let pool = WorkerPool::new(4);
        let seen = Mutex::new(HashSet::new());
        let claimed = pool.run_scoped(4, &|slot| {
            assert!(seen.lock().unwrap().insert(slot), "slot {slot} ran twice");
            // Keep the slot busy long enough for the others to be claimed.
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        assert!((1..=4).contains(&claimed));
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), claimed);
        assert!(seen.contains(&0), "the submitter always works slot 0");
    }

    #[test]
    fn single_participant_runs_inline() {
        let pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        let claimed = pool.run_scoped(1, &|slot| {
            assert_eq!(slot, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(claimed, 1);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn participants_are_clamped_to_pool_size() {
        let pool = WorkerPool::new(2);
        let hits = AtomicU64::new(0);
        let claimed = pool.run_scoped(64, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(claimed <= 2);
        assert_eq!(hits.load(Ordering::Relaxed), claimed as u64);
    }

    #[test]
    fn concurrent_jobs_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(3));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    let counter = AtomicU64::new(0);
                    pool.run_scoped(3, &|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                    total.fetch_add(counter.load(Ordering::Relaxed), Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every job completed; each ran between 1 and 3 slots.
        let total = total.load(Ordering::Relaxed);
        assert!((4..=12).contains(&total), "unexpected slot total {total}");
    }

    #[test]
    fn worker_panics_propagate_to_the_submitter() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(4, &|slot| {
                if slot == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked job and serves the next one.
        let ok = AtomicU64::new(0);
        pool.run_scoped(2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }
}
