//! A persistent work-stealing thread pool.
//!
//! Architecture (the classic crossbeam-deque pattern):
//!
//! * one global [`Injector`] receives submitted jobs;
//! * each worker owns a LIFO deque and exposes a [`Stealer`];
//! * a worker looks for work in order: own deque → injector (batch steal)
//!   → other workers' stealers; when idle it backs off and eventually
//!   parks briefly.
//!
//! Task panics are caught per task so one poisoned job cannot take down a
//! worker (Parsl's task-level fault isolation).

use crossbeam_deque::{Injector, Stealer, Worker};
use crossbeam_utils::Backoff;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters describing pool activity since construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed per worker.
    pub executed_per_worker: Vec<u64>,
    /// Steal operations per worker (tasks taken from a peer).
    pub steals_per_worker: Vec<u64>,
    /// Jobs executed inline by blocked stage callers assisting the pool
    /// while they wait for their own stage's results.
    pub assisted: u64,
}

impl PoolStats {
    /// Total executed jobs (worker-run plus caller-assisted).
    pub fn total_executed(&self) -> u64 {
        self.executed_per_worker.iter().sum::<u64>() + self.assisted
    }

    /// Total steals.
    pub fn total_steals(&self) -> u64 {
        self.steals_per_worker.iter().sum()
    }
}

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    shutdown: AtomicBool,
    executed: Vec<AtomicU64>,
    steals: Vec<AtomicU64>,
    assisted: AtomicU64,
}

/// The pool.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkStealingPool {
    /// Spawn a pool with `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let worker_deques: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Job>> = worker_deques.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            assisted: AtomicU64::new(0),
        });

        let handles = worker_deques
            .into_iter()
            .enumerate()
            .map(|(wid, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcqa-worker-{wid}"))
                    .spawn(move || worker_loop(wid, local, shared))
                    .expect("spawn worker")
            })
            .collect();

        Self { shared, handles, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submit one fire-and-forget job.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared.injector.push(Box::new(job));
    }

    /// Submit an already-boxed job without re-boxing it.
    pub(crate) fn submit_boxed(&self, job: Job) {
        self.shared.injector.push(job);
    }

    /// Execute one queued job on the *calling* thread, if any is available.
    ///
    /// This is the work-assist hook the stage driver uses while it waits
    /// for results: a caller blocked on a stage drains the queue instead of
    /// parking, which (a) adds the calling thread as an extra execution
    /// context and (b) makes *nested* stages on one pool deadlock-free —
    /// a stage closure may itself fan out on the same executor (e.g. a
    /// future pipeline stage calling `CorpusLibrary::search` or a batch
    /// API) even on a 1-worker pool.
    pub(crate) fn try_execute_one(&self) -> bool {
        // Fresh submissions land in the global injector…
        loop {
            match self.shared.injector.steal() {
                crossbeam_deque::Steal::Success(job) => {
                    self.shared.assisted.fetch_add(1, Ordering::Relaxed);
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    return true;
                }
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
        // …but a job may sit in a worker's local deque (batch-stolen there)
        // while that worker is itself blocked in a nested stage.
        for stealer in &self.shared.stealers {
            loop {
                match stealer.steal() {
                    crossbeam_deque::Steal::Success(job) => {
                        self.shared.assisted.fetch_add(1, Ordering::Relaxed);
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        return true;
                    }
                    crossbeam_deque::Steal::Retry => continue,
                    crossbeam_deque::Steal::Empty => break,
                }
            }
        }
        false
    }

    /// Snapshot activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed_per_worker: self
                .shared
                .executed
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            steals_per_worker: self
                .shared
                .steals
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            assisted: self.shared.assisted.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A cheaply-clonable, `Arc`-backed view of a [`WorkStealingPool`].
///
/// This is the handle library crates accept: the owner of the pool (the
/// pipeline, a test, a bench) creates one `Executor` and passes `&Executor`
/// down, so every batch API — encoding, index search, parsing, corpus
/// synthesis — fans out on the *caller's* scheduler instead of spawning its
/// own threads. Cloning is an `Arc` bump; the pool shuts down when the last
/// clone (and the global handle, if taken) is gone.
///
/// `Executor` derefs to [`WorkStealingPool`], so it can be passed anywhere a
/// `&WorkStealingPool` is expected (e.g. [`crate::run_stage`]).
#[derive(Clone)]
pub struct Executor {
    pool: Arc<WorkStealingPool>,
}

impl Executor {
    /// Spawn a fresh pool with `workers` threads (0 is clamped to 1) and
    /// wrap it in a shareable handle.
    pub fn new(workers: usize) -> Self {
        Self::from_pool(WorkStealingPool::new(workers))
    }

    /// Wrap an existing pool.
    pub fn from_pool(pool: WorkStealingPool) -> Self {
        Self { pool: Arc::new(pool) }
    }

    /// The process-wide default executor (one worker per core), spawned on
    /// first use. This is the ambient scheduler for call sites that have no
    /// pipeline pool in scope — standalone library use, tests, benches.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
            Executor::new(workers)
        })
    }
}

impl std::ops::Deref for Executor {
    type Target = WorkStealingPool;

    fn deref(&self) -> &WorkStealingPool {
        &self.pool
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("workers", &self.pool.workers()).finish()
    }
}

fn worker_loop(wid: usize, local: Worker<Job>, shared: Arc<Shared>) {
    let backoff = Backoff::new();
    loop {
        // 1. Own deque.
        let job = local.pop().or_else(|| {
            // 2. Global injector (batch-steal into the local deque).
            std::iter::repeat_with(|| shared.injector.steal_batch_and_pop(&local))
                .find(|s| !s.is_retry())
                .and_then(|s| s.success())
                .or_else(|| {
                    // 3. Peers.
                    for (i, stealer) in shared.stealers.iter().enumerate() {
                        if i == wid {
                            continue;
                        }
                        loop {
                            match stealer.steal() {
                                crossbeam_deque::Steal::Success(job) => {
                                    shared.steals[wid].fetch_add(1, Ordering::Relaxed);
                                    return Some(job);
                                }
                                crossbeam_deque::Steal::Retry => continue,
                                crossbeam_deque::Steal::Empty => break,
                            }
                        }
                    }
                    None
                })
        });

        match job {
            Some(job) => {
                backoff.reset();
                // Counted before the job runs, so anything a job makes
                // observable (a channel send, a stage result) comes after
                // its own count: a caller that has seen N jobs' effects
                // reads `total_executed() >= N`. `try_execute_one` keeps
                // the same order for assisted jobs.
                shared.executed[wid].fetch_add(1, Ordering::Relaxed);
                // Panic isolation: a panicking task must not kill the worker.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if backoff.is_completed() {
                    std::thread::park_timeout(std::time::Duration::from_millis(1));
                } else {
                    backoff.snooze();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_all_jobs() {
        let pool = WorkStealingPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = crossbeam_channel::bounded(1000);
        for _ in 0..1000 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..1000 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).expect("job completed");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.stats().total_executed(), 1000);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = WorkStealingPool::new(2);
        let (tx, rx) = crossbeam_channel::bounded(10);
        pool.submit(|| panic!("boom"));
        // Pool must still process subsequent jobs.
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        let mut got: Vec<i32> =
            (0..10).map(|_| rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn work_distributes_across_workers() {
        let pool = WorkStealingPool::new(4);
        let (tx, rx) = crossbeam_channel::bounded(4000);
        for _ in 0..4000 {
            let tx = tx.clone();
            pool.submit(move || {
                // Small but non-zero work so no single worker can drain all.
                let mut x = 0u64;
                for i in 0..500 {
                    x = x.wrapping_add(mcqa_util::splitmix64(i));
                }
                std::hint::black_box(x);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..4000 {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        let stats = pool.stats();
        let busy_workers = stats.executed_per_worker.iter().filter(|&&c| c > 0).count();
        assert!(busy_workers >= 2, "expected multiple busy workers: {stats:?}");
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = WorkStealingPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = crossbeam_channel::bounded(1);
        pool.submit(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(), 42);
    }

    #[test]
    fn executor_clones_share_one_pool() {
        let exec = Executor::new(2);
        let clone = exec.clone();
        let (tx, rx) = crossbeam_channel::bounded(2);
        let tx2 = tx.clone();
        exec.submit(move || tx.send(1u32).unwrap());
        clone.submit(move || tx2.send(2u32).unwrap());
        let mut got: Vec<u32> =
            (0..2).map(|_| rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        // Both handles observe the same counters (same underlying pool).
        assert_eq!(exec.stats(), clone.stats());
        assert_eq!(exec.stats().total_executed(), 2);
    }

    #[test]
    fn global_executor_is_a_singleton() {
        let a = Executor::global();
        let b = Executor::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.workers() >= 1);
        let (tx, rx) = crossbeam_channel::bounded(1);
        a.submit(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(), 7);
    }

    #[test]
    fn drop_joins_cleanly_with_pending_shutdown() {
        let pool = WorkStealingPool::new(3);
        for i in 0..50 {
            pool.submit(move || {
                std::hint::black_box(i);
            });
        }
        drop(pool); // must not hang or panic
    }
}
