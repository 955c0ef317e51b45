//! A persistent thread pool over one shared queue.
//!
//! One `Mutex<Queue>` holds the FIFO of submitted jobs, one [`Condvar`]
//! wakes sleeping workers. A worker pops the front job under the lock and
//! runs it outside; with nothing queued it sleeps on the condvar until a
//! submission (or shutdown) notifies it. There is no spin, yield or timed
//! wait: an idle pool costs nothing, and a submission to an idle pool is
//! one wake-up away from running. The pipeline's stages are batches of
//! coarse, independent tasks, so one queue is all the load balancing they
//! need — whichever thread is free takes the next job.
//!
//! Task panics are caught per task so one poisoned job cannot take down a
//! worker (Parsl's task-level fault isolation).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters describing pool activity since construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed per worker.
    pub executed_per_worker: Vec<u64>,
    /// Jobs executed inline by blocked stage callers assisting the pool
    /// while they wait for their own stage's results.
    pub assisted: u64,
}

impl PoolStats {
    /// Total executed jobs (worker-run plus caller-assisted).
    pub fn total_executed(&self) -> u64 {
        self.executed_per_worker.iter().sum::<u64>() + self.assisted
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    executed: Vec<AtomicU64>,
    assisted: AtomicU64,
}

impl Shared {
    /// Jobs run outside the lock and every update under it is a single
    /// push, pop or counter step, so the queue is valid even if a holder
    /// panicked: recover the guard rather than propagate the poison.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The threads behind an [`Executor`]; joined when the last clone drops.
struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        // Workers leave only once the queue is empty, so queued jobs still
        // run. A worker never panics (jobs are caught), so `join` has no
        // error worth reporting.
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A cheaply-clonable, `Arc`-backed handle to one thread pool.
///
/// This is the handle library crates accept: the owner of the pool (the
/// pipeline, a test, a bench) creates one `Executor` and passes `&Executor`
/// down, so every batch API — encoding, index search, parsing, corpus
/// synthesis — fans out on the *caller's* scheduler instead of spawning its
/// own threads. Cloning is an `Arc` bump; the workers are joined when the
/// last clone is gone (the global handle is never dropped).
#[derive(Clone)]
pub struct Executor {
    pool: Arc<Pool>,
}

impl Executor {
    /// Spawn a fresh pool with `workers` threads (0 is clamped to 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            wake: Condvar::new(),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            assisted: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcqa-worker-{wid}"))
                    .spawn(move || worker_loop(wid, &shared))
                    .expect("spawn worker")
            })
            .collect();
        Self { pool: Arc::new(Pool { shared, handles }) }
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

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.shared.executed.len()
    }

    /// Submit one fire-and-forget job.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.submit_boxed(Box::new(job));
    }

    /// Submit an already-boxed job without re-boxing it.
    pub(crate) fn submit_boxed(&self, job: Job) {
        let shared = &self.pool.shared;
        shared.lock().jobs.push_back(job);
        // Notified after unlocking, so the woken worker does not run
        // straight into a held lock. No wake-up is lost: a worker goes to
        // sleep only while holding the lock under which it saw the queue
        // empty, so it either sees this job or is already waiting here.
        shared.wake.notify_one();
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
        let shared = &self.pool.shared;
        let Some(job) = shared.lock().jobs.pop_front() else {
            return false;
        };
        run_counted(&shared.assisted, job);
        true
    }

    /// Snapshot activity counters.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.pool.shared;
        PoolStats {
            executed_per_worker: shared
                .executed
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            assisted: shared.assisted.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("workers", &self.workers()).finish()
    }
}

/// Run `job` on the current thread — a worker, or a caller assisting.
fn run_counted(counter: &AtomicU64, job: Job) {
    // Counted before the job runs, so anything a job makes observable (a
    // channel send, a stage result) comes after its own count: a caller
    // that has seen N jobs' effects reads `total_executed() >= N`.
    counter.fetch_add(1, Ordering::Relaxed);
    // Panic isolation: a panicking task must not kill the thread it runs on.
    let _ = catch_unwind(AssertUnwindSafe(job));
}

fn worker_loop(wid: usize, shared: &Shared) {
    let mut queue = shared.lock();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            run_counted(&shared.executed[wid], job);
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn executes_all_jobs() {
        let pool = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = sync_channel(1000);
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
        let pool = Executor::new(2);
        let (tx, rx) = sync_channel(10);
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
    fn zero_workers_clamped_to_one() {
        let pool = Executor::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = sync_channel(1);
        pool.submit(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(), 42);
    }

    #[test]
    fn executor_clones_share_one_pool() {
        let exec = Executor::new(2);
        let clone = exec.clone();
        let (tx, rx) = sync_channel(2);
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
        let (tx, rx) = sync_channel(1);
        a.submit(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(), 7);
    }
}
