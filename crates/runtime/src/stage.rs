//! `run_stage` / `run_stage_batched` — ordered, fault-isolated parallel
//! maps with metrics.
//!
//! These are the units `mcqa-core` and `mcqa-eval` compose their workflows
//! from: every pipeline stage (parse, chunk, embed, generate, judge, trace,
//! retrieve, answer) is one stage call, which mirrors how the paper
//! expresses stages as Parsl app fleets.
//!
//! Both entry points drive the same scoped core, so closures may borrow
//! from the caller's stack (no `'static` bound): the core guarantees —
//! including on unwind — that every submitted task has finished before it
//! returns. `run_stage` makes one task per item (lowest latency to first
//! result); `run_stage_batched` makes one task per chunk of items,
//! amortising the boxing + channel cost that dominates high-item-count
//! stages of trivial per-item work. Either way the caller is a worker too:
//! it keeps the last task for itself and then runs queued ones while it
//! waits, so a one-task stage never leaves the calling thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

use crate::executor::{Executor, Job};
use crate::metrics::StageMetrics;

/// A task-level failure inside a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task function returned an error.
    Failed(String),
    /// The task function panicked.
    Panicked,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Failed(msg) => write!(f, "task failed: {msg}"),
            TaskError::Panicked => write!(f, "task panicked"),
        }
    }
}

impl std::error::Error for TaskError {}

/// The batch size [`run_stage_batched`] submits in.
///
/// The heuristic targets ~8 batches per worker: enough slack for the shared
/// queue to even out uneven batches (the last worker to start is never
/// stuck behind one giant chunk), while still amortising the per-task
/// boxing + channel cost that dominates high-item-count stages of cheap
/// items. The cap bounds per-batch latency for very large stages so a
/// single batch never monopolises a worker for long.
fn auto_batch_size(items: usize, workers: usize) -> usize {
    if items == 0 {
        return 1;
    }
    let workers = workers.max(1);
    items.div_ceil(workers * 8).clamp(1, 1024)
}

/// Blocks — on the normal path *and* on unwind — until every submitted
/// batch has signalled completion. This is what makes lifetime erasure in
/// [`stage_core`] sound: no task can outlive the stack frame whose data it
/// borrows, because that frame cannot be left while a task is outstanding.
///
/// While waiting, the guard *assists* the pool (executes queued jobs on the
/// calling thread), so a stage nested inside another stage's closure on the
/// same pool always makes progress — even with a single worker.
struct Completion<'a, R> {
    rx: &'a Receiver<R>,
    exec: &'a Executor,
    outstanding: usize,
}

impl<R> Completion<'_, R> {
    /// The next batch result, running queued jobs until one arrives.
    /// `None` means every sender is gone: all tasks have finished (a task
    /// holds its sender until its closure returns, panicking or not), so
    /// nothing still borrows the caller.
    fn recv_assisting(&mut self) -> Option<R> {
        loop {
            let received = match self.rx.try_recv() {
                Err(TryRecvError::Empty) if self.exec.try_execute_one() => continue,
                // Nothing to assist with: all remaining work is in flight
                // on worker threads. Block briefly, then look again for
                // nested work those tasks may have queued.
                Err(TryRecvError::Empty) => self.rx.recv_timeout(Duration::from_millis(1)),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                Ok(r) => Ok(r),
            };
            match received {
                Ok(r) => {
                    self.outstanding -= 1;
                    return Some(r);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

impl<R> Drop for Completion<'_, R> {
    fn drop(&mut self) {
        while self.outstanding > 0 && self.recv_assisting().is_some() {}
    }
}

/// One batch's results. Single-item batches (per-item submission) skip the
/// `Vec` so `run_stage` costs no more per task than a bare result send.
enum BatchOut<U> {
    One(Result<U, TaskError>),
    Many(Vec<Result<U, TaskError>>),
}

/// The shared driver behind [`run_stage`] and [`run_stage_batched`]: cuts
/// `items` into chunks of `batch_size`, submits every chunk but the last to
/// the pool and runs the last on the calling thread, isolates each item's
/// panic/error into its own result slot, and blocks — assisting the pool —
/// until every chunk has completed.
fn stage_core<'env, T, U, F>(
    exec: &Executor,
    name: &str,
    items: Vec<T>,
    batch_size: usize,
    f: &'env F,
) -> (Vec<Result<U, TaskError>>, StageMetrics)
where
    T: Send + 'env,
    U: Send + 'env,
    F: Fn(T) -> Result<U, String> + Sync + 'env,
{
    let timer = mcqa_util::ScopeTimer::start("stage");
    let n = items.len();
    let batch_size = batch_size.max(1);
    let (tx, rx) = sync_channel::<(usize, BatchOut<U>)>(n.div_ceil(batch_size).max(1));

    // `F: Sync` makes `&F: Send`, so this closure (and each job holding a
    // copy of it) may cross threads.
    let run_batch = move |mut batch: Vec<T>| {
        let run_one = |item: T| match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(Ok(u)) => Ok(u),
            Ok(Err(msg)) => Err(TaskError::Failed(msg)),
            Err(_) => Err(TaskError::Panicked),
        };
        if batch.len() == 1 {
            BatchOut::One(run_one(batch.pop().expect("len checked")))
        } else {
            BatchOut::Many(batch.into_iter().map(run_one).collect())
        }
    };
    let mut slots: Vec<Option<Result<U, TaskError>>> = (0..n).map(|_| None).collect();
    let mut fill = |base: usize, out: BatchOut<U>| match out {
        BatchOut::One(r) => slots[base] = Some(r),
        BatchOut::Many(results) => {
            for (off, r) in results.into_iter().enumerate() {
                slots[base + off] = Some(r);
            }
        }
    };

    // The guard exists before the first submission so that any unwind past
    // this frame first drains every outstanding task.
    let mut completion = Completion { rx: &rx, exec, outstanding: 0 };

    let mut iter = items.into_iter();
    for start in (0..n).step_by(batch_size) {
        let batch: Vec<T> = iter.by_ref().take(batch_size).collect();
        if n - start <= batch_size {
            // The caller keeps the last batch: it would otherwise only
            // wait (or race a worker it has just woken for the job), and a
            // one-batch stage — a lone request's search — never touches
            // the queue at all.
            fill(start, run_batch(batch));
            break;
        }
        let tx = tx.clone();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // The receiver normally outlives all senders; a failed send can
            // only mean the caller is unwinding, and then the guard's drain
            // counts the disconnect instead of the message.
            let _ = tx.send((start, run_batch(batch)));
        });
        // SAFETY: erasing `'env` to `'static` is sound because the
        // completion guard above pins this frame until the job has run to
        // completion — the caller cannot leave `stage_core` (even by panic)
        // until this job's send has been received or its sender dropped,
        // and the job's last use of `f` or any other `'env` data happens
        // before either. The job therefore never observes `'env` data
        // after its end of life. (The classic scoped-task argument.)
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        completion.outstanding += 1;
        exec.submit_boxed(job);
    }
    drop(tx);

    while completion.outstanding > 0 {
        let (base, out) =
            completion.recv_assisting().expect("every submitted batch sends exactly once");
        fill(base, out);
    }
    let results: Vec<Result<U, TaskError>> =
        slots.into_iter().map(|s| s.expect("slot filled")).collect();

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let panics = results.iter().filter(|r| matches!(r, Err(TaskError::Panicked))).count();
    let metrics = StageMetrics {
        name: name.to_string(),
        items: n,
        ok,
        errors: n - ok,
        panics,
        produced: ok,
        elapsed_secs: timer.elapsed_secs(),
    };
    (results, metrics)
}

/// Run `f` over `items` on `exec`, one task per item, returning
/// per-item results **in input order** plus stage metrics. Individual
/// failures and panics are isolated into `Err` slots; the stage always
/// completes. `f` may borrow from the caller's stack; it is dropped before
/// the call returns, so captured `Arc`s can be unwrapped afterwards.
pub fn run_stage<T, U, F>(
    exec: &Executor,
    name: &str,
    items: Vec<T>,
    f: F,
) -> (Vec<Result<U, TaskError>>, StageMetrics)
where
    T: Send,
    U: Send,
    F: Fn(T) -> Result<U, String> + Sync,
{
    stage_core(exec, name, items, 1, &f)
}

/// [`run_stage`] with chunked submission: items are submitted to the pool
/// in batches sized from the item and worker counts (about eight batches
/// per worker, at most 1024 items each), cutting per-task boxing and
/// channel traffic by the batch size. Results, ordering, and error/panic
/// isolation are **identical** to `run_stage` — a panic inside a mid-batch
/// item poisons only that item's slot, never its batch.
pub fn run_stage_batched<T, U, F>(
    exec: &Executor,
    name: &str,
    items: Vec<T>,
    f: F,
) -> (Vec<Result<U, TaskError>>, StageMetrics)
where
    T: Send,
    U: Send,
    F: Fn(T) -> Result<U, String> + Sync,
{
    let batch_size = auto_batch_size(items.len(), exec.workers());
    stage_core(exec, name, items, batch_size, &f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_batch_size_small_stages_stay_per_item() {
        // Fewer items than task slots: one item per task, no batching win.
        assert_eq!(auto_batch_size(0, 4), 1);
        assert_eq!(auto_batch_size(1, 4), 1);
        assert_eq!(auto_batch_size(32, 4), 1);
        assert_eq!(auto_batch_size(10, 0), 2, "zero workers clamped to one");
    }

    #[test]
    fn auto_batch_size_amortises_large_stages() {
        // 100k items on 4 workers: 32 task slots → batches of ~3125.
        let bs = auto_batch_size(100_000, 4);
        assert!(bs > 1_000, "large stages must batch aggressively: {bs}");
        assert!(bs <= 1024 || 100_000usize.div_ceil(bs) >= 4 * 8);
        // The cap holds for astronomically large stages.
        assert_eq!(auto_batch_size(10_000_000, 1), 1024);
    }

    #[test]
    fn auto_batch_size_covers_all_items() {
        for items in [1usize, 7, 64, 1_000, 99_999] {
            for workers in [1usize, 2, 8, 64] {
                let bs = auto_batch_size(items, workers);
                assert!(bs >= 1);
                assert!(items.div_ceil(bs) * bs >= items, "coverage {items}/{workers}");
            }
        }
    }

    #[test]
    fn ordered_results() {
        let pool = Executor::new(4);
        let items: Vec<u64> = (0..500).collect();
        let (results, metrics) = run_stage(&pool, "square", items, |x| Ok::<u64, String>(x * x));
        assert_eq!(results.len(), 500);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), (i * i) as u64, "order preserved");
        }
        assert_eq!(metrics.ok, 500);
        assert_eq!(metrics.errors, 0);
        assert_eq!(metrics.name, "square");
    }

    #[test]
    fn errors_isolated_in_slots() {
        let pool = Executor::new(2);
        let items: Vec<u32> = (0..20).collect();
        let (results, metrics) = run_stage(&pool, "flaky", items, |x| {
            if x % 5 == 0 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(metrics.errors, 4);
        assert_eq!(metrics.ok, 16);
        assert_eq!(results[5], Err(TaskError::Failed("bad 5".into())));
        assert_eq!(results[6], Ok(6));
    }

    #[test]
    fn panics_isolated_in_slots() {
        let pool = Executor::new(3);
        let items: Vec<u32> = (0..10).collect();
        let (results, metrics) = run_stage(&pool, "panicky", items, |x| {
            if x == 3 {
                panic!("kaboom");
            }
            Ok(x)
        });
        assert_eq!(results[3], Err(TaskError::Panicked));
        assert_eq!(metrics.panics, 1);
        assert_eq!(metrics.ok, 9);
        // Subsequent stages still run on the same pool.
        let (r2, _) = run_stage(&pool, "after", vec![1u32, 2], Ok::<u32, String>);
        assert!(r2.iter().all(Result::is_ok));
    }

    #[test]
    fn empty_stage() {
        let pool = Executor::new(2);
        let (results, metrics) = run_stage(&pool, "empty", Vec::<u32>::new(), Ok::<u32, String>);
        assert!(results.is_empty());
        assert_eq!(metrics.items, 0);
        assert_eq!(metrics.throughput(), 0.0);
    }

    #[test]
    fn results_independent_of_worker_count() {
        let items: Vec<u64> = (0..200).collect();
        let run = |workers| {
            let pool = Executor::new(workers);
            let (r, _) =
                run_stage(&pool, "x", items.clone(), |x| Ok::<u64, String>(x.wrapping_mul(31)));
            r.into_iter().map(Result::unwrap).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8), "determinism across parallelism");
    }

    #[test]
    fn closures_may_borrow_the_callers_stack() {
        // The scoped core removes the old `'static` bound: stages can read
        // caller-owned data without Arc plumbing.
        let pool = Executor::new(4);
        let corpus: Vec<String> = (0..64).map(|i| format!("doc-{i}")).collect();
        let (results, _) = run_stage(&pool, "borrow", (0..corpus.len()).collect(), |i| {
            Ok::<usize, String>(corpus[i].len())
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), corpus[i].len());
        }
        // `corpus` is still usable: every task finished before return.
        assert_eq!(corpus.len(), 64);
    }

    /// Successes, `Err` returns and panics, mixed deterministically.
    fn mixed_outcome(x: u64) -> Result<u64, String> {
        if x % 23 == 3 {
            panic!("induced panic on {x}");
        }
        if x % 11 == 5 {
            return Err(format!("induced failure on {x}"));
        }
        Ok(x.wrapping_mul(0x9E37_79B9).rotate_left(7))
    }

    #[test]
    fn every_batch_size_matches_per_item_results() {
        let pool = Executor::new(4);
        let items: Vec<u64> = (0..500).collect();
        let (per_item, m1) = run_stage(&pool, "s", items.clone(), mixed_outcome);
        for bs in [1usize, 3, 7, 64, 500, 5000] {
            let (batched, m2) = stage_core(&pool, "s", items.clone(), bs, &mixed_outcome);
            assert_eq!(per_item, batched, "batch_size {bs}");
            let counts = |m: &StageMetrics| (m.items, m.ok, m.errors, m.panics, m.produced);
            assert_eq!(counts(&m1), counts(&m2), "batch_size {bs}");
        }
    }

    #[test]
    fn batched_auto_size_runs_all_items() {
        let pool = Executor::new(3);
        let (results, metrics) = run_stage_batched(&pool, "auto", (0..10_000u64).collect(), |x| {
            Ok::<u64, String>(x + 1)
        });
        assert_eq!(metrics.items, 10_000);
        assert_eq!(metrics.ok, 10_000);
        assert_eq!(results[9_999], Ok(10_000));
    }

    #[test]
    fn batched_panic_isolates_to_one_item() {
        let pool = Executor::new(2);
        let items: Vec<u32> = (0..30).collect();
        let poisoned = |x: u32| {
            if x == 15 {
                panic!("poison mid-batch");
            }
            Ok::<u32, String>(x)
        };
        let (results, metrics) = stage_core(&pool, "mid-batch", items, 10, &poisoned);
        assert_eq!(metrics.panics, 1);
        assert_eq!(metrics.ok, 29);
        for (i, r) in results.iter().enumerate() {
            if i == 15 {
                assert_eq!(*r, Err(TaskError::Panicked));
            } else {
                assert_eq!(*r, Ok(i as u32), "batch-mates of the panicking item survive");
            }
        }
    }

    /// A stage that is one batch — a batch size far larger than the item
    /// count — never leaves the calling thread: the caller keeps a stage's
    /// last batch, so no job is queued, no worker is woken, and no item is
    /// lost or reordered.
    #[test]
    fn one_batch_stage_runs_on_the_caller() {
        // A private pool: the shared one's counter also moves with whatever
        // tests run beside this one.
        let exec = Executor::new(2);
        let caller = std::thread::current().id();
        let before = exec.stats().total_executed();
        let whoami = |x: u64| Ok::<_, String>((x, std::thread::current().id()));
        let (results, metrics) =
            stage_core(&exec, "one-batch", (0..10u64).collect(), 1_000_000, &whoami);
        assert_eq!(metrics.ok, 10);
        assert_eq!(results.len(), 10);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, Ok((i as u64, caller)), "item {i} ran in order on the calling thread");
        }
        assert_eq!(exec.stats().total_executed(), before, "nothing went through the queue");
    }

    #[test]
    fn nested_stage_on_same_pool_does_not_deadlock() {
        // A stage closure may itself fan out on the same executor (the
        // Executor-threaded batch APIs invite exactly this); even with one
        // worker, blocked callers assist the queue instead of parking.
        let exec = Executor::new(1);
        let inner_exec = exec.clone();
        let (results, metrics) = run_stage(&exec, "outer", vec![10u32, 20], move |x| {
            let (inner, _) =
                run_stage(&inner_exec, "inner", (0..5u32).collect(), Ok::<u32, String>);
            let sum: u32 = inner.into_iter().map(Result::unwrap).sum();
            Ok::<u32, String>(x + sum)
        });
        assert_eq!(metrics.ok, 2);
        assert_eq!(results[0], Ok(20), "10 + (0+1+2+3+4)");
        assert_eq!(results[1], Ok(30));
    }

    #[test]
    fn batched_empty_stage() {
        let pool = Executor::new(2);
        let (results, metrics) =
            run_stage_batched(&pool, "empty", Vec::<u32>::new(), Ok::<u32, String>);
        assert!(results.is_empty());
        assert_eq!(metrics.items, 0);
    }
}
