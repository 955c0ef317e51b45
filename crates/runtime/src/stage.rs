//! `run_stage` — an ordered parallel map with metrics.
//!
//! This is the unit `mcqa-core`, `mcqa-eval` and the batch APIs of the
//! library crates compose their workflows from: every pipeline stage
//! (parse, chunk, embed, generate, judge, trace, retrieve, answer) is one
//! stage call, which mirrors how the paper expresses stages as Parsl app
//! fleets.
//!
//! A stage cuts its items into batches sized from the item and worker
//! counts (about eight per worker, one item per task for small stages) and
//! runs each batch as one pool task. Closures may borrow from the caller's
//! stack (no `'static` bound): the driver guarantees — including on unwind
//! — that every submitted batch has finished before it returns. The caller
//! is a worker too: it keeps the last batch for itself and then runs queued
//! jobs while it waits, so a one-batch stage never leaves the calling
//! thread.
//!
//! A task returns its value; a task that panics fails the stage. Each batch
//! runs under `catch_unwind` and stops at its panicking item, every other
//! batch still runs to completion, and then the caller re-raises the
//! payload of the lowest-index item that panicked — so neither the batch
//! size nor the schedule decides which panic surfaces.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

use crate::executor::{Executor, Job};
use crate::metrics::StageMetrics;

/// The batch size [`run_stage`] submits in.
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

/// A panic caught inside a batch: the stage-wide index of the item that
/// raised it, and its payload.
type Caught = (usize, Box<dyn Any + Send>);

/// The driver behind [`run_stage`], with the batch size explicit: cuts
/// `items` into chunks of `batch_size`, submits every chunk but the last to
/// the pool and runs the last on the calling thread, blocks — assisting the
/// pool — until every chunk has completed, and then either re-raises the
/// lowest-index panic or returns the values in input order.
fn stage_core<'env, T, U, F>(
    exec: &Executor,
    name: &str,
    items: Vec<T>,
    batch_size: usize,
    f: &'env F,
) -> (Vec<U>, StageMetrics)
where
    T: Send + 'env,
    U: Send + 'env,
    F: Fn(T) -> U + Sync + 'env,
{
    let timer = mcqa_util::ScopeTimer::start("stage");
    let n = items.len();
    let batch_size = batch_size.max(1);
    let batches = n.div_ceil(batch_size);
    let (tx, rx) = sync_channel::<(usize, Result<Vec<U>, Caught>)>(batches.max(1));

    // `F: Sync` makes `&F: Send`, so this closure (and each job holding a
    // copy of it) may cross threads. A batch stops at its first panicking
    // item: the stage fails anyway, so its batch-mates need not run.
    let run_batch = move |start: usize, batch: Vec<T>| {
        let mut out = Vec::with_capacity(batch.len());
        match catch_unwind(AssertUnwindSafe(|| {
            batch.into_iter().for_each(|item| out.push(f(item)))
        })) {
            Ok(()) => Ok(out),
            Err(payload) => Err((start + out.len(), payload)),
        }
    };
    let mut done: Vec<Vec<U>> = (0..batches).map(|_| Vec::new()).collect();
    let mut panicked: Option<Caught> = None;
    let mut settle = |start: usize, out: Result<Vec<U>, Caught>| match out {
        Ok(values) => done[start / batch_size] = values,
        Err((at, payload)) => {
            if panicked.as_ref().is_none_or(|(first, _)| at < *first) {
                panicked = Some((at, payload));
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
            settle(start, run_batch(start, batch));
            break;
        }
        let tx = tx.clone();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // The receiver normally outlives all senders; a failed send can
            // only mean the caller is unwinding, and then the guard's drain
            // counts the disconnect instead of the message.
            let _ = tx.send((start, run_batch(start, batch)));
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
        let (start, out) =
            completion.recv_assisting().expect("every submitted batch sends exactly once");
        settle(start, out);
    }
    if let Some((_, payload)) = panicked {
        resume_unwind(payload);
    }
    let values: Vec<U> = done.into_iter().flatten().collect();
    let metrics = StageMetrics {
        name: name.to_string(),
        items: n,
        panics: 0,
        produced: n,
        elapsed_secs: timer.elapsed_secs(),
    };
    (values, metrics)
}

/// Run `f` over `items` on `exec` and return the values **in input order**
/// plus stage metrics (`produced` = `items`; a filtering caller sets it).
///
/// Items go to the pool in batches sized from the item and worker counts.
/// `f` may borrow from the caller's stack; it is dropped before the call
/// returns, so captured `Arc`s can be unwrapped afterwards. If `f` panics,
/// every other batch still finishes, and then the panic of the
/// lowest-index item that panicked resumes on the caller.
pub fn run_stage<T, U, F>(
    exec: &Executor,
    name: &str,
    items: Vec<T>,
    f: F,
) -> (Vec<U>, StageMetrics)
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let batch_size = auto_batch_size(items.len(), exec.workers());
    stage_core(exec, name, items, batch_size, &f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// The message of the panic `f` raises.
    fn panic_message<F: FnOnce()>(f: F) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the stage must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().expect("string payload").to_string(),
        }
    }

    const BATCH_SIZES: [usize; 6] = [1, 3, 7, 64, 500, 5000];

    #[test]
    fn values_are_in_input_order_at_every_batch_size() {
        let items: Vec<u64> = (0..500).collect();
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let want: Vec<u64> = items.iter().copied().map(f).collect();
        for workers in [1, 4] {
            let pool = Executor::new(workers);
            let (auto, m) = run_stage(&pool, "auto", items.clone(), f);
            assert_eq!(auto, want, "{workers} workers, auto batches");
            assert_eq!((m.name.as_str(), m.items, m.produced, m.panics), ("auto", 500, 500, 0));
            for bs in BATCH_SIZES {
                let (values, m) = stage_core(&pool, "s", items.clone(), bs, &f);
                assert_eq!(values, want, "{workers} workers, batch size {bs}");
                assert_eq!((m.items, m.produced), (500, 500));
            }
        }
    }

    /// A panicking item re-raises its own payload, and only once every
    /// other batch has run: with batches of 10, item 15 stops its own batch
    /// (items 16–19 never run) and the other nine batches all complete,
    /// whether the panic happens on a worker or in the caller's own batch.
    #[test]
    fn a_panic_resumes_on_the_caller_after_every_other_batch() {
        let pool = Executor::new(2);
        for poison in [15usize, 95] {
            let returned = AtomicUsize::new(0);
            let f = |x: usize| {
                if x == poison {
                    panic!("poison {x}");
                }
                returned.fetch_add(1, Ordering::Relaxed);
                x
            };
            let msg = panic_message(|| {
                stage_core(&pool, "poison", (0..100).collect(), 10, &f);
            });
            assert_eq!(msg, format!("poison {poison}"));
            let batch_rest = 9 - poison % 10;
            assert_eq!(returned.load(Ordering::Relaxed), 99 - batch_rest, "poison {poison}");
        }
    }

    #[test]
    fn the_lowest_index_panic_wins_at_every_batch_size() {
        let poisoned = [497u64, 250, 41, 42, 3];
        let f = |x: u64| {
            if poisoned.contains(&x) {
                panic!("item {x}");
            }
            x
        };
        for workers in [1, 4] {
            let pool = Executor::new(workers);
            assert_eq!(
                panic_message(|| drop(run_stage(&pool, "p", (0..500).collect(), f))),
                "item 3"
            );
            for bs in BATCH_SIZES {
                let msg =
                    panic_message(|| drop(stage_core(&pool, "p", (0..500).collect(), bs, &f)));
                assert_eq!(msg, "item 3", "{workers} workers, batch size {bs}");
            }
        }
    }

    #[test]
    fn a_nested_panic_reaches_the_outer_caller() {
        let exec = Executor::new(1);
        let msg = panic_message(|| {
            run_stage(&exec, "outer", (0..4u32).collect(), |x| {
                let (inner, _) = run_stage(&exec, "inner", (0..5u32).collect(), |y| {
                    if (x, y) == (2, 3) {
                        panic!("inner {x}/{y}");
                    }
                    y
                });
                inner.into_iter().sum::<u32>()
            });
        });
        assert_eq!(msg, "inner 2/3");
    }

    #[test]
    fn empty_stage() {
        let pool = Executor::new(2);
        let (values, metrics) = run_stage(&pool, "empty", Vec::<u32>::new(), |x| x);
        assert!(values.is_empty());
        assert_eq!(metrics.items, 0);
        assert_eq!(metrics.throughput(), 0.0);
    }

    #[test]
    fn closures_may_borrow_the_callers_stack() {
        // The scoped core removes the old `'static` bound: stages can read
        // caller-owned data without Arc plumbing.
        let pool = Executor::new(4);
        let corpus: Vec<String> = (0..64).map(|i| format!("doc-{i}")).collect();
        let (values, _) =
            run_stage(&pool, "borrow", (0..corpus.len()).collect(), |i| corpus[i].len());
        assert_eq!(values, corpus.iter().map(String::len).collect::<Vec<_>>());
        // `corpus` is still usable: every task finished before return.
        assert_eq!(corpus.len(), 64);
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
        let whoami = |x: u64| (x, std::thread::current().id());
        let (values, _) = stage_core(&exec, "one-batch", (0..10u64).collect(), 1_000_000, &whoami);
        assert_eq!(values, (0..10u64).map(|i| (i, caller)).collect::<Vec<_>>());
        assert_eq!(exec.stats().total_executed(), 0, "nothing went through the queue");
    }

    #[test]
    fn nested_stage_on_same_pool_does_not_deadlock() {
        // A stage closure may itself fan out on the same executor (the
        // Executor-threaded batch APIs invite exactly this); even with one
        // worker, blocked callers assist the queue instead of parking.
        let exec = Executor::new(1);
        let (values, metrics) = run_stage(&exec, "outer", vec![10u32, 20], |x| {
            let (inner, _) = run_stage(&exec, "inner", (0..5u32).collect(), |y| y);
            x + inner.into_iter().sum::<u32>()
        });
        assert_eq!(metrics.produced, 2);
        assert_eq!(values, vec![20, 30], "10 + (0+1+2+3+4)");
    }
}
