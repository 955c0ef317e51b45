//! Integration tests for [`mcqa_runtime::WorkStealingPool`] through the
//! crate's public API: Parsl-style task-level fault isolation and genuine
//! multi-worker execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcqa_runtime::{run_stage, TaskError, WorkStealingPool};

/// Every submitted job runs, and the work is spread across at least two
/// workers (the whole point of a work-stealing pool).
#[test]
fn all_jobs_execute_across_multiple_workers() {
    let pool = WorkStealingPool::new(4);
    let executed = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = crossbeam_channel::bounded(2_000);
    for i in 0..2_000u64 {
        let executed = Arc::clone(&executed);
        let tx = tx.clone();
        pool.submit(move || {
            // Non-trivial work so no single worker can drain the queue alone.
            let mut acc = 0u64;
            for k in 0..300 {
                acc = acc.wrapping_add(mcqa_util::splitmix64(i ^ k));
            }
            std::hint::black_box(acc);
            executed.fetch_add(1, Ordering::Relaxed);
            tx.send(()).unwrap();
        });
    }
    for _ in 0..2_000 {
        rx.recv_timeout(Duration::from_secs(30)).expect("job completed");
    }
    assert_eq!(executed.load(Ordering::Relaxed), 2_000);

    let stats = pool.stats();
    assert_eq!(stats.total_executed(), 2_000, "pool accounts for every job");
    let busy = stats.executed_per_worker.iter().filter(|&&n| n > 0).count();
    assert!(busy >= 2, "work must spread across ≥2 workers: {stats:?}");
}

/// A panicking job must not take down its worker: all jobs submitted after
/// the panic still complete, on a pool no wider than the panic count.
#[test]
fn panicking_jobs_do_not_kill_workers() {
    let pool = WorkStealingPool::new(2);
    // More panics than workers: if a panic killed a worker the pool would
    // deadlock on the follow-up batch.
    let (started_tx, started_rx) = crossbeam_channel::bounded(8);
    for _ in 0..8 {
        let started_tx = started_tx.clone();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            panic!("induced task failure")
        });
    }
    let (tx, rx) = crossbeam_channel::bounded(100);
    for i in 0..100u32 {
        let tx = tx.clone();
        pool.submit(move || tx.send(i).unwrap());
    }
    let mut got: Vec<u32> =
        (0..100).map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap()).collect();
    got.sort_unstable();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    // The follow-ups finishing does not mean the panicking jobs ran first:
    // a worker batch-steals them into its LIFO deque and pops the
    // follow-ups above them. A job is counted before it runs, so once all
    // eight have announced themselves the counter has reached 108.
    for _ in 0..8 {
        started_rx.recv_timeout(Duration::from_secs(30)).expect("panicking job ran");
    }
    assert_eq!(pool.stats().total_executed(), 108, "panicked jobs still count as executed");
}

/// The same isolation, observed through `run_stage`: panics land in their
/// own result slot and the stage metrics census them.
#[test]
fn run_stage_isolates_panics_per_slot() {
    let pool = WorkStealingPool::new(3);
    let items: Vec<u32> = (0..50).collect();
    let (results, metrics) = run_stage(&pool, "mixed", items, |x| {
        if x % 10 == 7 {
            panic!("poison item {x}");
        }
        Ok::<u32, String>(x * 2)
    });
    assert_eq!(metrics.items, 50);
    assert_eq!(metrics.panics, 5);
    assert_eq!(metrics.ok, 45);
    for (i, r) in results.iter().enumerate() {
        if i % 10 == 7 {
            assert_eq!(*r, Err(TaskError::Panicked));
        } else {
            assert_eq!(*r, Ok(i as u32 * 2), "order preserved around panics");
        }
    }
}
