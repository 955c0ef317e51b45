//! Integration tests for [`mcqa_runtime::Executor`] through the crate's
//! public API: Parsl-style task-level fault isolation, genuine multi-worker
//! execution, and the two things a sleeping pool has to get right — every
//! submission wakes someone, and shutdown drains the queue.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use mcqa_runtime::{run_stage, Executor, TaskError};

/// Every worker runs jobs, and every submitted job runs. Four jobs that each
/// hold their thread until released can all have started only if four
/// distinct workers are inside a job at once — however quick one worker
/// is, it cannot take them all.
#[test]
fn all_jobs_execute_across_multiple_workers() {
    let pool = Executor::new(4);
    let (started_tx, started_rx) = sync_channel(4);
    let releases: Vec<_> = (0..4)
        .map(|_| {
            let (release_tx, release_rx) = sync_channel::<()>(0);
            let started_tx = started_tx.clone();
            pool.submit(move || {
                started_tx.send(std::thread::current().id()).unwrap();
                // Returns when the test drops its end, pass or fail.
                let _ = release_rx.recv();
            });
            release_tx
        })
        .collect();
    let holders: HashSet<ThreadId> = (0..4)
        .map(|_| started_rx.recv_timeout(Duration::from_secs(30)).expect("a worker took the job"))
        .collect();
    assert_eq!(holders.len(), 4, "four jobs in flight on four distinct threads");
    drop(releases);

    let executed = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = sync_channel(2_000);
    for _ in 0..2_000 {
        let executed = Arc::clone(&executed);
        let tx = tx.clone();
        pool.submit(move || {
            executed.fetch_add(1, Ordering::Relaxed);
            tx.send(()).unwrap();
        });
    }
    for _ in 0..2_000 {
        rx.recv_timeout(Duration::from_secs(30)).expect("job completed");
    }
    assert_eq!(executed.load(Ordering::Relaxed), 2_000);

    let stats = pool.stats();
    assert_eq!(stats.total_executed(), 2_004, "pool accounts for every job");
    assert!(stats.executed_per_worker.iter().all(|&n| n > 0), "every worker ran a job: {stats:?}");
    assert_eq!(stats.assisted, 0, "nobody was blocked on a stage");
}

/// A panicking job must not take down its worker: all jobs submitted after
/// the panic still complete, on a pool no wider than the panic count.
#[test]
fn panicking_jobs_do_not_kill_workers() {
    let pool = Executor::new(2);
    // More panics than workers: if a panic killed a worker the pool would
    // deadlock on the follow-up batch.
    let (started_tx, started_rx) = sync_channel(8);
    for _ in 0..8 {
        let started_tx = started_tx.clone();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            panic!("induced task failure")
        });
    }
    let (tx, rx) = sync_channel(100);
    for i in 0..100u32 {
        let tx = tx.clone();
        pool.submit(move || tx.send(i).unwrap());
    }
    let mut got: Vec<u32> =
        (0..100).map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap()).collect();
    got.sort_unstable();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    // The queue is FIFO, so every panicking job was popped before the last
    // follow-up — but popped is not counted: the worker that took the
    // eighth may not have reached its increment yet. A job is counted
    // before it runs, so once all eight have announced themselves the
    // counter has reached 108.
    for _ in 0..8 {
        started_rx.recv_timeout(Duration::from_secs(30)).expect("panicking job ran");
    }
    assert_eq!(pool.stats().total_executed(), 108, "panicked jobs still count as executed");
}

/// The same isolation, observed through `run_stage`: panics land in their
/// own result slot and the stage metrics census them.
#[test]
fn run_stage_isolates_panics_per_slot() {
    let pool = Executor::new(3);
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

/// Workers sleep on a condvar with no timeout, so a submission whose
/// wake-up got lost would never run: each round hands one job to a pool
/// that has (most likely) gone back to sleep and blocks on its reply.
#[test]
fn no_lost_wakeups() {
    for workers in [1, 4] {
        let pool = Executor::new(workers);
        let (tx, rx) = sync_channel(1);
        for round in 0..10_000u32 {
            let tx = tx.clone();
            pool.submit(move || tx.send(round).unwrap());
            let got = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("round {round} on {workers} workers never ran"));
            assert_eq!(got, round);
        }
    }
}

/// Dropping the last handle runs what is still queued before joining.
#[test]
fn drop_drains_queued_jobs() {
    let pool = Executor::new(3);
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let ran = Arc::clone(&ran);
        pool.submit(move || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    drop(pool);
    assert_eq!(ran.load(Ordering::Relaxed), 50, "every queued job ran before the join returned");
}
