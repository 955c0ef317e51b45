//! Property tests for the batched scheduler surface: `run_stage_batched`
//! must be observationally identical to `run_stage` — bit-identical ordered
//! results and identical ok/error/panic counts — for every item and worker
//! count, and so for every batch size those pick — plus the scoped core's
//! own promises: a lone item stays on the caller, and borrowed data
//! survives nested, panicking, oversubscribed stages. Explicit batch sizes
//! are the private core's, tested beside it in `stage.rs`.

use std::sync::OnceLock;

use mcqa_runtime::{run_stage, run_stage_batched, Executor, TaskError};
use proptest::prelude::*;

/// Pools of 1, 2 and 4 workers: the batch size follows the worker count.
fn exec(pick: usize) -> &'static Executor {
    static EXECS: OnceLock<[Executor; 3]> = OnceLock::new();
    &EXECS.get_or_init(|| [1, 2, 4].map(Executor::new))[pick]
}

/// The task under test mixes all three outcomes deterministically:
/// successes, `Err` returns, and panics.
fn mixed_outcome(x: u64) -> Result<u64, String> {
    if x % 23 == 3 {
        panic!("induced panic on {x}");
    }
    if x % 11 == 5 {
        return Err(format!("induced failure on {x}"));
    }
    Ok(x.wrapping_mul(0x9E37_79B9).rotate_left(7))
}

proptest! {
    #[test]
    fn batched_is_bit_identical_to_per_item(
        items in proptest::collection::vec(any::<u64>(), 0..1200),
        workers_pick in 0usize..3,
    ) {
        let exec = exec(workers_pick);
        let (reference, ref_metrics) = run_stage(exec, "ref", items.clone(), mixed_outcome);
        let (batched, metrics) = run_stage_batched(exec, "ref", items, mixed_outcome);
        prop_assert_eq!(&batched, &reference, "{} workers", exec.workers());
        prop_assert_eq!(metrics.items, ref_metrics.items);
        prop_assert_eq!(metrics.ok, ref_metrics.ok);
        prop_assert_eq!(metrics.errors, ref_metrics.errors);
        prop_assert_eq!(metrics.panics, ref_metrics.panics);
        prop_assert_eq!(metrics.produced, ref_metrics.produced);
    }
}

/// A panic inside the middle of a batch poisons exactly that item's slot:
/// batch-mates before *and after* the panicking item still complete.
#[test]
fn mid_batch_panic_isolates_to_that_item_only() {
    // 200 items on one worker are batches of 25, so item 13 sits mid-batch
    // with live neighbours both sides.
    let items: Vec<u64> = (0..200).collect();
    let (results, metrics) = run_stage_batched(exec(0), "poison", items, |x| {
        if x == 13 {
            panic!("poison pill");
        }
        Ok::<u64, String>(x * 2)
    });
    assert_eq!(metrics.panics, 1);
    assert_eq!(metrics.ok, 199);
    assert_eq!(metrics.errors, 1);
    for (i, r) in results.iter().enumerate() {
        if i == 13 {
            assert_eq!(*r, Err(TaskError::Panicked));
        } else {
            assert_eq!(*r, Ok(i as u64 * 2), "item {i} must survive its batch-mate's panic");
        }
    }
}

/// A lone item — a lone request's search — never leaves the calling
/// thread: no job is queued and no worker is woken.
#[test]
fn lone_item_stage_runs_on_the_caller() {
    // A private pool: the shared ones' counters also move with whatever
    // tests run beside this one.
    let exec = Executor::new(2);
    let caller = std::thread::current().id();
    let (results, _) = run_stage_batched(&exec, "lone", vec![7u64], |x| {
        Ok::<_, String>((x, std::thread::current().id()))
    });
    assert_eq!(results, vec![Ok((7, caller))]);
    assert_eq!(exec.stats().total_executed(), 0, "nothing went through the queue");
}

/// The scoped core under contention: more workers than CPUs, closures that
/// borrow the caller's stack, a nested stage on the same executor inside
/// every item, and seeded panics. Every slot must hold exactly its item's
/// result, and the borrowed data must be untouched once the stage returns —
/// what the lifetime-erasing `transmute` in `stage_core` promises.
#[test]
fn scoped_core_stress() {
    let exec = Executor::new(8);
    const ROWS: usize = 96;
    let data: Vec<u64> = (0..ROWS as u64).map(mcqa_util::splitmix64).collect();
    let pristine = data.clone();
    for round in 0..200u64 {
        let poisoned = |i: usize| mcqa_util::splitmix64(round << 32 | i as u64) % 7 == 3;
        // The nested stage reads a window of the same borrowed `data`.
        let window = |i: usize| (0..=i % 8).map(move |j| (i + j) % ROWS);
        // 16 to 336 items on 8 workers: batches of 1 to 6.
        let items = 16 + 80 * (round as usize % 5);
        let (results, metrics) = run_stage_batched(&exec, "outer", (0..items).collect(), |i| {
            if poisoned(i) {
                panic!("seeded panic: round {round} item {i}");
            }
            let (inner, _) =
                run_stage(&exec, "inner", window(i).collect(), |at| Ok::<u64, String>(data[at]));
            Ok::<u64, String>(inner.into_iter().map(Result::unwrap).fold(0, u64::wrapping_add))
        });
        let mut panics = 0;
        for (i, r) in results.iter().enumerate() {
            if poisoned(i) {
                panics += 1;
                assert_eq!(*r, Err(TaskError::Panicked), "round {round} slot {i}");
            } else {
                let want = window(i).map(|at| pristine[at]).fold(0, u64::wrapping_add);
                assert_eq!(*r, Ok(want), "round {round} slot {i}");
            }
        }
        assert_eq!(metrics.panics, panics, "round {round}");
        assert_eq!(metrics.ok, items - panics, "round {round}");
    }
    assert_eq!(data, pristine, "borrowed data intact after every stage");
}
