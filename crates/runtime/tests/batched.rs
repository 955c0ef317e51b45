//! Property tests for the batched scheduler surface: `run_stage_batched`
//! must be observationally identical to `run_stage` — bit-identical ordered
//! results and identical ok/error/panic counts — for every batch size —
//! plus the scoped core's own promises: a one-batch stage stays on the
//! caller, and borrowed data survives nested, panicking, oversubscribed
//! stages.

use std::sync::OnceLock;

use mcqa_runtime::{run_stage, run_stage_batched, Executor, TaskError};
use proptest::prelude::*;

fn exec() -> &'static Executor {
    static EXEC: OnceLock<Executor> = OnceLock::new();
    EXEC.get_or_init(|| Executor::new(4))
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
        items in proptest::collection::vec(any::<u64>(), 0..150),
    ) {
        let n = items.len();
        let (reference, ref_metrics) =
            run_stage(exec(), "ref", items.clone(), mixed_outcome);
        for batch_size in [1usize, 7, 64, n.max(1)] {
            let (batched, metrics) =
                run_stage_batched(exec(), "ref", items.clone(), batch_size, mixed_outcome);
            prop_assert_eq!(&batched, &reference, "batch_size {}", batch_size);
            prop_assert_eq!(metrics.items, ref_metrics.items);
            prop_assert_eq!(metrics.ok, ref_metrics.ok);
            prop_assert_eq!(metrics.errors, ref_metrics.errors);
            prop_assert_eq!(metrics.panics, ref_metrics.panics);
            prop_assert_eq!(metrics.produced, ref_metrics.produced);
        }
    }
}

/// A panic inside the middle of a batch poisons exactly that item's slot:
/// batch-mates before *and after* the panicking item still complete.
#[test]
fn mid_batch_panic_isolates_to_that_item_only() {
    let items: Vec<u64> = (0..50).collect();
    // Batch size 25 puts item 13 mid-batch with live neighbours both sides.
    let (results, metrics) = run_stage_batched(exec(), "poison", items, 25, |x| {
        if x == 13 {
            panic!("poison pill");
        }
        Ok::<u64, String>(x * 2)
    });
    assert_eq!(metrics.panics, 1);
    assert_eq!(metrics.ok, 49);
    assert_eq!(metrics.errors, 1);
    for (i, r) in results.iter().enumerate() {
        if i == 13 {
            assert_eq!(*r, Err(TaskError::Panicked));
        } else {
            assert_eq!(*r, Ok(i as u64 * 2), "item {i} must survive its batch-mate's panic");
        }
    }
}

/// A stage that is one batch — here a batch size far larger than the item
/// count — never leaves the calling thread: the caller keeps a stage's last
/// batch, so no job is queued, no worker is woken, and no item is lost or
/// reordered.
#[test]
fn one_batch_stage_runs_on_the_caller() {
    // A private pool: the shared one's counter also moves with whatever
    // tests run beside this one.
    let exec = Executor::new(2);
    let caller = std::thread::current().id();
    let before = exec.stats().total_executed();
    let (results, metrics) =
        run_stage_batched(&exec, "one-batch", (0..10u64).collect(), 1_000_000, |x| {
            Ok::<_, String>((x, std::thread::current().id()))
        });
    assert_eq!(metrics.ok, 10);
    assert_eq!(results.len(), 10);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(*r, Ok((i as u64, caller)), "item {i} ran in order on the calling thread");
    }
    assert_eq!(exec.stats().total_executed(), before, "nothing went through the queue");
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
        let batch_size = 1 + round as usize % 5;
        let (results, metrics) =
            run_stage_batched(&exec, "outer", (0..ROWS).collect(), batch_size, |i| {
                if poisoned(i) {
                    panic!("seeded panic: round {round} item {i}");
                }
                let (inner, _) = run_stage(&exec, "inner", window(i).collect(), |at| {
                    Ok::<u64, String>(data[at])
                });
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
        assert_eq!(metrics.ok, ROWS - panics, "round {round}");
    }
    assert_eq!(data, pristine, "borrowed data intact after every stage");
}
