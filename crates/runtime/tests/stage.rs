//! Property tests for `run_stage` through the crate's public API: for every
//! item and worker count — and so for every batch size those pick — the
//! values are a serial map's, in input order, and a stage with panicking
//! items re-raises the lowest-index item's payload. Plus the scoped core's
//! own promises: a lone item stays on the caller, and borrowed data
//! survives nested, panicking, oversubscribed stages. Explicit batch sizes
//! are the private core's, tested beside it in `stage.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use mcqa_runtime::{run_stage, Executor};
use proptest::prelude::*;

/// Pools of 1, 2 and 4 workers: the batch size follows the worker count.
fn exec(pick: usize) -> &'static Executor {
    static EXECS: OnceLock<[Executor; 3]> = OnceLock::new();
    &EXECS.get_or_init(|| [1, 2, 4].map(Executor::new))[pick]
}

fn mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9).rotate_left(7)
}

/// The message of the panic `f` raises, or `None` if it returns.
fn panic_message<R>(f: impl FnOnce() -> R) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(*payload.downcast::<String>().expect("formatted panic message"))
}

proptest! {
    #[test]
    fn values_match_a_serial_map(
        items in proptest::collection::vec(any::<u64>(), 0..1200),
        workers_pick in 0usize..3,
    ) {
        let exec = exec(workers_pick);
        let (values, metrics) = run_stage(exec, "map", items.clone(), mix);
        let want: Vec<u64> = items.iter().copied().map(mix).collect();
        prop_assert_eq!(&values, &want, "{} workers", exec.workers());
        prop_assert_eq!(metrics.items, items.len());
        prop_assert_eq!(metrics.produced, items.len());
        prop_assert_eq!(metrics.panics, 0);
    }

    #[test]
    fn the_lowest_index_panic_surfaces(
        items in proptest::collection::vec(any::<u64>(), 1..1200),
        workers_pick in 0usize..3,
    ) {
        let poisoned = |x: u64| x % 23 == 3;
        let indexed: Vec<(usize, u64)> = items.iter().copied().enumerate().collect();
        let msg = panic_message(|| {
            run_stage(exec(workers_pick), "poison", indexed, |(i, x)| {
                if poisoned(x) {
                    panic!("item {i}");
                }
                mix(x)
            })
        });
        let first = items.iter().position(|&x| poisoned(x));
        prop_assert_eq!(msg, first.map(|i| format!("item {i}")));
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
    let (values, _) = run_stage(&exec, "lone", vec![7u64], |x| (x, std::thread::current().id()));
    assert_eq!(values, vec![(7, caller)]);
    assert_eq!(exec.stats().total_executed(), 0, "nothing went through the queue");
}

/// The scoped core under contention: more workers than CPUs, closures that
/// borrow the caller's stack, a nested stage on the same executor inside
/// every item, and seeded panics. A stage with a poisoned item must raise
/// the first one's panic, any other stage must return exactly its items'
/// values, and the borrowed data must be untouched once the stage returns —
/// what the lifetime-erasing `transmute` in `stage_core` promises.
#[test]
fn scoped_core_stress() {
    let exec = Executor::new(8);
    const ROWS: usize = 96;
    let data: Vec<u64> = (0..ROWS as u64).map(mcqa_util::splitmix64).collect();
    let pristine = data.clone();
    let mut failed = 0;
    for round in 0..200u64 {
        // About one round in three has a poisoned item.
        let poisoned =
            |i: usize| round % 3 == 0 && mcqa_util::splitmix64(round << 32 | i as u64) % 7 == 3;
        // The nested stage reads a window of the same borrowed `data`.
        let window = |i: usize| (0..=i % 8).map(move |j| (i + j) % ROWS);
        // 16 to 336 items on 8 workers: batches of 1 to 6.
        let items = 16 + 80 * (round as usize % 5);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_stage(&exec, "outer", (0..items).collect(), |i| {
                if poisoned(i) {
                    panic!("seeded panic: item {i}");
                }
                let (inner, _) = run_stage(&exec, "inner", window(i).collect(), |at| data[at]);
                inner.into_iter().fold(0, u64::wrapping_add)
            })
            .0
        }));
        match ((0..items).find(|&i| poisoned(i)), outcome) {
            (Some(first), Err(payload)) => {
                failed += 1;
                let msg = payload.downcast::<String>().expect("formatted panic message");
                assert_eq!(*msg, format!("seeded panic: item {first}"), "round {round}");
            }
            (None, Ok(values)) => {
                for (i, v) in values.iter().enumerate() {
                    let want = window(i).map(|at| pristine[at]).fold(0, u64::wrapping_add);
                    assert_eq!(*v, want, "round {round} item {i}");
                }
            }
            (first, outcome) => {
                panic!("round {round}: first poisoned {first:?}, returned {}", outcome.is_ok())
            }
        }
    }
    assert!(failed > 40, "the seeded panics fired: {failed}");
    assert_eq!(data, pristine, "borrowed data intact after every stage");
}
