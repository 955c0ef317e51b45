//! The answer loop's allocation budget: evaluating the model cards makes at
//! most 1.5 heap allocations per graded `eval-answer` item, counted by a
//! global allocator over every thread of the process. An answer's texts and
//! its grade's reasoning are static strings, its keyed draws format the
//! question id on the stack, and a cache hit clones without allocating, so
//! what remains is about one slot per first-touched cache key plus each
//! card's fixed bookkeeping.
//!
//! The count is process-wide, so this binary holds one test: no other test
//! may allocate while the cards run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mcqa_core::{Pipeline, PipelineConfig};
use mcqa_eval::{EvalConfig, Evaluator};
use mcqa_llm::MODEL_CARDS;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the only addition is a relaxed counter
// increment, which neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_cards_allocate_at_most_one_and_a_half_times_per_graded_answer() {
    let output = Pipeline::run(&PipelineConfig::tiny(42));
    let evaluator = Evaluator::new(&output, EvalConfig::default());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = evaluator.run_cards(&MODEL_CARDS);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let answered = run.report.stages().iter().find(|s| s.name == "eval-answer").map(|s| s.items);
    let answered = answered.expect("the cards ran an eval-answer stage");
    let per_answer = allocations as f64 / answered as f64;
    assert!(
        per_answer <= 1.5,
        "{allocations} allocations for {answered} graded answers: {per_answer:.2} per answer"
    );
}
