//! The whole model census at tiny(42): every role's call, batch and token
//! tallies and the `total` row, after a full evaluation.
//!
//! Every count here is schedule-independent: every call reaches the
//! simulator and is tallied once, and a batched kind records one batch per
//! submission. `tests/golden.rs` pins four roles' calls and tokens; this
//! pins the rest of the ledger (`batches` and the total), so a change to
//! how model calls are built or counted cannot move any of it unseen.
//!
//! The pipeline output is built here rather than shared with
//! `repro_rows.rs`'s `bench_output()`, whose evaluations run concurrently
//! with that suite's other tests and would move these totals.

use mcqa_bench::models::model_census;
use mcqa_core::{Pipeline, PipelineConfig};
use mcqa_eval::{EvalConfig, Evaluator};

/// `(calls, batches, tokens_in, tokens_out)` per census row.
type Row = (&'static str, (u64, u64, u64, u64));

#[test]
fn tiny_seed42_model_census_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::tiny(42));
    Evaluator::new(&out, EvalConfig::default()).run();
    let rows: Vec<Row> = model_census(&out)
        .into_iter()
        .map(|(role, s)| (role, (s.calls, s.batches, s.tokens_in, s.tokens_out)))
        .collect();
    let expected: [Row; 5] = [
        ("teacher", (2_469, 2, 187_262, 59_918)),
        ("judge", (30_903, 1, 459_787, 228_003)),
        ("classifier", (335, 1, 13_931, 1_005)),
        ("answerer", (29_040, 0, 14_151_000, 70_316)),
        ("total", (62_747, 4, 14_811_980, 359_242)),
    ];
    assert_eq!(rows, expected);
}
