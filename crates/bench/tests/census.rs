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
        ("teacher", (2_476, 2, 187_725, 60_349)),
        ("judge", (30_984, 1, 460_861, 228_575)),
        ("classifier", (335, 1, 13_931, 1_005)),
        ("answerer", (29_120, 0, 14_194_008, 70_476)),
        ("total", (62_915, 4, 14_856_525, 360_405)),
    ];
    assert_eq!(rows, expected);
}
