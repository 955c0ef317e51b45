//! The whole model census at tiny(42): every role's call, batch, cache-hit
//! and token tallies, the `total` row and the distinct cached completions,
//! after a full evaluation.
//!
//! Every count here is schedule-independent: teacher and quality-score
//! requests are never cached, every cached kind is single-flight, and a
//! batched kind records one batch per submission. `tests/golden.rs` pins
//! four roles' calls and tokens; this pins the rest of the ledger
//! (`batches` and the total), so a change to how model calls are built,
//! addressed or counted cannot move any of it unseen.
//!
//! The pipeline output is built here rather than shared with
//! `repro_rows.rs`'s `bench_output()`, whose evaluations run concurrently
//! with that suite's other tests and would move these totals.

use mcqa_bench::models::model_census;
use mcqa_core::{Pipeline, PipelineConfig};
use mcqa_eval::{EvalConfig, Evaluator};

/// `(calls, batches, cache_hits, tokens_in, tokens_out)` per census row.
type Row = (&'static str, (u64, u64, u64, u64, u64));

#[test]
fn tiny_seed42_model_census_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::tiny(42));
    Evaluator::new(&out, EvalConfig::default()).run();
    let rows: Vec<Row> = model_census(&out)
        .into_iter()
        .map(|(role, s)| (role, (s.calls, s.batches, s.cache_hits, s.tokens_in, s.tokens_out)))
        .collect();
    let expected: [Row; 5] = [
        ("teacher", (2_469, 2, 0, 187_262, 59_918)),
        ("judge", (30_903, 1, 28_823, 74_706, 23_928)),
        ("classifier", (335, 1, 0, 13_931, 1_005)),
        ("answerer", (29_040, 0, 7_560, 10_500_944, 49_418)),
        ("total", (62_747, 4, 36_383, 10_776_843, 134_269)),
    ];
    assert_eq!(rows, expected);
    assert_eq!(out.models.cache().len(), 22_032, "distinct cached completions moved");
}
