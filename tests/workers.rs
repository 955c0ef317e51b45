//! Determinism across worker counts, end to end: the same configuration at
//! 1, 2, 3 and 4 workers yields byte-identical generation artifacts, index
//! registry, evaluation tables, and the same again after one incremental
//! round. Worker counts above the host's cores oversubscribe it, which is
//! the point: batch boundaries and task interleavings move, and no byte
//! may move with them.

use std::sync::Arc;

use distllm::corpus::EditBatch;
use distllm::prelude::*;
use distllm::util::fnv1a;

/// Everything one worker count produced, as hashes.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    questions: u64,
    traces: u64,
    registry: u64,
    eval_tables: u64,
    round_chunks: u64,
    round_questions: u64,
    round_traces: u64,
    round_registry: u64,
    round_census: String,
}

fn json_hash<E: std::fmt::Debug>(json: Result<String, E>) -> u64 {
    fnv1a(json.expect("serialises").as_bytes())
}

fn fingerprint(workers: usize) -> Fingerprint {
    let config = PipelineConfig { workers, ..PipelineConfig::tiny(42) };
    let out = Pipeline::run(&config);
    let eval = Evaluator::new(&out, EvalConfig::default()).run();

    let mut library = (*out.library).clone();
    library.apply_edits(&out.ontology, &EditBatch::synthetic(&library, 5, 3));
    let round = Pipeline::run_incremental(&config, &out, Arc::new(library));
    assert!(round.ingest.docs_changed() > 0, "the round must edit the corpus");

    Fingerprint {
        questions: json_hash(serde_json::to_string(&out.questions)),
        traces: json_hash(serde_json::to_string(&out.traces)),
        registry: fnv1a(&out.indexes.to_bytes()),
        eval_tables: json_hash(serde_json::to_string(&eval.models)),
        round_chunks: fnv1a(format!("{:?}", round.chunks).as_bytes()),
        round_questions: json_hash(serde_json::to_string(&round.questions)),
        round_traces: json_hash(serde_json::to_string(&round.traces)),
        round_registry: fnv1a(&round.indexes.to_bytes()),
        round_census: format!("{:?}", round.ingest),
    }
}

#[test]
fn every_worker_count_builds_evaluates_and_refreshes_the_same_bytes() {
    let one = fingerprint(1);
    for workers in 2..=4 {
        assert_eq!(fingerprint(workers), one, "{workers} workers against 1");
    }
}
