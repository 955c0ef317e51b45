//! Golden determinism: the generation artifacts at a pinned (config, seed)
//! are byte-identical across refactors.
//!
//! The constants below were captured at commit d85ebd5 (PR 3, before the
//! model roles shared one completion API) and re-verified after the
//! model-layer redesign and the chunker memoisation: the question census
//! and the full serialised
//! question/trace artifacts hash to the same values. Any PR that moves a
//! chunk boundary, reorders an id, or changes a simulator's output trips
//! this test — the same bar the vector-store redesign cleared.
//!
//! The serialised index registry is pinned as well (captured on the commit
//! before featurisation went single-pass and chunk→embed was fused): it
//! holds every chunk vector, every trace vector and all four lexical
//! siblings, so a change that flips one bit of one stored embedding, or
//! interns one term in a different order, trips it even when the
//! question/trace JSON stays the same.
//!
//! (The release-build census at scale 0.02 — 451 docs → 3760 chunks →
//! 3760 candidates → 430 accepted, q_hash 0xb5f207d6fa4a7c92, t_hash
//! 0xfa0e82468acfb54c, registry_hash 0x7cf1025c90e0e835 — is pinned in
//! `scripts/repro-smoke.sh`, where the optimized binary makes it cheap.)

use distllm::prelude::*;

#[test]
fn tiny_seed42_artifacts_are_byte_identical_to_the_pre_redesign_pipeline() {
    let out = Pipeline::run(&PipelineConfig::tiny(42));
    assert_eq!(out.chunks.len(), 1863, "chunk census moved");
    assert_eq!(out.questions.len(), 202, "question census moved");
    assert_eq!(out.traces.len(), 606, "trace census moved");

    let q_json = serde_json::to_string(&out.questions).expect("serialises");
    let t_json = serde_json::to_string(&out.traces).expect("serialises");
    assert_eq!(
        distllm::util::fnv1a(q_json.as_bytes()),
        0x7466_4a87_a29b_1388,
        "question artifacts are no longer byte-identical to the golden run"
    );
    assert_eq!(
        distllm::util::fnv1a(t_json.as_bytes()),
        0xe2a1_2236_fb88_ef06,
        "trace artifacts are no longer byte-identical to the golden run"
    );
    assert_eq!(
        distllm::util::fnv1a(&out.indexes.to_bytes()),
        0xd918_903b_0efc_8360,
        "the index registry (chunk/trace vectors, lexical siblings) is no longer \
         byte-identical to the golden run"
    );
}

/// The evaluation on top of that run: every model's rates, calibration and
/// accuracy tables, plus the call counts, which no schedule can move. The
/// distinct-key count is the direct evidence that the response cache's
/// equivalence classes are where they were — a key that aliased two
/// requests would lower it, one that split a request would raise it.
/// Captured on 357d4b4; the teacher / classifier token totals on 5e1181a;
/// the answerer and judge ledgers once the cache became single-flight.
#[test]
fn tiny_seed42_eval_tables_are_pinned() {
    let out = Pipeline::run(&PipelineConfig::tiny(42));
    let run = Evaluator::new(&out, EvalConfig::default()).run();
    let models_json = serde_json::to_string(&run.models).expect("serialises");
    assert_eq!(
        distllm::util::fnv1a(models_json.as_bytes()),
        0xadb5_c551_f639_4348,
        "the evaluation tables are no longer byte-identical to the golden run"
    );
    assert_eq!(out.models.ledger().total().calls, 62_747, "model-call census moved");
    assert_eq!(out.models.cache().len(), 22_032, "distinct cached requests moved");
    // Teacher requests are never cached and each exam item is classified
    // once, so these totals are schedule-independent: they pin every prompt
    // scaffold of the two roles and how `tokens_out` is derived.
    let teacher = out.models.ledger().role(distllm::llm::Role::Teacher);
    assert_eq!((teacher.calls, teacher.tokens_in, teacher.tokens_out), (2_469, 187_262, 59_918));
    let classifier = out.models.ledger().role(distllm::llm::Role::Classifier);
    assert_eq!(
        (classifier.calls, classifier.tokens_in, classifier.tokens_out),
        (335, 13_931, 1_005)
    );
    // The no-math pass repeats full-exam answer keys, and the response cache
    // completes each key once however the stage is scheduled, so every
    // answerer count is schedule-independent: this pins how answer requests
    // are built, addressed and counted.
    let answerer = out.models.ledger().role(distllm::llm::Role::Answerer);
    assert_eq!(
        (answerer.calls, answerer.cache_hits, answerer.tokens_in, answerer.tokens_out),
        (29_040, 7_560, 10_500_944, 49_418)
    );
    // Grading keys repeat inside one concurrent `eval-answer` stage; the
    // response cache completes each key once however the stage is
    // scheduled, so the judge's hits and tokens are pinned too.
    let judge = out.models.ledger().role(distllm::llm::Role::Judge);
    assert_eq!(
        (judge.calls, judge.cache_hits, judge.tokens_in, judge.tokens_out),
        (30_903, 28_823, 74_706, 23_928)
    );
}

/// The evaluation at the benchmark's own scale (`paper-repro` runs
/// `at_scale(0.02, seed)`): the tables, the `eval-answer` item count the
/// benchmark divides its evaluation time by, the ledger total and the
/// distinct cached requests. The tiny pins above run none of the batched
/// paths a larger replay takes (a group's encode batch, hundreds of
/// members per reply), so this pins them where the benchmark runs them.
/// Captured at da5c3e9.
#[test]
fn scale_002_seed42_eval_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::at_scale(0.02, 42));
    let run = Evaluator::new(&out, EvalConfig::default()).run();
    let models_json = serde_json::to_string(&run.models).expect("serialises");
    assert_eq!(
        distllm::util::fnv1a(models_json.as_bytes()),
        0x03bd_40c0_93c2_d15f,
        "the scale-0.02 evaluation tables are no longer byte-identical to the golden run"
    );
    let answered = run.report.stages().iter().find(|s| s.name == "eval-answer").map(|s| s.items);
    assert_eq!(answered, Some(38_160), "eval-answer item count moved");
    assert_eq!(out.models.ledger().total().calls, 85_465, "model-call census moved");
    assert_eq!(out.models.cache().len(), 31_169, "distinct cached requests moved");
}

/// The evaluation tables at ten times the benchmark's scale: a replay of
/// a few thousand stems, whose scan tasks hold blocks of hundreds to
/// thousands of queries — the shapes the 0.02 pin above never builds.
/// Release-only (≈ 5 s there, minutes in debug); CI's release suite runs
/// it with `--test golden`. Captured at 32b33ae.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn scale_02_seed42_eval_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::at_scale(0.2, 42));
    let run = Evaluator::new(&out, EvalConfig::default()).run();
    let models_json = serde_json::to_string(&run.models).expect("serialises");
    assert_eq!(
        distllm::util::fnv1a(models_json.as_bytes()),
        0x1a4c_3f20_bc35_c5ea,
        "the scale-0.2 evaluation tables are no longer byte-identical to the golden run"
    );
}

/// The paper's own scale: 22 548 documents, a chunk store of ≈ 188 000
/// rows and replays whose scan tasks hold blocks of ≈ 11 000 stems —
/// regimes no smaller pin reaches, and where the evaluation spends most
/// of its wall. Pins the `[golden]` triple `repro fig1 --scale 1.0
/// --seed 42` prints, the evaluation tables, every model's usable-hit
/// rates and the `eval-answer` item count. `#[ignore]`d (≈ 50 s in
/// release on 2 vCPUs, 1.1 GiB peak): CI's bench job runs it with
/// `--ignored --nocapture`, so both stage reports land in the log as a
/// paper-scale timing row. Captured at 6455b89.
#[test]
#[ignore]
fn scale_1_seed42_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::at_scale(1.0, 42));
    println!("Pipeline stage report (scale 1.0, seed 42):\n\n{}", out.report.render());
    let q_json = serde_json::to_string(&out.questions).expect("serialises");
    let t_json = serde_json::to_string(&out.traces).expect("serialises");
    assert_eq!(
        (
            distllm::util::fnv1a(q_json.as_bytes()),
            distllm::util::fnv1a(t_json.as_bytes()),
            distllm::util::fnv1a(&out.indexes.to_bytes()),
        ),
        (0x696f_e011_a91e_72d7, 0xefb0_3909_6af6_accd, 0x306a_e2fc_a033_a887),
        "the scale-1.0 [golden] triple (questions, traces, registry) moved"
    );

    let run = Evaluator::new(&out, EvalConfig::default()).run();
    println!("Evaluation stage report (scale 1.0, seed 42):\n\n{}", run.report.render());
    let models_json = serde_json::to_string(&run.models).expect("serialises");
    assert_eq!(
        distllm::util::fnv1a(models_json.as_bytes()),
        0xf9a6_0a54_f3ca_8643,
        "the scale-1.0 evaluation tables are no longer byte-identical to the golden run"
    );
    let rates: Vec<_> = run.models.iter().map(|m| m.rates).collect();
    let rates_json = serde_json::to_string(&rates).expect("serialises");
    assert_eq!(
        distllm::util::fnv1a(rates_json.as_bytes()),
        0x67da_8b8a_d61d_87bd,
        "the scale-1.0 usable-hit rates moved: {rates_json}"
    );
    let answered = run.report.stages().iter().find(|s| s.name == "eval-answer").map(|s| s.items);
    assert_eq!(answered, Some(886_320), "eval-answer item count moved");
}
