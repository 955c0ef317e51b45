//! Golden determinism: the pipeline's artifacts and the evaluation's
//! tables at pinned (config, seed) pairs are byte-identical across
//! refactors.
//!
//! What each test pins:
//! - `tiny_seed42_artifacts_are_byte_identical_to_the_pre_redesign_pipeline`:
//!   at `tiny(42)`, the chunk, question and trace counts and the FNV-1a of
//!   the serialised questions, traces and index registry. The registry
//!   holds every chunk and trace vector and all four lexical siblings, so
//!   a change that flips one bit of one stored embedding trips it even
//!   when the question / trace JSON stays the same.
//! - `tiny_seed42_undamaged_corpus_is_pinned`: the same census and triple
//!   with transit damage switched off (`corruption_rate = 0.0`).
//! - `tiny_seed42_eval_tables_are_pinned`: the evaluation tables' FNV and
//!   every model role's call and token tallies on `tiny(42)`.
//! - `scale_002_seed42_eval_is_pinned`: at the benchmark's own
//!   `at_scale(0.02, 42)`, the `[golden]` triple and Figure-1 census that
//!   `repro fig1 --scale 0.02 --seed 42` prints, the tables' FNV, the
//!   `eval-answer` item count and the ledger total.
//! - `scale_02_seed42_eval_is_pinned` (release only): the tables' FNV at
//!   `at_scale(0.2, 42)`.
//! - `scale_1_seed42_is_pinned` (`#[ignore]`d): the paper's scale.
//!
//! Every value was pinned on the change after a1bfdb4 that removed the
//! SPDF metadata object: transit damage then lands in text objects, so
//! every pin on a damaged corpus moved once. The undamaged-corpus pin
//! holds unedited at a1bfdb4 as well: no artifact ever read the metadata.

use distllm::prelude::*;

/// FNV-1a of the serialised questions, traces and index registry: the
/// triple `repro fig1` prints as its `[golden]` line.
fn golden_triple(out: &PipelineOutput) -> (u64, u64, u64) {
    let q_json = serde_json::to_string(&out.questions).expect("serialises");
    let t_json = serde_json::to_string(&out.traces).expect("serialises");
    (
        distllm::util::fnv1a(q_json.as_bytes()),
        distllm::util::fnv1a(t_json.as_bytes()),
        distllm::util::fnv1a(&out.indexes.to_bytes()),
    )
}

/// FNV-1a of the serialised evaluation tables.
fn tables_hash(run: &EvalRun) -> u64 {
    distllm::util::fnv1a(serde_json::to_string(&run.models).expect("serialises").as_bytes())
}

/// The number of graded answers: what `perfbench` divides its evaluation
/// time by.
fn answered(run: &EvalRun) -> Option<usize> {
    run.report.stages().iter().find(|s| s.name == "eval-answer").map(|s| s.items)
}

#[test]
fn tiny_seed42_artifacts_are_byte_identical_to_the_pre_redesign_pipeline() {
    let out = Pipeline::run(&PipelineConfig::tiny(42));
    assert_eq!(
        (out.chunks.len(), out.questions.len(), out.traces.len()),
        (1_864, 204, 612),
        "chunk / question / trace census moved"
    );
    assert_eq!(
        golden_triple(&out),
        (0xbbc9_e08c_55a4_97c6, 0xddec_ac96_6309_69c8, 0x2a5c_774e_6296_038a),
        "the tiny(42) artifacts (questions, traces, registry) are no longer byte-identical \
         to the golden run"
    );
}

/// With no transit damage every blob parses strictly, so this pin moves
/// only with what the pipeline makes of the documents' sections, never
/// with how the container frames them.
#[test]
fn tiny_seed42_undamaged_corpus_is_pinned() {
    let mut config = PipelineConfig::tiny(42);
    config.acquisition.corruption_rate = 0.0;
    let out = Pipeline::run(&config);
    assert_eq!(
        (out.chunks.len(), out.questions.len(), out.traces.len()),
        (1_875, 204, 612),
        "undamaged-corpus census moved"
    );
    assert_eq!(
        golden_triple(&out),
        (0xbbc9_e08c_55a4_97c6, 0xddec_ac96_6309_69c8, 0x992a_5f37_287d_87f4),
        "the undamaged tiny(42) artifacts (questions, traces, registry) moved"
    );
}

/// The evaluation on top of the tiny run: every model's calibration and
/// accuracy tables, plus the call counts, which no schedule can move.
#[test]
fn tiny_seed42_eval_tables_are_pinned() {
    let out = Pipeline::run(&PipelineConfig::tiny(42));
    let run = Evaluator::new(&out, EvalConfig::default()).run();
    assert_eq!(
        tables_hash(&run),
        0xed59_9572_5886_614e,
        "the evaluation tables are no longer byte-identical to the golden run"
    );
    assert_eq!(out.models.ledger().total().calls, 62_915, "model-call census moved");
    // Every call reaches the simulator, so every role's totals are
    // schedule-independent: they pin every prompt scaffold and how
    // `tokens_out` is derived.
    let teacher = out.models.ledger().role(distllm::llm::Role::Teacher);
    assert_eq!((teacher.calls, teacher.tokens_in, teacher.tokens_out), (2_476, 187_725, 60_349));
    let classifier = out.models.ledger().role(distllm::llm::Role::Classifier);
    assert_eq!(
        (classifier.calls, classifier.tokens_in, classifier.tokens_out),
        (335, 13_931, 1_005)
    );
    // The no-math pass re-asks full-exam questions and each re-ask is
    // served and counted again: this pins how answer requests are built
    // and counted.
    let answerer = out.models.ledger().role(distllm::llm::Role::Answerer);
    assert_eq!(
        (answerer.calls, answerer.tokens_in, answerer.tokens_out),
        (29_120, 14_194_008, 70_476)
    );
    // Quality scoring and grading: one grade per answer.
    let judge = out.models.ledger().role(distllm::llm::Role::Judge);
    assert_eq!((judge.calls, judge.tokens_in, judge.tokens_out), (30_984, 460_861, 228_575));
}

/// The benchmark's own scale (`paper-repro` runs `at_scale(0.02, seed)`):
/// the lines `repro fig1 --scale 0.02 --seed 42` prints, then the
/// evaluation. The tiny pins above run none of the batched paths a larger
/// replay takes (a group's encode batch, hundreds of members per reply),
/// so this pins them where the benchmark runs them.
#[test]
fn scale_002_seed42_eval_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::at_scale(0.02, 42));
    assert_eq!(
        (out.library.len(), out.chunks.len(), out.candidates, out.items.len()),
        (451, 3_768, 3_768, 431),
        "the Figure-1 census (docs → chunks → candidates → accepted) moved"
    );
    assert_eq!(
        golden_triple(&out),
        (0x479f_bd37_a401_abaa, 0x4a69_14e9_91aa_d25e, 0x3584_f93e_8416_b638),
        "the scale-0.02 [golden] triple (questions, traces, registry) moved"
    );

    let run = Evaluator::new(&out, EvalConfig::default()).run();
    assert_eq!(
        tables_hash(&run),
        0x6e24_a876_a6f7_e358,
        "the scale-0.02 evaluation tables are no longer byte-identical to the golden run"
    );
    assert_eq!(answered(&run), Some(38_200), "eval-answer item count moved");
    assert_eq!(out.models.ledger().total().calls, 85_564, "model-call census moved");
}

/// The evaluation tables at ten times the benchmark's scale: a replay of
/// a few thousand stems, whose scan tasks hold blocks of hundreds to
/// thousands of queries — the shapes the 0.02 pin above never builds.
/// Release-only (≈ 5 s there, minutes in debug); CI's release suite runs
/// it with `--test golden`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn scale_02_seed42_eval_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::at_scale(0.2, 42));
    let run = Evaluator::new(&out, EvalConfig::default()).run();
    assert_eq!(
        tables_hash(&run),
        0xb08c_491e_2694_cbef,
        "the scale-0.2 evaluation tables are no longer byte-identical to the golden run"
    );
}

/// The paper's own scale: 22 548 documents, a chunk store of ≈ 188 000
/// rows and replays whose scan tasks hold blocks of ≈ 11 000 stems —
/// regimes no smaller pin reaches, and where the evaluation spends most
/// of its wall. Pins the `[golden]` triple `repro fig1 --scale 1.0
/// --seed 42` prints, the evaluation tables, the run's usable-hit rates
/// and the `eval-answer` item count. `#[ignore]`d (≈ 50 s in release on
/// 2 vCPUs, 1.1 GiB peak): CI's bench job runs it with `--ignored
/// --nocapture`, so both stage reports land in the log as a paper-scale
/// timing row.
#[test]
#[ignore]
fn scale_1_seed42_is_pinned() {
    let out = Pipeline::run(&PipelineConfig::at_scale(1.0, 42));
    println!("Pipeline stage report (scale 1.0, seed 42):\n\n{}", out.report.render());
    assert_eq!(
        golden_triple(&out),
        (0x42cf_e7fc_05d2_ddb5, 0xa0b9_4dc0_494d_2d92, 0xf327_3f60_5d77_d0ff),
        "the scale-1.0 [golden] triple (questions, traces, registry) moved"
    );

    let run = Evaluator::new(&out, EvalConfig::default()).run();
    println!("Evaluation stage report (scale 1.0, seed 42):\n\n{}", run.report.render());
    assert_eq!(
        tables_hash(&run),
        0x43ca_0276_00be_c0bc,
        "the scale-1.0 evaluation tables are no longer byte-identical to the golden run"
    );
    let rates_json = serde_json::to_string(&run.rates).expect("serialises");
    assert_eq!(
        distllm::util::fnv1a(rates_json.as_bytes()),
        0x9c24_c36f_d122_9c65,
        "the scale-1.0 usable-hit rates moved: {rates_json}"
    );
    assert_eq!(answered(&run), Some(886_280), "eval-answer item count moved");
}
