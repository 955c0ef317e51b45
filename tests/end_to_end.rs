//! Cross-crate integration tests: the full pipeline → evaluation path.

use distllm::core::schema::to_jsonl_document;
use distllm::eval::results::{figure_series, FigureSeries};
use distllm::prelude::*;

fn fixture() -> &'static (PipelineOutput, EvalRun) {
    static OUT: std::sync::OnceLock<(PipelineOutput, EvalRun)> = std::sync::OnceLock::new();
    OUT.get_or_init(|| {
        let output = Pipeline::run(&PipelineConfig::tiny(42));
        let run = {
            let evaluator = Evaluator::new(&output, EvalConfig::default());
            evaluator.run()
        };
        (output, run)
    })
}

#[test]
fn pipeline_stage_census_matches_figure1() {
    let (output, _) = fixture();
    let stages: Vec<&str> = output.report.stages().iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        stages,
        vec![
            "acquire",
            "ingest-scan",
            "parse",
            "chunk",
            "ingest-chunks",
            "index-chunks",
            "index-lex-chunks",
            "generate+judge",
            "traces",
            "embed-traces",
            "index-traces-detailed",
            "index-lex-traces-detailed",
            "index-traces-focused",
            "index-lex-traces-focused",
            "index-traces-efficient",
            "index-lex-traces-efficient",
            "model-teacher",
            "model-judge",
        ],
        "workflow stages must match the paper's Figure 1 (plus the ingest planner's scan and \
         merge rows, a build row per vector DB, its lexical sibling, and a model-layer cost \
         row per role the pipeline called)"
    );
    // Parsing is allowed (and expected) to lose a few corrupt documents,
    // but must recover the overwhelming majority.
    let parse = &output.report.stages()[2];
    assert!(parse.success_rate() > 0.95, "parse success {}", parse.success_rate());
}

#[test]
fn provenance_chain_is_closed_end_to_end() {
    // question → chunk → document → fact: every link must resolve, and the
    // fact must really be stated in the chunk text.
    let (output, _) = fixture();
    for (record, item) in output.questions.iter().zip(&output.items) {
        let chunk = output
            .chunks
            .iter()
            .find(|c| c.chunk_id == record.provenance.chunk_id)
            .expect("chunk resolves");
        let doc = output.library.document(chunk.doc).expect("document resolves");
        assert_eq!(doc.id.0, record.provenance.doc_id);

        if record.relevance_check {
            let fact = output.ontology.fact(item.fact).expect("fact resolves");
            // The chunk's oracle already guarantees sentence containment;
            // additionally the chunk text must mention the subject entity.
            let subject = &output.ontology.registry().get(fact.subject).name;
            assert!(
                chunk.text.contains(subject.as_str()),
                "chunk {} lacks subject {subject}",
                chunk.chunk_id
            );
        }
    }
}

#[test]
fn no_trace_leaks_its_answer() {
    let (output, _) = fixture();
    for trace in &output.traces {
        let item = &output.items[trace.question_id as usize];
        assert!(!trace.trace.contains(item.correct_text()));
        assert!(trace.answer_excluded);
    }
}

#[test]
fn headline_result_emerges() {
    // RT ≥ chunks ≥ baseline on the synthetic benchmark for every model,
    // and relative gains anticorrelate with model strength.
    let (_, run) = fixture();
    assert_eq!(run.models.len(), 8);
    for m in &run.models {
        let base = m.synth_accuracy(Condition::Baseline);
        let chunks = m.synth_accuracy(Condition::RagChunks);
        let rt = m.synth_best_rt();
        assert!(chunks > base - 0.03, "{}: {chunks:.3} vs {base:.3}", m.name);
        assert!(rt > chunks - 0.03, "{}: {rt:.3} vs {chunks:.3}", m.name);
        assert!(rt > base, "{}", m.name);
    }
    let fig4 = figure_series(run, FigureSeries::Fig4Synthetic);
    let tiny = fig4.iter().find(|p| p.model.contains("TinyLlama")).unwrap();
    assert!(
        tiny.rt_vs_baseline_pct > 150.0,
        "TinyLlama must gain dramatically: {:.0}%",
        tiny.rt_vs_baseline_pct
    );
}

#[test]
fn astro_exam_accounting_matches_paper() {
    let (_, run) = fixture();
    assert_eq!(run.astro_questions, 335, "337 − 2 multimodal");
    assert!(
        (180..=200).contains(&run.astro_nomath_questions),
        "no-math subset {} should be near the paper's 189",
        run.astro_nomath_questions
    );
}

#[test]
fn astro_chunk_rag_hurts_olmo() {
    // The paper's most counter-intuitive cell: OLMo-7B drops from 0.446 to
    // 0.269 when given chunk RAG on the exam.
    let (_, run) = fixture();
    let olmo = run.models.iter().find(|m| m.name == "OLMo-7B").unwrap();
    let base = olmo.astro_all_accuracy(Condition::Baseline);
    let chunks = olmo.astro_all_accuracy(Condition::RagChunks);
    assert!(
        chunks < base - 0.05,
        "OLMo chunk-RAG regression must reproduce: {chunks:.3} vs {base:.3}"
    );
}

#[test]
fn several_models_beat_gpt4_reference_with_traces() {
    let (_, run) = fixture();
    let above = run
        .models
        .iter()
        .filter(|m| m.astro_best_rt().0 > distllm::llm::GPT4_ASTRO_REFERENCE)
        .count();
    assert!(above >= 2, "paper: several SLMs surpass GPT-4 with RT ({above})");
}

#[test]
fn determinism_pipeline_and_eval() {
    let a = Pipeline::run(&PipelineConfig::tiny(7));
    let b = Pipeline::run(&PipelineConfig::tiny(7));
    assert_eq!(a.questions, b.questions);
    let run_a = Evaluator::new(&a, EvalConfig::default()).run_cards(&MODEL_CARDS[..2]);
    let run_b = Evaluator::new(&b, EvalConfig::default()).run_cards(&MODEL_CARDS[..2]);
    for (ma, mb) in run_a.models.iter().zip(&run_b.models) {
        for ((ca, aa), (cb, ab)) in ma.synth.iter().zip(&mb.synth) {
            assert_eq!(ca.label(), cb.label());
            assert_eq!(aa, ab, "{}: {}", ma.name, ca.label());
        }
    }
}

#[test]
fn index_registry_roundtrips_to_bytes() {
    // The four vector DBs persist as one self-describing blob and decode
    // to stores with identical search behaviour — the FAISS-on-disk shape
    // of the paper's deployment.
    let (output, _) = fixture();
    let bytes = output.indexes.to_bytes();
    let back = distllm::index::IndexRegistry::from_bytes(&bytes).expect("registry decodes");
    assert_eq!(back.names(), output.indexes.names());
    let q = output.encoder.encode(&output.items[0].stem);
    for (name, store) in back.iter() {
        assert_eq!(store.search(&q, 5), output.indexes.expect_store(name).search(&q, 5), "{name}");
    }
}

#[test]
fn jsonl_artifacts_roundtrip() {
    // Each JSONL line parses back to a JSON object carrying the record's
    // Figure-2 / Figure-3 fields with the record's values.
    let (output, _) = fixture();
    let questions = &output.questions[..25];
    let doc = to_jsonl_document(questions);
    assert_eq!(doc.lines().count(), questions.len());
    for (line, q) in doc.lines().zip(questions) {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["question_id"].as_u64(), Some(q.question_id));
        assert_eq!(v["question"].as_str(), Some(q.question.as_str()));
        assert_eq!(v["answer_letter"].as_str(), Some(q.answer_letter.to_string().as_str()));
        assert_eq!(v["provenance"]["chunk_id"].as_u64(), Some(q.provenance.chunk_id));
        assert_eq!(v["provenance"]["file_path"].as_str(), Some(q.provenance.file_path.as_str()));
        assert_eq!(v["quality"]["score"].as_u64(), Some(u64::from(q.quality.score)));
        assert_eq!(v["relevance_check"].as_bool(), Some(q.relevance_check));
    }
    let traces = &output.traces[..25];
    let doc = to_jsonl_document(traces);
    assert_eq!(doc.lines().count(), traces.len());
    for (line, t) in doc.lines().zip(traces) {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["trace_id"].as_u64(), Some(t.trace_id));
        assert_eq!(v["question_id"].as_u64(), Some(t.question_id));
        assert_eq!(v["mode"].as_str(), Some(format!("{:?}", t.mode).as_str()));
        assert_eq!(v["trace"].as_str(), Some(t.trace.as_str()));
        assert_eq!(v["answer_excluded"].as_bool(), Some(true));
    }
}
