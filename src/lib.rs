//! # distllm-rs
//!
//! A production-quality Rust reproduction of *"Automated MCQA Benchmarking
//! at Scale: Evaluating Reasoning Traces as Retrieval Sources for Domain
//! Adaptation of Small Language Models"* (Gokdemir et al., SC '25).
//!
//! This facade crate re-exports the whole workspace and offers a
//! one-call convenience API. The subsystems:
//!
//! | Module | Paper role |
//! |---|---|
//! | [`ontology`] | the domain's ground-truth knowledge (replaces the 22k-document literature) |
//! | [`corpus`] | synthetic papers/abstracts, the SPDF container, Semantic-Scholar-style acquisition |
//! | [`parse`] | AdaParse-style adaptive parallel parsing (`core::parse`) |
//! | [`text`] | tokenisation, sentence splitting, semantic chunking |
//! | [`embed`] | the PubMedBERT stand-in encoder + FP16 storage (`index::embed`) |
//! | [`index`] | FAISS-style vector stores (Flat / HNSW / one list store: IVF + PQ) |
//! | [`lexical`] | the BM25 keyword channel + dense/lexical reciprocal rank fusion (`index::lexical`) |
//! | [`runtime`] | Parsl-style workflow runtime: one-queue thread pool, scoped ordered stages that re-raise a task's panic, stage metrics |
//! | [`llm`] | every model role served by one `ModelHub` (batched completions, response cache, call ledger) over the simulator that plays GPT-4.1, the judge, GPT-5, and the 8 SLM behaviour cards |
//! | [`serve`] | the in-process query service (admission control, dynamic micro-batching) |
//! | [`core`] | the end-to-end benchmark-generation pipeline (the paper's contribution) |
//! | [`eval`] | the three-condition evaluation protocol, Astro exam, tables & figures |
//!
//! ## Quickstart
//!
//! ```no_run
//! use distllm::prelude::*;
//!
//! // Build the benchmark at 2% of paper scale and evaluate all 8 models.
//! let output = Pipeline::run(&PipelineConfig::at_scale(0.02, 42));
//! let evaluator = Evaluator::new(&output, EvalConfig::default());
//! let run = evaluator.run();
//! println!("{}", distllm::eval::results::render_table2(&run));
//! ```

pub use mcqa_core as core;
pub use mcqa_core::parse;
pub use mcqa_corpus as corpus;
pub use mcqa_eval as eval;
pub use mcqa_index as index;
pub use mcqa_index::embed;
pub use mcqa_index::lexical;
pub use mcqa_llm as llm;
pub use mcqa_ontology as ontology;
pub use mcqa_runtime as runtime;
pub use mcqa_serve as serve;
pub use mcqa_text as text;
pub use mcqa_util as util;

/// The most common imports in one place.
pub mod prelude {
    pub use mcqa_core::{Pipeline, PipelineConfig, PipelineOutput};
    pub use mcqa_eval::{AstroExam, EvalConfig, EvalRun, Evaluator};
    pub use mcqa_index::lexical::{Fusion, LexicalIndex};
    pub use mcqa_index::{IndexRegistry, IndexSpec, VectorStore};
    pub use mcqa_llm::{answer::Condition, McqItem, ModelCard, TraceMode, MODEL_CARDS};
    pub use mcqa_ontology::{Ontology, OntologyConfig};
    pub use mcqa_runtime::{run_stage, Executor};
    pub use mcqa_serve::{QueryMode, QueryRequest, QueryService, ServeConfig};
}

/// Run the full pipeline and evaluation at a given corpus scale, returning
/// the pipeline artifacts and the evaluation results (the data behind the
/// paper's Tables 2–4 and Figures 4–6).
pub fn reproduce(scale: f64, seed: u64) -> (mcqa_core::PipelineOutput, mcqa_eval::EvalRun) {
    let output = mcqa_core::Pipeline::run(&mcqa_core::PipelineConfig::at_scale(scale, seed));
    let run = {
        let evaluator = mcqa_eval::Evaluator::new(&output, mcqa_eval::EvalConfig::default());
        evaluator.run()
    };
    (output, run)
}
