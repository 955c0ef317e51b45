//! `mcqa-eval` — the paper's evaluation protocol (§2.2, §3).
//!
//! Eight SLMs are tested under three conditions — baseline, RAG from paper
//! chunks, RAG from reasoning traces (three modes) — on two benchmarks:
//! the pipeline's synthetic MCQs and a synthetic stand-in for the 2023
//! ASTRO Radiation and Cancer Biology exam.
//!
//! * [`retrieval`] — per-question retrieval over the pipeline's vector
//!   stores, with ground-truth relevance labels from the provenance
//!   oracle.
//! * `astro` — the exam generator: 337 questions (2 multimodal excluded,
//!   146 mathematical), written in exam register from the same ontology.
//! * `protocol` — the evaluator: measures usable-hit rates per model
//!   (including real context-window truncation), calibrates the model
//!   cards against them, runs all model × condition × question answers in
//!   parallel, and grades them with the LLM judge.
//! * [`results`] — Tables 2/3/4 and Figures 4/5/6, rendered in the
//!   paper's layout with paper-vs-measured deltas.
//!
//! Retrieval reaches the stores only through `mcqa-serve`'s query service
//! and the registry the pipeline output carries. This crate does not
//! depend on `mcqa-index`, so it cannot name a backend:
//!
//! ```compile_fail,E0432
//! use mcqa_index::FlatIndex;
//! ```

pub(crate) mod astro;
pub(crate) mod protocol;
pub mod results;
pub mod retrieval;

pub use astro::AstroExam;
pub use protocol::{EvalConfig, EvalRun, Evaluator, ModelEval};
pub use results::{render_fig, render_table2, render_table3, render_table4, FigureSeries};
pub use retrieval::{RetrievalBundle, Source};
