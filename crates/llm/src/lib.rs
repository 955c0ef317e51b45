//! `mcqa-llm` — the language-model substrate behind one provider API.
//!
//! Every model role in the paper travels through the [`ModelEndpoint`]
//! trait: a typed [`ModelRequest`]/[`ModelResponse`] envelope with a
//! batched completion API, a content-addressed [`ResponseCache`], and a
//! per-role [`CallLedger`] (see [`ModelHub`]). Consumers hold
//! `Arc<dyn ModelEndpoint>` and go through the thin role adapters:
//!
//! | Paper role | Adapter entry points |
//! |---|---|
//! | GPT-4.1 question generation | [`adapters::Teacher::generate_question_batch`] |
//! | GPT-4.1 trace distillation (3 modes) | [`adapters::Teacher::generate_trace_batch`] |
//! | LLM judge (quality scoring + grading) | [`adapters::Judge::score_question_batch`], [`adapters::Judge::grade`] |
//! | GPT-5 math-question classifier | [`adapters::Classifier::classify_batch`] |
//! | Cross-encoder reranker | [`adapters::Reranker::score_batch`] |
//! | The eight evaluated SLMs (1.1B–14B) | [`adapters::Answerer::answer`] ([`cards::ModelCard`] + its calibration, one [`PreparedItem`] per question) |
//!
//! There is one backend, the deterministic behavioural simulator
//! ([`sim::SimEndpoint`]), and nothing selects it: the pipeline builds
//! `ModelHub::new(Box::new(SimEndpoint::new(seed, ontology)))`. A second
//! backend is a new `impl ModelEndpoint` constructed at that line.
//!
//! ## The boundary is a visibility rule
//!
//! The simulators behind the endpoint (the teacher, judge and classifier
//! models, and the answer cascade of a [`ResolvedModel`]) are crate-private,
//! so nothing outside this crate can run one past the cache and the
//! ledger: the only way to a completion is [`ModelEndpoint::complete`]. A
//! resolved model stays nameable, because an answer request carries one
//! beside the prepared question and is addressed by both digests:
//!
//! ```
//! use mcqa_llm::{Condition, PreparedItem, ResolvedModel};
//! fn addressed(model: &ResolvedModel, item: &PreparedItem, _: Condition) -> (u64, u64) {
//!     (model.key(), item.digest())
//! }
//! ```
//!
//! but it cannot be asked to answer directly:
//!
//! ```compile_fail,E0624
//! use mcqa_llm::{Condition, McqItem, ResolvedModel};
//! fn direct(model: &ResolvedModel, item: &McqItem, condition: Condition) {
//!     model.answer(item, condition, None, 42);
//! }
//! ```
//!
//! and a simulator type cannot be named:
//!
//! ```compile_fail,E0603
//! use mcqa_llm::teacher::TeacherModel;
//! ```
//!
//! ## The calibration contract
//!
//! Model cards carry two kinds of numbers:
//!
//! * **Structural parameters** (context window, answer-format reliability,
//!   distractor-elimination skill, distraction susceptibility) — chosen
//!   a-priori per model and documented on each field;
//! * **Behavioural targets** — the paper's own Table 2/3/4 accuracy cells.
//!
//! At evaluation time the harness *measures* the pipeline's emergent
//! retrieval-hit rates (per model, per retrieval source, including context
//! -window truncation) and [`solver::resolve`] inverts the answer cascade
//! to find the per-model extraction skills that reproduce the targets
//! under those measured rates. If a target is unreachable given what
//! retrieval actually delivers, the skill clamps to `[0, 1]` and the
//! residual shows up in `repro residuals` — that is the honest boundary
//! between *calibrated behaviour* (model cards) and *emergent mechanism*
//! (retrieval, truncation, filtering).

pub mod adapters;
pub mod answer;
pub mod cards;
pub mod context;
pub mod endpoint;
pub mod hub;
pub mod judge;
pub mod ledger;
mod math_classifier;
pub mod mcq;
pub mod response_cache;
pub mod sim;
pub mod solver;
pub mod teacher;
pub mod trace;

pub use adapters::{Answerer, Classifier, Judge, QuestionPrompt, Reranker, Teacher};
pub use answer::{AnswerOutcome, Condition, ResolvedModel};
pub use cards::{BenchTargets, ModelCard, GPT4_ASTRO_REFERENCE, MODEL_CARDS};
pub use context::{AssembledContext, Passage, PassageSource};
pub use endpoint::{
    ModelEndpoint, ModelRequest, ModelResponse, PartKind, PromptPart, RequestPayload, Role,
    RoleOutput,
};
pub use hub::ModelHub;
pub use judge::{GradeResult, QualityJudgment};
pub use ledger::{CallLedger, RoleStats};
pub use mcq::{BenchKind, McqItem, PreparedItem, OPTION_LETTERS};
pub use response_cache::ResponseCache;
pub use sim::SimEndpoint;
pub use solver::{resolve, PipelineRates};
pub use teacher::{GeneratedQuestion, QuestionDefect};
pub use trace::TraceMode;
