//! `mcqa-llm` — the language-model substrate behind one provider API.
//!
//! Every model role in the paper travels through the [`ModelEndpoint`]
//! trait: a typed [`ModelRequest`]/[`ModelResponse`] envelope with a
//! batched completion API, a content-addressed [`ResponseCache`], and a
//! per-role [`CallLedger`] (see [`ModelHub`]). Consumers never touch a
//! backend type — they hold `Arc<dyn ModelEndpoint>` and go through the
//! thin role adapters:
//!
//! | Paper role | Adapter | Sim backend behind it |
//! |---|---|---|
//! | GPT-4.1 question generation | [`adapters::Teacher::generate_question`] | [`teacher::TeacherModel`] |
//! | GPT-4.1 trace distillation (3 modes) | [`adapters::Teacher::generate_trace`] | [`teacher::TeacherModel`] |
//! | LLM judge (quality scoring + grading) | [`adapters::Judge`] | [`judge::JudgeModel`] |
//! | GPT-5 math-question classifier | [`adapters::Classifier`] | [`math_classifier::MathClassifier`] |
//! | The eight evaluated SLMs (1.1B–14B) | [`adapters::Answerer`] | [`cards::ModelCard`] + [`answer::ResolvedModel`] |
//!
//! The backend is a config value ([`ModelSpec`] + [`build_endpoint`]),
//! mirroring the vector-store layer's `IndexSpec`: today's only backend is
//! the deterministic behavioural simulator ([`sim::SimEndpoint`]); a
//! remote/HTTP backend is a new variant, not a refactor.
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
pub mod math_classifier;
pub mod mcq;
pub mod response_cache;
pub mod sim;
pub mod solver;
pub mod spec;
pub mod teacher;
pub mod trace;

pub use adapters::{Answerer, Classifier, Judge, QuestionPrompt, Reranker, Teacher};
pub use answer::{AnswerOutcome, Condition, ResolvedModel};
pub use cards::{BenchTargets, ModelCard, GPT4_ASTRO_REFERENCE, MODEL_CARDS};
pub use context::{AssembledContext, Passage, PassageSource};
pub use endpoint::{
    DecodeParams, ModelEndpoint, ModelRequest, ModelResponse, PartKind, PromptPart, RequestPayload,
    Role, RoleOutput,
};
pub use hub::ModelHub;
pub use judge::{GradeResult, JudgeModel, QualityJudgment};
pub use ledger::{CallLedger, RoleStats};
pub use math_classifier::MathClassifier;
pub use mcq::{BenchKind, McqItem, OPTION_LETTERS};
pub use response_cache::ResponseCache;
pub use sim::SimEndpoint;
pub use solver::{resolve, PipelineRates};
pub use spec::{build_endpoint, build_hub, ModelSpec};
pub use teacher::{GeneratedQuestion, QuestionDefect, TeacherModel};
pub use trace::TraceMode;
