//! `mcqa-llm` — the language-model substrate behind one model hub.
//!
//! Every model role in the paper is served by [`ModelHub`]: one typed entry
//! point per call kind (typed inputs in, the role's own output type out),
//! content-addressed `ResponseCaches` for the kinds that repeat, and a
//! per-role `CallLedger`. Consumers share one `Arc<ModelHub>`:
//!
//! | Paper role | Entry points |
//! |---|---|
//! | GPT-4.1 question generation | [`ModelHub::questions`] (the pipeline's `generate+judge` stage) |
//! | GPT-4.1 trace distillation (3 modes) | [`ModelHub::traces`] (the pipeline's `traces` stage) |
//! | LLM judge (quality scoring + grading) | [`ModelHub::quality_scores`], [`ModelHub::grade`] |
//! | GPT-5 math-question classifier | [`ModelHub::math_flags`] |
//! | The eight evaluated SLMs (1.1B–14B) | [`ModelHub::answer`] (a [`ResolvedModel`] — [`cards::ModelCard`] + its calibration — and one [`PreparedItem`] per question) |
//!
//! Every completion comes from one deterministic behavioural simulator,
//! which the hub owns: the pipeline builds `ModelHub::new(seed, ontology)`
//! and nothing selects a backend. No call builds prompt text: the simulator
//! reads typed fields, and a call's token estimate adds counts taken where
//! its texts were born.
//!
//! ## The boundary is a visibility rule
//!
//! The simulators behind the hub (the teacher, judge and classifier
//! models, and the answer cascade of a [`ResolvedModel`]) are crate-private,
//! so nothing outside this crate can run one past the caches and the
//! ledger: the only way to a completion is a [`ModelHub`] entry point. A
//! resolved model stays nameable, because an answer call takes one beside
//! the prepared question and is addressed by both digests:
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
//! and a simulator type cannot be named — neither one role's model:
//!
//! ```compile_fail,E0603
//! use mcqa_llm::teacher::TeacherModel;
//! ```
//!
//! nor the simulator the hub serves every role from:
//!
//! ```compile_fail,E0603
//! use mcqa_llm::sim::Simulator;
//! ```
//!
//! and the one a hub owns cannot be reached through it:
//!
//! ```compile_fail,E0616
//! use mcqa_llm::ModelHub;
//! fn uncached(hub: &ModelHub) {
//!     let _ = &hub.sim;
//! }
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

pub mod answer;
pub mod cards;
pub mod context;
pub(crate) mod hub;
pub(crate) mod judge;
pub(crate) mod ledger;
mod math_classifier;
pub(crate) mod mcq;
pub(crate) mod response_cache;
mod sim;
pub mod solver;
pub(crate) mod teacher;
pub(crate) mod trace;

pub use answer::{Condition, ResolvedModel};
pub use cards::{BenchTargets, ModelCard, GPT4_ASTRO_REFERENCE, MODEL_CARDS};
pub use context::{AssembledContext, Passage};
pub use hub::ModelHub;
pub use ledger::{Role, RoleStats};
pub use mcq::{BenchKind, McqItem, PreparedItem, OPTION_LETTERS};
pub use solver::{resolve, PipelineRates};
pub use teacher::{GeneratedQuestion, QuestionPrompt};
pub use trace::TraceMode;
