//! `mcqa-llm` — the language-model substrate behind one model hub.
//!
//! Every model role in the paper is served by [`ModelHub`]: one typed entry
//! point per call kind (typed inputs in, the role's own output type out)
//! and a per-role `CallLedger`. Consumers share one `Arc<ModelHub>`:
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
//! its texts were born. Nothing is cached: a completion is a pure function
//! of the call's fields and seed, so every call, repeated or not, runs the
//! simulator and is tallied.
//!
//! ## The boundary is a visibility rule
//!
//! The simulators behind the hub (the teacher, judge and classifier
//! models, and the answer cascade of a [`ResolvedModel`]) are crate-private,
//! so nothing outside this crate can run one past the ledger: the only way
//! to a completion is a [`ModelHub`] entry point. A resolved model stays
//! nameable, because an answer call takes one beside the prepared question:
//!
//! ```
//! use mcqa_llm::{Condition, ModelHub, PreparedItem, ResolvedModel};
//! fn ask(hub: &ModelHub, model: &ResolvedModel, item: &PreparedItem, c: Condition) -> bool {
//!     let answer = hub.answer(42, model, item, c, None);
//!     let question = item.item();
//!     hub.grade(42, &answer, question.correct, question.options.len()).correct
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
//! fn unledgered(hub: &ModelHub) {
//!     let _ = &hub.sim;
//! }
//! ```
//!
//! ## The calibration contract
//!
//! Model cards carry two kinds of numbers:
//!
//! * **Structural parameters** (answer-format reliability,
//!   distractor-elimination skill, distraction susceptibility) — chosen
//!   a-priori per model and documented on each field;
//! * **Behavioural targets** — the paper's own Table 2/3/4 accuracy cells.
//!
//! At evaluation time the harness *measures* the pipeline's emergent
//! retrieval-hit rates (one set per run, per retrieval source) and
//! [`solver::resolve`] inverts the answer cascade
//! to find the per-model extraction skills that reproduce the targets
//! under those measured rates. If a target is unreachable given what
//! retrieval actually delivers, the skill clamps to `[0, 1]` and the
//! residual shows up in `repro residuals` — that is the honest boundary
//! between *calibrated behaviour* (model cards) and *emergent mechanism*
//! (retrieval, filtering).

pub mod answer;
pub mod cards;
pub mod context;
pub(crate) mod hub;
pub(crate) mod judge;
pub(crate) mod ledger;
mod math_classifier;
pub(crate) mod mcq;
mod sim;
pub mod solver;
pub(crate) mod teacher;
pub(crate) mod trace;

pub use answer::{Condition, ResolvedModel};
pub use cards::{BenchTargets, ModelCard, GPT4_ASTRO_REFERENCE, MODEL_CARDS};
pub use context::AssembledContext;
pub use hub::ModelHub;
pub use ledger::{Role, RoleStats};
pub use mcq::{BenchKind, McqItem, PreparedItem, OPTION_LETTERS};
pub use solver::{resolve, PipelineRates};
pub use teacher::{GeneratedQuestion, QuestionPrompt};
pub use trace::TraceMode;
