//! The typed envelope every model call in the paper travels in.
//!
//! The paper's pipeline is, end to end, a choreography of LLM calls —
//! GPT-4.1 generating questions and distilling traces, an LLM judge
//! filtering and grading, GPT-5 classifying math items, and eight SLMs
//! answering under five retrieval conditions. Here every one of those
//! calls is one:
//!
//! * [`ModelRequest`] — prompt parts, seed, and a structured
//!   [`RequestPayload`] (what a remote model would read rendered into the
//!   prompt, and what the simulator interprets directly; it also names the
//!   [`Role`] addressed);
//! * [`ModelResponse`] — a structured [`RoleOutput`] and token-count
//!   estimates for cost accounting.
//!
//! [`crate::ModelHub`] serves them; consumers build them through the thin
//! role adapters in [`crate::adapters`].

use std::sync::Arc;

use mcqa_ontology::FactId;
use mcqa_util::StableHasher;

use crate::answer::{AnswerOutcome, Condition, ResolvedModel};
use crate::context::AssembledContext;
use crate::judge::{GradeResult, QualityJudgment};
use crate::mcq::{BenchKind, McqItem, PreparedItem};
use crate::teacher::{GeneratedQuestion, QuestionDefect};
use crate::trace::TraceMode;

/// The model roles the paper's workflow employs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// GPT-4.1: question generation and reasoning-trace distillation.
    Teacher,
    /// The LLM judge: quality scoring and answer grading.
    Judge,
    /// GPT-5: math-question classification.
    Classifier,
    /// An evaluated SLM answering one MCQ.
    Answerer,
    /// The cross-encoder rescoring fused retrieval candidates.
    Reranker,
}

impl Role {
    /// All roles in canonical order.
    pub const ALL: [Role; 5] =
        [Role::Teacher, Role::Judge, Role::Classifier, Role::Answerer, Role::Reranker];

    /// Lowercase label used in ledger lines and metrics rows.
    pub fn label(self) -> &'static str {
        match self {
            Role::Teacher => "teacher",
            Role::Judge => "judge",
            Role::Classifier => "classifier",
            Role::Answerer => "answerer",
            Role::Reranker => "reranker",
        }
    }

    /// Position in [`Role::ALL`].
    pub fn index(self) -> usize {
        match self {
            Role::Teacher => 0,
            Role::Judge => 1,
            Role::Classifier => 2,
            Role::Answerer => 3,
            Role::Reranker => 4,
        }
    }
}

/// The structured operation behind a request. A remote model would read
/// it rendered into prompt text; the simulator interprets it directly —
/// either way the payload *is* the request's semantic identity, which is
/// what makes content-addressed caching sound.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestPayload {
    /// Teacher: generate one 7-option MCQ grounded in `fact`.
    GenerateQuestion {
        /// The anchor fact (resolved against the hub's ontology).
        fact: FactId,
        /// Distinguishes multiple questions over the same fact.
        salt: String,
    },
    /// Teacher: distil one reasoning trace for `question` in `mode`.
    DistillTrace {
        /// The accepted question.
        question: GeneratedQuestion,
        /// The trace mode.
        mode: TraceMode,
    },
    /// Judge: score a candidate question 1–10.
    ScoreQuestion {
        /// The candidate.
        question: GeneratedQuestion,
        /// Salience of the tested fact (drives the score model).
        salience: f64,
    },
    /// Judge: grade a model completion against the answer key.
    GradeAnswer {
        /// The model's free-text completion.
        completion: String,
        /// Correct option index.
        correct: usize,
        /// Number of options.
        n_options: usize,
    },
    /// Classifier: does the item require mathematical reasoning?
    ClassifyMath {
        /// The exam item.
        item: McqItem,
    },
    /// Reranker: score each passage's relevance to `query` in [0, 1].
    Rerank {
        /// The retrieval query (usually a question stem).
        query: String,
        /// The candidate passages, in fused rank order.
        passages: Vec<String>,
    },
    /// Answerer: one calibrated SLM answers one MCQ.
    Answer {
        /// The behaviour card joined with its calibration, shared by every
        /// request of one evaluated card.
        model: Arc<ResolvedModel>,
        /// The question, rendered and digested once and shared by every
        /// request that asks it.
        item: Arc<PreparedItem>,
        /// The retrieval condition.
        condition: Condition,
        /// The truncated context, if any.
        context: Option<AssembledContext>,
    },
}

impl RequestPayload {
    /// The role this payload addresses.
    pub fn role(&self) -> Role {
        match self {
            RequestPayload::GenerateQuestion { .. } | RequestPayload::DistillTrace { .. } => {
                Role::Teacher
            }
            RequestPayload::ScoreQuestion { .. } | RequestPayload::GradeAnswer { .. } => {
                Role::Judge
            }
            RequestPayload::ClassifyMath { .. } => Role::Classifier,
            RequestPayload::Rerank { .. } => Role::Reranker,
            RequestPayload::Answer { .. } => Role::Answerer,
        }
    }

    /// Whether the response cache should retain completions for this
    /// payload. Teacher generation/distillation and judge quality scoring
    /// are issued exactly once per (fact, salt) / (question, mode) /
    /// candidate within a run — every such entry would be written and
    /// never read, pinning ~40% of resident cache memory at paper scale.
    /// Grading, math classification, reranking, and answering *do*
    /// repeat (the no-math re-answer pass, repeated `run_cards`,
    /// per-mode retrieval replays, ablations), so they stay cached.
    pub fn cacheable(&self) -> bool {
        !matches!(
            self,
            RequestPayload::GenerateQuestion { .. }
                | RequestPayload::DistillTrace { .. }
                | RequestPayload::ScoreQuestion { .. }
        )
    }
}

/// One completion request.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRequest {
    /// The prompt's text parts, in order: what a text model would read.
    pub parts: Vec<String>,
    /// The structured operation.
    pub payload: RequestPayload,
    /// Per-request seed (the answer cascade is keyed on it; the other
    /// simulators are seeded at construction and ignore it).
    pub seed: u64,
}

impl ModelRequest {
    /// Build a request.
    pub fn new(parts: Vec<String>, payload: RequestPayload, seed: u64) -> Self {
        Self { parts, payload, seed }
    }

    /// Content address: every field that affects the completion, walked
    /// straight into a [`StableHasher`] — each prompt part, the payload
    /// behind a per-variant tag (which fixes the role), seed. Strings,
    /// `Vec`s and `Option`s carry a length / presence prefix, floats go in
    /// as their bits, and an answer request's model and item go in as the
    /// digests they computed at construction ([`ResolvedModel::key`],
    /// [`PreparedItem::digest`]). Nothing is serialised and nothing is
    /// allocated. (A 64-bit collision would alias two requests —
    /// probability ~2⁻⁶⁴ per pair, negligible at any realistic call volume.)
    ///
    /// Keys are process-local: the [`crate::ResponseCache`] is never
    /// persisted, so this is not a wire format and may change freely.
    ///
    /// Completeness is the compiler's job. Every struct on the path is
    /// destructured without `..` and every enum matched without `_`, so a
    /// field or variant added later does not compile until the walk covers
    /// it.
    pub fn cache_key(&self) -> u64 {
        let ModelRequest { parts, payload, seed } = self;
        let mut h = StableHasher::new();
        walk_strs(&mut h, parts);
        walk_payload(&mut h, payload);
        h.write_u64(*seed);
        h.finish()
    }

    /// Prompt-token estimate. For an answer request with an assembled
    /// context, the context's real post-truncation accounting *is* the
    /// prompt size (it already covers the rendered question, the prompt
    /// scaffold, and the surviving passages — adding the parts again would
    /// double-count the question). Everything else is the parts' token
    /// counts.
    pub fn prompt_tokens(&self) -> usize {
        if let RequestPayload::Answer { context: Some(c), .. } = &self.payload {
            return c.prompt_tokens;
        }
        self.parts.iter().map(|p| mcqa_text::token_count(p)).sum()
    }
}

/// [`ModelRequest::cache_key`]'s payload step.
fn walk_payload(h: &mut StableHasher, payload: &RequestPayload) {
    match payload {
        RequestPayload::GenerateQuestion { fact: FactId(fact), salt } => {
            h.write_u32(0);
            h.write_u64(*fact);
            h.write_str(salt);
        }
        RequestPayload::DistillTrace { question, mode } => {
            h.write_u32(1);
            walk_question(h, question);
            h.write_u32(mode_tag(*mode));
        }
        RequestPayload::ScoreQuestion { question, salience } => {
            h.write_u32(2);
            walk_question(h, question);
            h.write_u64(salience.to_bits());
        }
        RequestPayload::GradeAnswer { completion, correct, n_options } => {
            h.write_u32(3);
            h.write_str(completion);
            h.write_u64(*correct as u64);
            h.write_u64(*n_options as u64);
        }
        RequestPayload::ClassifyMath { item } => {
            h.write_u32(4);
            walk_item(h, item);
        }
        RequestPayload::Rerank { query, passages } => {
            h.write_u32(5);
            h.write_str(query);
            walk_strs(h, passages);
        }
        RequestPayload::Answer { model, item, condition, context } => {
            h.write_u32(6);
            h.write_u64(model.key());
            h.write_u64(item.digest());
            match condition {
                Condition::Baseline => h.write_u32(0),
                Condition::RagChunks => h.write_u32(1),
                Condition::RagTraces(mode) => {
                    h.write_u32(2);
                    h.write_u32(mode_tag(*mode));
                }
            }
            match context {
                None => h.write_u32(0),
                Some(AssembledContext {
                    passages_in_window,
                    passages_total,
                    relevant_in_window,
                    relevant_retrieved,
                    prompt_tokens,
                }) => {
                    h.write_u32(1);
                    h.write_u64(*passages_in_window as u64);
                    h.write_u64(*passages_total as u64);
                    h.write_u32(*relevant_in_window as u32);
                    h.write_u32(*relevant_retrieved as u32);
                    h.write_u64(*prompt_tokens as u64);
                }
            }
        }
    }
}

fn walk_strs(h: &mut StableHasher, strs: &[String]) {
    h.write_u64(strs.len() as u64);
    for s in strs {
        h.write_str(s);
    }
}

fn mode_tag(mode: TraceMode) -> u32 {
    match mode {
        TraceMode::Detailed => 0,
        TraceMode::Focused => 1,
        TraceMode::Efficient => 2,
    }
}

fn walk_question(h: &mut StableHasher, question: &GeneratedQuestion) {
    let GeneratedQuestion {
        fact: FactId(fact),
        stem,
        options,
        recorded_key,
        true_key,
        defects,
        distractor_plausibility,
    } = question;
    h.write_u64(*fact);
    h.write_str(stem);
    walk_strs(h, options);
    h.write_u64(*recorded_key as u64);
    h.write_u64(*true_key as u64);
    h.write_u64(defects.len() as u64);
    for defect in defects {
        h.write_u32(match defect {
            QuestionDefect::ContextReference => 0,
            QuestionDefect::AmbiguousStem => 1,
            QuestionDefect::WrongKey => 2,
        });
    }
    h.write_u64(distractor_plausibility.to_bits());
}

/// Walk every field of `item` into `h`: a classification request's item,
/// and the digest [`PreparedItem::new`] takes once per answered question.
pub(crate) fn walk_item(h: &mut StableHasher, item: &McqItem) {
    let McqItem { qid, bench, fact: FactId(fact), stem, options, correct, difficulty, is_math } =
        item;
    h.write_u64(*qid);
    h.write_u32(match bench {
        BenchKind::Synthetic => 0,
        BenchKind::AstroExam => 1,
    });
    h.write_u64(*fact);
    h.write_str(stem);
    walk_strs(h, options);
    h.write_u64(*correct as u64);
    h.write_u64(difficulty.to_bits());
    h.write_u32(*is_math as u32);
}

/// The structured result of one completion, by role.
#[derive(Debug, Clone, PartialEq)]
pub enum RoleOutput {
    /// A generated question.
    Question(GeneratedQuestion),
    /// A distilled reasoning trace.
    Trace(String),
    /// A quality verdict.
    Quality(QualityJudgment),
    /// A grading verdict.
    Grade(GradeResult),
    /// The math-classification flag.
    MathFlag(bool),
    /// Per-passage relevance scores in [0, 1], index-aligned with the
    /// rerank request's passages.
    Relevance(Vec<f64>),
    /// An answer attempt.
    Answer(AnswerOutcome),
}

impl RoleOutput {
    /// Unwrap a question. Panics on role mismatch (a wiring bug).
    pub fn expect_question(self) -> GeneratedQuestion {
        match self {
            RoleOutput::Question(q) => q,
            other => panic!("expected a Question output, got {other:?}"),
        }
    }

    /// Unwrap a trace. Panics on role mismatch.
    pub fn expect_trace(self) -> String {
        match self {
            RoleOutput::Trace(t) => t,
            other => panic!("expected a Trace output, got {other:?}"),
        }
    }

    /// Unwrap a quality verdict. Panics on role mismatch.
    pub fn expect_quality(self) -> QualityJudgment {
        match self {
            RoleOutput::Quality(q) => q,
            other => panic!("expected a Quality output, got {other:?}"),
        }
    }

    /// Unwrap a grading verdict. Panics on role mismatch.
    pub fn expect_grade(self) -> GradeResult {
        match self {
            RoleOutput::Grade(g) => g,
            other => panic!("expected a Grade output, got {other:?}"),
        }
    }

    /// Unwrap the math flag. Panics on role mismatch.
    pub fn expect_math_flag(self) -> bool {
        match self {
            RoleOutput::MathFlag(b) => b,
            other => panic!("expected a MathFlag output, got {other:?}"),
        }
    }

    /// Unwrap relevance scores. Panics on role mismatch.
    pub fn expect_relevance(self) -> Vec<f64> {
        match self {
            RoleOutput::Relevance(r) => r,
            other => panic!("expected a Relevance output, got {other:?}"),
        }
    }

    /// Unwrap an answer. Panics on role mismatch.
    pub fn expect_answer(self) -> AnswerOutcome {
        match self {
            RoleOutput::Answer(a) => a,
            other => panic!("expected an Answer output, got {other:?}"),
        }
    }
}

/// One completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResponse {
    /// The structured output.
    pub output: RoleOutput,
    /// Prompt-token estimate for the request that produced this.
    pub tokens_in: usize,
    /// Completion-token estimate: the tokens of the completion text, which
    /// lives inside `output` (a stem, a trace, a reasoning line, …).
    pub tokens_out: usize,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn req(seed: u64) -> ModelRequest {
        ModelRequest::new(
            vec!["grade".into(), "Answer: C".into()],
            RequestPayload::GradeAnswer {
                completion: "Answer: C".into(),
                correct: 2,
                n_options: 7,
            },
            seed,
        )
    }

    #[test]
    fn role_derived_from_payload() {
        assert_eq!(req(1).payload.role(), Role::Judge);
        for r in Role::ALL {
            assert_eq!(Role::ALL[r.index()], r);
        }
        let labels: std::collections::HashSet<&str> = Role::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), 5);
        let rerank = RequestPayload::Rerank { query: "q".into(), passages: vec!["p".into()] };
        assert_eq!(rerank.role(), Role::Reranker);
        assert!(rerank.cacheable(), "rerank repeats across retrieval replays");
    }

    #[test]
    fn cache_key_is_content_addressed() {
        assert_eq!(req(1).cache_key(), req(1).cache_key());
        assert_ne!(req(1).cache_key(), req(2).cache_key(), "seed is part of the identity");
    }

    fn question() -> GeneratedQuestion {
        GeneratedQuestion {
            fact: FactId(7),
            stem: "Which kinase?".into(),
            options: vec!["TRK2".into(), "ab".into(), "c".into()],
            recorded_key: 0,
            true_key: 1,
            defects: vec![QuestionDefect::AmbiguousStem],
            distractor_plausibility: 0.5,
        }
    }

    /// One request of every payload kind, under one envelope.
    pub(crate) fn one_of_each() -> Vec<ModelRequest> {
        let context = AssembledContext {
            passages_in_window: 2,
            passages_total: 5,
            relevant_in_window: false,
            relevant_retrieved: false,
            prompt_tokens: 500,
        };
        [
            RequestPayload::GenerateQuestion { fact: FactId(7), salt: "s".into() },
            RequestPayload::DistillTrace { question: question(), mode: TraceMode::Focused },
            RequestPayload::ScoreQuestion { question: question(), salience: 0.5 },
            RequestPayload::GradeAnswer {
                completion: "Answer: C".into(),
                correct: 2,
                n_options: 7,
            },
            RequestPayload::ClassifyMath { item: crate::mcq::test_item() },
            RequestPayload::Rerank {
                query: "q".into(),
                passages: vec!["p".into(), "ab".into(), "c".into()],
            },
            RequestPayload::Answer {
                model: crate::solver::test_resolved_model(0),
                item: Arc::new(PreparedItem::new(crate::mcq::test_item())),
                condition: Condition::RagTraces(TraceMode::Focused),
                context: Some(context),
            },
        ]
        .into_iter()
        .map(|p| ModelRequest::new(vec!["s".into(), "u".into()], p, 1))
        .collect()
    }

    /// A named single-field edit of a request.
    type Edit = (&'static str, fn(&mut ModelRequest));

    /// An [`Edit`] of one field of one payload variant: `$field` is bound
    /// to `&mut` that field inside `$edit`.
    macro_rules! edit {
        ($variant:ident . $field:ident => $edit:expr) => {{
            fn apply(r: &mut ModelRequest) {
                let RequestPayload::$variant { $field, .. } = &mut r.payload else {
                    panic!("not a {} request", stringify!($variant));
                };
                $edit;
            }
            (concat!(stringify!($variant), ".", stringify!($field), ": ", stringify!($edit)), apply)
        }};
    }

    /// Swap `item` for its question with one field changed, prepared anew:
    /// a prepared item is read-only, so this is the only way to edit one.
    fn reprepare(item: &mut Arc<PreparedItem>, edit: fn(&mut McqItem)) {
        let mut question = item.item().clone();
        edit(&mut question);
        *item = Arc::new(PreparedItem::new(question));
    }

    /// Every field a request of `payload`'s kind carries, changed alone.
    /// The match is exhaustive: a new payload variant does not compile
    /// until it lists its fields here.
    fn payload_edits(payload: &RequestPayload) -> Vec<Edit> {
        match payload {
            RequestPayload::GenerateQuestion { .. } => vec![
                edit!(GenerateQuestion.fact => fact.0 += 1),
                edit!(GenerateQuestion.salt => salt.push('x')),
            ],
            RequestPayload::DistillTrace { .. } => vec![
                edit!(DistillTrace.question => question.fact.0 += 1),
                edit!(DistillTrace.question => question.stem.push('x')),
                edit!(DistillTrace.question => question.options[2].push('x')),
                edit!(DistillTrace.question => question.options.truncate(2)),
                edit!(DistillTrace.question => question.recorded_key += 1),
                edit!(DistillTrace.question => question.true_key += 1),
                edit!(DistillTrace.question => question.defects[0] = QuestionDefect::WrongKey),
                edit!(DistillTrace.question => question.defects.clear()),
                edit!(DistillTrace.question => question.distractor_plausibility = 0.25),
                edit!(DistillTrace.mode => *mode = TraceMode::Detailed),
            ],
            RequestPayload::ScoreQuestion { .. } => vec![
                edit!(ScoreQuestion.question => question.stem.push('x')),
                edit!(ScoreQuestion.question => question.defects[0] = QuestionDefect::ContextReference),
                edit!(ScoreQuestion.salience => *salience = 0.25),
            ],
            RequestPayload::GradeAnswer { .. } => vec![
                edit!(GradeAnswer.completion => completion.push('x')),
                edit!(GradeAnswer.correct => *correct += 1),
                edit!(GradeAnswer.n_options => *n_options -= 2),
            ],
            RequestPayload::ClassifyMath { .. } => vec![
                edit!(ClassifyMath.item => item.qid += 1),
                edit!(ClassifyMath.item => item.bench = BenchKind::AstroExam),
                edit!(ClassifyMath.item => item.fact.0 += 1),
                edit!(ClassifyMath.item => item.stem.push('x')),
                edit!(ClassifyMath.item => item.options[6].push('x')),
                edit!(ClassifyMath.item => item.options.truncate(6)),
                edit!(ClassifyMath.item => item.correct += 1),
                edit!(ClassifyMath.item => item.difficulty = 0.5),
                edit!(ClassifyMath.item => item.is_math = true),
            ],
            RequestPayload::Rerank { .. } => vec![
                edit!(Rerank.query => query.push('x')),
                edit!(Rerank.passages => passages[0].push('x')),
                edit!(Rerank.passages => passages.truncate(2)),
            ],
            RequestPayload::Answer { .. } => vec![
                edit!(Answer.model => *model = crate::solver::test_resolved_model(1)),
                edit!(Answer.item => reprepare(item, |q| q.qid += 1)),
                edit!(Answer.item => reprepare(item, |q| q.bench = BenchKind::AstroExam)),
                edit!(Answer.item => reprepare(item, |q| q.fact.0 += 1)),
                edit!(Answer.item => reprepare(item, |q| q.stem.push('x'))),
                edit!(Answer.item => reprepare(item, |q| q.options[0].push('x'))),
                edit!(Answer.item => reprepare(item, |q| q.correct += 1)),
                edit!(Answer.item => reprepare(item, |q| q.difficulty = 0.5)),
                edit!(Answer.item => reprepare(item, |q| q.is_math = true)),
                edit!(Answer.condition => *condition = Condition::Baseline),
                edit!(Answer.condition => *condition = Condition::RagChunks),
                edit!(Answer.condition => *condition = Condition::RagTraces(TraceMode::Efficient)),
                edit!(Answer.context => *context = None),
                edit!(Answer.context => context.as_mut().unwrap().passages_in_window += 1),
                edit!(Answer.context => context.as_mut().unwrap().passages_total += 1),
                edit!(Answer.context => context.as_mut().unwrap().relevant_in_window = true),
                edit!(Answer.context => context.as_mut().unwrap().relevant_retrieved = true),
                edit!(Answer.context => context.as_mut().unwrap().prompt_tokens += 1),
            ],
        }
    }

    #[test]
    fn cache_key_moves_with_every_single_field() {
        let envelope: [Edit; 4] = [
            ("parts[0]", |r| r.parts[0].push('x')),
            ("parts[1]", |r| r.parts[1].push('x')),
            ("parts.len()", |r| r.parts.truncate(1)),
            ("seed", |r| r.seed += 1),
        ];
        let bases = one_of_each();
        assert_eq!(bases.len(), 7);
        for (base, rebuilt) in bases.iter().zip(one_of_each()) {
            let key = base.cache_key();
            assert_eq!(
                key,
                rebuilt.cache_key(),
                "rebuilding {:?} reproduces its key",
                base.payload.role()
            );
            for (what, apply) in envelope.iter().chain(&payload_edits(&base.payload)) {
                let mut edited = base.clone();
                apply(&mut edited);
                assert_ne!(&edited, base, "`{what}` edits nothing");
                assert_ne!(edited.cache_key(), key, "`{what}` is not part of the identity");
            }
        }
        // The payload kind itself is part of the identity.
        let mut keys: Vec<u64> = bases.iter().map(ModelRequest::cache_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn cache_key_delimits_adjacent_strings() {
        // ("ab", "c") against ("a", "bc"): the same bytes in a row, split
        // elsewhere, are different requests.
        let resplit = |strs: &mut Vec<String>| {
            assert_eq!(strs[1..], ["ab", "c"]);
            strs[1] = "a".into();
            strs[2] = "bc".into();
        };
        for base in one_of_each() {
            let mut edited = base.clone();
            match &mut edited.payload {
                RequestPayload::DistillTrace { question, .. }
                | RequestPayload::ScoreQuestion { question, .. } => resplit(&mut question.options),
                RequestPayload::Rerank { passages, .. } => resplit(passages),
                _ => continue,
            }
            assert_ne!(edited.cache_key(), base.cache_key(), "{:?}", base.payload.role());
        }
        let parts = |a: &str, b: &str| {
            let mut r = req(1);
            r.parts = vec![a.into(), b.into()];
            r.cache_key()
        };
        assert_ne!(parts("ab", "c"), parts("a", "bc"));
    }

    #[test]
    fn cache_policy_follows_payload_repetition() {
        use crate::teacher::GeneratedQuestion;
        let q = GeneratedQuestion {
            fact: FactId(7),
            stem: "Which kinase?".into(),
            options: vec!["TRK2".into()],
            recorded_key: 0,
            true_key: 0,
            defects: Vec::new(),
            distractor_plausibility: 0.5,
        };
        let once_only = [
            RequestPayload::GenerateQuestion { fact: FactId(7), salt: "s".into() },
            RequestPayload::DistillTrace { question: q.clone(), mode: TraceMode::Focused },
            RequestPayload::ScoreQuestion { question: q, salience: 0.5 },
        ];
        for p in once_only {
            assert!(!p.cacheable(), "{:?} never repeats within a run", p.role());
        }
        assert!(req(1).payload.cacheable(), "grading repeats and stays cached");
    }

    #[test]
    fn prompt_tokens_count_parts_and_context() {
        let r = req(1);
        assert_eq!(r.prompt_tokens(), 1 + 2);
        let with_ctx = ModelRequest::new(
            vec!["answer the question".into()],
            RequestPayload::Answer {
                model: crate::solver::test_resolved_model(0),
                item: Arc::new(PreparedItem::new(crate::mcq::test_item())),
                condition: Condition::Baseline,
                context: Some(AssembledContext {
                    passages_in_window: 2,
                    passages_total: 5,
                    relevant_in_window: true,
                    relevant_retrieved: true,
                    prompt_tokens: 500,
                }),
            },
            42,
        );
        // The assembled context's accounting subsumes the question and
        // scaffold — parts are not added on top (no double counting).
        assert_eq!(with_ctx.prompt_tokens(), 500);
    }

    #[test]
    #[should_panic(expected = "expected a Trace")]
    fn role_output_mismatch_is_loud() {
        RoleOutput::MathFlag(true).expect_trace();
    }
}
