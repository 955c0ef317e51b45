//! The simulator behind every completion, and the typed call kinds
//! [`crate::ModelHub`] serves through it. Crate-private, so nothing reaches
//! a simulated role past the hub's ledger.
//!
//! [`Simulator`] owns the simulated teacher, judge, and classifier (all
//! seeded at construction, like a pinned deployment) plus the ontology the
//! teacher grounds questions in. Each [`Call`] kind is the typed input one
//! role reads, and completing it is a plain function of those fields (an
//! answer call also reads its seed, and carries its own
//! [`ResolvedModel`]: calibration is an evaluation-time artefact, not
//! simulator state).
//!
//! No prompt text is built. What a text model would read is a scaffold
//! around texts the caller already holds, so a call's prompt-token estimate
//! is the scaffold's constant count (each pinned against its text by a test
//! below) plus counts taken where those texts were born: a chunk record's
//! tokens, a prepared item's, an answer's. The few short texts nobody has
//! counted yet (a salt, a candidate question) are counted in place, never
//! copied.

use std::sync::Arc;

use mcqa_ontology::Ontology;
use mcqa_text::token_count;

use crate::answer::{AnswerOutcome, Condition, ResolvedModel};
use crate::context::AssembledContext;
use crate::judge::{GradeResult, JudgeModel, QualityJudgment};
use crate::ledger::Role;
use crate::math_classifier::MathClassifier;
use crate::mcq::{text_tokens, McqItem, PreparedItem};
use crate::teacher::{GeneratedQuestion, QuestionPrompt, TeacherModel};
use crate::trace::TraceMode;

/// The simulated roles.
pub(crate) struct Simulator {
    ontology: Arc<Ontology>,
    teacher: TeacherModel,
    judge: JudgeModel,
    classifier: MathClassifier,
}

impl Simulator {
    /// The simulators over `ontology`, every role seeded from `seed` (the
    /// pipeline's master seed).
    pub(crate) fn new(seed: u64, ontology: Arc<Ontology>) -> Self {
        Self {
            ontology,
            teacher: TeacherModel::new(seed),
            judge: JudgeModel::new(seed),
            classifier: MathClassifier::new(),
        }
    }
}

/// One kind of model call: the typed input its role reads.
pub(crate) trait Call: Sync {
    /// What the role returns.
    type Output: Send;
    /// The ledger row the call is tallied in.
    const ROLE: Role;

    /// Prompt-token estimate of what a text model would read.
    fn tokens_in(&self) -> usize;

    /// Complete the call: the output and its completion-token count.
    fn complete(&self, sim: &Simulator, seed: u64) -> (Self::Output, usize);
}

/// "Generate one self-contained 7-option multiple-choice question grounded
/// in the passage. Mark the correct option." + "Write question {salt} for
/// this passage.", without the salt.
const QUESTION_PROMPT_TOKENS: usize = 19;
/// "Distil a {mode} reasoning trace for the question. Withhold the final
/// answer.", the one-word mode label included.
const TRACE_PROMPT_TOKENS: usize = 12;
/// "Score the candidate question 1-10 for clarity, accuracy, distractor
/// plausibility and educational value."
const SCORE_PROMPT_TOKENS: usize = 13;
/// "Extract the chosen option letter and grade it against the key."
const GRADE_PROMPT_TOKENS: usize = 11;
/// "Does answering require mathematical reasoning or arithmetic tool use?"
const CLASSIFY_PROMPT_TOKENS: usize = 9;
/// "Answer the multiple-choice question with a single letter."
const ANSWER_PROMPT_TOKENS: usize = 8;
/// The classifier's completion, "requires_math: true" or "... false".
const MATH_FLAG_TOKENS: usize = 3;

/// Question generation: the teacher reads the fact's source passage.
impl Call for QuestionPrompt<'_> {
    type Output = GeneratedQuestion;
    const ROLE: Role = Role::Teacher;

    fn tokens_in(&self) -> usize {
        QUESTION_PROMPT_TOKENS + token_count(&self.salt) + self.passage_tokens
    }

    fn complete(&self, sim: &Simulator, _: u64) -> (GeneratedQuestion, usize) {
        let q = sim.teacher.generate_question(&sim.ontology, self.fact, &self.salt);
        let tokens = token_count(&q.stem);
        (q, tokens)
    }
}

/// Trace distillation for an accepted question, answer withheld.
impl Call for (&McqItem, TraceMode) {
    type Output = String;
    const ROLE: Role = Role::Teacher;

    fn tokens_in(&self) -> usize {
        let (item, _) = self;
        TRACE_PROMPT_TOKENS + text_tokens(&item.stem, &item.options)
    }

    fn complete(&self, sim: &Simulator, _: u64) -> (String, usize) {
        let (item, mode) = *self;
        let trace = sim.teacher.generate_trace(&sim.ontology, item, mode);
        let tokens = token_count(&trace);
        (trace, tokens)
    }
}

/// Quality scoring of a candidate question, given its fact's salience.
impl Call for (&GeneratedQuestion, f64) {
    type Output = QualityJudgment;
    const ROLE: Role = Role::Judge;

    fn tokens_in(&self) -> usize {
        let (question, _) = self;
        SCORE_PROMPT_TOKENS + text_tokens(&question.stem, &question.options)
    }

    fn complete(&self, sim: &Simulator, _: u64) -> (QualityJudgment, usize) {
        let (question, salience) = *self;
        let judgment = sim.judge.score_question(question, salience);
        let tokens = token_count(&judgment.reasoning);
        (judgment, tokens)
    }
}

/// Grading one answer against the key.
pub(crate) struct Grade<'a> {
    pub(crate) answer: &'a AnswerOutcome,
    pub(crate) correct: usize,
    pub(crate) n_options: usize,
}

impl Call for Grade<'_> {
    type Output = GradeResult;
    const ROLE: Role = Role::Judge;

    fn tokens_in(&self) -> usize {
        GRADE_PROMPT_TOKENS + self.answer.tokens()
    }

    fn complete(&self, sim: &Simulator, _: u64) -> (GradeResult, usize) {
        let grade = sim.judge.grade(&self.answer.text, self.correct, self.n_options);
        let tokens = token_count(&grade.reasoning);
        (grade, tokens)
    }
}

/// Math classification of an exam item.
impl Call for McqItem {
    type Output = bool;
    const ROLE: Role = Role::Classifier;

    fn tokens_in(&self) -> usize {
        CLASSIFY_PROMPT_TOKENS + self.prompt_tokens()
    }

    fn complete(&self, sim: &Simulator, _: u64) -> (bool, usize) {
        (sim.classifier.requires_math(self), MATH_FLAG_TOKENS)
    }
}

/// One calibrated model answering one prepared question.
pub(crate) struct Answer<'a> {
    pub(crate) model: &'a ResolvedModel,
    pub(crate) item: &'a PreparedItem,
    pub(crate) condition: Condition,
    pub(crate) context: Option<&'a AssembledContext>,
}

impl Call for Answer<'_> {
    type Output = AnswerOutcome;
    const ROLE: Role = Role::Answerer;

    /// With an assembled context, its accounting *is* the prompt size (it
    /// already covers the question, the scaffold and the passages); a
    /// baseline answer reads the scaffold and the question.
    fn tokens_in(&self) -> usize {
        match self.context {
            Some(context) => context.prompt_tokens,
            None => ANSWER_PROMPT_TOKENS + self.item.tokens(),
        }
    }

    fn complete(&self, _: &Simulator, seed: u64) -> (AnswerOutcome, usize) {
        let answer = self.model.answer(self.item.item(), self.condition, self.context, seed);
        let tokens = answer.tokens();
        (answer, tokens)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mcq::test_item;
    use mcqa_ontology::{Fact, OntologyConfig};

    fn simulator() -> Simulator {
        let ontology = Arc::new(Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 400,
            quantitative_facts: 20,
        }));
        Simulator::new(42, ontology)
    }

    /// A question-generation call anchored to `fact`.
    pub(crate) fn prompt<'a>(fact: &'a Fact, salt: &str) -> QuestionPrompt<'a> {
        QuestionPrompt { fact, salt: salt.into(), passage_tokens: 2 }
    }

    #[test]
    fn scaffold_counts_are_the_scaffold_texts() {
        let scaffolds = [
            (
                QUESTION_PROMPT_TOKENS,
                "Generate one self-contained 7-option multiple-choice question grounded \
                 in the passage. Mark the correct option. Write question for this passage.",
            ),
            (
                SCORE_PROMPT_TOKENS,
                "Score the candidate question 1-10 for clarity, accuracy, distractor \
                 plausibility and educational value.",
            ),
            (GRADE_PROMPT_TOKENS, "Extract the chosen option letter and grade it against the key."),
            (
                CLASSIFY_PROMPT_TOKENS,
                "Does answering require mathematical reasoning or arithmetic tool use?",
            ),
            (ANSWER_PROMPT_TOKENS, "Answer the multiple-choice question with a single letter."),
            (MATH_FLAG_TOKENS, "requires_math: true"),
            (MATH_FLAG_TOKENS, "requires_math: false"),
        ];
        for (tokens, text) in scaffolds {
            assert_eq!(tokens, token_count(text), "{text}");
        }
        for mode in TraceMode::ALL {
            let text = format!(
                "Distil a {} reasoning trace for the question. Withhold the final answer.",
                mode.label()
            );
            assert_eq!(TRACE_PROMPT_TOKENS, token_count(&text), "{text}");
        }
    }

    /// Every typed count equals the prompt a text model would read, rendered
    /// and tokenised as one text.
    #[test]
    fn prompt_counts_equal_the_rendered_prompts() {
        let sim = simulator();
        let fact = &sim.ontology.facts()[5];
        let passage = "TRK2 activates the MAPK pathway after irradiation.";
        let question =
            QuestionPrompt { fact, salt: "4411".into(), passage_tokens: token_count(passage) };
        assert_eq!(
            question.tokens_in(),
            token_count(&format!(
                "Generate one self-contained 7-option multiple-choice question grounded \
                 in the passage. Mark the correct option.\n{passage}\nWrite question 4411 for \
                 this passage."
            ))
        );
        let generated = question.complete(&sim, 42).0;
        let as_text = format!("{}\n{}", generated.stem, generated.options.join("\n"));
        let item = test_item();
        let item_text = format!("{}\n{}", item.stem, item.options.join("\n"));
        for mode in TraceMode::ALL {
            let scaffold = format!(
                "Distil a {} reasoning trace for the question. Withhold the final answer.",
                mode.label()
            );
            assert_eq!((&item, mode).tokens_in(), token_count(&format!("{scaffold}\n{item_text}")));
        }
        assert_eq!(
            (&generated, 0.5).tokens_in(),
            token_count(&format!(
                "Score the candidate question 1-10 for clarity, accuracy, distractor \
                 plausibility and educational value.\n{as_text}"
            ))
        );
        assert_eq!(
            item.tokens_in(),
            token_count(&format!(
                "Does answering require mathematical reasoning or arithmetic tool use?\n{}",
                item.render()
            ))
        );
        let model = crate::solver::test_resolved_model(0);
        let prepared = PreparedItem::new(item.clone());
        let baseline = Answer {
            model: &model,
            item: &prepared,
            condition: Condition::Baseline,
            context: None,
        };
        assert_eq!(
            baseline.tokens_in(),
            token_count(&format!(
                "Answer the multiple-choice question with a single letter.\n{}",
                item.render()
            ))
        );
        let answer = baseline.complete(&sim, 42).0;
        let grade = Grade { answer: &answer, correct: 2, n_options: 7 };
        assert_eq!(
            grade.tokens_in(),
            token_count(&format!(
                "Extract the chosen option letter and grade it against the key.\n{}",
                answer.text
            ))
        );
        // The assembled context's accounting subsumes the question and the
        // scaffold: nothing is added on top.
        let context = AssembledContext { passages: 2, relevant: true, prompt_tokens: 500 };
        assert_eq!(Answer { context: Some(&context), ..baseline }.tokens_in(), 500);
    }

    /// A completion's count is the count of the text its output carries.
    #[test]
    fn completion_counts_are_the_output_texts() {
        let sim = simulator();
        let fact = &sim.ontology.facts()[3];
        let (q, tokens) = prompt(fact, "salt").complete(&sim, 42);
        assert_eq!(tokens, token_count(&q.stem));
        let item = test_item();
        let (trace, tokens) = (&item, TraceMode::Focused).complete(&sim, 42);
        assert_eq!(tokens, token_count(&trace));
        let (judgment, tokens) = (&q, 0.5).complete(&sim, 42);
        assert_eq!(tokens, token_count(&judgment.reasoning));
        let (flag, tokens) = item.complete(&sim, 42);
        assert_eq!(tokens, token_count(&format!("requires_math: {flag}")));
        let model = crate::solver::test_resolved_model(1);
        let prepared = PreparedItem::new(item);
        for condition in Condition::all() {
            let answer = Answer { model: &model, item: &prepared, condition, context: None }
                .complete(&sim, 7);
            assert_eq!(answer.1, token_count(&answer.0.text));
            let grade = Grade { answer: &answer.0, correct: 2, n_options: 7 }.complete(&sim, 7);
            assert_eq!(grade.1, token_count(&grade.0.reasoning));
        }
    }

    #[test]
    fn matches_the_wrapped_role_models() {
        // The simulator is a reroute, not a reimplementation: outputs must
        // equal the wrapped role models' exactly.
        let sim = simulator();
        let f = &sim.ontology.facts()[3];
        let direct = sim.teacher.generate_question(&sim.ontology, f, "salt");
        assert_eq!(prompt(f, "salt").complete(&sim, 42).0, direct);
        assert_eq!(direct.options.len(), 7);
        let score = (&direct, f.salience).complete(&sim, 42).0;
        assert!((1..=10).contains(&score.score));
        let item = test_item();
        let trace = (&item, TraceMode::Focused).complete(&sim, 42).0;
        assert_eq!(trace, sim.teacher.generate_trace(&sim.ontology, &item, TraceMode::Focused));
        assert!(!trace.contains(item.correct_text()));
    }
}
