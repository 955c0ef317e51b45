//! Thin role adapters over `Arc<dyn ModelEndpoint>`.
//!
//! These are the only model types `mcqa-core` and `mcqa-eval` can call
//! (the simulators are crate-private): each adapter builds typed
//! [`ModelRequest`]s for its role, routes them through the endpoint — the
//! batched API for every pipeline stage, one call per item for the
//! grade-and-answer loop inside the evaluator's own stage — and parses the
//! [`crate::RoleOutput`] back into domain types.

use std::sync::Arc;

use mcqa_ontology::FactId;
use mcqa_runtime::Executor;

use crate::answer::{AnswerOutcome, Condition, ResolvedModel};
use crate::cards::ModelCard;
use crate::context::AssembledContext;
use crate::endpoint::{ModelEndpoint, ModelRequest, PromptPart, RequestPayload};
use crate::judge::{GradeResult, QualityJudgment};
use crate::mcq::{McqItem, PreparedItem};
use crate::solver::Calibration;
use crate::teacher::GeneratedQuestion;
use crate::trace::TraceMode;

/// One question-generation prompt: the anchor fact plus the source
/// passage the teacher reads.
pub struct QuestionPrompt<'a> {
    /// The fact the question must test.
    pub fact: FactId,
    /// Distinguishes multiple questions over the same fact.
    pub salt: String,
    /// The source chunk's text (context for the teacher; counted in the
    /// prompt-token estimate, as in a real deployment).
    pub passage: &'a str,
}

/// The teacher (GPT-4.1's roles): MCQ generation + trace distillation.
#[derive(Clone)]
pub struct Teacher {
    endpoint: Arc<dyn ModelEndpoint>,
    seed: u64,
}

impl Teacher {
    /// An adapter over `endpoint`.
    pub fn new(endpoint: Arc<dyn ModelEndpoint>, seed: u64) -> Self {
        Self { endpoint, seed }
    }

    fn question_request(&self, p: &QuestionPrompt<'_>) -> ModelRequest {
        ModelRequest::new(
            vec![
                PromptPart::system(
                    "Generate one self-contained 7-option multiple-choice question grounded \
                     in the passage. Mark the correct option.",
                ),
                PromptPart::context(p.passage),
                PromptPart::user(format!("Write question {} for this passage.", p.salt)),
            ],
            RequestPayload::GenerateQuestion { fact: p.fact, salt: p.salt.clone() },
            self.seed,
        )
    }

    fn trace_request(&self, question: &GeneratedQuestion, mode: TraceMode) -> ModelRequest {
        ModelRequest::new(
            vec![
                PromptPart::system(format!(
                    "Distil a {} reasoning trace for the question. Withhold the final answer.",
                    mode.label()
                )),
                PromptPart::user(format!("{}\n{}", question.stem, question.options.join("\n"))),
            ],
            RequestPayload::DistillTrace { question: question.clone(), mode },
            self.seed,
        )
    }

    /// Generate MCQs for a whole batch of prompts on `exec`'s pool
    /// (index-aligned with `prompts`).
    pub fn generate_question_batch(
        &self,
        exec: &Executor,
        prompts: &[QuestionPrompt<'_>],
    ) -> Vec<GeneratedQuestion> {
        let reqs: Vec<ModelRequest> = prompts.iter().map(|p| self.question_request(p)).collect();
        self.endpoint
            .complete_batch(exec, &reqs)
            .into_iter()
            .map(|r| r.output.expect_question())
            .collect()
    }

    /// Distil a batch of traces, answers withheld, on `exec`'s pool.
    pub fn generate_trace_batch(
        &self,
        exec: &Executor,
        prompts: &[(&GeneratedQuestion, TraceMode)],
    ) -> Vec<String> {
        let reqs: Vec<ModelRequest> =
            prompts.iter().map(|(q, m)| self.trace_request(q, *m)).collect();
        self.endpoint
            .complete_batch(exec, &reqs)
            .into_iter()
            .map(|r| r.output.expect_trace())
            .collect()
    }
}

/// The LLM judge: quality scoring and answer grading.
#[derive(Clone)]
pub struct Judge {
    endpoint: Arc<dyn ModelEndpoint>,
    seed: u64,
}

impl Judge {
    /// An adapter over `endpoint`.
    pub fn new(endpoint: Arc<dyn ModelEndpoint>, seed: u64) -> Self {
        Self { endpoint, seed }
    }

    fn score_request(&self, question: &GeneratedQuestion, salience: f64) -> ModelRequest {
        ModelRequest::new(
            vec![
                PromptPart::system(
                    "Score the candidate question 1-10 for clarity, accuracy, distractor \
                     plausibility and educational value.",
                ),
                PromptPart::user(format!("{}\n{}", question.stem, question.options.join("\n"))),
            ],
            RequestPayload::ScoreQuestion { question: question.clone(), salience },
            self.seed,
        )
    }

    fn grade_request(&self, completion: &str, correct: usize, n_options: usize) -> ModelRequest {
        ModelRequest::new(
            vec![
                PromptPart::system(
                    "Extract the chosen option letter and grade it against the key.",
                ),
                PromptPart::user(completion),
            ],
            RequestPayload::GradeAnswer { completion: completion.to_string(), correct, n_options },
            self.seed,
        )
    }

    /// Score a batch of candidates on `exec`'s pool.
    pub fn score_question_batch(
        &self,
        exec: &Executor,
        prompts: &[(&GeneratedQuestion, f64)],
    ) -> Vec<QualityJudgment> {
        let reqs: Vec<ModelRequest> =
            prompts.iter().map(|(q, s)| self.score_request(q, *s)).collect();
        self.endpoint
            .complete_batch(exec, &reqs)
            .into_iter()
            .map(|r| r.output.expect_quality())
            .collect()
    }

    /// Grade one model completion against the key.
    pub fn grade(&self, completion: &str, correct: usize, n_options: usize) -> GradeResult {
        self.endpoint
            .complete(&self.grade_request(completion, correct, n_options))
            .output
            .expect_grade()
    }
}

/// The math-question classifier (GPT-5's role).
#[derive(Clone)]
pub struct Classifier {
    endpoint: Arc<dyn ModelEndpoint>,
    seed: u64,
}

impl Classifier {
    /// An adapter over `endpoint`.
    pub fn new(endpoint: Arc<dyn ModelEndpoint>, seed: u64) -> Self {
        Self { endpoint, seed }
    }

    fn request(&self, item: &McqItem) -> ModelRequest {
        ModelRequest::new(
            vec![
                PromptPart::system(
                    "Does answering require mathematical reasoning or arithmetic tool use?",
                ),
                PromptPart::user(item.render()),
            ],
            RequestPayload::ClassifyMath { item: item.clone() },
            self.seed,
        )
    }

    /// Classify a batch of items on `exec`'s pool.
    pub fn classify_batch(&self, exec: &Executor, items: &[McqItem]) -> Vec<bool> {
        let reqs: Vec<ModelRequest> = items.iter().map(|i| self.request(i)).collect();
        self.endpoint
            .complete_batch(exec, &reqs)
            .into_iter()
            .map(|r| r.output.expect_math_flag())
            .collect()
    }
}

/// The cross-encoder reranker: rescoring retrieved passages against the
/// query text (the optional final stage of hybrid retrieval).
#[derive(Clone)]
pub struct Reranker {
    endpoint: Arc<dyn ModelEndpoint>,
    seed: u64,
}

impl Reranker {
    /// An adapter over `endpoint`.
    pub fn new(endpoint: Arc<dyn ModelEndpoint>, seed: u64) -> Self {
        Self { endpoint, seed }
    }

    fn request(&self, query: &str, passages: &[String]) -> ModelRequest {
        ModelRequest::new(
            vec![
                PromptPart::system("Score each passage's relevance to the query on [0, 1]."),
                PromptPart::user(format!("{query}\n---\n{}", passages.join("\n---\n"))),
            ],
            RequestPayload::Rerank { query: query.to_string(), passages: passages.to_vec() },
            self.seed,
        )
    }

    /// Score a batch of (query, passages) pairs on `exec`'s pool: one
    /// relevance per passage, index-aligned.
    pub fn score_batch(&self, exec: &Executor, prompts: &[(&str, Vec<String>)]) -> Vec<Vec<f64>> {
        let reqs: Vec<ModelRequest> = prompts.iter().map(|(q, ps)| self.request(q, ps)).collect();
        self.endpoint
            .complete_batch(exec, &reqs)
            .into_iter()
            .map(|r| r.output.expect_relevance())
            .collect()
    }
}

/// One evaluated SLM: a behaviour card joined with its calibration,
/// answering through the endpoint.
#[derive(Clone)]
pub struct Answerer {
    endpoint: Arc<dyn ModelEndpoint>,
    model: Arc<ResolvedModel>,
    seed: u64,
}

impl Answerer {
    /// An adapter answering as `card` under `calibration`.
    pub fn new(
        endpoint: Arc<dyn ModelEndpoint>,
        card: ModelCard,
        calibration: Calibration,
        seed: u64,
    ) -> Self {
        Self { endpoint, model: Arc::new(ResolvedModel::new(card, calibration)), seed }
    }

    /// The behaviour card this adapter answers as.
    pub fn card(&self) -> &ModelCard {
        &self.model.card
    }

    fn request(
        &self,
        item: &Arc<PreparedItem>,
        condition: Condition,
        context: Option<&AssembledContext>,
    ) -> ModelRequest {
        ModelRequest::new(
            vec![
                PromptPart::system("Answer the multiple-choice question with a single letter."),
                PromptPart::user(item.rendered()),
            ],
            RequestPayload::Answer {
                model: Arc::clone(&self.model),
                item: Arc::clone(item),
                condition,
                context: context.cloned(),
            },
            self.seed,
        )
    }

    /// Answer one prepared item under `condition`. The item's render and
    /// digest were computed when it was prepared, so a request costs what
    /// depends on the (model, condition, context) and nothing more.
    pub fn answer(
        &self,
        item: &Arc<PreparedItem>,
        condition: Condition,
        context: Option<&AssembledContext>,
    ) -> AnswerOutcome {
        self.endpoint.complete(&self.request(item, condition, context)).output.expect_answer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cards::MODEL_CARDS;
    use crate::hub::ModelHub;
    use crate::sim::SimEndpoint;
    use crate::solver::{resolve, PipelineRates};
    use mcqa_ontology::{Ontology, OntologyConfig};

    fn setup() -> (Arc<Ontology>, Arc<dyn ModelEndpoint>) {
        let ontology = Arc::new(Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 400,
            quantitative_facts: 20,
        }));
        let hub: Arc<dyn ModelEndpoint> =
            Arc::new(ModelHub::new(Box::new(SimEndpoint::new(42, Arc::clone(&ontology)))));
        (ontology, hub)
    }

    #[test]
    fn teacher_and_judge_adapters_match_the_direct_simulators() {
        let (ontology, ep) = setup();
        let teacher = Teacher::new(ep.clone(), 42);
        let direct = crate::teacher::TeacherModel::new(42);
        let facts = &ontology.facts()[..12];
        let prompts: Vec<QuestionPrompt> = facts
            .iter()
            .map(|f| QuestionPrompt { fact: f.id, salt: "c1".into(), passage: "The passage." })
            .collect();
        let exec = Executor::global();
        let via = teacher.generate_question_batch(exec, &prompts);
        let expected: Vec<GeneratedQuestion> =
            facts.iter().map(|f| direct.generate_question(&ontology, f, "c1")).collect();
        assert_eq!(via, expected);

        for mode in TraceMode::ALL {
            let asked: Vec<(&GeneratedQuestion, TraceMode)> =
                via.iter().map(|q| (q, mode)).collect();
            let expected: Vec<String> =
                via.iter().map(|q| direct.generate_trace(&ontology, q, mode)).collect();
            assert_eq!(teacher.generate_trace_batch(exec, &asked), expected);
        }

        let judge = Judge::new(ep, 42);
        let direct = crate::judge::JudgeModel::new(42);
        let scored: Vec<(&GeneratedQuestion, f64)> = via.iter().map(|q| (q, 0.5)).collect();
        let expected: Vec<QualityJudgment> =
            via.iter().map(|q| direct.score_question(q, 0.5)).collect();
        assert_eq!(judge.score_question_batch(exec, &scored), expected);
    }

    #[test]
    fn answerer_routes_the_calibrated_cascade() {
        let (_, ep) = setup();
        let card = MODEL_CARDS[3].clone();
        let cal = resolve(&card, &PipelineRates::nominal());
        let direct = ResolvedModel::new(card.clone(), cal.clone());
        let answerer = Answerer::new(ep, card, cal, 42);
        let item = crate::mcq::test_item();
        let via =
            answerer.answer(&Arc::new(PreparedItem::new(item.clone())), Condition::Baseline, None);
        assert_eq!(via, direct.answer(&item, Condition::Baseline, None, 42));
        assert_eq!(answerer.card().name, "SmolLM3-3B");
    }

    #[test]
    fn reranker_adapter_is_deterministic_and_batches() {
        let (_, ep) = setup();
        let reranker = Reranker::new(ep, 42);
        let passages = vec![
            "the star formation rate of the galaxy".to_string(),
            "sourdough starter maintenance".to_string(),
        ];
        let batch = reranker.score_batch(
            Executor::global(),
            &vec![("star formation in galaxies", passages.clone()); 3],
        );
        assert_eq!(batch[0].len(), 2);
        assert!(batch[0][0] > batch[0][1]);
        assert_eq!(batch, vec![batch[0].clone(); 3]);
    }

    #[test]
    fn classifier_and_judge_adapters_work() {
        let (_, ep) = setup();
        let classifier = Classifier::new(ep.clone(), 42);
        let item = crate::mcq::test_item();
        assert_eq!(
            classifier.classify_batch(Executor::global(), std::slice::from_ref(&item)),
            vec![false]
        );

        let judge = Judge::new(ep, 42);
        let g = judge.grade("Answer: C", 2, 7);
        assert!(g.correct);
    }
}
