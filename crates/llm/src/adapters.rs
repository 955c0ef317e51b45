//! The two role handles a caller outside the evaluator keeps: a [`Teacher`]
//! for the pipeline's generation and distillation stages, and a
//! [`Reranker`] the query service rescoring hybrid results holds. Each is a
//! shared `Arc<ModelHub>` plus the seed its calls carry, and each method is
//! a one-line forward to the hub's typed entry point. Every other role is
//! called on [`ModelHub`] directly.

use std::sync::Arc;

use mcqa_ontology::Fact;
use mcqa_runtime::Executor;

use crate::hub::ModelHub;
use crate::mcq::McqItem;
use crate::teacher::GeneratedQuestion;
use crate::trace::TraceMode;

/// One question-generation prompt: the anchor fact plus the source
/// passage the teacher reads.
pub struct QuestionPrompt<'a> {
    /// The fact the question must test.
    pub fact: &'a Fact,
    /// Distinguishes multiple questions over the same fact.
    pub salt: String,
    /// Tokens of the source passage (the chunk record's count): the
    /// passage is context for the teacher, so it is counted in the
    /// prompt-token estimate, as in a real deployment.
    pub passage_tokens: usize,
}

/// The teacher (GPT-4.1's roles): MCQ generation + trace distillation.
#[derive(Clone)]
pub struct Teacher {
    hub: Arc<ModelHub>,
    seed: u64,
}

impl Teacher {
    /// A handle on `hub`'s teacher, its calls seeded with `seed`.
    pub fn new(hub: Arc<ModelHub>, seed: u64) -> Self {
        Self { hub, seed }
    }

    /// `ModelHub::questions`.
    pub fn generate_question_batch(
        &self,
        exec: &Executor,
        prompts: &[QuestionPrompt<'_>],
    ) -> Vec<GeneratedQuestion> {
        self.hub.questions(exec, self.seed, prompts)
    }

    /// `ModelHub::traces`.
    pub fn generate_trace_batch(
        &self,
        exec: &Executor,
        prompts: &[(&McqItem, TraceMode)],
    ) -> Vec<String> {
        self.hub.traces(exec, self.seed, prompts)
    }
}

/// The cross-encoder reranker: rescoring retrieved passages against the
/// query text (the optional final stage of hybrid retrieval).
#[derive(Clone)]
pub struct Reranker {
    hub: Arc<ModelHub>,
    seed: u64,
}

impl Reranker {
    /// A handle on `hub`'s reranker, its calls seeded with `seed`.
    pub fn new(hub: Arc<ModelHub>, seed: u64) -> Self {
        Self { hub, seed }
    }

    /// `ModelHub::rerank_scores`.
    pub fn score_batch(&self, exec: &Executor, prompts: &[(&str, Vec<&str>)]) -> Vec<Vec<f64>> {
        self.hub.rerank_scores(exec, self.seed, prompts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_ontology::{Ontology, OntologyConfig};

    fn setup() -> (Arc<Ontology>, Arc<ModelHub>) {
        let ontology = Arc::new(Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 400,
            quantitative_facts: 20,
        }));
        let hub = Arc::new(ModelHub::new(42, Arc::clone(&ontology)));
        (ontology, hub)
    }

    #[test]
    fn teacher_forwards_to_the_direct_simulator() {
        let (ontology, hub) = setup();
        let teacher = Teacher::new(hub, 42);
        let direct = crate::teacher::TeacherModel::new(42);
        let facts = &ontology.facts()[..12];
        let prompts: Vec<QuestionPrompt> = facts
            .iter()
            .map(|fact| QuestionPrompt { fact, salt: "c1".into(), passage_tokens: 3 })
            .collect();
        let exec = Executor::global();
        let via = teacher.generate_question_batch(exec, &prompts);
        let expected: Vec<GeneratedQuestion> =
            facts.iter().map(|f| direct.generate_question(&ontology, f, "c1")).collect();
        assert_eq!(via, expected);

        let items: Vec<McqItem> = via
            .iter()
            .map(|q| McqItem {
                qid: 0,
                bench: crate::BenchKind::Synthetic,
                fact: q.fact,
                stem: q.stem.clone(),
                options: q.options.clone(),
                correct: q.recorded_key,
                difficulty: 0.5,
                is_math: false,
            })
            .collect();
        for mode in TraceMode::ALL {
            let asked: Vec<(&McqItem, TraceMode)> = items.iter().map(|q| (q, mode)).collect();
            let expected: Vec<String> =
                items.iter().map(|q| direct.generate_trace(&ontology, q, mode)).collect();
            assert_eq!(teacher.generate_trace_batch(exec, &asked), expected);
        }
    }

    #[test]
    fn reranker_is_deterministic_and_batches() {
        let (_, hub) = setup();
        let reranker = Reranker::new(hub, 42);
        let passages =
            vec!["the star formation rate of the galaxy", "sourdough starter maintenance"];
        let batch = reranker
            .score_batch(Executor::global(), &vec![("star formation in galaxies", passages); 3]);
        assert_eq!(batch[0].len(), 2);
        assert!(batch[0][0] > batch[0][1]);
        assert_eq!(batch, vec![batch[0].clone(); 3]);
    }
}
