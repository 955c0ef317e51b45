//! The teacher's prompt type ([`QuestionPrompt`]) and the one role handle
//! a caller keeps: the query service's [`Reranker`], a shared
//! `Arc<ModelHub>` plus the seed its calls carry, whose method forwards to
//! the hub's typed entry point. Every other role, the teacher included, is
//! called on [`ModelHub`] directly.

use std::sync::Arc;

use mcqa_ontology::Fact;
use mcqa_runtime::Executor;

use crate::hub::ModelHub;

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
    use crate::mcq::McqItem;
    use crate::teacher::GeneratedQuestion;
    use crate::trace::TraceMode;
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
    fn hub_teacher_matches_the_direct_simulator() {
        let (ontology, hub) = setup();
        let direct = crate::teacher::TeacherModel::new(42);
        let facts = &ontology.facts()[..12];
        let prompts: Vec<QuestionPrompt> = facts
            .iter()
            .map(|fact| QuestionPrompt { fact, salt: "c1".into(), passage_tokens: 3 })
            .collect();
        let exec = Executor::global();
        let via = hub.questions(exec, 42, &prompts);
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
            assert_eq!(hub.traces(exec, 42, &asked), expected);
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
