//! The first [`ModelEndpoint`] backend: the calibrated behavioural
//! simulators, behind the provider API.
//!
//! `SimEndpoint` owns the simulated teacher, judge, and classifier (all
//! seeded at construction, like a pinned deployment) plus the ontology the
//! teacher grounds questions in. Answer requests carry their own
//! [`crate::answer::ResolvedModel`] — calibration is an evaluation-time
//! artefact, not backend state — and their own seed.

use std::sync::Arc;

use mcqa_ontology::Ontology;
use mcqa_text::token_count;

use crate::endpoint::{ModelEndpoint, ModelRequest, ModelResponse, RequestPayload, RoleOutput};
use crate::judge::JudgeModel;
use crate::math_classifier::MathClassifier;
use crate::teacher::TeacherModel;

/// The simulator backend.
pub struct SimEndpoint {
    ontology: Arc<Ontology>,
    teacher: TeacherModel,
    judge: JudgeModel,
    classifier: MathClassifier,
}

impl SimEndpoint {
    /// Create the backend over `ontology`, seeding every simulated role
    /// from `seed` (the pipeline's master seed).
    pub fn new(seed: u64, ontology: Arc<Ontology>) -> Self {
        Self {
            ontology,
            teacher: TeacherModel::new(seed),
            judge: JudgeModel::new(seed),
            classifier: MathClassifier::new(),
        }
    }
}

impl ModelEndpoint for SimEndpoint {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn complete(&self, req: &ModelRequest) -> ModelResponse {
        // A completion's tokens are counted on its text, which each role
        // keeps inside its output (the classifier's and the reranker's wire
        // text is rendered only to be counted).
        let (tokens_out, output) = match &req.payload {
            RequestPayload::GenerateQuestion { fact, salt } => {
                let f = self
                    .ontology
                    .fact(*fact)
                    .unwrap_or_else(|| panic!("sim teacher: unknown fact {}", fact.0));
                let q = self.teacher.generate_question(&self.ontology, f, salt);
                (token_count(&q.stem), RoleOutput::Question(q))
            }
            RequestPayload::DistillTrace { question, mode } => {
                let t = self.teacher.generate_trace(&self.ontology, question, *mode);
                (token_count(&t), RoleOutput::Trace(t))
            }
            RequestPayload::ScoreQuestion { question, salience } => {
                let j = self.judge.score_question(question, *salience);
                (token_count(&j.reasoning), RoleOutput::Quality(j))
            }
            RequestPayload::GradeAnswer { completion, correct, n_options } => {
                let g = self.judge.grade(completion, *correct, *n_options);
                (token_count(&g.reasoning), RoleOutput::Grade(g))
            }
            RequestPayload::ClassifyMath { item } => {
                let is_math = self.classifier.requires_math(item);
                let text = if is_math { "requires_math: true" } else { "requires_math: false" };
                (token_count(text), RoleOutput::MathFlag(is_math))
            }
            RequestPayload::Rerank { query, passages } => {
                let scores = rerank_scores(query, passages);
                let text = scores.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ");
                (token_count(&text), RoleOutput::Relevance(scores))
            }
            RequestPayload::Answer { model, item, condition, context } => {
                let a = model.answer(item.item(), *condition, context.as_ref(), req.seed);
                (token_count(&a.text), RoleOutput::Answer(a))
            }
        };
        ModelResponse { output, tokens_in: req.prompt_tokens(), tokens_out }
    }
}

/// The simulated cross-encoder: per-passage relevance as the overlap
/// cosine `|q ∩ p| / √(|q|·|p|)` over **distinct content tokens** (the
/// shared [`mcqa_text::content_tokens`] tokenisation, so the reranker
/// sees exactly the terms the lexical channel indexed). Calibrated to
/// [0, 1]: 1 for an identical token set, 0 for no shared content term.
fn rerank_scores(query: &str, passages: &[String]) -> Vec<f64> {
    let q: std::collections::HashSet<String> =
        mcqa_text::content_tokens(query).into_iter().collect();
    passages
        .iter()
        .map(|p| {
            let pt: std::collections::HashSet<String> =
                mcqa_text::content_tokens(p).into_iter().collect();
            let inter = q.intersection(&pt).count() as f64;
            let denom = ((q.len() * pt.len()) as f64).sqrt();
            if denom > 0.0 {
                inter / denom
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::PromptPart;
    use mcqa_ontology::OntologyConfig;

    fn endpoint() -> SimEndpoint {
        let ontology = Arc::new(Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 400,
            quantitative_facts: 20,
        }));
        SimEndpoint::new(42, ontology)
    }

    #[test]
    fn serves_every_role_deterministically() {
        let ep = endpoint();
        let fact = ep.ontology.facts()[0].id;
        let gen = ModelRequest::new(
            vec![PromptPart::user("generate a question")],
            RequestPayload::GenerateQuestion { fact, salt: "c0".into() },
            42,
        );
        let a = ep.complete(&gen);
        let b = ep.complete(&gen);
        assert_eq!(a, b);
        assert_eq!(a.output.clone().expect_question().options.len(), 7);
        assert!(a.tokens_out > 0);

        let q = a.output.expect_question();
        let salience = ep.ontology.facts()[0].salience;
        let score = ModelRequest::new(
            vec![PromptPart::user("score it")],
            RequestPayload::ScoreQuestion { question: q.clone(), salience },
            42,
        );
        let s = ep.complete(&score);
        assert!((1..=10).contains(&s.output.expect_quality().score));

        let trace = ModelRequest::new(
            vec![PromptPart::user("distil")],
            RequestPayload::DistillTrace { question: q.clone(), mode: crate::TraceMode::Focused },
            42,
        );
        let t = ep.complete(&trace);
        assert!(!t.output.expect_trace().contains(&q.options[q.true_key]));

        let grade = ModelRequest::new(
            vec![PromptPart::user("grade")],
            RequestPayload::GradeAnswer {
                completion: "Answer: A".into(),
                correct: 0,
                n_options: 7,
            },
            42,
        );
        assert!(ep.complete(&grade).output.expect_grade().correct);

        // Every payload kind is served, with its own output variant: no
        // adapter's `expect_*` can panic on this backend.
        let all = crate::endpoint::tests::one_of_each();
        assert_eq!(all.len(), 7);
        for req in all {
            let response = ep.complete(&req);
            assert_eq!(response, ep.complete(&req));
            assert_eq!(response.tokens_in, req.prompt_tokens());
            let own_variant = matches!(
                (&req.payload, &response.output),
                (RequestPayload::GenerateQuestion { .. }, RoleOutput::Question(_))
                    | (RequestPayload::DistillTrace { .. }, RoleOutput::Trace(_))
                    | (RequestPayload::ScoreQuestion { .. }, RoleOutput::Quality(_))
                    | (RequestPayload::GradeAnswer { .. }, RoleOutput::Grade(_))
                    | (RequestPayload::ClassifyMath { .. }, RoleOutput::MathFlag(_))
                    | (RequestPayload::Rerank { .. }, RoleOutput::Relevance(_))
                    | (RequestPayload::Answer { .. }, RoleOutput::Answer(_))
            );
            assert!(own_variant, "{:?} answered with {:?}", req.payload, response.output);
        }
    }

    #[test]
    fn matches_direct_simulator_output() {
        // The backend is a reroute, not a reimplementation: outputs must
        // equal the wrapped simulators' exactly.
        let ep = endpoint();
        let f = &ep.ontology.facts()[3];
        let direct = ep.teacher.generate_question(&ep.ontology, f, "salt");
        let via = ep
            .complete(&ModelRequest::new(
                vec![],
                RequestPayload::GenerateQuestion { fact: f.id, salt: "salt".into() },
                42,
            ))
            .output
            .expect_question();
        assert_eq!(via, direct);
    }

    #[test]
    fn rerank_scores_are_deterministic_and_calibrated() {
        let ep = endpoint();
        let req = ModelRequest::new(
            vec![PromptPart::user("rerank")],
            RequestPayload::Rerank {
                query: "the spectral flux of the nebula".into(),
                passages: vec![
                    "the spectral flux of the nebula".into(), // identical content
                    "spectral measurements of a distant galaxy".into(), // partial overlap
                    "unrelated culinary text about bread".into(), // no overlap
                    "".into(),                                // degenerate
                ],
            },
            42,
        );
        let a = ep.complete(&req);
        let b = ep.complete(&req);
        assert_eq!(a, b);
        let scores = a.output.expect_relevance();
        assert_eq!(scores.len(), 4);
        // Calibration: identical token set scores exactly 1, empty scores 0,
        // everything lands in [0, 1], and more overlap scores higher.
        assert_eq!(scores[0], 1.0);
        assert!(scores[1] > scores[2]);
        assert_eq!(scores[3], 0.0);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    #[should_panic(expected = "unknown fact")]
    fn unknown_fact_is_loud() {
        let ep = endpoint();
        ep.complete(&ModelRequest::new(
            vec![],
            RequestPayload::GenerateQuestion {
                fact: mcqa_ontology::FactId(u64::MAX),
                salt: "x".into(),
            },
            42,
        ));
    }
}
