//! The teacher model: GPT-4.1's two roles, simulated.
//!
//! 1. **MCQ generation** from a chunk-identified fact (paper §2): a stem
//!    realised from the fact, one correct option, six same-kind
//!    distractors, all shuffled deterministically. Real teacher defects
//!    are injected at realistic rates — stems that reference the source
//!    text ("as described in the passage"), ambiguous stems, and
//!    occasional wrong keys. The judge's 7/10 filter exists *because* of
//!    these defects.
//! 2. **Reasoning-trace distillation** (paper §2, Figure 3): three modes
//!    generated simultaneously, with the final answer scrubbed to prevent
//!    leakage — enforced here by construction *and* by a post-check.

use mcqa_ontology::{realize, Fact, Ontology};
use mcqa_util::KeyedStochastic;
use serde::{Deserialize, Serialize};

use crate::mcq::OPTION_LETTERS;
use crate::trace::TraceMode;

/// Defects a generated question can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuestionDefect {
    /// The stem refers to "the passage/text" — not self-contained.
    ContextReference,
    /// The stem lost its subject and became ambiguous.
    AmbiguousStem,
    /// The recorded key does not match the true answer.
    WrongKey,
}

/// A candidate question as emitted by the teacher.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedQuestion {
    /// The supporting fact.
    pub fact: mcqa_ontology::FactId,
    /// Question stem.
    pub stem: String,
    /// Seven options in display order.
    pub options: Vec<String>,
    /// The key the teacher *recorded* (wrong when `WrongKey` defect hit).
    pub recorded_key: usize,
    /// The actually-correct option index (ground truth).
    pub true_key: usize,
    /// Injected defects.
    pub defects: Vec<QuestionDefect>,
    /// Distractor plausibility in `[0,1]` (drives judge scoring).
    pub distractor_plausibility: f64,
}

// Defect base rates (measured from real LLM question-generation audits;
// order-of-magnitude realistic).
/// P(stem references the source text).
const P_CONTEXT_REFERENCE: f64 = 0.08;
/// P(stem loses its subject).
const P_AMBIGUOUS: f64 = 0.06;
/// P(recorded key is wrong).
const P_WRONG_KEY: f64 = 0.02;

/// The simulated GPT-4.1.
#[derive(Debug, Clone)]
pub(crate) struct TeacherModel {
    seed: u64,
}

impl TeacherModel {
    /// Create a teacher.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generate a 7-option MCQ for `fact`. `salt` distinguishes multiple
    /// questions over the same fact (different chunks).
    pub fn generate_question(
        &self,
        ontology: &Ontology,
        fact: &Fact,
        salt: &str,
    ) -> GeneratedQuestion {
        let rng = KeyedStochastic::new(self.seed ^ 0x7EAC_4E12);
        let key = format!("{}:{}", fact.id.0, salt);
        let reg = ontology.registry();

        let (mut stem, answer) = realize::question(fact, reg, realize::QuestionStyle::Synthetic);
        let distractors = ontology.distractors(fact, 6, salt);
        let mut options: Vec<String> = vec![answer.clone()];
        options.extend(distractors.iter().map(|d| reg.get(*d).name.clone()));

        // Deterministic shuffle.
        let perm = rng.permutation(options.len(), &["shuffle", &key]);
        let shuffled: Vec<String> = perm.iter().map(|&i| options[i].clone()).collect();
        let true_key = perm.iter().position(|&i| i == 0).expect("answer present");
        let options = shuffled;

        // Defects.
        let mut defects = Vec::new();
        if rng.bernoulli(P_CONTEXT_REFERENCE, &["ctxref", &key]) {
            defects.push(QuestionDefect::ContextReference);
            stem = format!("As described in the passage, {}", lowercase_first(&stem));
        }
        if rng.bernoulli(P_AMBIGUOUS, &["ambig", &key]) {
            defects.push(QuestionDefect::AmbiguousStem);
            let subject = &reg.get(fact.subject).name;
            stem = stem.replace(subject.as_str(), "this factor");
        }
        let mut recorded_key = true_key;
        if rng.bernoulli(P_WRONG_KEY, &["wrongkey", &key]) {
            defects.push(QuestionDefect::WrongKey);
            recorded_key =
                (true_key + 1 + rng.below(options.len() - 1, &["wk", &key])) % options.len();
        }

        let distractor_plausibility = 0.4 + 0.6 * rng.uniform(&["plaus", &key]);

        GeneratedQuestion {
            fact: fact.id,
            stem,
            options,
            recorded_key,
            true_key,
            defects,
            distractor_plausibility,
        }
    }

    /// Distil a reasoning trace for a question in `mode`, with the final
    /// answer excluded (the paper's leakage control).
    ///
    /// The returned text never contains the correct option's string; a
    /// debug assertion and a scrubbing pass enforce this.
    pub fn generate_trace(
        &self,
        ontology: &Ontology,
        question: &GeneratedQuestion,
        mode: TraceMode,
    ) -> String {
        let reg = ontology.registry();
        let fact = ontology.fact(question.fact);
        let answer_text = question.options[question.true_key].clone();

        let (subject, topic_kw, verb) = match fact {
            Some(f) => (
                reg.get(f.subject).name.clone(),
                f.topic.keywords()[0].to_string(),
                f.relation.verb().to_string(),
            ),
            None => {
                ("the subject".to_string(), "the mechanism".to_string(), "relates to".to_string())
            }
        };

        // Named eliminations: distractor options only, never the answer.
        let eliminated: Vec<(char, &String)> = question
            .options
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != question.true_key)
            .map(|(i, o)| (OPTION_LETTERS[i], o))
            .collect();

        let mut text = match mode {
            TraceMode::Detailed => {
                let mut t = format!(
                    "Question restated: {} The key consideration is how {subject} {verb} its target \
                     in the context of {topic_kw}. Analysing each option: ",
                    question.stem
                );
                for (letter, opt) in eliminated.iter().take(4) {
                    t.push_str(&format!(
                        "Option {letter} ({opt}) can be excluded because it is not the established \
                         partner of {subject} in this setting. "
                    ));
                }
                t.push_str(
                    "The remaining option is consistent with the mechanism above; \
                     final answer withheld.",
                );
                t
            }
            TraceMode::Focused => {
                let mut t =
                    format!("Principle: {subject} {verb} a specific partner within {topic_kw}. ",);
                for (letter, opt) in eliminated.iter().take(2) {
                    t.push_str(&format!("Eliminate {letter} ({opt}): wrong class of effect. "));
                }
                t.push_str(&format!(
                    "The correct choice follows directly from the {topic_kw} relationship; \
                     final answer withheld. Context: {}",
                    question.stem
                ));
                t
            }
            TraceMode::Efficient => format!(
                "{} Reason: {subject} {verb} exactly one option here; recall the {topic_kw} \
                 relationship. Final answer withheld.",
                question.stem
            ),
        };

        // Leakage scrub: the answer string must never appear.
        if text.contains(&answer_text) {
            text = text.replace(&answer_text, "[withheld]");
        }
        debug_assert!(!text.contains(&answer_text));
        text
    }
}

fn lowercase_first(s: &str) -> String {
    let mut cs = s.chars();
    match cs.next() {
        Some(c) => c.to_lowercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_ontology::OntologyConfig;

    fn ontology() -> Ontology {
        Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 400,
            quantitative_facts: 20,
        })
    }

    #[test]
    fn question_structure_valid() {
        let ont = ontology();
        let teacher = TeacherModel::new(42);
        for fact in ont.facts().iter().take(100) {
            let q = teacher.generate_question(&ont, fact, "c0");
            assert_eq!(q.options.len(), 7);
            assert!(q.true_key < 7);
            assert!(q.recorded_key < 7);
            // Correct option is the fact's object.
            let obj_name = &ont.registry().get(fact.object).name;
            assert_eq!(&q.options[q.true_key], obj_name);
            // Options unique.
            let set: std::collections::HashSet<&String> = q.options.iter().collect();
            assert_eq!(set.len(), 7, "{:?}", q.options);
        }
    }

    #[test]
    fn deterministic_per_salt() {
        let ont = ontology();
        let teacher = TeacherModel::new(42);
        let f = &ont.facts()[0];
        assert_eq!(
            teacher.generate_question(&ont, f, "a"),
            teacher.generate_question(&ont, f, "a")
        );
        assert_ne!(
            teacher.generate_question(&ont, f, "a").options,
            teacher.generate_question(&ont, f, "b").options,
        );
    }

    #[test]
    fn defect_rates_realistic() {
        let ont = ontology();
        let teacher = TeacherModel::new(42);
        let mut ctxref = 0;
        let mut wrongkey = 0;
        let n = ont.facts().len();
        for fact in ont.facts() {
            let q = teacher.generate_question(&ont, fact, "c0");
            if q.defects.contains(&QuestionDefect::ContextReference) {
                ctxref += 1;
                assert!(q.stem.contains("passage"), "{}", q.stem);
            }
            if q.defects.contains(&QuestionDefect::WrongKey) {
                wrongkey += 1;
                assert_ne!(q.recorded_key, q.true_key);
            }
        }
        let fr = ctxref as f64 / n as f64;
        let fw = wrongkey as f64 / n as f64;
        assert!((fr - 0.08).abs() < 0.04, "context-reference rate {fr}");
        assert!(fw < 0.06, "wrong-key rate {fw}");
    }

    #[test]
    fn traces_never_leak_answer() {
        let ont = ontology();
        let teacher = TeacherModel::new(42);
        for fact in ont.facts().iter().take(150) {
            let q = teacher.generate_question(&ont, fact, "c0");
            let answer = &q.options[q.true_key];
            for mode in TraceMode::ALL {
                let t = teacher.generate_trace(&ont, &q, mode);
                assert!(
                    !t.contains(answer.as_str()),
                    "{mode:?} trace leaks answer {answer:?}: {t}"
                );
                assert!(t.len() > 40);
            }
        }
    }

    #[test]
    fn trace_lengths_ordered_by_mode() {
        // Detailed > Focused > Efficient in tokens (drives the truncation
        // dynamics for small-window models).
        let ont = ontology();
        let teacher = TeacherModel::new(42);
        let mut totals = [0usize; 3];
        for fact in ont.facts().iter().take(50) {
            let q = teacher.generate_question(&ont, fact, "c0");
            for (i, mode) in TraceMode::ALL.iter().enumerate() {
                totals[i] += mcqa_text::token_count(&teacher.generate_trace(&ont, &q, *mode));
            }
        }
        assert!(totals[0] > totals[1], "detailed > focused: {totals:?}");
        assert!(totals[1] > totals[2], "focused > efficient: {totals:?}");
    }

    #[test]
    fn traces_share_vocabulary_with_question() {
        // Retrieval works because the trace embeds the question's words.
        let ont = ontology();
        let teacher = TeacherModel::new(42);
        let q = teacher.generate_question(&ont, &ont.facts()[3], "c0");
        for mode in TraceMode::ALL {
            let t = teacher.generate_trace(&ont, &q, mode);
            let j = mcqa_text::similarity::token_jaccard(&q.stem, &t);
            assert!(j > 0.1, "{mode:?}: jaccard {j} too low for retrieval");
        }
    }
}
