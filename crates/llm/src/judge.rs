//! The LLM judge: question-quality scoring and answer grading.
//!
//! Figure 1: "An arbitrary LLM judge performs the grading and provides a
//! reasoning." Two duties:
//!
//! * **Quality scoring** (paper §2): each candidate MCQ gets a 1–10 score
//!   for clarity, accuracy, distractor plausibility and educational
//!   value; items below 7 are discarded. The paper keeps 16,680 of
//!   173,318 candidates (≈ 9.6%) — the score model below is calibrated to
//!   that acceptance rate.
//! * **Answer grading**: parse a model's free-text completion, extract its
//!   chosen letter, compare to the key, and emit a reasoning string.

use std::borrow::Cow;
use std::sync::OnceLock;

use mcqa_util::KeyedStochastic;

use crate::mcq::OPTION_LETTERS;
use crate::teacher::{GeneratedQuestion, QuestionDefect};

/// A quality verdict for a candidate question.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityJudgment {
    /// Score 1–10.
    pub score: u8,
    /// The judge's stated reasoning.
    pub reasoning: String,
}

/// The grading verdict for one model answer.
#[derive(Debug, Clone, PartialEq)]
pub struct GradeResult {
    /// Parsed letter, if any.
    pub parsed: Option<char>,
    /// Whether the answer was graded correct.
    pub correct: bool,
    /// The judge's reasoning line: borrowed for every parsed or
    /// unparseable completion, so a cached verdict clones without
    /// allocating.
    pub(crate) reasoning: Cow<'static, str>,
}

/// The simulated judge.
#[derive(Debug, Clone)]
pub(crate) struct JudgeModel {
    seed: u64,
}

impl JudgeModel {
    /// Create a judge.
    pub(crate) fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Score a candidate question 1–10.
    ///
    /// Score model: a salience/plausibility-driven base with keyed noise,
    /// minus defect penalties. Constants are calibrated so that roughly
    /// 10% of candidates clear 7/10, matching the paper's 16,680/173,318.
    pub(crate) fn score_question(&self, q: &GeneratedQuestion, salience: f64) -> QualityJudgment {
        let rng = KeyedStochastic::new(self.seed ^ 0x10D6_E5EE);
        let key = format!("{}:{}", q.fact.0, mcqa_util::fnv1a(q.stem.as_bytes()));

        let mut score = 2.0
            + 2.0 * salience
            + 2.4 * q.distractor_plausibility
            + 1.6 * rng.gaussian(&["noise", &key]);
        let mut notes: Vec<&str> = Vec::new();
        for d in &q.defects {
            match d {
                QuestionDefect::ContextReference => {
                    score -= 3.0;
                    notes.push("stem references the source passage (not self-contained)");
                }
                QuestionDefect::AmbiguousStem => {
                    score -= 2.5;
                    notes.push("stem is ambiguous without its subject");
                }
                QuestionDefect::WrongKey => {
                    // Judges catch most wrong keys via internal consistency.
                    if rng.bernoulli(0.8, &["catch-wrongkey", &key]) {
                        score -= 4.0;
                        notes.push("recorded key appears inconsistent with the stem");
                    }
                }
            }
        }
        let score = score.round().clamp(1.0, 10.0) as u8;
        let reasoning = if notes.is_empty() {
            format!(
                "Clear stem, plausible distractors (plausibility {:.2}), appropriate difficulty. \
                 Score {score}/10.",
                q.distractor_plausibility
            )
        } else {
            format!("Issues: {}. Score {score}/10.", notes.join("; "))
        };
        QualityJudgment { score, reasoning }
    }

    /// Grade a model completion against the correct option index.
    pub(crate) fn grade(&self, completion: &str, correct: usize, n_options: usize) -> GradeResult {
        let valid = &OPTION_LETTERS[..n_options.min(OPTION_LETTERS.len())];
        let parsed = parse_choice(completion, valid);
        if correct >= valid.len() {
            return GradeResult {
                parsed,
                correct: false,
                reasoning: Cow::Owned(format!(
                    "Key index {correct} is out of range for {} options. Graded incorrect.",
                    valid.len()
                )),
            };
        }
        match parsed {
            Some(letter) => {
                let chosen =
                    valid.iter().position(|&c| c == letter).expect("parsed a valid letter");
                GradeResult {
                    parsed,
                    correct: chosen == correct,
                    reasoning: Cow::Borrowed(verdict(chosen, correct)),
                }
            }
            None => GradeResult {
                parsed: None,
                correct: false,
                reasoning: Cow::Borrowed(
                    "No parseable option letter in the completion. Graded incorrect.",
                ),
            },
        }
    }
}

/// The reasoning line for a completion that chose option `chosen` against
/// key `correct`, both indices into [`OPTION_LETTERS`]. The table of every
/// pair is formatted once per process.
fn verdict(chosen: usize, correct: usize) -> &'static str {
    const N: usize = OPTION_LETTERS.len();
    static VERDICTS: OnceLock<[[String; N]; N]> = OnceLock::new();
    let table = VERDICTS.get_or_init(|| {
        std::array::from_fn(|chosen| {
            std::array::from_fn(|correct| {
                let (letter, key) = (OPTION_LETTERS[chosen], OPTION_LETTERS[correct]);
                if chosen == correct {
                    format!("Parsed choice {letter}; matches key {key}. Correct.")
                } else {
                    format!("Parsed choice {letter}; key is {key}. Incorrect.")
                }
            })
        })
    });
    &table[chosen][correct]
}

/// Extract a chosen option letter from free text.
///
/// Recognised forms, in priority order:
/// 1. `"Answer: X"` / `"answer is X"`;
/// 2. a standalone valid letter token (`"C"`, `"(c)"`, `"C."`).
fn parse_choice(text: &str, valid: &[char]) -> Option<char> {
    let upper = text.to_uppercase();

    for marker in ["ANSWER:", "ANSWER IS", "CHOICE:", "CHOOSE"] {
        if let Some(pos) = upper.find(marker) {
            let tail = &upper[pos + marker.len()..];
            for c in tail.chars() {
                if valid.contains(&c) {
                    return Some(c);
                }
                if c.is_alphanumeric() {
                    break; // first word after the marker was not a letter
                }
            }
        }
    }

    // Standalone letter token.
    for token in upper.split(|c: char| !c.is_alphanumeric()) {
        if token.len() == 1 {
            let c = token.chars().next().expect("len 1");
            if valid.contains(&c) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teacher::TeacherModel;
    use mcqa_ontology::{Ontology, OntologyConfig};

    /// The paper's acceptance threshold.
    const QUALITY_THRESHOLD: u8 = 7;

    impl QualityJudgment {
        /// True when the item clears the paper's 7/10 bar.
        fn accepted(&self) -> bool {
            self.score >= QUALITY_THRESHOLD
        }
    }

    fn setup() -> (Ontology, TeacherModel, JudgeModel) {
        let ont = Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 120,
            qualitative_facts: 1500,
            quantitative_facts: 10,
        });
        (ont, TeacherModel::new(42), JudgeModel::new(42))
    }

    #[test]
    fn acceptance_rate_near_paper() {
        // Paper: 16,680 / 173,318 ≈ 9.6% pass the 7/10 filter.
        let (ont, teacher, judge) = setup();
        let mut accepted = 0usize;
        let n = ont.facts().len();
        for fact in ont.facts() {
            let q = teacher.generate_question(&ont, fact, "c0");
            if judge.score_question(&q, fact.salience).accepted() {
                accepted += 1;
            }
        }
        let rate = accepted as f64 / n as f64;
        assert!(
            (0.05..=0.18).contains(&rate),
            "acceptance rate {rate:.3} far from the paper's 9.6%"
        );
    }

    #[test]
    fn defective_questions_score_lower() {
        let (ont, teacher, judge) = setup();
        let mut clean_scores = Vec::new();
        let mut dirty_scores = Vec::new();
        for fact in ont.facts().iter().take(800) {
            let q = teacher.generate_question(&ont, fact, "c0");
            let s = judge.score_question(&q, fact.salience).score as f64;
            if q.defects.is_empty() {
                clean_scores.push(s);
            } else {
                dirty_scores.push(s);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&clean_scores) > mean(&dirty_scores) + 1.0,
            "clean {:.2} vs dirty {:.2}",
            mean(&clean_scores),
            mean(&dirty_scores)
        );
    }

    #[test]
    fn judgments_deterministic_and_bounded() {
        let (ont, teacher, judge) = setup();
        let q = teacher.generate_question(&ont, &ont.facts()[0], "c0");
        let a = judge.score_question(&q, 0.5);
        let b = judge.score_question(&q, 0.5);
        assert_eq!(a, b);
        assert!((1..=10).contains(&a.score));
        assert!(!a.reasoning.is_empty());
    }

    #[test]
    fn grading_wellformed_answers() {
        let judge = JudgeModel::new(1);
        let g = judge.grade("Answer: C", 2, 7);
        assert!(g.correct);
        assert_eq!(g.parsed, Some('C'));
        let g = judge.grade("Answer: D", 2, 7);
        assert!(!g.correct);
        assert!(g.reasoning.contains("key is C"));
    }

    #[test]
    fn verdicts_are_the_formatted_bytes() {
        // Every (parsed, key) pair of letters reads the line `format!`
        // writes: the judge's ledger counts its tokens.
        let judge = JudgeModel::new(1);
        let n = OPTION_LETTERS.len();
        for (chosen, letter) in OPTION_LETTERS.iter().enumerate() {
            for (correct, key) in OPTION_LETTERS.iter().enumerate() {
                let want = if letter == key {
                    format!("Parsed choice {letter}; matches key {key}. Correct.")
                } else {
                    format!("Parsed choice {letter}; key is {key}. Incorrect.")
                };
                assert_eq!(verdict(chosen, correct), want);
                let g = judge.grade(&format!("Answer: {letter}"), correct, n);
                assert_eq!((g.parsed, g.correct), (Some(*letter), chosen == correct));
                assert!(matches!(g.reasoning, Cow::Borrowed(_)));
                assert_eq!(g.reasoning, want);
            }
        }
    }

    #[test]
    fn grading_parses_varied_formats() {
        let judge = JudgeModel::new(1);
        assert_eq!(judge.grade("I believe the answer is b, due to...", 1, 5).parsed, Some('B'));
        assert_eq!(judge.grade("(e)", 4, 5).parsed, Some('E'));
        assert_eq!(judge.grade("The best choice: A.", 0, 5).parsed, Some('A'));
        assert!(judge.grade("The best choice: A.", 0, 5).correct);
    }

    #[test]
    fn grading_rejects_unparseable() {
        let judge = JudgeModel::new(1);
        for text in ["", "All options could apply.", "I cannot determine this."] {
            let g = judge.grade(text, 0, 7);
            assert!(!g.correct);
            assert_eq!(g.parsed, None);
            assert!(g.reasoning.contains("No parseable"));
        }
    }

    #[test]
    fn grading_respects_option_count() {
        let judge = JudgeModel::new(1);
        // "G" is valid for 7 options but not for 5.
        assert_eq!(judge.grade("Answer: G", 0, 7).parsed, Some('G'));
        assert_eq!(judge.grade("Answer: G", 0, 5).parsed, None);
        // A key the option count cannot hold is graded, not indexed.
        for (key, n_options) in [(10, 7), (7, 7), (6, 5), (12, 20)] {
            let g = judge.grade("Answer: A", key, n_options);
            assert_eq!((g.parsed, g.correct), (Some('A'), false));
            assert!(g.reasoning.contains("out of range"), "{}", g.reasoning);
        }
    }

    #[test]
    fn wrong_key_catch_reduces_leakage() {
        // Questions with a wrong recorded key must rarely survive the
        // filter (they would corrupt the benchmark).
        let (ont, teacher, judge) = setup();
        let mut wrongkey_accepted = 0usize;
        let mut wrongkey_total = 0usize;
        for fact in ont.facts() {
            let q = teacher.generate_question(&ont, fact, "c0");
            if q.defects.contains(&crate::teacher::QuestionDefect::WrongKey) {
                wrongkey_total += 1;
                if judge.score_question(&q, fact.salience).accepted() {
                    wrongkey_accepted += 1;
                }
            }
        }
        assert!(wrongkey_total > 0);
        assert!(
            (wrongkey_accepted as f64) < 0.15 * wrongkey_total as f64,
            "{wrongkey_accepted}/{wrongkey_total} wrong-key questions accepted"
        );
    }
}
