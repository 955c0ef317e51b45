//! The GPT-5 stand-in: classifying exam questions as requiring
//! mathematical reasoning (paper §2.2 uses GPT-5 to pick the 189-question
//! no-math subset out of 335).

use crate::mcq::McqItem;

/// Keyword evidence for quantitative reasoning.
const MATH_KEYWORDS: &[&str] = &[
    "calculate",
    "compute",
    "what is the dose",
    "what is its activity",
    "surviving fraction",
    "bed",
    "eqd2",
    "half-life",
    "dose rate",
    "oer of",
    "fractions of",
    "activity of",
    "how many",
    "what dose",
];

/// Units that almost always mark a numeric answer.
const UNIT_MARKERS: &[&str] = &["gy", "mbq", "cgy/h", "gy."];

/// The math-question classifier.
#[derive(Debug, Clone, Default)]
pub(crate) struct MathClassifier;

impl MathClassifier {
    /// Create a classifier.
    pub fn new() -> Self {
        Self
    }

    /// True when the item requires mathematical reasoning or arithmetic
    /// tool use. Evidence combined:
    ///
    /// 1. math keywords in the stem,
    /// 2. numeric parameters in the stem **and** predominantly numeric
    ///    options.
    pub fn requires_math(&self, item: &McqItem) -> bool {
        let stem = item.stem.to_lowercase();
        let keyword_hit = MATH_KEYWORDS.iter().any(|k| stem.contains(k));

        let stem_has_numbers = stem.chars().filter(|c| c.is_ascii_digit()).count() >= 2;
        let numeric_options = item
            .options
            .iter()
            .filter(|o| {
                let lower = o.to_lowercase();
                let digits = lower.chars().filter(|c| c.is_ascii_digit()).count();
                digits >= 1
                    && (UNIT_MARKERS.iter().any(|u| lower.contains(u))
                        || lower.chars().all(|c| {
                            c.is_ascii_digit() || c == '.' || c == '-' || c.is_whitespace()
                        }))
            })
            .count();
        let mostly_numeric = numeric_options * 2 > item.options.len();

        keyword_hit || (stem_has_numbers && mostly_numeric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcq::BenchKind;
    use mcqa_ontology::FactId;

    fn item(stem: &str, options: Vec<&str>) -> McqItem {
        McqItem {
            qid: 0,
            bench: BenchKind::AstroExam,
            fact: FactId(0),
            stem: stem.to_string(),
            options: options.into_iter().map(String::from).collect(),
            correct: 0,
            difficulty: 0.5,
            is_math: false,
        }
    }

    #[test]
    fn detects_dose_calculations() {
        let c = MathClassifier::new();
        let q = item(
            "A schedule delivers 30 fractions of 2 Gy to a tissue with α/β = 10 Gy. \
             What is the biologically effective dose (BED)?",
            vec!["72.0 Gy", "60.0 Gy", "66.0 Gy", "80.0 Gy", "75.0 Gy"],
        );
        assert!(c.requires_math(&q));
    }

    #[test]
    fn detects_decay_problems() {
        let c = MathClassifier::new();
        let q = item(
            "A source has an initial activity of 100 MBq and a half-life of 10 days. \
             What is its activity after 20.0 days?",
            vec!["25.0 MBq", "50.0 MBq", "12.5 MBq", "75.0 MBq", "30.0 MBq"],
        );
        assert!(c.requires_math(&q));
    }

    #[test]
    fn recall_questions_not_math() {
        let c = MathClassifier::new();
        let q = item(
            "The principal downstream effector of TRK2 is:",
            vec!["apoptosis", "autophagy", "senescence", "necroptosis", "ferroptosis"],
        );
        assert!(!c.requires_math(&q));
    }

    #[test]
    fn entity_names_with_digits_not_math() {
        // "HX-29", "p53" style options must not trip the classifier.
        let c = MathClassifier::new();
        let q = item(
            "In which cell line is VRK4 characteristically mutated?",
            vec!["HX-29", "U87", "KM-412", "T339", "RV-18"],
        );
        assert!(!c.requires_math(&q));
    }

    #[test]
    fn accuracy_on_generated_exam_items() {
        // Against ground truth from the quantitative-fact generator.
        let ont = mcqa_ontology::Ontology::generate(&mcqa_ontology::OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 300,
            quantitative_facts: 100,
        });
        let c = MathClassifier::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        // Math items from quant facts.
        for q in ont.quant_facts() {
            let (stem, answer) = mcqa_ontology::realize::math_stem(q);
            let mut options = vec![answer];
            options.extend(
                q.distinct_distractors()
                    .into_iter()
                    .take(4)
                    .map(|d| mcqa_ontology::realize::format_quantity(d, &q.unit)),
            );
            let it = item(&stem, options.iter().map(String::as_str).collect());
            total += 1;
            if c.requires_math(&it) {
                correct += 1;
            }
        }
        // Non-math items from qualitative facts (exam style).
        for f in ont.facts().iter().take(100) {
            let (stem, answer) = mcqa_ontology::realize::question(
                f,
                ont.registry(),
                mcqa_ontology::realize::QuestionStyle::Exam,
            );
            let it = item(&stem, vec![&answer, "x1", "x2", "x3", "x4"]);
            total += 1;
            if !c.requires_math(&it) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc >= 0.95, "classifier accuracy {acc:.3}");
    }
}
