//! Multiple-choice question items as the evaluator sees them.

use mcqa_ontology::FactId;
use mcqa_text::token_count;

/// Option letters for up to ten options.
pub const OPTION_LETTERS: [char; 10] = ['A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J'];

/// Which benchmark an item belongs to — determines option count, phrasing
/// style, and which card targets apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchKind {
    /// The pipeline-generated synthetic benchmark (7 options, paper §3.1).
    Synthetic,
    /// The expert-written Astro exam (5 options, paper §3.2).
    AstroExam,
}

impl BenchKind {
    /// Options per question on this benchmark.
    pub(crate) fn n_options(self) -> usize {
        match self {
            BenchKind::Synthetic => 7,
            BenchKind::AstroExam => 5,
        }
    }
}

/// One MCQ item ready for evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct McqItem {
    /// Stable question id (also the retrieval external id for traces).
    pub qid: u64,
    /// The benchmark this item belongs to.
    pub bench: BenchKind,
    /// The supporting fact (ground truth; drives the knowledge probe).
    pub fact: FactId,
    /// Question stem.
    pub stem: String,
    /// Options in display order.
    pub options: Vec<String>,
    /// Index of the correct option.
    pub correct: usize,
    /// Fact difficulty in `[0, 1]`.
    pub difficulty: f64,
    /// True when the item needs quantitative reasoning (exam only).
    pub is_math: bool,
}

impl McqItem {
    /// The correct option's letter.
    pub fn correct_letter(&self) -> char {
        OPTION_LETTERS[self.correct]
    }

    /// The correct option's text.
    pub fn correct_text(&self) -> &str {
        &self.options[self.correct]
    }

    /// Render the question as prompt text (stem + lettered options).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.stem.len() + 64);
        out.push_str(&self.stem);
        out.push('\n');
        for (i, opt) in self.options.iter().enumerate() {
            out.push_str(&format!("{}. {}\n", OPTION_LETTERS[i], opt));
        }
        out
    }

    /// Tokens [`McqItem::render`] costs in a prompt, counted without
    /// rendering: the stem, then one letter token plus the text of each
    /// option (the separators the render puts between them split tokens and
    /// add none).
    pub fn prompt_tokens(&self) -> usize {
        text_tokens(&self.stem, &self.options) + self.options.len()
    }

    /// Structural validity: unique non-empty options, in-range answer.
    pub fn validate(&self) -> Result<(), String> {
        if self.options.len() != self.bench.n_options() {
            return Err(format!(
                "expected {} options, got {}",
                self.bench.n_options(),
                self.options.len()
            ));
        }
        if self.correct >= self.options.len() {
            return Err("correct index out of range".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for o in &self.options {
            if o.trim().is_empty() {
                return Err("empty option".to_string());
            }
            if !seen.insert(o) {
                return Err(format!("duplicate option {o:?}"));
            }
        }
        if self.stem.trim().is_empty() {
            return Err("empty stem".to_string());
        }
        Ok(())
    }
}

/// Tokens of a stem and its options, each counted on its own: what a prompt
/// costs that lays them out with separators between them and no letters.
pub(crate) fn text_tokens(stem: &str, options: &[String]) -> usize {
    token_count(stem) + options.iter().map(|o| token_count(o)).sum::<usize>()
}

/// An [`McqItem`] with the work that depends on the item alone done once:
/// the tokens its rendered prompt text costs ([`McqItem::prompt_tokens`]).
///
/// Read-only after construction (private fields, no setter), so the count
/// always describes the item beside it. The evaluator prepares each
/// question once and lends it to every (model, condition) answer and every
/// context assembled for it.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedItem {
    item: McqItem,
    tokens: usize,
}

impl PreparedItem {
    /// Count `item`'s prompt tokens.
    pub fn new(item: McqItem) -> Self {
        Self { tokens: item.prompt_tokens(), item }
    }

    /// The question.
    pub fn item(&self) -> &McqItem {
        &self.item
    }

    /// Tokens the rendered question (stem + lettered options) costs in a
    /// prompt.
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

/// A structurally valid synthetic item for this crate's unit tests.
#[cfg(test)]
pub(crate) fn test_item() -> McqItem {
    McqItem {
        qid: 7,
        bench: BenchKind::Synthetic,
        fact: FactId(3),
        stem: "Which pathway does TRK2 activate after irradiation?".into(),
        options: (0..7).map(|i| format!("candidate {i}")).collect(),
        correct: 2,
        difficulty: 0.4,
        is_math: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item() -> McqItem {
        McqItem {
            qid: 1,
            bench: BenchKind::AstroExam,
            fact: FactId(9),
            stem: "Which is true?".into(),
            options: vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
            correct: 2,
            difficulty: 0.4,
            is_math: false,
        }
    }

    #[test]
    fn letters_and_text() {
        let q = item();
        assert_eq!(q.correct_letter(), 'C');
        assert_eq!(q.correct_text(), "c");
    }

    #[test]
    fn render_contains_all_options() {
        let r = item().render();
        for l in ["A. a", "B. b", "C. c", "D. d", "E. e"] {
            assert!(r.contains(l), "{r}");
        }
        assert!(r.starts_with("Which is true?"));
    }

    proptest! {
        #[test]
        fn prompt_tokens_count_the_render(
            stem in ".{0,40}",
            options in proptest::collection::vec(".{0,12}", 1..8),
        ) {
            let mut q = item();
            q.stem = stem;
            q.options = options;
            let rendered = token_count(&q.render());
            prop_assert_eq!(q.prompt_tokens(), rendered);
            prop_assert_eq!(PreparedItem::new(q).tokens(), rendered, "prepared once, counted the same");
        }
    }

    #[test]
    fn option_counts_per_bench() {
        assert_eq!(BenchKind::Synthetic.n_options(), 7);
        assert_eq!(BenchKind::AstroExam.n_options(), 5);
    }

    #[test]
    fn validation() {
        assert!(item().validate().is_ok());
        let mut wrong_count = item();
        wrong_count.options.pop();
        assert!(wrong_count.validate().is_err());
        let mut dup = item();
        dup.options[1] = "a".into();
        assert!(dup.validate().is_err());
        let mut oob = item();
        oob.correct = 9;
        assert!(oob.validate().is_err());
        let mut empty_stem = item();
        empty_stem.stem = "  ".into();
        assert!(empty_stem.validate().is_err());
    }
}
