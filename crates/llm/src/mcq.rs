//! Multiple-choice question items as the evaluator sees them.

use mcqa_ontology::FactId;
use mcqa_util::StableHasher;

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
    pub fn n_options(self) -> usize {
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

/// An [`McqItem`] with the work that depends on the item alone done once:
/// its [`McqItem::render`] text and a digest of every field, which is how
/// an answer request addresses its item ([`crate::ModelRequest::cache_key`]).
///
/// Read-only after construction (private fields, no setter), so the render
/// and the digest always describe the item beside them. The evaluator
/// prepares each question once and shares it, behind an `Arc`, with every
/// (model, condition) request that asks it.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedItem {
    item: McqItem,
    rendered: String,
    digest: u64,
}

impl PreparedItem {
    /// Render and digest `item`.
    pub fn new(item: McqItem) -> Self {
        let mut h = StableHasher::new();
        crate::endpoint::walk_item(&mut h, &item);
        Self { rendered: item.render(), digest: h.finish(), item }
    }

    /// The question.
    pub fn item(&self) -> &McqItem {
        &self.item
    }

    /// [`McqItem::render`] of the question.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }

    /// Digest of every field of the question: equal for equal items,
    /// distinct otherwise (up to a 64-bit collision).
    pub fn digest(&self) -> u64 {
        self.digest
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
        assert_eq!(PreparedItem::new(item()).rendered(), r, "prepared once, rendered the same");
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
