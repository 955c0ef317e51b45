//! The logical document model and its provenance oracle.

use mcqa_ontology::FactId;

/// Stable document identifier within one corpus library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Whether a document is a full paper or only an abstract.
///
/// The paper's corpus mixes 14,115 open-access full texts with 8,433
/// abstract-only records from Semantic Scholar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocKind {
    /// Full text with all sections.
    FullPaper,
    /// Title + abstract only.
    Abstract,
}

/// One section of a document.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section heading ("Abstract", "Introduction", ...).
    pub title: String,
    /// Paragraphs; each paragraph is a list of sentences.
    pub(crate) paragraphs: Vec<Vec<String>>,
}

impl Section {
    /// The section's text: sentences joined by spaces, paragraphs by
    /// blank lines.
    pub fn text(&self) -> String {
        self.paragraphs.iter().map(|p| p.join(" ")).collect::<Vec<_>>().join("\n\n")
    }
}

/// A ground-truth record: fact `fact` is stated verbatim as `sentence`
/// inside section `section` of the document.
///
/// This is the oracle that makes end-to-end provenance *testable*: a chunk
/// supports a fact iff it contains one of the fact's mention sentences.
#[derive(Debug, Clone, PartialEq)]
pub struct FactMention {
    /// The mentioned fact.
    pub fact: FactId,
    /// Index of the containing section.
    pub section: usize,
    /// The exact realised sentence.
    pub sentence: String,
}

/// A complete logical document.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Library-local id.
    pub id: DocId,
    /// Full paper or abstract.
    pub(crate) kind: DocKind,
    /// Ordered sections.
    pub sections: Vec<Section>,
    /// Provenance oracle: which facts are stated where.
    pub mentions: Vec<FactMention>,
}

impl Document {
    /// The document's full text: sections separated by headings.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            out.push_str(&s.title);
            out.push_str("\n\n");
            out.push_str(&s.text());
            out.push_str("\n\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Document {
        /// Total sentence count across sections.
        pub(crate) fn sentence_count(&self) -> usize {
            self.sections.iter().map(|s| s.paragraphs.iter().map(Vec::len).sum::<usize>()).sum()
        }

        /// Verify the oracle: every mention's sentence must appear verbatim
        /// in its claimed section. Returns the ids of violated mentions.
        pub(crate) fn verify_mentions(&self) -> Vec<FactId> {
            let mut bad = Vec::new();
            for m in &self.mentions {
                let ok = self
                    .sections
                    .get(m.section)
                    .map(|s| s.paragraphs.iter().any(|p| p.iter().any(|sent| sent == &m.sentence)))
                    .unwrap_or(false);
                if !ok {
                    bad.push(m.fact);
                }
            }
            bad
        }
    }

    fn tiny_doc() -> Document {
        Document {
            id: DocId(7),
            kind: DocKind::FullPaper,
            sections: vec![
                Section {
                    title: "Abstract".into(),
                    paragraphs: vec![vec!["First sentence.".into(), "KEY fact sentence.".into()]],
                },
                Section {
                    title: "Results".into(),
                    paragraphs: vec![vec!["Another sentence.".into()]],
                },
            ],
            mentions: vec![FactMention {
                fact: FactId(3),
                section: 0,
                sentence: "KEY fact sentence.".into(),
            }],
        }
    }

    #[test]
    fn full_text_contains_sections_in_order() {
        let d = tiny_doc();
        let t = d.full_text();
        let ia = t.find("Abstract").unwrap();
        let ir = t.find("Results").unwrap();
        assert!(ia < ir);
        assert!(t.contains("KEY fact sentence."));
    }

    #[test]
    fn sentence_count() {
        assert_eq!(tiny_doc().sentence_count(), 3);
    }

    #[test]
    fn verify_mentions_ok_and_violated() {
        let mut d = tiny_doc();
        assert!(d.verify_mentions().is_empty());
        d.mentions.push(FactMention {
            fact: FactId(9),
            section: 1,
            sentence: "Not actually present.".into(),
        });
        assert_eq!(d.verify_mentions(), vec![FactId(9)]);
        // Out-of-range section is a violation too, not a panic.
        d.mentions.push(FactMention { fact: FactId(10), section: 5, sentence: "x".into() });
        assert_eq!(d.verify_mentions(), vec![FactId(9), FactId(10)]);
    }

    #[test]
    fn section_text_joins_paragraphs() {
        let s = Section {
            title: "T".into(),
            paragraphs: vec![vec!["A.".into(), "B.".into()], vec!["C.".into()]],
        };
        assert_eq!(s.text(), "A. B.\n\nC.");
    }
}
