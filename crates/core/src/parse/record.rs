//! Parsed-document records: what the chunker reads of a parsed document.

/// One parsed section.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParsedSection {
    /// Section heading (first line of the text object).
    pub(crate) title: String,
    /// Body text.
    pub(crate) text: String,
}

/// The parsed form of one document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedDocument {
    /// Sections in order.
    pub(crate) sections: Vec<ParsedSection>,
    /// Non-fatal issues encountered while parsing.
    pub(crate) issues: Vec<String>,
}

impl ParsedDocument {
    /// The full text: headings + bodies, in section order. This is the
    /// string the chunker consumes.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            out.push_str(&s.title);
            out.push_str("\n\n");
            out.push_str(&s.text);
            out.push_str("\n\n");
        }
        out
    }

    /// Total body character count (used by the quality scorer).
    pub(crate) fn text_len(&self) -> usize {
        self.sections.iter().map(|s| s.text.len()).sum()
    }

    /// Split a raw text-object payload (`"Title\n\nbody"`) into a section.
    pub(crate) fn section_from_payload(payload: &str) -> ParsedSection {
        match payload.split_once("\n\n") {
            Some((title, body)) => {
                ParsedSection { title: title.trim().to_string(), text: body.trim().to_string() }
            }
            None => ParsedSection { title: String::new(), text: payload.trim().to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParsedDocument {
        ParsedDocument {
            sections: vec![
                ParsedSection { title: "Abstract".into(), text: "Radiation matters.".into() },
                ParsedSection { title: "Results".into(), text: "It did.".into() },
            ],
            issues: vec!["checksum mismatch".into()],
        }
    }

    #[test]
    fn full_text_order() {
        let t = sample().full_text();
        assert!(t.find("Abstract").unwrap() < t.find("Results").unwrap());
        assert!(t.contains("Radiation matters."));
    }

    #[test]
    fn section_payload_split() {
        let s = ParsedDocument::section_from_payload("Intro\n\nBody text here.");
        assert_eq!(s.title, "Intro");
        assert_eq!(s.text, "Body text here.");
        let no_title = ParsedDocument::section_from_payload("just text");
        assert_eq!(no_title.title, "");
        assert_eq!(no_title.text, "just text");
    }

    #[test]
    fn text_len_sums_bodies() {
        assert_eq!(sample().text_len(), "Radiation matters.".len() + "It did.".len());
    }
}
