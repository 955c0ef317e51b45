//! Parse strategies: Fast, Thorough, Salvage.

use mcqa_corpus::spdf::{ObjectKind, SpdfError, SpdfObject, SpdfReader};

use super::record::ParsedDocument;

/// Which parser processed a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseStrategy {
    /// Object walk without checksum enforcement — used first.
    Fast,
    /// Full structural validation with precise error reporting.
    Thorough,
    /// Best-effort recovery from damaged blobs.
    Salvage,
}

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The container was structurally invalid.
    Container(SpdfError),
    /// Objects decoded but no usable text came out.
    NoText,
    /// Output failed the quality bar even after escalation.
    LowQuality { score: f64 },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Container(e) => write!(f, "container error: {e}"),
            ParseError::NoText => write!(f, "no recoverable text"),
            ParseError::LowQuality { score } => write!(f, "quality {score:.2} below bar"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Assemble a [`ParsedDocument`] from decoded SPDF objects.
fn assemble(objects: &[SpdfObject], issues: Vec<String>) -> Result<ParsedDocument, ParseError> {
    let meta = SpdfReader::metadata(objects).ok();
    let mut sections = Vec::new();
    let mut all_issues = issues;
    for (i, o) in objects.iter().enumerate() {
        if o.kind != ObjectKind::Text {
            continue;
        }
        match std::str::from_utf8(&o.data) {
            Ok(s) => sections.push(ParsedDocument::section_from_payload(s)),
            Err(_) => all_issues.push(format!("object {i}: invalid UTF-8, skipped")),
        }
    }
    if sections.is_empty() {
        return Err(ParseError::NoText);
    }
    Ok(ParsedDocument { meta, sections, issues: all_issues })
}

/// Run one strategy over a blob.
pub(crate) fn parse_with(
    strategy: ParseStrategy,
    bytes: &[u8],
) -> Result<ParsedDocument, ParseError> {
    match strategy {
        ParseStrategy::Fast => {
            // Salvage machinery without checksum enforcement, but any
            // *other* issue disqualifies the fast path — escalation will
            // decide. `salvage` still FNV-hashes the whole body on every
            // call (≈ 1.3 MB a build at scale 0.02) and reports a mismatch
            // as an issue; the fast path finds that verdict by its wording
            // and drops it. What it skips is the refusal, not the hash —
            // too little work to earn `SpdfReader` a no-checksum entry.
            let r = SpdfReader::salvage(bytes);
            let only_checksum_skip = r.issues.iter().all(|i| i.contains("checksum"));
            if !r.issues.is_empty() && !only_checksum_skip {
                return Err(ParseError::Container(SpdfError::BadTrailer));
            }
            assemble(&r.objects, Vec::new())
        }
        ParseStrategy::Thorough => {
            let objects = SpdfReader::read(bytes).map_err(ParseError::Container)?;
            assemble(&objects, Vec::new())
        }
        ParseStrategy::Salvage => {
            let r = SpdfReader::salvage(bytes);
            assemble(&r.objects, r.issues)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_corpus::{DocId, DocKind, SpdfWriter};
    use mcqa_ontology::{Ontology, OntologyConfig};

    /// All strategies in escalation order.
    const ESCALATION: [ParseStrategy; 3] =
        [ParseStrategy::Fast, ParseStrategy::Thorough, ParseStrategy::Salvage];

    fn blob() -> Vec<u8> {
        let ont = Ontology::generate(&OntologyConfig {
            seed: 3,
            entities_per_kind: 25,
            qualitative_facts: 150,
            quantitative_facts: 5,
        });
        let doc = mcqa_corpus::synth::synthesize(
            &ont,
            &mcqa_corpus::SynthConfig::default(),
            DocId(0),
            DocKind::FullPaper,
        );
        SpdfWriter::write_document(&doc)
    }

    #[test]
    fn all_strategies_parse_clean_blob() {
        let b = blob();
        for s in ESCALATION {
            let doc = parse_with(s, &b).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            assert!(doc.meta.is_some());
            assert_eq!(doc.sections.len(), 5);
            assert!(doc.issues.is_empty(), "{s:?}: {:?}", doc.issues);
        }
    }

    #[test]
    fn fast_ignores_checksum_damage() {
        let mut b = blob();
        let n = b.len();
        b[n - 1] ^= 0xFF; // break only the checksum
        let fast = parse_with(ParseStrategy::Fast, &b).expect("fast skips checksums");
        assert_eq!(fast.sections.len(), 5);
        // Thorough must reject the same blob.
        assert!(matches!(
            parse_with(ParseStrategy::Thorough, &b),
            Err(ParseError::Container(SpdfError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn salvage_recovers_truncated_blob() {
        let b = blob();
        let cut = &b[..b.len() * 3 / 5];
        assert!(parse_with(ParseStrategy::Fast, cut).is_err());
        assert!(parse_with(ParseStrategy::Thorough, cut).is_err());
        let doc = parse_with(ParseStrategy::Salvage, cut).expect("salvage succeeds");
        assert!(!doc.sections.is_empty());
        assert!(!doc.issues.is_empty(), "salvage must report what went wrong");
    }

    #[test]
    fn hopeless_input_fails_everywhere() {
        let junk = vec![0u8; 64];
        for s in ESCALATION {
            assert!(parse_with(s, &junk).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn meta_only_blob_yields_no_text() {
        let meta_only = SpdfWriter::write_objects(&[(
            mcqa_corpus::spdf::ObjectKind::Meta,
            br#"{"id":1,"kind":"paper","title":"t","authors":[],"year":2020,"venue":"v","topic":"DnaRepair","keywords":[]}"#,
        )]);
        assert!(matches!(parse_with(ParseStrategy::Thorough, &meta_only), Err(ParseError::NoText)));
    }
}
