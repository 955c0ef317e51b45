//! The adaptive parsing engine: one strict read per document with a
//! salvage fallback, plus a pool-parallel batch driver.

use mcqa_corpus::spdf::{SpdfError, SpdfReader};
use mcqa_runtime::{run_stage, Executor, StageMetrics};

use super::quality;
use super::record::ParsedDocument;

/// Salvaged output is accepted when its quality clears this bar. A blob
/// the strict reader accepts is never scored.
const SALVAGE_QUALITY_BAR: f64 = 0.4;

/// Engine configuration, with nothing left to configure: the quality bar
/// is a constant of this module. The type stays only because `perfbench`
/// builds its parser as `AdaptiveParser::new(ParserConfig::default())`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParserConfig;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The strict read refused the container and salvage recovered no
    /// text: the strict reader's error.
    Container(SpdfError),
    /// The container is intact but holds no usable text.
    NoText,
    /// Salvaged text scored below `SALVAGE_QUALITY_BAR`.
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

/// The outcome for one document.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// Successfully parsed.
    Parsed {
        /// The recovered document.
        doc: ParsedDocument,
    },
    /// Refused.
    Failed {
        /// Why it was refused.
        error: ParseError,
    },
}

impl ParseOutcome {
    /// The parsed document, if any.
    pub fn document(&self) -> Option<&ParsedDocument> {
        match self {
            ParseOutcome::Parsed { doc } => Some(doc),
            ParseOutcome::Failed { .. } => None,
        }
    }

    /// True when parsing succeeded.
    pub fn is_parsed(&self) -> bool {
        matches!(self, ParseOutcome::Parsed { .. })
    }
}

/// Assemble a [`ParsedDocument`] from decoded SPDF text objects: one
/// section per object that is valid UTF-8, in order.
fn assemble(objects: &[Vec<u8>]) -> Result<ParsedDocument, ParseError> {
    let sections: Vec<_> = objects
        .iter()
        .filter_map(|o| std::str::from_utf8(o).ok())
        .map(ParsedDocument::section_from_payload)
        .collect();
    if sections.is_empty() {
        return Err(ParseError::NoText);
    }
    Ok(ParsedDocument { sections })
}

/// The adaptive parser.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveParser;

impl AdaptiveParser {
    /// The parser (`ParserConfig` carries nothing).
    pub fn new(_config: ParserConfig) -> Self {
        Self
    }

    /// Parse one blob. A blob the strict reader accepts is assembled as
    /// is. Otherwise the salvage walk's objects are assembled and scored
    /// once: accepted at `SALVAGE_QUALITY_BAR` or above, refused as
    /// `LowQuality` below it, and refused with the strict reader's error
    /// when they hold no text.
    pub fn parse(&self, bytes: &[u8]) -> ParseOutcome {
        let result = match SpdfReader::read(bytes) {
            Ok(objects) => assemble(&objects),
            Err(e) => match assemble(&SpdfReader::salvage(bytes)) {
                Ok(doc) => {
                    let score = quality::score(&doc);
                    if score >= SALVAGE_QUALITY_BAR {
                        Ok(doc)
                    } else {
                        Err(ParseError::LowQuality { score })
                    }
                }
                Err(_) => Err(ParseError::Container(e)),
            },
        };
        match result {
            Ok(doc) => ParseOutcome::Parsed { doc },
            Err(error) => ParseOutcome::Failed { error },
        }
    }

    /// Parse a batch on `exec`'s pool as the `parse` stage (the pipeline's
    /// Figure-1 row); outcomes are index-aligned with `blobs`. The stage
    /// row's `produced` counts the parsed documents.
    pub fn parse_batch<B: AsRef<[u8]> + Sync>(
        &self,
        exec: &Executor,
        blobs: &[B],
    ) -> (Vec<ParseOutcome>, StageMetrics) {
        let (outcomes, mut row) =
            run_stage(exec, "parse", (0..blobs.len()).collect(), |i| self.parse(blobs[i].as_ref()));
        row.produced = outcomes.iter().filter(|o| o.is_parsed()).count();
        (outcomes, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_corpus::{AcquisitionConfig, CorpusLibrary, DocId, DocKind, SpdfWriter, SynthConfig};
    use mcqa_ontology::{Ontology, OntologyConfig};

    fn library(corruption_rate: f64) -> CorpusLibrary {
        let ont = Ontology::generate(&OntologyConfig {
            seed: 11,
            entities_per_kind: 25,
            qualitative_facts: 200,
            quantitative_facts: 5,
        });
        CorpusLibrary::build(
            &ont,
            &AcquisitionConfig {
                seed: 11,
                full_papers: 24,
                abstracts: 12,
                corruption_rate,
                synth: SynthConfig::default(),
            },
            Executor::global(),
        )
    }

    /// One synthesized document of `kind` (a paper has five sections),
    /// written as SPDF.
    fn blob(kind: DocKind) -> Vec<u8> {
        let ont = Ontology::generate(&OntologyConfig {
            seed: 3,
            entities_per_kind: 25,
            qualitative_facts: 150,
            quantitative_facts: 5,
        });
        let doc = mcqa_corpus::synth::synthesize(&ont, &SynthConfig::default(), DocId(0), kind);
        SpdfWriter::write_document(&doc)
    }

    #[test]
    fn clean_blob_parses_to_its_sections() {
        let b = blob(DocKind::FullPaper);
        let doc = AdaptiveParser.parse(&b).document().cloned().expect("clean blob parses");
        assert_eq!(doc.sections.len(), 5);
        assert_eq!(Ok(doc), assemble(&SpdfReader::salvage(&b)), "salvage reads it the same way");
    }

    #[test]
    fn checksum_damage_is_salvaged_to_the_same_sections() {
        let clean = blob(DocKind::FullPaper);
        let mut b = clean.clone();
        let n = b.len();
        b[n - 1] ^= 0xFF; // break only the checksum
        assert!(matches!(SpdfReader::read(&b), Err(SpdfError::ChecksumMismatch { .. })));
        assert_eq!(AdaptiveParser.parse(&b), AdaptiveParser.parse(&clean));
    }

    #[test]
    fn salvage_recovers_truncated_blob() {
        let b = blob(DocKind::FullPaper);
        let cut = &b[..b.len() * 3 / 5];
        assert!(SpdfReader::read(cut).is_err());
        assert!(SpdfReader::salvage(cut).len() < SpdfReader::read(&b).unwrap().len());
        let doc = AdaptiveParser.parse(cut).document().cloned().expect("salvage succeeds");
        assert!(!doc.sections.is_empty() && doc.sections.len() < 5);
    }

    #[test]
    fn a_blob_with_no_text_object_yields_no_text() {
        // No object at all, and one whose bytes are not UTF-8.
        for objects in [&[][..], &[b"\xff\xfe section".as_slice()][..]] {
            let b = SpdfWriter::write_objects(objects);
            assert_eq!(
                AdaptiveParser.parse(&b),
                ParseOutcome::Failed { error: ParseError::NoText }
            );
        }
    }

    /// A section body of rules and dashes: printable, but without a token
    /// or a sentence, so it scores below `SALVAGE_QUALITY_BAR`.
    const RULED_TABLE: &[u8] = b"Table 2\n\n|---|---|---|\n|---|---|---|";

    #[test]
    fn an_intact_blob_parses_whatever_its_text_scores() {
        let b = SpdfWriter::write_objects(&[RULED_TABLE]);
        let doc =
            AdaptiveParser.parse(&b).document().cloned().expect("intact blobs are not scored");
        assert!(quality::score(&doc) < SALVAGE_QUALITY_BAR, "{}", quality::score(&doc));
    }

    #[test]
    fn the_same_text_behind_a_damaged_trailer_is_low_quality() {
        let mut b = SpdfWriter::write_objects(&[RULED_TABLE]);
        let n = b.len();
        b[n - 1] ^= 0x01;
        let ParseOutcome::Failed { error: ParseError::LowQuality { score } } =
            AdaptiveParser.parse(&b)
        else {
            panic!("salvaged text below the bar must be refused");
        };
        assert!(score < SALVAGE_QUALITY_BAR);
    }

    #[test]
    fn a_damaged_blob_without_text_fails_with_the_strict_error() {
        let mut empty = SpdfWriter::write_objects(&[]);
        let n = empty.len();
        empty[n - 1] ^= 0x80;
        let strict = SpdfReader::read(&empty).unwrap_err();
        assert!(matches!(strict, SpdfError::ChecksumMismatch { .. }));
        assert_eq!(
            AdaptiveParser.parse(&empty),
            ParseOutcome::Failed { error: ParseError::Container(strict) }
        );
    }

    #[test]
    fn hopeless_blob_fails_cleanly() {
        let junk = [0u8; 32];
        assert!(SpdfReader::salvage(&junk).is_empty());
        let outcome = AdaptiveParser.parse(&junk);
        assert_eq!(
            outcome,
            ParseOutcome::Failed { error: ParseError::Container(SpdfError::BadMagic) }
        );
        assert!(!outcome.is_parsed());
        assert!(outcome.document().is_none());
    }

    /// Every truncation and every single-byte flip (masks `0x01`, `0x80`,
    /// `0xff`) of one written abstract: neither reader nor the parser
    /// panics; wherever the strict read succeeds, salvage returns the same
    /// objects and the buffer re-encodes byte-identically; and the parser
    /// keeps exactly the sections its one decision names. Then every body
    /// flip again with the checksum re-sealed, so the strict read accepts
    /// some of them and the agreement is tested on more than one buffer.
    #[test]
    fn mutated_spdf_never_panics_and_salvage_agrees_with_strict() {
        let original = blob(DocKind::Abstract);
        let check = |bytes: &[u8]| -> bool {
            let outcome = AdaptiveParser.parse(bytes);
            let salvage = SpdfReader::salvage(bytes);
            match SpdfReader::read(bytes) {
                Ok(objects) => {
                    assert_eq!(salvage, objects, "salvage must agree with a strict read");
                    let payloads: Vec<&[u8]> = objects.iter().map(Vec::as_slice).collect();
                    assert_eq!(SpdfWriter::write_objects(&payloads), bytes, "re-encode");
                    assert_eq!(outcome.document().cloned(), assemble(&objects).ok());
                    true
                }
                Err(_) => {
                    let doc = assemble(&salvage).ok();
                    let kept = doc.filter(|d| quality::score(d) >= SALVAGE_QUALITY_BAR);
                    assert_eq!(outcome.document().cloned(), kept);
                    false
                }
            }
        };
        assert!(check(&original));
        let mut strict_accepts = 0;
        for len in 0..original.len() {
            strict_accepts += usize::from(check(&original[..len]));
        }
        let mut mutant = original.clone();
        for at in 0..original.len() {
            for mask in [0x01, 0x80, 0xff] {
                mutant[at] ^= mask;
                strict_accepts += usize::from(check(&mutant));
                mutant[at] ^= mask;
            }
        }
        // FNV-1a changes under any one-byte change, so no mutant is valid.
        assert_eq!(strict_accepts, 0);

        // The same flips inside the body, with the checksum re-sealed over
        // them: the strict read now accepts the flips that still decode
        // (stored text, flag bits it ignores), and salvage must agree.
        let body = original.len() - 12;
        let mut resealed_accepts = 0;
        for at in 0..body {
            for mask in [0x01, 0x80, 0xff] {
                mutant[at] ^= mask;
                let checksum = mcqa_util::fnv1a(&mutant[..body]);
                let mut resealed = mutant[..body].to_vec();
                resealed.extend_from_slice(mcqa_corpus::spdf::TRAILER_MAGIC);
                resealed.extend_from_slice(&checksum.to_le_bytes());
                if let Ok(objects) = SpdfReader::read(&resealed) {
                    assert_eq!(SpdfReader::salvage(&resealed), objects, "flip {at} ^ {mask:#x}");
                    resealed_accepts += 1;
                }
                mutant[at] ^= mask;
            }
        }
        assert!(resealed_accepts > 0);
    }

    #[test]
    fn clean_corpus_parses_every_blob_strictly() {
        let lib = library(0.0);
        let blobs: Vec<&[u8]> =
            (0..lib.len() as u32).map(|i| lib.download(DocId(i)).unwrap()).collect();
        assert!(blobs.iter().all(|b| SpdfReader::read(b).is_ok()));
        let (outcomes, row) = AdaptiveParser.parse_batch(Executor::global(), &blobs);
        assert_eq!((row.name.as_str(), row.items, row.produced), ("parse", 36, 36));
        assert!(outcomes.iter().all(ParseOutcome::is_parsed));
    }

    #[test]
    fn corrupted_corpus_mostly_recovers_through_salvage() {
        let lib = library(0.5);
        let blobs: Vec<&[u8]> =
            (0..lib.len() as u32).map(|i| lib.download(DocId(i)).unwrap()).collect();
        let (outcomes, row) = AdaptiveParser.parse_batch(Executor::global(), &blobs);
        let salvaged = blobs
            .iter()
            .zip(&outcomes)
            .filter(|(b, o)| SpdfReader::read(b).is_err() && o.is_parsed())
            .count();
        assert!(salvaged > 0, "some docs must need salvage");
        // Recovery: a majority of documents still produce text.
        let parsed = outcomes.iter().filter(|o| o.is_parsed()).count();
        assert_eq!(row.produced, parsed);
        assert!(parsed * 10 >= blobs.len() * 8, "parsed {parsed}/{}", blobs.len());
    }

    #[test]
    fn parsed_text_matches_ground_truth() {
        let lib = library(0.0);
        let parser = AdaptiveParser;
        for i in 0..lib.len() as u32 {
            let id = DocId(i);
            let outcome = parser.parse(lib.download(id).unwrap());
            let doc = outcome.document().unwrap_or_else(|| panic!("doc {i} failed"));
            let truth = lib.document(id).unwrap();
            assert_eq!(doc.sections.len(), truth.sections.len());
            for (p, t) in doc.sections.iter().zip(&truth.sections) {
                assert_eq!(p.title, t.title);
                assert_eq!(p.text, t.text());
            }
        }
    }

    #[test]
    fn hostile_spz_stream_fails_cleanly() {
        // A checksummed one-object SPDF whose text stream is a literal "a"
        // and then a match of length ≈ u64::MAX, declaring 100 bytes.
        let stream = [
            0x00, 0x01, b'a', 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0x01,
        ];
        let mut blob = mcqa_corpus::spdf::MAGIC.to_vec();
        blob.extend_from_slice(&mcqa_corpus::spdf::VERSION.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&[1, 1]); // Text, SPZ-compressed
        blob.extend_from_slice(&100u32.to_le_bytes());
        blob.extend_from_slice(&(stream.len() as u32).to_le_bytes());
        blob.extend_from_slice(&stream);
        let checksum = mcqa_util::fnv1a(&blob);
        blob.extend_from_slice(mcqa_corpus::spdf::TRAILER_MAGIC);
        blob.extend_from_slice(&checksum.to_le_bytes());
        let outcome = AdaptiveParser.parse(&blob);
        assert!(!outcome.is_parsed(), "{outcome:?}");
    }

    #[test]
    fn empty_batch() {
        let (outcomes, row) = AdaptiveParser.parse_batch::<Vec<u8>>(Executor::global(), &[]);
        assert!(outcomes.is_empty());
        assert_eq!((row.items, row.produced), (0, 0));
    }

    #[test]
    fn batch_outcomes_are_index_aligned() {
        let lib = library(0.0);
        let parser = AdaptiveParser;
        let blobs: Vec<&[u8]> = (0..4u32).map(|i| lib.download(DocId(i)).unwrap()).collect();
        let (outcomes, _) = parser.parse_batch(Executor::global(), &blobs);
        assert_eq!(outcomes.len(), blobs.len());
        for (i, (o, blob)) in outcomes.iter().zip(&blobs).enumerate() {
            assert!(o.is_parsed(), "blob {i}");
            assert_eq!(*o, parser.parse(blob), "outcome {i} must be its own blob's parse");
        }
        // The four documents differ, so a reordered batch cannot pass.
        assert!(outcomes.windows(2).all(|w| w[0] != w[1]));
    }
}
