//! The adaptive parsing engine: per-document strategy escalation plus a
//! pool-parallel batch driver with aggregate statistics.

use mcqa_runtime::{run_stage, Executor};

use super::quality::{self, QualityScore};
use super::record::ParsedDocument;
use super::strategy::{parse_with, ParseError, ParseStrategy};

/// Quality threshold a fast-path parse must clear to be accepted.
const FAST_QUALITY_BAR: f64 = QualityScore::ACCEPT;

/// Salvage output is accepted when its quality clears this (lower) bar.
const SALVAGE_QUALITY_BAR: f64 = 0.4;

/// Engine configuration, with nothing left to configure: both quality
/// bars are constants of this module. The type stays only because
/// `perfbench` builds its parser as
/// `AdaptiveParser::new(ParserConfig::default())`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParserConfig;

/// The outcome for one document.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// Successfully parsed.
    Parsed {
        /// The recovered document.
        doc: ParsedDocument,
        /// Which strategy finally succeeded.
        strategy: ParseStrategy,
        /// Quality score of the accepted output.
        quality: f64,
    },
    /// All strategies failed.
    Failed {
        /// The terminal error (from the last strategy tried).
        error: ParseError,
    },
}

impl ParseOutcome {
    /// The parsed document, if any.
    pub fn document(&self) -> Option<&ParsedDocument> {
        match self {
            ParseOutcome::Parsed { doc, .. } => Some(doc),
            ParseOutcome::Failed { .. } => None,
        }
    }

    /// True when parsing succeeded.
    pub fn is_parsed(&self) -> bool {
        matches!(self, ParseOutcome::Parsed { .. })
    }
}

/// Aggregate statistics over a batch parse.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Total documents submitted.
    pub(crate) total: usize,
    /// Parsed on the fast path.
    pub fast: usize,
    /// Escalated to the thorough parser.
    pub(crate) thorough: usize,
    /// Recovered by salvage.
    pub salvage: usize,
    /// Unrecoverable documents.
    pub(crate) failed: usize,
}

/// The adaptive parser.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveParser;

impl AdaptiveParser {
    /// The parser (`ParserConfig` carries nothing).
    pub fn new(_config: ParserConfig) -> Self {
        Self
    }

    /// Parse one blob with strategy escalation:
    ///
    /// 1. `Fast` — accepted only if its quality clears `FAST_QUALITY_BAR`;
    /// 2. `Thorough` — accepted if it parses at all (full validation);
    /// 3. `Salvage` — accepted if quality clears `SALVAGE_QUALITY_BAR`.
    pub fn parse(&self, bytes: &[u8]) -> ParseOutcome {
        // Fast path.
        if let Ok(doc) = parse_with(ParseStrategy::Fast, bytes) {
            let q = quality::score(&doc);
            if q.0 >= FAST_QUALITY_BAR {
                return ParseOutcome::Parsed { doc, strategy: ParseStrategy::Fast, quality: q.0 };
            }
        }
        // Thorough path.
        let thorough_err = match parse_with(ParseStrategy::Thorough, bytes) {
            Ok(doc) => {
                let q = quality::score(&doc);
                return ParseOutcome::Parsed {
                    doc,
                    strategy: ParseStrategy::Thorough,
                    quality: q.0,
                };
            }
            Err(e) => e,
        };
        // Salvage path.
        match parse_with(ParseStrategy::Salvage, bytes) {
            Ok(doc) => {
                let q = quality::score(&doc);
                if q.0 >= SALVAGE_QUALITY_BAR {
                    ParseOutcome::Parsed { doc, strategy: ParseStrategy::Salvage, quality: q.0 }
                } else {
                    ParseOutcome::Failed { error: ParseError::LowQuality { score: q.0 } }
                }
            }
            Err(_) => ParseOutcome::Failed { error: thorough_err },
        }
    }

    /// Parse a batch on `exec`'s pool; outcomes are index-aligned with
    /// `blobs`. Statistics are tallied from the ordered outcomes after the
    /// fan-out, so no lock is shared between workers.
    pub fn parse_batch<B: AsRef<[u8]> + Sync>(
        &self,
        exec: &Executor,
        blobs: &[B],
    ) -> (Vec<ParseOutcome>, BatchStats) {
        let (outcomes, _) = run_stage(exec, "parse-batch", (0..blobs.len()).collect(), |i| {
            self.parse(blobs[i].as_ref())
        });
        let mut s = BatchStats { total: outcomes.len(), ..Default::default() };
        for o in &outcomes {
            match o {
                ParseOutcome::Parsed { strategy, .. } => match strategy {
                    ParseStrategy::Fast => s.fast += 1,
                    ParseStrategy::Thorough => s.thorough += 1,
                    ParseStrategy::Salvage => s.salvage += 1,
                },
                ParseOutcome::Failed { .. } => s.failed += 1,
            }
        }
        (outcomes, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_corpus::{AcquisitionConfig, CorpusLibrary, DocId, SynthConfig};
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

    #[test]
    fn clean_corpus_goes_fast_path() {
        let lib = library(0.0);
        let parser = AdaptiveParser;
        let blobs: Vec<&[u8]> =
            (0..lib.len() as u32).map(|i| lib.download(DocId(i)).unwrap()).collect();
        let (outcomes, stats) = parser.parse_batch(Executor::global(), &blobs);
        assert_eq!(stats.total, 36);
        assert_eq!(stats.fast, 36, "clean blobs all take the fast path: {stats:?}");
        assert_eq!(stats.failed, 0);
        assert!(outcomes.iter().all(ParseOutcome::is_parsed));
    }

    #[test]
    fn corrupted_corpus_escalates_but_mostly_recovers() {
        let lib = library(0.5);
        let parser = AdaptiveParser;
        let blobs: Vec<&[u8]> =
            (0..lib.len() as u32).map(|i| lib.download(DocId(i)).unwrap()).collect();
        let (outcomes, stats) = parser.parse_batch(Executor::global(), &blobs);
        assert!(stats.fast < stats.total, "{stats:?}");
        assert!(stats.salvage > 0, "some docs must need salvage: {stats:?}");
        // Recovery: a majority of documents still produce text.
        let parsed = outcomes.iter().filter(|o| o.is_parsed()).count();
        assert!(parsed * 10 >= stats.total * 8, "parsed {parsed}/{}", stats.total);
        assert_eq!(stats.fast + stats.thorough + stats.salvage + stats.failed, stats.total);
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
    fn hopeless_blob_fails_cleanly() {
        let parser = AdaptiveParser;
        let outcome = parser.parse(&[0u8; 32]);
        assert!(!outcome.is_parsed());
        assert!(outcome.document().is_none());
    }

    #[test]
    fn hostile_spz_stream_fails_cleanly() {
        // A checksummed one-object SPDF whose Text stream is a literal "a"
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
        let parser = AdaptiveParser;
        let (outcomes, stats) = parser.parse_batch::<Vec<u8>>(Executor::global(), &[]);
        assert!(outcomes.is_empty());
        assert_eq!(stats.total, 0);
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
