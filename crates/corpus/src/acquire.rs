//! Corpus acquisition: a Semantic-Scholar-style library simulator.
//!
//! The paper downloads 14,115 full texts and 8,433 abstracts by keyword
//! search. [`CorpusLibrary`] plays that role: it synthesises the whole
//! document population up front (batched over the caller's
//! [`Executor`]), renders each document to SPDF bytes, optionally corrupts
//! a configurable fraction (real PDF piles are never clean — this feeds
//! the parser's fallback path), and exposes keyword search + download.

use mcqa_ontology::Ontology;
use mcqa_runtime::{run_stage_batched, Executor};
use mcqa_util::KeyedStochastic;
use serde::{Deserialize, Serialize};

use crate::doc::{DocId, DocKind, Document};
use crate::spdf::SpdfWriter;
use crate::synth::{synthesize, SynthConfig};

/// How a blob was damaged (if at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Corruption {
    /// Intact file.
    None,
    /// Tail truncated (interrupted download).
    Truncated,
    /// Random byte flipped in the body.
    BitFlip,
    /// Checksum trailer zeroed (damaged metadata).
    BadChecksum,
}

/// Acquisition configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcquisitionConfig {
    /// Seed for corruption and library assembly.
    pub seed: u64,
    /// Number of full papers.
    pub full_papers: usize,
    /// Number of abstract-only records.
    pub abstracts: usize,
    /// Fraction of blobs damaged in transit (0..1).
    pub corruption_rate: f64,
    /// Document synthesis settings.
    pub synth: SynthConfig,
}

impl Default for AcquisitionConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            // Paper scale × 0.1 by default (14,115 / 8,433 at 1.0).
            full_papers: 1_412,
            abstracts: 843,
            corruption_rate: 0.02,
            synth: SynthConfig::default(),
        }
    }
}

impl AcquisitionConfig {
    /// The paper's corpus size (14,115 papers + 8,433 abstracts) scaled by
    /// `scale`, with the default corruption rate.
    pub fn paper_scale(scale: f64, seed: u64) -> Self {
        Self {
            seed,
            full_papers: (14_115_f64 * scale).round().max(1.0) as usize,
            abstracts: (8_433_f64 * scale).round().max(1.0) as usize,
            corruption_rate: 0.02,
            synth: SynthConfig { seed, ..SynthConfig::default() },
        }
    }
}

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Matching document.
    pub id: DocId,
    /// Keyword-overlap score (higher is better).
    pub score: f64,
}

/// The assembled corpus library.
///
/// Slots are append-only: removals tombstone the slot (so `DocId`s stay
/// stable and a later upsert of the same id is unambiguous) and edits via
/// [`crate::edit::EditBatch`] mutate documents in place or append new
/// ones. `len()` counts every slot ever allocated; `live_len()` counts
/// documents that still exist.
pub struct CorpusLibrary {
    docs: Vec<Document>,
    blobs: Vec<Vec<u8>>,
    corruption: Vec<Corruption>,
    deleted: Vec<bool>,
    config: AcquisitionConfig,
    exec: Executor,
}

impl Clone for CorpusLibrary {
    fn clone(&self) -> Self {
        Self {
            docs: self.docs.clone(),
            blobs: self.blobs.clone(),
            corruption: self.corruption.clone(),
            deleted: self.deleted.clone(),
            config: self.config.clone(),
            exec: self.exec.clone(),
        }
    }
}

impl CorpusLibrary {
    /// Build the library on `exec`'s pool: synthesise every document
    /// (batched), render to SPDF, and apply transit corruption
    /// deterministically. The executor is retained for later
    /// [`CorpusLibrary::search`] calls.
    pub fn build(ontology: &Ontology, config: &AcquisitionConfig, exec: &Executor) -> Self {
        let total = config.full_papers + config.abstracts;
        let (doc_results, _) =
            run_stage_batched(exec, "synthesize", (0..total as u32).collect(), 0, |i| {
                let kind = if (i as usize) < config.full_papers {
                    DocKind::FullPaper
                } else {
                    DocKind::Abstract
                };
                Ok::<_, String>(synthesize(ontology, &config.synth, DocId(i), kind))
            });
        let docs: Vec<Document> =
            doc_results.into_iter().map(|r| r.expect("synthesis cannot fail")).collect();

        let rng = KeyedStochastic::new(config.seed ^ 0xC0_22_06_10);
        let (blob_results, _) =
            run_stage_batched(exec, "render", (0..docs.len()).collect(), 0, |i| {
                let doc = &docs[i];
                let mut bytes = SpdfWriter::write_document(doc);
                let key = doc.id.0.to_string();
                let corruption = if rng.bernoulli(config.corruption_rate, &["corrupt?", &key]) {
                    match rng.below(3, &["mode", &key]) {
                        0 => {
                            let keep = bytes.len() / 2 + rng.below(bytes.len() / 3, &["cut", &key]);
                            bytes.truncate(keep);
                            Corruption::Truncated
                        }
                        1 => {
                            let at = 10 + rng.below(bytes.len().saturating_sub(20), &["pos", &key]);
                            bytes[at] ^= 0x40;
                            Corruption::BitFlip
                        }
                        _ => {
                            let n = bytes.len();
                            for b in &mut bytes[n - 8..] {
                                *b = 0;
                            }
                            Corruption::BadChecksum
                        }
                    }
                } else {
                    Corruption::None
                };
                Ok::<_, String>((bytes, corruption))
            });

        let (blobs, corruption): (Vec<_>, Vec<_>) =
            blob_results.into_iter().map(|r| r.expect("rendering cannot fail")).unzip();
        let deleted = vec![false; docs.len()];
        Self { docs, blobs, corruption, deleted, config: config.clone(), exec: exec.clone() }
    }

    /// Number of document slots ever allocated (including deleted ones —
    /// `DocId`s index into this range).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the library holds no document slots.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Number of live (non-deleted) documents.
    pub fn live_len(&self) -> usize {
        self.deleted.iter().filter(|d| !**d).count()
    }

    /// Ids of all live documents, ascending.
    pub fn live_ids(&self) -> Vec<DocId> {
        (0..self.docs.len() as u32).map(DocId).filter(|id| !self.is_deleted(*id)).collect()
    }

    /// True when the slot exists but the document was removed by an edit.
    pub fn is_deleted(&self, id: DocId) -> bool {
        self.deleted.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Ground-truth logical document (the oracle side; the pipeline should
    /// use [`CorpusLibrary::download`] + parsing for the data side). `None`
    /// for out-of-range or deleted ids.
    pub fn document(&self, id: DocId) -> Option<&Document> {
        if self.is_deleted(id) {
            return None;
        }
        self.docs.get(id.0 as usize)
    }

    /// All document slots, including deleted ones (filter with
    /// [`CorpusLibrary::is_deleted`] when liveness matters).
    pub fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// Download a document's SPDF bytes (possibly damaged in transit).
    /// `None` for out-of-range or deleted ids.
    pub fn download(&self, id: DocId) -> Option<&[u8]> {
        if self.is_deleted(id) {
            return None;
        }
        self.blobs.get(id.0 as usize).map(Vec::as_slice)
    }

    /// The corruption applied to a blob (ground truth for parser tests).
    pub fn corruption(&self, id: DocId) -> Option<Corruption> {
        self.corruption.get(id.0 as usize).copied()
    }

    /// The build configuration.
    pub fn config(&self) -> &AcquisitionConfig {
        &self.config
    }

    /// Replace a live slot's document and blob in place (edit support).
    pub(crate) fn slot_replace(&mut self, id: DocId, doc: Document, blob: Vec<u8>) {
        let i = id.0 as usize;
        assert!(i < self.docs.len() && !self.deleted[i], "slot_replace on missing doc {id:?}");
        self.docs[i] = doc;
        self.blobs[i] = blob;
        self.corruption[i] = Corruption::None;
    }

    /// Append a new document slot (edit support). The document's id must
    /// equal the next slot index.
    pub(crate) fn slot_append(&mut self, doc: Document, blob: Vec<u8>) -> DocId {
        let id = DocId(self.docs.len() as u32);
        assert_eq!(doc.id, id, "appended document must carry the next DocId");
        self.docs.push(doc);
        self.blobs.push(blob);
        self.corruption.push(Corruption::None);
        self.deleted.push(false);
        id
    }

    /// Tombstone a slot (edit support). Returns false when already gone.
    pub(crate) fn slot_remove(&mut self, id: DocId) -> bool {
        let i = id.0 as usize;
        if i >= self.docs.len() || self.deleted[i] {
            return false;
        }
        self.deleted[i] = true;
        true
    }

    /// Keyword search over titles and keyword lists, Semantic-Scholar
    /// style. Case-insensitive token overlap; results sorted by score then
    /// id (deterministic). Scoring fans out on the executor the library
    /// was built with.
    pub fn search(&self, query: &str) -> Vec<SearchHit> {
        let q_tokens: std::collections::HashSet<String> =
            mcqa_text::tokenize(query).into_iter().collect();
        if q_tokens.is_empty() {
            return Vec::new();
        }
        let (score_results, _) =
            run_stage_batched(&self.exec, "search", (0..self.docs.len()).collect(), 0, |i| {
                if self.deleted[i] {
                    return Ok::<_, String>(None);
                }
                let doc = &self.docs[i];
                let mut hay: Vec<String> = mcqa_text::tokenize(&doc.title);
                for k in &doc.keywords {
                    hay.extend(mcqa_text::tokenize(k));
                }
                hay.extend(mcqa_text::tokenize(doc.topic.name()));
                let hay: std::collections::HashSet<String> = hay.into_iter().collect();
                let overlap = q_tokens.intersection(&hay).count();
                Ok::<_, String>((overlap > 0).then(|| SearchHit {
                    id: doc.id,
                    score: overlap as f64 / q_tokens.len() as f64,
                }))
            });
        let mut hits: Vec<SearchHit> =
            score_results.into_iter().filter_map(|r| r.expect("scoring cannot fail")).collect();
        hits.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.id.cmp(&b.id))
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_ontology::OntologyConfig;

    fn small_library() -> (Ontology, CorpusLibrary) {
        let ont = Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 350,
            quantitative_facts: 20,
        });
        let cfg = AcquisitionConfig {
            seed: 42,
            full_papers: 30,
            abstracts: 15,
            corruption_rate: 0.15,
            synth: SynthConfig::default(),
        };
        let lib = CorpusLibrary::build(&ont, &cfg, Executor::global());
        (ont, lib)
    }

    #[test]
    fn build_counts_and_kinds() {
        let (_, lib) = small_library();
        assert_eq!(lib.len(), 45);
        let papers = lib.documents().iter().filter(|d| d.kind == DocKind::FullPaper).count();
        assert_eq!(papers, 30);
    }

    #[test]
    fn deterministic_across_builds() {
        let (ont, lib) = small_library();
        let lib2 = CorpusLibrary::build(&ont, lib.config(), Executor::global());
        for i in 0..lib.len() as u32 {
            assert_eq!(lib.download(DocId(i)), lib2.download(DocId(i)), "blob {i}");
            assert_eq!(lib.corruption(DocId(i)), lib2.corruption(DocId(i)));
        }
    }

    #[test]
    fn corruption_rate_applied() {
        let (_, lib) = small_library();
        let n = (0..lib.len() as u32)
            .filter(|i| lib.corruption(DocId(*i)) != Some(Corruption::None))
            .count();
        // 15% of 45 ≈ 7; tolerate binomial noise.
        assert!((2..=15).contains(&n), "corrupted {n} of {}", lib.len());
        // Intact blobs read strictly; corrupted ones must fail or salvage.
        for i in 0..lib.len() as u32 {
            let id = DocId(i);
            let blob = lib.download(id).unwrap();
            match lib.corruption(id).unwrap() {
                Corruption::None => {
                    assert!(
                        crate::spdf::SpdfReader::read(blob).is_ok(),
                        "doc {i} intact but unreadable"
                    );
                }
                _ => {
                    assert!(
                        crate::spdf::SpdfReader::read(blob).is_err(),
                        "doc {i} corrupted but passed strict read"
                    );
                }
            }
        }
    }

    #[test]
    fn search_finds_topical_documents() {
        let (_, lib) = small_library();
        // Query with a topic name guaranteed to exist in the corpus.
        let some_topic = lib.documents()[0].topic;
        let hits = lib.search(some_topic.name());
        assert!(!hits.is_empty());
        // Scores sorted descending.
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // Top hit really matches.
        let top = lib.document(hits[0].id).unwrap();
        let hay = format!("{} {} {:?}", top.title, top.keywords.join(" "), top.topic.name());
        assert!(
            mcqa_text::tokenize(some_topic.name())
                .iter()
                .any(|t| mcqa_text::tokenize(&hay).contains(t)),
            "top hit shares no query token"
        );
    }

    #[test]
    fn search_empty_query() {
        let (_, lib) = small_library();
        assert!(lib.search("").is_empty());
        assert!(lib.search("??!!..").is_empty());
    }

    #[test]
    fn download_out_of_range() {
        let (_, lib) = small_library();
        assert!(lib.download(DocId(9999)).is_none());
        assert!(lib.document(DocId(9999)).is_none());
        assert!(lib.corruption(DocId(9999)).is_none());
    }

    #[test]
    fn paper_scale_config() {
        let c = AcquisitionConfig::paper_scale(1.0, 7);
        assert_eq!(c.full_papers, 14_115);
        assert_eq!(c.abstracts, 8_433);
        let c01 = AcquisitionConfig::paper_scale(0.01, 7);
        assert_eq!(c01.full_papers, 141);
        assert_eq!(c01.abstracts, 84);
    }
}
