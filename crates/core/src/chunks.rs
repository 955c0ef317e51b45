//! Chunk records with document and fact provenance.

use mcqa_corpus::DocId;
use mcqa_ontology::FactId;
use serde::{Deserialize, Serialize};

/// One semantic chunk, with provenance back to its document and the facts
/// its text states (resolved through the corpus mention oracle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkRecord {
    /// Corpus-wide chunk id (stable: `doc_id << 16 | per-doc index`).
    pub chunk_id: u64,
    /// Source document.
    pub doc: DocId,
    /// Index within the document's chunk sequence.
    pub index_in_doc: u32,
    /// Chunk text.
    pub text: String,
    /// Token count.
    pub tokens: usize,
    /// Facts stated verbatim inside this chunk (provenance oracle).
    pub facts: Vec<FactId>,
}

impl ChunkRecord {
    /// Compose the corpus-wide id.
    pub fn make_id(doc: DocId, index_in_doc: u32) -> u64 {
        ((doc.0 as u64) << 16) | (index_in_doc as u64 & 0xFFFF)
    }

    /// The synthetic "file path" recorded in question provenance
    /// (mirrors the paper's `file path` field in Figure 2).
    pub fn file_path(&self) -> String {
        format!("corpus/doc_{:06}.spdf", self.doc.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_packs_doc_above_index() {
        for (d, i) in [(0u32, 0u32), (5, 3), (70_000, 65_535), (u32::MAX / 2, 12)] {
            let id = ChunkRecord::make_id(DocId(d), i);
            assert_eq!((id >> 16, id & 0xFFFF), (u64::from(d), u64::from(i)));
        }
    }

    #[test]
    fn ids_unique_across_docs() {
        let a = ChunkRecord::make_id(DocId(1), 0);
        let b = ChunkRecord::make_id(DocId(0), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn file_path_format() {
        let c = ChunkRecord {
            chunk_id: ChunkRecord::make_id(DocId(42), 1),
            doc: DocId(42),
            index_in_doc: 1,
            text: "t".into(),
            tokens: 1,
            facts: vec![],
        };
        assert_eq!(c.file_path(), "corpus/doc_000042.spdf");
    }
}
