//! Corpus edits: the seeded add/modify/delete batches that drive
//! incremental ingest.
//!
//! A live corpus drifts: papers get revised, new ones arrive, retractions
//! disappear. [`EditBatch`] models one drift step as a deterministic
//! sequence of [`EditOp`]s, and [`CorpusLibrary::apply_edits`] replays it
//! against the library — re-synthesising modified documents with a salted
//! seed (so their content genuinely changes), appending additions at fresh
//! `DocId`s, and tombstoning removals. `repro ingest` builds a synthetic
//! batch, applies it, and measures incremental-vs-full rebuild cost.

use mcqa_ontology::Ontology;
use mcqa_util::KeyedStochastic;

use crate::acquire::CorpusLibrary;
use crate::doc::{DocId, DocKind};
use crate::spdf::SpdfWriter;
use crate::synth::{synthesize, SynthConfig};

/// One corpus mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Synthesise and append a brand-new document of `kind`.
    Add {
        /// Full paper or abstract-only record.
        kind: DocKind,
    },
    /// Re-synthesise an existing document under a salted seed (a revision:
    /// same id, new content).
    Modify {
        /// The document to revise.
        id: DocId,
    },
    /// Tombstone a document (a retraction).
    Remove {
        /// The document to retract.
        id: DocId,
    },
}

/// A deterministic batch of corpus edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditBatch {
    /// Ordered operations; later ops see earlier ops' effects.
    pub ops: Vec<EditOp>,
    /// Seed salting the re-synthesis of modified/added documents.
    pub seed: u64,
}

impl EditBatch {
    /// Draw a synthetic batch of `n` edits against the library's current
    /// live set: roughly half modifications, a quarter additions, a
    /// quarter removals (the paper's drift profile — revisions dominate).
    /// Ids are drawn without replacement so one batch never edits the
    /// same document twice.
    pub fn synthetic(library: &CorpusLibrary, seed: u64, n: usize) -> Self {
        let rng = KeyedStochastic::new(seed ^ 0xED17_BA7C);
        let mut live = library.live_ids();
        // Shuffle the live ids once, then consume from the tail — cheap
        // draw-without-replacement.
        let perm = rng.permutation(live.len(), &["perm"]);
        live = perm.into_iter().map(|i| live[i]).collect();
        let mut ops = Vec::with_capacity(n);
        for i in 0..n {
            let key = i.to_string();
            let roll = rng.below(4, &["op", &key]);
            let op = match roll {
                0 => EditOp::Add {
                    kind: if rng.bernoulli(0.6, &["kind", &key]) {
                        DocKind::FullPaper
                    } else {
                        DocKind::Abstract
                    },
                },
                1 => match live.pop() {
                    Some(id) => EditOp::Remove { id },
                    None => EditOp::Add { kind: DocKind::Abstract },
                },
                _ => match live.pop() {
                    Some(id) => EditOp::Modify { id },
                    None => EditOp::Add { kind: DocKind::FullPaper },
                },
            };
            ops.push(op);
        }
        Self { ops, seed }
    }

    /// Counts of (added, modified, removed) ops in the batch.
    pub fn profile(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for op in &self.ops {
            match op {
                EditOp::Add { .. } => counts.0 += 1,
                EditOp::Modify { .. } => counts.1 += 1,
                EditOp::Remove { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

impl CorpusLibrary {
    /// Apply an edit batch in order. Deterministic: the same library,
    /// ontology, and batch always produce the same post-edit corpus.
    /// Panics if an op targets a missing or already-deleted document —
    /// batches are planned against the current live set.
    pub fn apply_edits(&mut self, ontology: &Ontology, batch: &EditBatch) {
        for (i, op) in batch.ops.iter().enumerate() {
            // Salt per op so two Modifys of different docs (or a Modify
            // replayed in a later batch) synthesise different content.
            let salt = batch.seed ^ 0x5EED_ED17 ^ ((i as u64) << 32);
            match *op {
                EditOp::Add { kind } => {
                    let id = DocId(self.len() as u32);
                    let doc = synthesize(ontology, &self.salted_synth(salt), id, kind);
                    let blob = SpdfWriter::write_document(&doc);
                    self.slot_append(doc, blob);
                }
                EditOp::Modify { id } => {
                    let kind = self
                        .document(id)
                        .unwrap_or_else(|| panic!("modify of missing {id:?}"))
                        .kind;
                    let doc = synthesize(ontology, &self.salted_synth(salt), id, kind);
                    let blob = SpdfWriter::write_document(&doc);
                    self.slot_replace(id, doc, blob);
                }
                EditOp::Remove { id } => {
                    assert!(self.slot_remove(id), "remove of missing {id:?}");
                }
            }
        }
    }

    fn salted_synth(&self, salt: u64) -> SynthConfig {
        SynthConfig { seed: self.config().synth.seed ^ salt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquire::AcquisitionConfig;
    use mcqa_ontology::{Ontology, OntologyConfig};
    use mcqa_runtime::Executor;

    fn library() -> (Ontology, CorpusLibrary) {
        let ont = Ontology::generate(&OntologyConfig {
            seed: 7,
            entities_per_kind: 30,
            qualitative_facts: 350,
            quantitative_facts: 20,
        });
        let cfg = AcquisitionConfig {
            seed: 7,
            full_papers: 20,
            abstracts: 10,
            corruption_rate: 0.0,
            synth: SynthConfig::default(),
        };
        let lib = CorpusLibrary::build(&ont, &cfg, Executor::global());
        (ont, lib)
    }

    #[test]
    fn synthetic_batch_is_deterministic_and_disjoint() {
        let (_, lib) = library();
        let a = EditBatch::synthetic(&lib, 11, 12);
        let b = EditBatch::synthetic(&lib, 11, 12);
        assert_eq!(a, b);
        assert_ne!(a, EditBatch::synthetic(&lib, 12, 12));
        assert_eq!(a.ops.len(), 12);
        // No id is edited twice in one batch.
        let mut targets: Vec<u32> = a
            .ops
            .iter()
            .filter_map(|op| match op {
                EditOp::Modify { id } | EditOp::Remove { id } => Some(id.0),
                EditOp::Add { .. } => None,
            })
            .collect();
        let before = targets.len();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), before, "duplicate edit target");
        let (add, modify, remove) = a.profile();
        assert_eq!(add + modify + remove, 12);
        assert!(modify >= 1, "drift profile should lean on revisions");
    }

    #[test]
    fn apply_edits_mutates_the_live_set() {
        let (ont, mut lib) = library();
        let before_blob = lib.download(DocId(0)).map(<[u8]>::to_vec);
        let batch = EditBatch {
            ops: vec![
                EditOp::Modify { id: DocId(0) },
                EditOp::Remove { id: DocId(3) },
                EditOp::Add { kind: DocKind::Abstract },
                EditOp::Add { kind: DocKind::FullPaper },
            ],
            seed: 99,
        };
        lib.apply_edits(&ont, &batch);
        assert_eq!(lib.len(), 32, "two appends");
        assert_eq!(lib.live_len(), 31, "one tombstone");
        assert!(lib.is_deleted(DocId(3)));
        assert!(lib.document(DocId(3)).is_none());
        assert!(lib.download(DocId(3)).is_none());
        assert_ne!(
            lib.download(DocId(0)).map(<[u8]>::to_vec),
            before_blob,
            "modify re-synthesised content"
        );
        assert_eq!(lib.document(DocId(30)).unwrap().kind, DocKind::Abstract);
        assert_eq!(lib.document(DocId(31)).unwrap().kind, DocKind::FullPaper);
        assert_eq!(lib.live_ids().len(), 31);
        assert!(!lib.live_ids().contains(&DocId(3)));

        // Replay on a fresh clone of the original library is identical.
        let (ont2, mut lib2) = library();
        lib2.apply_edits(&ont2, &batch);
        assert_eq!(lib2.download(DocId(0)), lib.download(DocId(0)));
        assert_eq!(lib2.download(DocId(31)), lib.download(DocId(31)));
    }

    #[test]
    #[should_panic(expected = "remove of missing")]
    fn double_remove_panics() {
        let (ont, mut lib) = library();
        let batch = EditBatch {
            ops: vec![EditOp::Remove { id: DocId(1) }, EditOp::Remove { id: DocId(1) }],
            seed: 1,
        };
        lib.apply_edits(&ont, &batch);
    }

    #[test]
    fn removal_hides_the_document() {
        let (ont, mut lib) = library();
        assert!(lib.document(DocId(2)).is_some());
        assert!(lib.live_ids().contains(&DocId(2)));
        lib.apply_edits(&ont, &EditBatch { ops: vec![EditOp::Remove { id: DocId(2) }], seed: 5 });
        assert!(lib.document(DocId(2)).is_none());
        assert!(!lib.live_ids().contains(&DocId(2)));
        assert_eq!(lib.live_ids().len(), lib.len() - 1, "only the removed slot is hidden");
    }
}
