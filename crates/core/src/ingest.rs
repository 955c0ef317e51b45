//! Incremental ingest bookkeeping: content-addressed change detection.
//!
//! A re-run of the pipeline touches a sliver of the corpus — a few revised
//! documents, a handful of additions — and the planner
//! (`Pipeline::run_planned`) re-does only that sliver. What it needs to
//! know is which document ids differ between two runs:
//!
//! - [`ContentHash`] — a 256-bit stable content address per document.
//! - [`IngestManifest`] — the id-sorted `(document id, content hash)`
//!   table one run was built from, held on its `PipelineOutput`.
//! - [`diff`] — one merge pass over two such tables, emitting the
//!   [`ChangeSet`] (added / modified / removed ids).
//! - [`IngestCensus`] — the scan / skip / re-run counters a pass reports
//!   (Figure-1 `ingest-*` stage rows and `[ingest]` lines).
//!
//! The index-side half — tombstones, `remove` / `upsert`, `compact` —
//! lives on the `VectorStore` trait and `LexicalIndex`.

use std::cmp::Ordering;

use mcqa_util::{LaneHasher, StableHasher};

/// Domain separator so content hashes can never collide with the
/// workspace's other `StableHasher` uses.
const LANE_SEED: u64 = 0x00C0_A7E2_7AD1_2E57_u64;

/// A 256-bit content address.
///
/// The real system would use BLAKE3; this reproduction is offline, so the
/// address is four independent [`StableHasher`] lanes (FNV-1a streams
/// domain-separated by seed, SplitMix64-finalised) over the same bytes.
/// Not cryptographic, but collision probability is negligible at corpus
/// scale and the same bytes address to the same hash on every platform in
/// every run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ContentHash(pub(crate) [u8; 32]);

impl ContentHash {
    /// Hash raw content bytes: the four lanes absorb the blob together, in
    /// one pass over it.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let forks: [StableHasher; 4] = std::array::from_fn(|lane| {
            let mut h = StableHasher::with_seed(LANE_SEED ^ lane as u64);
            // Tag 0, one part, that part's length: the frame ahead of the
            // bytes is part of every address, so it stays.
            h.write(&[0]);
            h.write_u64(1);
            h.write_u64(bytes.len() as u64);
            h
        });
        let mut lanes = LaneHasher::new(forks.each_ref());
        lanes.write(bytes);
        let mut out = [0u8; 32];
        for (word, bits) in out.chunks_exact_mut(8).zip(lanes.finish()) {
            word.copy_from_slice(&bits.to_le_bytes());
        }
        Self(out)
    }

    /// Lowercase hex rendering.
    pub(crate) fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({}…)", &self.to_hex()[..16])
    }
}

/// The corpus content-address table one run was built from: one
/// `(document id, content hash)` row per live document, ids strictly
/// ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestManifest {
    docs: Vec<(u64, ContentHash)>,
}

impl IngestManifest {
    /// Record a document table. Rows are sorted by id; duplicate ids
    /// panic (one document, one address).
    pub fn new(mut docs: Vec<(u64, ContentHash)>) -> Self {
        docs.sort_unstable_by_key(|(id, _)| *id);
        for w in docs.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate document id {} in ingest manifest", w[0].0);
        }
        Self { docs }
    }

    /// The id-sorted document table — what [`diff`] takes.
    pub fn docs(&self) -> &[(u64, ContentHash)] {
        &self.docs
    }
}

/// The outcome of diffing an old table against a new one: document ids
/// sorted ascending within each class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    /// Ids present only in the new table.
    pub added: Vec<u64>,
    /// Ids present in both tables with differing content hashes.
    pub modified: Vec<u64>,
    /// Ids present only in the old table.
    pub removed: Vec<u64>,
}

impl ChangeSet {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.modified.is_empty() && self.removed.is_empty()
    }

    /// Total number of changed documents.
    pub fn len(&self) -> usize {
        self.added.len() + self.modified.len() + self.removed.len()
    }
}

/// Which document ids were added, modified, or removed going from `old`
/// to `new`. Both tables must be sorted by id with distinct ids (what
/// [`IngestManifest::docs`] holds); an empty `old` classifies every
/// document as added, which is how a cold build flows through the same
/// planner as an incremental run.
pub fn diff(old: &[(u64, ContentHash)], new: &[(u64, ContentHash)]) -> ChangeSet {
    let mut cs = ChangeSet::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        let ((old_id, old_hash), (new_id, new_hash)) = (old[i], new[j]);
        match old_id.cmp(&new_id) {
            Ordering::Less => {
                cs.removed.push(old_id);
                i += 1;
            }
            Ordering::Greater => {
                cs.added.push(new_id);
                j += 1;
            }
            Ordering::Equal => {
                if old_hash != new_hash {
                    cs.modified.push(old_id);
                }
                i += 1;
                j += 1;
            }
        }
    }
    cs.removed.extend(old[i..].iter().map(|(id, _)| *id));
    cs.added.extend(new[j..].iter().map(|(id, _)| *id));
    cs
}

/// Counters for one incremental (or full — all-added) ingest pass. The
/// pipeline surfaces them twice: as Figure-1 `ingest-*` stage rows and as
/// the machine-greppable `[ingest] key=value` lines `repro ingest` (and
/// the smoke harness) assert on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestCensus {
    /// Documents in the live corpus at plan time.
    pub docs_scanned: usize,
    /// Newly added documents.
    pub(crate) docs_added: usize,
    /// Documents whose content hash changed.
    pub(crate) docs_modified: usize,
    /// Documents removed since the previous manifest.
    pub(crate) docs_removed: usize,
    /// Chunks across the live corpus after planning.
    pub chunks_total: usize,
    /// Chunks replayed from the previous run's snapshot (not re-run).
    pub chunks_reused: usize,
    /// Chunks that went through chunk→embed→question again.
    pub chunks_rerun: usize,
    /// Rows tombstoned across the dense stores by this pass.
    pub tombstones_dense: usize,
    /// Documents tombstoned across the lexical siblings by this pass.
    pub tombstones_lexical: usize,
    /// Rows moved to a new id in place across the dense stores (a
    /// replayed question whose id shifted keeps its rows).
    pub(crate) rekeyed_dense: usize,
    /// Documents moved to a new id in place across the lexical siblings.
    pub(crate) rekeyed_lexical: usize,
    /// Stores compacted after exceeding the tombstone threshold.
    pub compactions: usize,
}

impl IngestCensus {
    /// Documents untouched by the change set.
    pub fn docs_skipped(&self) -> usize {
        self.docs_scanned - self.docs_added - self.docs_modified
    }

    /// Documents the change set touches (the removed ones are no longer
    /// scanned, so they count separately from `docs_scanned`).
    pub fn docs_changed(&self) -> usize {
        self.docs_added + self.docs_modified + self.docs_removed
    }

    /// The census as ordered `key=value` pairs — the single source for
    /// the `[ingest]` report lines, so tooling greps one stable spelling.
    pub fn lines(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("docs_scanned", self.docs_scanned),
            ("docs_added", self.docs_added),
            ("docs_modified", self.docs_modified),
            ("docs_removed", self.docs_removed),
            ("docs_skipped", self.docs_skipped()),
            ("chunks_total", self.chunks_total),
            ("chunks_reused", self.chunks_reused),
            ("chunks_rerun", self.chunks_rerun),
            ("tombstones_dense", self.tombstones_dense),
            ("tombstones_lexical", self.tombstones_lexical),
            ("rekeyed_dense", self.rekeyed_dense),
            ("rekeyed_lexical", self.rekeyed_lexical),
            ("compactions", self.compactions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(ids: &[u64]) -> Vec<(u64, ContentHash)> {
        ids.iter().map(|&id| (id, ContentHash::of_bytes(&id.to_le_bytes()))).collect()
    }

    #[test]
    fn content_hash_bits_are_pinned() {
        // Computed at 400576c, when `of_bytes` was `of_parts(0, &[bytes])`:
        // every document's address keeps its bits.
        assert_eq!(
            ContentHash::of_bytes(b"").to_hex(),
            "8ff2363d6afc12e4b4afb8d2bf91b7af3fb37465b28653f7ceace16c7e3697a1"
        );
        assert_eq!(
            ContentHash::of_bytes(b"a document body").to_hex(),
            "253f72819e19520202b5dfd32d562d14f388682b38ec88603350cfadcf1fa2bc"
        );
    }

    #[test]
    fn one_pass_hash_matches_four_sequential_lanes() {
        // The formula `of_bytes` replaced: four `StableHasher`s, each
        // framing and absorbing the whole blob on its own.
        fn oracle(bytes: &[u8]) -> [u8; 32] {
            let mut out = [0u8; 32];
            for lane in 0..4u64 {
                let mut h = StableHasher::with_seed(LANE_SEED ^ lane);
                h.write(&[0]);
                h.write_u64(1);
                h.write_u64(bytes.len() as u64);
                h.write(bytes);
                out[lane as usize * 8..][..8].copy_from_slice(&h.finish().to_le_bytes());
            }
            out
        }
        // Around the one-byte length boundary, an odd multi-KiB length, and
        // a seeded random blob; the lengths' bytes are a constant run.
        let mut blobs: Vec<Vec<u8>> =
            [0, 1, 255, 256, 257, 5_003].iter().map(|&len| vec![0xA5; len]).collect();
        blobs.push((0..9_731u64).map(|i| mcqa_util::splitmix64(0x5EED ^ i) as u8).collect());
        for bytes in &blobs {
            assert_eq!(ContentHash::of_bytes(bytes).0, oracle(bytes), "{} bytes", bytes.len());
        }
    }

    #[test]
    fn content_hash_is_content_sensitive_in_every_lane() {
        let a = ContentHash::of_bytes(b"a document body");
        assert_eq!(a, ContentHash::of_bytes(b"a document body"));
        assert_ne!(a, ContentHash::of_bytes(b"a document bodY"));
        // All four 64-bit lanes must react to a content change — a stuck
        // lane would halve the effective width.
        let (x, y) = (ContentHash::of_bytes(b"x").0, ContentHash::of_bytes(b"y").0);
        for lane in 0..4 {
            assert_ne!(x[lane * 8..][..8], y[lane * 8..][..8], "lane {lane}");
        }
        assert_eq!(a.to_hex().len(), 64);
        assert!(a.to_hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn diff_classifies_add_modify_remove() {
        let old = table(&[1, 2, 3, 4, 100]);
        let mut new = table(&[2, 3, 4, 7, 100]);
        new[1].1 = ContentHash::of_bytes(b"v2");
        let cs = diff(&old, &new);
        assert_eq!(cs.added, vec![7]);
        assert_eq!(cs.modified, vec![3]);
        assert_eq!(cs.removed, vec![1]);
        assert_eq!(cs.len(), 3);
        assert!(!cs.is_empty());
        assert!(diff(&new, &new).is_empty());
    }

    #[test]
    fn manifest_sorts_unsorted_input() {
        let m = IngestManifest::new(table(&[5, u64::MAX, 1, 9]));
        assert_eq!(m.docs(), table(&[1, 5, 9, u64::MAX]));
        assert_eq!(m, IngestManifest::new(table(&[1, 5, 9, u64::MAX])));
        // A cold run diffs against the empty manifest: everything is new.
        let cold = diff(IngestManifest::default().docs(), m.docs());
        assert_eq!(cold.added, vec![1, 5, 9, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "duplicate document id")]
    fn manifest_rejects_duplicate_ids() {
        let mut dup = table(&[1, 2]);
        dup.push((1, ContentHash::of_bytes(b"other")));
        IngestManifest::new(dup);
    }

    #[test]
    fn census_derived_counts_and_lines() {
        let census = IngestCensus {
            docs_scanned: 100,
            docs_added: 3,
            docs_modified: 2,
            docs_removed: 4,
            chunks_total: 800,
            chunks_reused: 760,
            chunks_rerun: 40,
            ..Default::default()
        };
        assert_eq!(census.docs_skipped(), 95);
        assert_eq!(census.docs_changed(), 9);
        let lines = census.lines();
        assert_eq!(lines[0], ("docs_scanned", 100));
        assert!(lines.iter().any(|&(k, v)| k == "docs_skipped" && v == 95));
        assert_eq!(lines.len(), 13);
    }
}
