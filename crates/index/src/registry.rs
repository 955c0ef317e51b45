//! A named multi-database registry.
//!
//! The paper's evaluation keeps four FAISS stores side by side: the chunk
//! database plus one per reasoning-trace mode (detailed / focused /
//! efficient). [`IndexRegistry`] holds that family behind names — the
//! pipeline registers `chunks` and `traces-<mode>`, the evaluator looks
//! them up — and round-trips the whole family to bytes via each store's
//! self-describing [`VectorStore::to_bytes`] format. An incremental round
//! copies the family in memory instead (`Clone`).
//!
//! Each dense store may carry a **lexical sibling** — a BM25
//! [`LexicalIndex`] over the same documents, registered under its own
//! name (the pipeline uses `lex-chunks` / `lex-traces-<mode>`). Siblings
//! ride the same serialised registry as a trailing lexical section.
//!
//! A registry holds decoded values only: [`IndexRegistry::from_bytes`]
//! decodes every entry of both sections when it opens a blob and refuses
//! the whole blob if any entry is corrupt, so no lookup ever meets bytes.

use std::collections::BTreeMap;

use crate::codec::{put_u32, Reader};
use crate::lexical::LexicalIndex;
use crate::{decode_store, VectorStore};

/// A registry of named vector stores plus their lexical siblings. A clone
/// is a deep copy of every entry (see [`VectorStore::boxed_clone`]).
#[derive(Clone, Default)]
pub struct IndexRegistry {
    stores: BTreeMap<String, Box<dyn VectorStore>>,
    lexical: BTreeMap<String, LexicalIndex>,
}

impl IndexRegistry {
    /// Magic tag opening the serialised registry format.
    const MAGIC: &'static [u8; 4] = b"REGY";

    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a store under `name`, replacing any existing one.
    pub fn insert(&mut self, name: &str, store: Box<dyn VectorStore>) {
        self.stores.insert(name.to_string(), store);
    }

    /// Borrow a store by name. Prefer [`IndexRegistry::expect_store`] on
    /// paths where the store's absence is a bug.
    pub fn get(&self, name: &str) -> Option<&dyn VectorStore> {
        self.stores.get(name).map(|s| s.as_ref())
    }

    /// Borrow a store that must exist. Panics with the registered names
    /// when it doesn't — a missing store on the evaluation path is a
    /// wiring bug, never a condition to skip silently.
    pub fn expect_store(&self, name: &str) -> &dyn VectorStore {
        self.get(name)
            .unwrap_or_else(|| panic!("store '{name}' not registered (have: {:?})", self.names()))
    }

    /// Mutably borrow a store by name — the incremental-ingest path, which
    /// applies `remove`/`upsert`/`compact` in place.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Box<dyn VectorStore>> {
        self.stores.get_mut(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.stores.keys().map(String::as_str).collect()
    }

    /// Iterate `(name, store)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &dyn VectorStore)> {
        self.stores.iter().map(|(n, s)| (n.as_str(), s.as_ref()))
    }

    /// Number of stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True when no stores are registered.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Total bytes of decoded panels resident across every store's panel
    /// cache, for capacity reporting.
    pub fn panel_cache_resident_bytes(&self) -> usize {
        self.stores.values().map(|s| s.panel_cache_resident_bytes()).sum()
    }

    /// The registry name of a dense source's lexical sibling: the one
    /// naming convention every layer (pipeline build, serving, eval,
    /// benches) shares, so there is exactly one place to spell it.
    pub fn lexical_sibling(source: &str) -> String {
        format!("lex-{source}")
    }

    /// Register a lexical sibling under `name` (the pipeline pairs each
    /// dense source with [`IndexRegistry::lexical_sibling`]), replacing
    /// any existing one.
    pub fn insert_lexical(&mut self, name: &str, index: LexicalIndex) {
        self.lexical.insert(name.to_string(), index);
    }

    /// Borrow a lexical sibling by name. `None` when no sibling is
    /// registered under `name`.
    pub fn lexical(&self, name: &str) -> Option<&LexicalIndex> {
        self.lexical.get(name)
    }

    /// Mutably borrow a lexical sibling that must exist — the
    /// incremental-ingest path. Panics with the registered names when it
    /// doesn't exist.
    pub fn expect_lexical_mut(&mut self, name: &str) -> &mut LexicalIndex {
        assert!(
            self.lexical.contains_key(name),
            "lexical index '{name}' not registered (have: {:?})",
            self.lexical_names()
        );
        self.lexical.get_mut(name).expect("checked above")
    }

    /// Borrow a lexical sibling that must exist; panics with the
    /// registered names when it doesn't.
    pub fn expect_lexical(&self, name: &str) -> &LexicalIndex {
        self.lexical(name).unwrap_or_else(|| {
            panic!("lexical index '{name}' not registered (have: {:?})", self.lexical_names())
        })
    }

    /// Registered lexical sibling names, sorted.
    pub fn lexical_names(&self) -> Vec<&str> {
        self.lexical.keys().map(String::as_str).collect()
    }

    /// Serialise every store (name-tagged, in name order), then the
    /// lexical siblings as a trailing section in the same framing.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Self::MAGIC.to_vec();
        put_section(&mut out, &self.stores, |s| s.to_bytes());
        put_section(&mut out, &self.lexical, LexicalIndex::to_bytes);
        out
    }

    /// Deserialise a registry written by [`IndexRegistry::to_bytes`],
    /// decoding every entry of both sections now. `None` on any corruption
    /// (unknown store tag, truncation, a corrupt entry body, a name
    /// repeated within a section, garbage).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let stores = read_section(&mut r, decode_store)?;
        let lexical = read_section(&mut r, LexicalIndex::from_bytes)?;
        r.exhausted().then_some(Self { stores, lexical })
    }

    /// The same eager decode as [`IndexRegistry::from_bytes`], under the
    /// name the benchmark harness's registry-open probe still calls.
    /// ROADMAP item 1a deletes it together with that probe.
    pub fn open_bytes(bytes: &[u8]) -> Option<Self> {
        Self::from_bytes(bytes)
    }
}

/// Write one registry section: `u32 count`, then per entry a
/// length-prefixed name and a length-prefixed blob.
fn put_section<T>(
    out: &mut Vec<u8>,
    entries: &BTreeMap<String, T>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    put_u32(out, entries.len());
    for (name, entry) in entries {
        put_u32(out, name.len());
        out.extend_from_slice(name.as_bytes());
        let blob = encode(entry);
        put_u32(out, blob.len());
        out.extend_from_slice(&blob);
    }
}

/// Read what [`put_section`] wrote, decoding each blob. `None` on a bad
/// entry or on a name repeated within the section, which `to_bytes`
/// never writes.
fn read_section<T>(
    r: &mut Reader<'_>,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Option<BTreeMap<String, T>> {
    let mut entries = BTreeMap::new();
    for _ in 0..r.count(8)? {
        let name_len = r.count(1)?;
        let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_string();
        let blob_len = r.count(1)?;
        if entries.insert(name, decode(r.take(blob_len)?)?).is_some() {
            return None;
        }
    }
    Some(entries)
}

impl std::fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for (name, s) in &self.stores {
            d.entry(&name, &format_args!("{} vectors (dim {})", s.len(), s.dim()));
        }
        for name in self.lexical.keys() {
            d.entry(&name, &format_args!("lexical (bm25)"));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::Precision;
    use crate::flat::FlatIndex;
    use crate::metric::Metric;
    use crate::spec::{build_store_from_vectors, IndexSpec};
    use mcqa_runtime::Executor;

    fn items(n: usize, dim: usize) -> Vec<(u64, Vec<f32>)> {
        (0..n)
            .map(|i| {
                let mut v = vec![0.0f32; dim];
                v[i % dim] = 1.0;
                v[(i * 7) % dim] += 0.25;
                (i as u64 * 3, v)
            })
            .collect()
    }

    fn unit(dim: usize, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; dim];
        v[hot] = 1.0;
        v
    }

    fn sample_lexical() -> LexicalIndex {
        let mut lex = LexicalIndex::default();
        lex.add(1, "radiation induces apoptosis in tumour cells");
        lex.add(2, "hypoxia causes radioresistance");
        lex.add(3, "hospital billing budget codes");
        lex
    }

    /// One store per backend (named by its label) plus one lexical sibling.
    fn mixed_registry() -> IndexRegistry {
        let (exec, items) = (Executor::global(), items(30, 6));
        let mut reg = IndexRegistry::new();
        for spec in IndexSpec::all_defaults() {
            reg.insert(
                spec.label(),
                build_store_from_vectors(&spec, 6, Metric::Cosine, Precision::F16, exec, &items),
            );
        }
        reg.insert_lexical("lex-flat", sample_lexical());
        reg
    }

    #[test]
    fn insert_search_names() {
        let mut reg = IndexRegistry::new();
        let mut chunks = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        chunks.add(1, &[1.0, 0.0, 0.0, 0.0]);
        let mut traces = FlatIndex::new(4, Metric::Cosine, Precision::F16);
        traces.add(2, &[0.0, 1.0, 0.0, 0.0]);
        reg.insert("chunks", Box::new(chunks));
        reg.insert("traces-detailed", Box::new(traces));

        assert_eq!(reg.names(), vec!["chunks", "traces-detailed"]);
        let hits = reg.expect_store("chunks").search(&[1.0, 0.0, 0.0, 0.0], 1);
        assert_eq!(hits[0].id, 1);
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn expect_store_returns_registered() {
        let mut reg = IndexRegistry::new();
        let mut a = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        a.add(10, &[1.0, 0.0]);
        reg.insert("chunks", Box::new(a));
        assert_eq!(reg.expect_store("chunks").len(), 1);
    }

    #[test]
    #[should_panic(expected = "store 'traces-detailed' not registered")]
    fn expect_store_panics_loudly_on_missing() {
        let mut reg = IndexRegistry::new();
        reg.insert("chunks", Box::new(FlatIndex::new(2, Metric::Cosine, Precision::F32)));
        reg.expect_store("traces-detailed");
    }

    #[test]
    fn replacement_overwrites() {
        let mut reg = IndexRegistry::new();
        let mut a = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        a.add(10, &[1.0, 0.0]);
        reg.insert("x", Box::new(a));
        let mut b = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        b.add(20, &[1.0, 0.0]);
        reg.insert("x", Box::new(b));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.expect_store("x").search(&[1.0, 0.0], 1)[0].id, 20);
    }

    #[test]
    fn bytes_roundtrip_mixed_backends() {
        let mut reg = mixed_registry();
        reg.lexical.clear();
        let bytes = reg.to_bytes();
        let back = IndexRegistry::from_bytes(&bytes).unwrap();
        assert_eq!(back.names(), reg.names());
        // Decoded stores search bit-identically, single and batched (the
        // backend's own batched kernel, not a per-query loop).
        let queries: Vec<Vec<f32>> = items(9, 6).into_iter().map(|(_, v)| v).collect();
        for (name, store) in back.iter() {
            let orig = reg.expect_store(name);
            assert_eq!(store.len(), orig.len(), "{name}");
            assert_eq!(store.search(&queries[3], 4), orig.search(&queries[3], 4), "{name}");
            assert_eq!(
                store.search_batch(Executor::global(), &queries, 4),
                orig.search_batch(Executor::global(), &queries, 4),
                "{name}"
            );
        }
        // Corruption rejected: every truncation, a foreign tag.
        for cut in 0..bytes.len() {
            assert!(IndexRegistry::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        assert!(IndexRegistry::from_bytes(b"REGY").is_none());
        assert!(IndexRegistry::from_bytes(b"nope").is_none());
        // `REGY` + a dense section with no lexical count is not a format
        // `to_bytes` writes.
        let no_lexical = &bytes[..bytes.len() - 4];
        assert!(IndexRegistry::from_bytes(no_lexical).is_none());
        // Empty registry round-trips.
        let empty = IndexRegistry::new();
        assert!(IndexRegistry::from_bytes(&empty.to_bytes()).unwrap().is_empty());
    }

    #[test]
    fn clone_is_an_independent_deep_copy() {
        let exec = Executor::global();
        let reg = mixed_registry();
        let bytes = reg.to_bytes();
        let mut copy = reg.clone();
        assert_eq!(copy.to_bytes(), bytes, "same entries, same bytes");
        for name in reg.names() {
            copy.get_mut(name).expect("registered").remove(&[0, 3, 6]);
            copy.get_mut(name).expect("registered").compact(exec);
            assert_eq!(copy.expect_store(name).len(), 27, "{name}");
            assert_eq!(reg.expect_store(name).len(), 30, "{name}: the original is untouched");
        }
        copy.expect_lexical_mut("lex-flat").remove(&[1]);
        assert_eq!(reg.expect_lexical("lex-flat").len(), 3);
        assert_eq!(reg.to_bytes(), bytes);
    }

    /// Two blobs that repeat a name within a section, which `to_bytes`
    /// never writes: the dense section's only entry twice, then the
    /// lexical section's.
    fn duplicate_name_blobs() -> [Vec<u8>; 2] {
        // Splice a second copy of a section's only entry in after it and
        // bump the section's `u32` count at `count_at`.
        fn doubled(bytes: &[u8], count_at: usize, entry_end: usize) -> Vec<u8> {
            let mut out = bytes[..entry_end].to_vec();
            out.extend_from_slice(&bytes[count_at + 4..entry_end]);
            out.extend_from_slice(&bytes[entry_end..]);
            out[count_at] = 2;
            out
        }
        let mut dense = IndexRegistry::new();
        dense.insert("chunks", Box::new(FlatIndex::new(2, Metric::Cosine, Precision::F32)));
        let bytes = dense.to_bytes();
        // The dense entry runs up to the (empty) lexical section's count.
        let dense_dup = doubled(&bytes, 4, bytes.len() - 4);
        let mut lexical = IndexRegistry::new();
        lexical.insert_lexical("lex-chunks", sample_lexical());
        let bytes = lexical.to_bytes();
        // An empty dense section, then the lexical entry runs to the end.
        let lexical_dup = doubled(&bytes, 8, bytes.len());
        [dense_dup, lexical_dup]
    }

    #[test]
    fn duplicate_names_are_rejected() {
        for dup in duplicate_name_blobs() {
            assert!(IndexRegistry::from_bytes(&dup).is_none());
        }
    }

    #[test]
    fn lexical_siblings_roundtrip_alongside_stores() {
        let mut reg = IndexRegistry::new();
        let mut chunks = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        chunks.add(1, &[1.0, 0.0, 0.0, 0.0]);
        reg.insert("chunks", Box::new(chunks));
        reg.insert_lexical("lex-chunks", sample_lexical());

        // Dense surface unchanged: names() stays dense-only.
        assert_eq!(reg.names(), vec!["chunks"]);
        assert_eq!(reg.lexical_names(), vec!["lex-chunks"]);
        let hits = reg.expect_lexical("lex-chunks").search("radiation tumour", 2);
        assert_eq!(hits[0].id, 1);
        assert!(reg.lexical("missing").is_none());

        let bytes = reg.to_bytes();
        // Eager decode validates and reproduces the sibling.
        let back = IndexRegistry::from_bytes(&bytes).unwrap();
        assert_eq!(back.lexical_names(), vec!["lex-chunks"]);
        assert_eq!(back.expect_lexical("lex-chunks"), reg.expect_lexical("lex-chunks"));
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");

        // Corrupting the lexical section is caught by from_bytes.
        let mut corrupt = bytes.clone();
        let tail = corrupt.len() - 1;
        corrupt[tail] ^= 0xff;
        assert!(IndexRegistry::from_bytes(&corrupt).is_none());
        for cut in 0..bytes.len() {
            assert!(IndexRegistry::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "lexical index 'lex-chunks' not registered")]
    fn expect_lexical_panics_loudly_on_missing() {
        IndexRegistry::new().expect_lexical("lex-chunks");
    }

    #[test]
    #[should_panic(expected = "lexical index 'lex-chunks' not registered")]
    fn expect_lexical_mut_panics_loudly_on_missing() {
        IndexRegistry::new().expect_lexical_mut("lex-chunks");
    }

    /// A one-entry registry whose entry's body is cut short while its
    /// header (store) or magic tag (lexical sibling) stays intact.
    fn truncated_body(lexical: bool) -> Vec<u8> {
        let (name, body) = if lexical {
            let mut body = sample_lexical().to_bytes();
            body.pop();
            ("lex-chunks", body)
        } else {
            let mut flat = FlatIndex::new(4, Metric::Cosine, Precision::F32);
            flat.add(1, &unit(4, 0));
            let mut body = flat.to_bytes();
            body.truncate(body.len() - 2); // ids cut: header intact
            ("chunks", body)
        };
        let (entry, none) = (BTreeMap::from([(name.to_string(), body)]), BTreeMap::new());
        let (dense, lex) = if lexical { (&none, &entry) } else { (&entry, &none) };
        let mut out = IndexRegistry::MAGIC.to_vec();
        put_section(&mut out, dense, Vec::clone);
        put_section(&mut out, lex, Vec::clone);
        out
    }

    #[test]
    fn open_bytes_agrees_with_from_bytes() {
        let bytes = mixed_registry().to_bytes();
        let mut blobs: Vec<Vec<u8>> = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        blobs.extend(duplicate_name_blobs());
        blobs.extend([truncated_body(false), truncated_body(true)]);
        for (i, blob) in blobs.iter().enumerate() {
            assert_eq!(
                IndexRegistry::open_bytes(blob).map(|r| r.to_bytes()),
                IndexRegistry::from_bytes(blob).map(|r| r.to_bytes()),
                "blob {i}"
            );
        }
        assert_eq!(IndexRegistry::open_bytes(&bytes).unwrap().to_bytes(), bytes);
        // A corrupt body is refused at open, wherever it sits.
        assert!(IndexRegistry::open_bytes(&truncated_body(false)).is_none());
        assert!(IndexRegistry::open_bytes(&truncated_body(true)).is_none());
    }

    /// Single-byte flips and hostile lengths anywhere in a registry of all
    /// four backends plus a lexical sibling: decoding never panics, and a
    /// blob it accepts is canonical — it re-encodes to exactly the mutated
    /// input. No checksum guards the format, so many flips (inside vector
    /// payloads, say) are accepted; they must still decode consistently.
    #[test]
    fn mutated_registry_bytes_decode_canonically_or_not_at_all() {
        let bytes = mixed_registry().to_bytes();
        let check = |blob: &[u8], what: &str| {
            if let Some(reg) = IndexRegistry::from_bytes(blob) {
                assert!(reg.to_bytes() == blob, "{what}: accepted but not canonical");
            }
        };
        for at in 0..bytes.len() {
            let mut blob = bytes.clone();
            blob[at] ^= 0xff;
            check(&blob, &format!("flip at {at}"));
        }
        for at in 0..=bytes.len() - 4 {
            let mut blob = bytes.clone();
            blob[at..at + 4].copy_from_slice(&[0xff; 4]);
            check(&blob, &format!("0xffff_ffff at {at}"));
        }
    }
}
