//! A named multi-database registry.
//!
//! The paper's evaluation keeps four FAISS stores side by side: the chunk
//! database plus one per reasoning-trace mode (detailed / focused /
//! efficient). [`IndexRegistry`] holds that family behind names — the
//! pipeline registers `chunks` and `traces-<mode>`, the evaluator looks
//! them up — and round-trips the whole family to bytes via each store's
//! self-describing [`VectorStore::to_bytes`] format.
//!
//! Each dense store may carry a **lexical sibling** — a BM25
//! [`LexicalIndex`] over the same documents, registered under its own
//! name (the pipeline uses `lex-chunks` / `lex-traces-<mode>`). Siblings
//! ride the same serialised registry as a trailing lexical section.
//!
//! Every entry of either kind sits in one slot type: raw bytes plus the
//! decoded value, filled once. [`IndexRegistry::from_bytes`] fills every
//! slot now; [`IndexRegistry::open_bytes`] checks each entry's header and
//! leaves its body raw until the first call that needs it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::codec::{put_u32, Reader};
use crate::lexical::LexicalIndex;
use crate::{decode_store, peek_store_header, VectorStore};

/// How one kind of registry entry is checked, decoded and encoded.
trait Entry: Sized {
    /// The open-time check of a serialised entry: its header, not its body.
    fn header_ok(bytes: &[u8]) -> bool;
    fn decode(bytes: &[u8]) -> Option<Self>;
    fn encode(&self) -> Vec<u8>;
}

impl Entry for Box<dyn VectorStore> {
    fn header_ok(bytes: &[u8]) -> bool {
        peek_store_header(bytes).is_some()
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        decode_store(bytes)
    }
    fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }
}

impl Entry for LexicalIndex {
    fn header_ok(bytes: &[u8]) -> bool {
        bytes.starts_with(LexicalIndex::MAGIC)
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        LexicalIndex::from_bytes(bytes)
    }
    fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }
}

/// One registry entry: the raw bytes it was opened from (empty for an
/// eager slot) and the decoded value, filled on first touch.
struct Slot<T> {
    bytes: Vec<u8>,
    value: OnceLock<T>,
}

impl<T: Entry> Slot<T> {
    fn eager(value: T) -> Self {
        Self { bytes: Vec::new(), value: OnceLock::from(value) }
    }

    fn lazy(bytes: Vec<u8>) -> Self {
        Self { bytes, value: OnceLock::new() }
    }

    /// The decoded value, decoding on first touch. Opening checked only
    /// the header, so a corrupt body panics here, naming the entry.
    fn get(&self, name: &str) -> &T {
        self.value.get_or_init(|| {
            T::decode(&self.bytes)
                .unwrap_or_else(|| panic!("registry entry '{name}': body is corrupt"))
        })
    }

    /// Mutable access, decoding first.
    fn get_mut(&mut self, name: &str) -> &mut T {
        self.get(name);
        self.value.get_mut().expect("decoded above")
    }

    /// The decoded value, if any; never decodes.
    fn decoded(&self) -> Option<&T> {
        self.value.get()
    }

    /// Raw pass-through while undecoded, a fresh encode otherwise.
    fn to_bytes(&self) -> Vec<u8> {
        self.decoded().map_or_else(|| self.bytes.clone(), T::encode)
    }
}

/// A registry of named vector stores plus their lexical siblings.
#[derive(Default)]
pub struct IndexRegistry {
    stores: BTreeMap<String, Slot<Box<dyn VectorStore>>>,
    lexical: BTreeMap<String, Slot<LexicalIndex>>,
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
        self.stores.insert(name.to_string(), Slot::eager(store));
    }

    /// Borrow a store by name, decoding it on first touch. Prefer
    /// [`IndexRegistry::expect_store`] on paths where the store's absence
    /// is a bug.
    pub fn get(&self, name: &str) -> Option<&dyn VectorStore> {
        self.stores.get(name).map(|s| s.get(name).as_ref())
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
        self.stores.get_mut(name).map(|s| s.get_mut(name))
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.stores.keys().map(String::as_str).collect()
    }

    /// Iterate `(name, store)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &dyn VectorStore)> {
        self.stores.iter().map(|(n, s)| (n.as_str(), s.get(n).as_ref()))
    }

    /// Number of stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True when no stores are registered.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Total payload bytes across every registered dense store (lexical
    /// siblings report their own [`LexicalIndex::payload_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        self.iter().map(|(_, s)| s.payload_bytes()).sum()
    }

    /// Total bytes of decoded panels resident across every store's panel
    /// cache, for capacity reporting. An undecoded store has no cache.
    pub fn panel_cache_resident_bytes(&self) -> usize {
        self.stores.values().filter_map(Slot::decoded).map(|s| s.panel_cache_resident_bytes()).sum()
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
        self.lexical.insert(name.to_string(), Slot::eager(index));
    }

    /// Borrow a lexical sibling by name, decoding a lazily-opened slot on
    /// first touch. `None` when no sibling is registered under `name`.
    pub fn lexical(&self, name: &str) -> Option<&LexicalIndex> {
        self.lexical.get(name).map(|s| s.get(name))
    }

    /// Mutably borrow a lexical sibling that must exist, decoding a
    /// lazily-opened slot first — the incremental-ingest path. Panics with
    /// the registered names when it doesn't exist.
    pub fn expect_lexical_mut(&mut self, name: &str) -> &mut LexicalIndex {
        assert!(
            self.lexical.contains_key(name),
            "lexical index '{name}' not registered (have: {:?})",
            self.lexical_names()
        );
        self.lexical.get_mut(name).expect("checked above").get_mut(name)
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
        put_section(&mut out, &self.stores);
        put_section(&mut out, &self.lexical);
        out
    }

    /// Decode a registry: both sections, each entry decoded now or, when
    /// `lazy`, header-checked and kept raw until first touch.
    fn decode(bytes: &[u8], lazy: bool) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let stores = read_section(&mut r, lazy)?;
        let lexical = read_section(&mut r, lazy)?;
        r.exhausted().then_some(Self { stores, lexical })
    }

    /// Deserialise a registry written by [`IndexRegistry::to_bytes`].
    /// `None` on any corruption (unknown store tag, truncation, a name
    /// repeated within a section, garbage).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Self::decode(bytes, false)
    }

    /// Open a registry written by [`IndexRegistry::to_bytes`] **lazily**:
    /// the registry framing, every store header (see
    /// [`peek_store_header`]) and every lexical sibling's magic tag are
    /// validated now, but each entry's body stays raw bytes until the
    /// first call that reads it. `names`/`lexical_names`/`len`/`to_bytes`
    /// and [`IndexRegistry::panel_cache_resident_bytes`] never decode, and
    /// an untouched registry re-encodes byte-identically.
    ///
    /// `None` on the same framing errors as [`IndexRegistry::from_bytes`]
    /// or a malformed header. Body corruption beyond the headers is only
    /// discovered (as a panic) at the first use of the affected entry.
    pub fn open_bytes(bytes: &[u8]) -> Option<Self> {
        Self::decode(bytes, true)
    }
}

/// Write one registry section: `u32 count`, then per entry a
/// length-prefixed name and a length-prefixed blob.
fn put_section<T: Entry>(out: &mut Vec<u8>, slots: &BTreeMap<String, Slot<T>>) {
    put_u32(out, slots.len());
    for (name, slot) in slots {
        put_u32(out, name.len());
        out.extend_from_slice(name.as_bytes());
        let blob = slot.to_bytes();
        put_u32(out, blob.len());
        out.extend_from_slice(&blob);
    }
}

/// Read what [`put_section`] wrote into slots: each blob decoded now, or
/// (`lazy`) header-checked and kept raw. `None` on a bad entry or on a
/// name repeated within the section, which `to_bytes` never writes.
fn read_section<T: Entry>(r: &mut Reader<'_>, lazy: bool) -> Option<BTreeMap<String, Slot<T>>> {
    let mut slots = BTreeMap::new();
    for _ in 0..r.count(8)? {
        let name_len = r.count(1)?;
        let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_string();
        let blob_len = r.count(1)?;
        let blob = r.take(blob_len)?;
        let slot = match lazy {
            false => Slot::eager(T::decode(blob)?),
            true if T::header_ok(blob) => Slot::lazy(blob.to_vec()),
            true => return None,
        };
        if slots.insert(name, slot).is_some() {
            return None;
        }
    }
    Some(slots)
}

impl std::fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for (name, slot) in &self.stores {
            match slot.decoded() {
                Some(s) => d.entry(&name, &format_args!("{} vectors (dim {})", s.len(), s.dim())),
                None => d.entry(&name, &format_args!("undecoded")),
            };
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
    use crate::flat::FlatIndex;
    use crate::metric::Metric;
    use crate::spec::{build_store_from_vectors, IndexSpec};
    use mcqa_embed::Precision;
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

    /// Entries of either kind whose body has been decoded.
    fn decoded(reg: &IndexRegistry) -> usize {
        reg.stores.values().filter(|s| s.decoded().is_some()).count()
            + reg.lexical.values().filter(|s| s.decoded().is_some()).count()
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
        let q = unit(6, 2);
        for (name, store) in back.iter() {
            let orig = reg.expect_store(name);
            assert_eq!(store.len(), orig.len(), "{name}");
            assert_eq!(store.search(&q, 4), orig.search(&q, 4), "{name}");
        }
        // Corruption rejected.
        assert!(IndexRegistry::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(IndexRegistry::from_bytes(b"REGY").is_none());
        assert!(IndexRegistry::from_bytes(b"nope").is_none());
        // `REGY` + a dense section with no lexical count is not a format
        // `to_bytes` writes.
        let no_lexical = &bytes[..bytes.len() - 4];
        assert!(IndexRegistry::from_bytes(no_lexical).is_none());
        assert!(IndexRegistry::open_bytes(no_lexical).is_none());
        // Empty registry round-trips.
        let empty = IndexRegistry::new();
        assert!(IndexRegistry::from_bytes(&empty.to_bytes()).unwrap().is_empty());
    }

    #[test]
    fn duplicate_names_are_rejected() {
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
        for dup in [dense_dup, lexical_dup] {
            assert!(IndexRegistry::from_bytes(&dup).is_none());
            assert!(IndexRegistry::open_bytes(&dup).is_none());
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
        assert!(IndexRegistry::from_bytes(&bytes[..bytes.len() - 1]).is_none());
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

    #[test]
    fn open_bytes_defers_every_decode_until_first_touch() {
        let reg = mixed_registry();
        let bytes = reg.to_bytes();
        let lazy = IndexRegistry::open_bytes(&bytes).unwrap();
        assert_eq!(lazy.names(), reg.names());
        assert_eq!(lazy.lexical_names(), reg.lexical_names());
        assert_eq!((lazy.len(), lazy.is_empty()), (4, false));
        assert_eq!(lazy.panel_cache_resident_bytes(), 0);
        assert!(format!("{lazy:?}").contains("undecoded"));
        assert_eq!(lazy.to_bytes(), bytes, "untouched entries pass through raw");
        assert_eq!(decoded(&lazy), 0, "none of the above decodes");

        // A touch decodes that entry alone.
        assert_eq!(lazy.expect_store("flat").len(), 30);
        assert_eq!(decoded(&lazy), 1);
        assert_eq!(lazy.expect_lexical("lex-flat").len(), 3);
        assert_eq!(decoded(&lazy), 2);
        assert_eq!(lazy.to_bytes(), bytes);
    }

    #[test]
    fn open_bytes_lazily_matches_eager_decode() {
        let exec = Executor::global();
        let reg = mixed_registry();
        let bytes = reg.to_bytes();
        let lazy = IndexRegistry::open_bytes(&bytes).unwrap();
        // Searches force the decode and stay bit-identical, single and
        // batched (the backend's own batched kernel, not a per-query loop).
        let queries: Vec<Vec<f32>> = items(9, 6).into_iter().map(|(_, v)| v).collect();
        for (name, store) in lazy.iter() {
            let orig = reg.expect_store(name);
            assert_eq!((store.len(), store.dim()), (orig.len(), orig.dim()), "{name}");
            assert_eq!(store.metric(), orig.metric(), "{name}");
            assert_eq!(store.search(&queries[3], 4), orig.search(&queries[3], 4), "{name}");
            assert_eq!(
                store.search_batch(exec, &queries, 4),
                orig.search_batch(exec, &queries, 4),
                "{name}"
            );
        }
        assert_eq!(
            lazy.expect_lexical("lex-flat").search("radiation tumour", 2),
            reg.expect_lexical("lex-flat").search("radiation tumour", 2),
        );
        assert_eq!(lazy.payload_bytes(), reg.payload_bytes());
        assert_eq!(lazy.to_bytes(), bytes, "decoded entries re-encode identically");
        // Corruption in framing or headers is rejected at open.
        assert!(IndexRegistry::open_bytes(&bytes[..10]).is_none());
        assert!(IndexRegistry::open_bytes(b"nope").is_none());
        assert!(IndexRegistry::open_bytes(&IndexRegistry::new().to_bytes()).unwrap().is_empty());
    }

    #[test]
    fn lazily_opened_entries_mutate_in_place() {
        let exec = Executor::global();
        let mut reg = IndexRegistry::new();
        reg.insert(
            "chunks",
            build_store_from_vectors(
                &IndexSpec::Flat,
                4,
                Metric::Cosine,
                Precision::F32,
                exec,
                &items(10, 4),
            ),
        );
        reg.insert_lexical("lex-chunks", sample_lexical());
        let mut lazy = IndexRegistry::open_bytes(&reg.to_bytes()).unwrap();

        let store = lazy.get_mut("chunks").expect("registered");
        store.add(999, &unit(4, 3));
        assert_eq!(store.len(), 11);
        assert_eq!(store.search(&unit(4, 3), 1)[0].id, 999);
        assert_eq!(store.remove(&[999]), 1);
        assert_eq!(store.tombstones(), 1);
        assert_ne!(store.search(&unit(4, 3), 1)[0].id, 999);
        store.compact(exec);
        assert_eq!(store.tombstones(), 0);
        assert_eq!(lazy.expect_store("chunks").len(), 10);

        let lex = lazy.expect_lexical_mut("lex-chunks");
        assert_eq!(lex.remove(&[1]), 1);
        assert!(lex.search("apoptosis", 2).is_empty());
        assert_eq!(lazy.expect_lexical("lex-chunks").len(), 2);
    }

    /// A one-entry registry whose entry's body is cut short but whose
    /// header still validates.
    fn truncated_body(lexical: bool) -> Vec<u8> {
        let mut reg = IndexRegistry::new();
        if lexical {
            let mut body = sample_lexical().to_bytes();
            body.pop();
            reg.lexical.insert("lex-chunks".into(), Slot::lazy(body));
        } else {
            let mut flat = FlatIndex::new(4, Metric::Cosine, Precision::F32);
            flat.add(1, &unit(4, 0));
            let mut body = flat.to_bytes();
            body.truncate(body.len() - 2); // ids cut: header intact
            reg.stores.insert("chunks".into(), Slot::lazy(body));
        }
        let bytes = reg.to_bytes();
        assert!(IndexRegistry::from_bytes(&bytes).is_none(), "eager decode refuses it");
        bytes
    }

    #[test]
    #[should_panic(expected = "registry entry 'chunks': body is corrupt")]
    fn corrupt_store_body_panics_at_first_use_not_open() {
        let bytes = truncated_body(false);
        let lazy = IndexRegistry::open_bytes(&bytes).expect("header still validates");
        assert_eq!(lazy.names(), vec!["chunks"]);
        assert_eq!(lazy.to_bytes(), bytes);
        lazy.expect_store("chunks"); // panics here
    }

    #[test]
    #[should_panic(expected = "registry entry 'lex-chunks': body is corrupt")]
    fn corrupt_lexical_body_panics_at_first_use_not_open() {
        let bytes = truncated_body(true);
        let lazy = IndexRegistry::open_bytes(&bytes).expect("magic still validates");
        assert_eq!(lazy.lexical_names(), vec!["lex-chunks"]);
        assert_eq!(lazy.to_bytes(), bytes);
        lazy.expect_lexical("lex-chunks"); // panics here
    }
}
