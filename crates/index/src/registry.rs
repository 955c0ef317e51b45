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
//! A sibling may be registered **unbuilt**
//! ([`IndexRegistry::insert_lexical_unbuilt`]): it holds its `(id, text)`
//! rows and an executor, and builds itself once, on its first read. Four
//! calls read it: [`IndexRegistry::lexical`],
//! [`IndexRegistry::expect_lexical`], [`IndexRegistry::expect_lexical_mut`]
//! and [`IndexRegistry::to_bytes`]. Concurrent first reads wait on one
//! build. [`IndexRegistry::lexical_names`], `Clone` and `Debug` build
//! nothing; a clone of an unbuilt sibling builds on its own first read.
//! The build is [`LexicalIndex::add_batch`] over the rows in order, so it
//! is bit-identical to inserting the same rows eagerly.
//!
//! A registry holds decoded values only: [`IndexRegistry::from_bytes`]
//! decodes every entry of both sections when it opens a blob and refuses
//! the whole blob if any entry is corrupt, so no lookup ever meets bytes.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mcqa_runtime::Executor;

use crate::codec::{put_u32, Reader};
use crate::lexical::LexicalIndex;
use crate::{decode_store, VectorStore};

/// A registry of named vector stores plus their lexical siblings. A clone
/// is a deep copy of every entry (see [`VectorStore::boxed_clone`]); an
/// unbuilt sibling's clone shares its rows.
#[derive(Clone, Default)]
pub struct IndexRegistry {
    stores: BTreeMap<String, Box<dyn VectorStore>>,
    lexical: BTreeMap<String, Sibling>,
}

/// A lexical sibling, built or waiting for its first read.
struct Sibling {
    index: OnceLock<LexicalIndex>,
    /// An unbuilt sibling's rows; the build takes them.
    rows: Mutex<Option<Arc<Rows>>>,
}

/// What an unbuilt sibling builds from: its `(id, text)` rows in insertion
/// order, and the executor the build fans out on.
struct Rows {
    items: Vec<(u64, Box<str>)>,
    exec: Executor,
}

impl Sibling {
    fn built(index: LexicalIndex) -> Self {
        Self { index: OnceLock::from(index), rows: Mutex::new(None) }
    }

    fn unbuilt(rows: Arc<Rows>) -> Self {
        Self { index: OnceLock::new(), rows: Mutex::new(Some(rows)) }
    }

    /// The rows of a sibling not yet built. The lock is only ever held to
    /// take or copy the handle, so a poisoned one still holds a valid value.
    fn pending(&self) -> MutexGuard<'_, Option<Arc<Rows>>> {
        self.rows.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The index, built now if it is not yet. A second first read waits
    /// on the build in flight instead of starting its own.
    fn get(&self) -> &LexicalIndex {
        self.index.get_or_init(|| {
            let rows = self.pending().take().expect("an unbuilt sibling holds its rows");
            let mut index = LexicalIndex::new(Default::default());
            index.add_batch(&rows.exec, &rows.items);
            index
        })
    }

    fn get_mut(&mut self) -> &mut LexicalIndex {
        self.get();
        self.index.get_mut().expect("built above")
    }
}

impl Clone for Sibling {
    fn clone(&self) -> Self {
        let rows = self.pending().clone();
        match rows {
            Some(rows) => Self::unbuilt(rows),
            // Built, or being built by another thread: `get` waits for it.
            None => Self::built(self.get().clone()),
        }
    }
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
        self.lexical.insert(name.to_string(), Sibling::built(index));
    }

    /// Register an unbuilt lexical sibling under `name`, replacing any
    /// existing one: its first read indexes `rows` in order on `exec`,
    /// as [`LexicalIndex::add_batch`] on a default index would now.
    pub fn insert_lexical_unbuilt(
        &mut self,
        name: &str,
        exec: &Executor,
        rows: Vec<(u64, Box<str>)>,
    ) {
        let rows = Arc::new(Rows { items: rows, exec: exec.clone() });
        self.lexical.insert(name.to_string(), Sibling::unbuilt(rows));
    }

    /// Borrow a lexical sibling by name, building it if it is unbuilt.
    /// `None` when no sibling is registered under `name`.
    pub fn lexical(&self, name: &str) -> Option<&LexicalIndex> {
        self.lexical.get(name).map(Sibling::get)
    }

    /// Mutably borrow a lexical sibling that must exist — the
    /// incremental-ingest path — building it if it is unbuilt. Panics with
    /// the registered names when it doesn't exist.
    pub fn expect_lexical_mut(&mut self, name: &str) -> &mut LexicalIndex {
        assert!(
            self.lexical.contains_key(name),
            "lexical index '{name}' not registered (have: {:?})",
            self.lexical_names()
        );
        self.lexical.get_mut(name).expect("checked above").get_mut()
    }

    /// Borrow a lexical sibling that must exist, building it if it is
    /// unbuilt; panics with the registered names when it doesn't exist.
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
    /// lexical siblings as a trailing section in the same framing,
    /// building each unbuilt sibling first.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Self::MAGIC.to_vec();
        put_section(&mut out, &self.stores, |s| s.to_bytes());
        put_section(&mut out, &self.lexical, |s| s.get().to_bytes());
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
        let lexical = read_section(&mut r, |b| LexicalIndex::from_bytes(b).map(Sibling::built))?;
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
        for (name, s) in &self.lexical {
            let state = if s.index.get().is_some() { "built" } else { "unbuilt" };
            d.entry(&name, &format_args!("lexical (bm25, {state})"));
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

    /// `n` documents over a small vocabulary, enough for a build to fan
    /// out over several `add_batch` runs.
    fn lexical_rows(n: usize) -> Vec<(u64, Box<str>)> {
        const WORDS: [&str; 9] = [
            "radiation",
            "tumour",
            "hypoxia",
            "apoptosis",
            "kinase",
            "dose",
            "cell",
            "repair",
            "signal",
        ];
        (0..n)
            .map(|i| {
                let text: Vec<&str> = (0..1 + i % 7).map(|j| WORDS[(i * 5 + j * 3) % 9]).collect();
                (i as u64 * 2 + 1, text.join(" ").into())
            })
            .collect()
    }

    /// The same rows registered eagerly and unbuilt, each on its own pool
    /// so a test can count the jobs a build runs.
    fn eager_and_unbuilt(n: usize) -> (IndexRegistry, IndexRegistry, Executor) {
        let rows = lexical_rows(n);
        let mut lex = LexicalIndex::new(Default::default());
        lex.add_batch(&Executor::new(2), &rows);
        let mut eager = IndexRegistry::new();
        eager.insert_lexical("lex-chunks", lex);
        let exec = Executor::new(2);
        let mut lazy = IndexRegistry::new();
        lazy.insert_lexical_unbuilt("lex-chunks", &exec, rows);
        (eager, lazy, exec)
    }

    fn is_built(reg: &IndexRegistry) -> bool {
        let debug = format!("{reg:?}");
        assert!(debug.contains("unbuilt") != debug.contains("bm25, built"), "{debug}");
        debug.contains("bm25, built")
    }

    #[test]
    fn an_unbuilt_sibling_serialises_like_an_eager_one() {
        let (eager, lazy, exec) = eager_and_unbuilt(300);
        assert_eq!(lazy.lexical_names(), vec!["lex-chunks"]);
        assert!(!is_built(&lazy), "naming and formatting build nothing");
        assert_eq!(exec.stats().total_executed(), 0);
        assert_eq!(lazy.to_bytes(), eager.to_bytes());
        assert!(is_built(&lazy), "to_bytes builds it");
        assert_eq!(lazy.lexical("lex-chunks"), eager.lexical("lex-chunks"));
    }

    #[test]
    fn a_clone_of_an_unbuilt_sibling_builds_on_its_own() {
        let (eager, lazy, _) = eager_and_unbuilt(300);
        let copy = lazy.clone();
        assert_eq!(copy.expect_lexical("lex-chunks"), eager.expect_lexical("lex-chunks"));
        assert!(is_built(&copy));
        assert!(!is_built(&lazy), "the original waits for its own first read");
        assert_eq!(lazy.expect_lexical("lex-chunks"), eager.expect_lexical("lex-chunks"));
        // A clone of a built sibling is a built copy.
        assert!(is_built(&lazy.clone()));
    }

    #[test]
    fn edits_on_an_unbuilt_sibling_match_edits_on_an_eager_one() {
        let (mut eager, mut lazy, _) = eager_and_unbuilt(300);
        let exec = Executor::global();
        let fresh = [(1_001, "kinase repair signal"), (1_003, "dose dose tumour")];
        for reg in [&mut eager, &mut lazy] {
            let lex = reg.expect_lexical_mut("lex-chunks");
            assert_eq!(lex.remove(&[1, 7, 99]), 3);
            lex.add_batch(exec, &fresh);
        }
        assert_eq!(lazy.expect_lexical("lex-chunks"), eager.expect_lexical("lex-chunks"));
        assert_eq!(lazy.to_bytes(), eager.to_bytes());
    }

    #[test]
    fn concurrent_first_reads_share_one_build() {
        // Ten `add_batch` runs on a two-worker pool: one build queues a
        // fixed number of jobs, so two builds would queue twice as many.
        let (_, reference, ref_exec) = eager_and_unbuilt(640);
        reference.expect_lexical("lex-chunks");
        let one_build = ref_exec.stats().total_executed();
        assert!(one_build > 0);

        let (eager, lazy, exec) = eager_and_unbuilt(640);
        let barrier = std::sync::Barrier::new(2);
        let reads = std::thread::scope(|s| {
            let read = || {
                barrier.wait();
                lazy.expect_lexical("lex-chunks") as *const LexicalIndex as usize
            };
            [s.spawn(read), s.spawn(read)].map(|h| h.join().expect("reader"))
        });
        assert_eq!(reads[0], reads[1], "both readers see the one index");
        assert_eq!(exec.stats().total_executed(), one_build, "one build, not two");
        assert_eq!(lazy.expect_lexical("lex-chunks"), eager.expect_lexical("lex-chunks"));
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
