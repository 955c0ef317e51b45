//! `mcqa-index` — vector stores standing in for FAISS.
//!
//! The paper keeps four FAISS databases: one over paper chunks and one per
//! reasoning-trace mode. This crate supplies the same capability with
//! three index structures — four backends — behind **one
//! backend-agnostic trait**, [`VectorStore`]:
//!
//! * [`embed`] — the encode step that fills the stores:
//!   [`embed::BioEncoder`] (the PubMedBERT stand-in),
//!   [`embed::EmbeddingMatrix`] (row storage in `f32` or FP16, which flat
//!   search scans in place) and [`embed::PanelCache`] (the PQ store's
//!   decoded panels).
//! * [`flat`] — exact brute-force search (ground truth; what the paper's
//!   small FP16 databases effectively use).
//! * [`list`] — one inverted-list store (`ListStore`: k-means coarse
//!   quantiser, `nprobe` search, trading recall for speed on large
//!   corpora) with the row codec as its parameter. Two codecs, two
//!   backends: [`IvfIndex`] keeps rows as packed F32; [`PqIndex`] keeps
//!   4–8-bit residual codes against the coarse centroid, holding large
//!   corpora in a fraction of the flat matrix's memory. Both fit their
//!   centroids through the crate-private k-means++ trainer (Lloyd fanned
//!   out on the [`Executor`]).
//! * [`hnsw`] — a hierarchical navigable-small-world graph for logarithmic
//!   search, the standard high-recall ANN structure.
//! * [`metric`] — cosine / dot / L2 metrics shared by all indexes.
//! * `spec` — [`IndexSpec`] (the *configuration* of a backend) plus the
//!   [`build_store`] factory and the [`decode_store`] codec, so this
//!   crate's tests and `perfbench` pick a backend by value instead of by
//!   type (the pipeline builds [`FlatIndex`] stores only). Each wire
//!   format's layout is known only to the module that writes it;
//!   [`decode_store`] just dispatches on the magic tag.
//! * [`lexical`] — the keyword channel: [`lexical::LexicalIndex`], the
//!   BM25 sibling every dense store pairs with, and dense + lexical rank
//!   fusion.
//! * [`registry`] — a named multi-database registry (chunks + three trace
//!   modes, like the paper's four FAISS stores), round-trippable to bytes.
//!   [`IndexRegistry::from_bytes`] decodes every entry, dense store or
//!   lexical sibling, when it opens a blob, and refuses the blob if any
//!   entry is corrupt.
//!
//! The trait surface covers the whole store lifecycle: [`VectorStore::train`]
//! (a no-op for everything but the coarse quantisers), [`VectorStore::add`] /
//! [`VectorStore::add_batch`] (parallel build on a caller-supplied
//! [`Executor`]), [`VectorStore::search`] / [`VectorStore::search_batch`],
//! the incremental-ingest mutation surface — [`VectorStore::remove`]
//! (tombstones), [`VectorStore::rekey`] (relabels rows in place),
//! [`VectorStore::upsert`], and [`VectorStore::compact`]
//! (rewrites the storage once tombstones accumulate) — and
//! [`VectorStore::to_bytes`] persistence (decoded back through
//! [`decode_store`], which dispatches on each format's magic tag; the
//! wire formats are always tombstone-free, serialising the live view).
//!
//! All indexes are deterministic given their seeds — `add_batch` and
//! `search_batch` produce bit-identical stores/results to their sequential
//! counterparts at any worker count — and IVF/HNSW recall is
//! property-tested against the flat ground truth.
//!
//! Exact scoring bottoms out in the fixed-order kernels of
//! [`mcqa_util::kernel`]: every exhaustive scan — flat over its matrix,
//! the list store over a probed list — fetches rows in panels as stored
//! (flat's F16 rows in place, widened to `f32` inside the kernel's
//! register tile; PQ's reconstructed through its panel cache), scores
//! each panel against its task's whole block of queries in register
//! tiles ([`Metric::score_panel`]) with build-time-cached row norms, and
//! streams candidates through bounded top-k heaps, gated by each heap's
//! running k-th score (one panel fetch per query block). The blocked
//! paths are property-tested bit-identical to a
//! per-row scalar oracle over the decoded rows (`tests/kernel.rs`).

pub mod embed;
pub mod flat;
pub mod hnsw;
pub mod lexical;
pub mod list;
pub mod metric;
pub mod registry;
pub(crate) mod spec;

pub(crate) mod codec;
pub(crate) mod kmeans;
pub(crate) mod scan;
pub(crate) mod tombstones;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use list::{IvfConfig, IvfIndex, PqConfig, PqIndex, ResidualCodec};
pub use metric::Metric;
pub use registry::IndexRegistry;
pub use spec::{build_store, build_store_from_vectors, decode_store, IndexSpec};

use std::collections::HashMap;

use mcqa_runtime::{run_stage, Executor};

/// The shared hit type and its canonical ordering now live in
/// [`mcqa_util::hits`] (the lexical index and fusion layer rank through
/// the same comparator); re-exported here so downstream paths are
/// unchanged.
pub use mcqa_util::hits::SearchResult;
pub(crate) use mcqa_util::hits::{sort_hits, TopK};

/// Rows per scored panel: sized so an f32 panel (and the scores buffer
/// beside it) stays around 64 KiB — L2-resident — at any dimensionality.
pub(crate) fn panel_rows(dim: usize) -> usize {
    (16_384 / dim.max(1)).clamp(8, 4096)
}

/// The common vector-store interface. Everything downstream of this crate
/// (the pipeline, the evaluator, the `repro` binary) programs against
/// `dyn VectorStore`, so the backend is a configuration choice
/// ([`IndexSpec`]) rather than a type.
///
/// `Send + Sync` are supertraits: stores are built once and then shared
/// read-only across the runtime pool's workers.
///
/// An incremental round mutates a copy of each store in a fixed order:
/// [`VectorStore::remove`] tombstones the rows that are gone,
/// [`VectorStore::rekey`] moves the rows whose id shifted, and
/// [`VectorStore::add_batch`] appends the fresh rows;
/// [`VectorStore::compact`] drops the tombstones once they pile up.
pub trait VectorStore: Send + Sync {
    /// Add a vector under an external id. For trainable backends (IVF)
    /// this panics until [`VectorStore::train`] has run.
    fn add(&mut self, id: u64, vector: &[f32]);

    /// Top-`k` most similar vectors to `query`, best first. Deterministic:
    /// ties break by ascending id. Tombstoned rows (see
    /// [`VectorStore::remove`]) never appear.
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult>;

    /// Number of live (non-tombstoned) stored vectors.
    fn len(&self) -> usize;

    /// True when no vectors are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The metric in use.
    fn metric(&self) -> Metric;

    /// Dimensionality every vector must have.
    fn dim(&self) -> usize;

    /// True when the store must see [`VectorStore::train`] before
    /// [`VectorStore::add`]. Only the coarse quantisers (IVF, PQ) return
    /// true.
    fn needs_training(&self) -> bool {
        false
    }

    /// Fit any coarse structure on a training sample, fanning k-means
    /// iterations out on `exec`'s pool. A no-op for backends without one
    /// (flat, HNSW). Deterministic at any worker count.
    fn train(&mut self, _exec: &Executor, _sample: &[Vec<f32>]) {}

    /// Bulk insertion fanned out on `exec`'s pool where the backend
    /// permits (flat parallelises row encoding, IVF parallelises centroid
    /// assignment; HNSW inserts serially — its graph updates are
    /// order-dependent). The resulting store is **bit-identical** to
    /// sequential [`VectorStore::add`] calls in `items` order, at any
    /// worker count.
    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        let _ = exec;
        for (id, v) in items {
            self.add(*id, v);
        }
    }

    /// Tombstone the rows stored under `ids`: they stop appearing in
    /// search results immediately, while the backing storage is only
    /// rewritten at the next [`VectorStore::compact`] (or serialisation,
    /// which always writes the tombstone-free live view). Ids not present
    /// (or already tombstoned) are ignored. Returns the number of rows
    /// newly tombstoned.
    fn remove(&mut self, ids: &[u64]) -> usize;

    /// Relabel rows in place: every live row stored under a key of
    /// `moves` (old id → new id) takes the mapped id. All moves apply at
    /// once, so swaps, cycles and shift-by-one chains are safe; tombstoned
    /// rows keep their ids, and a key no live row carries is ignored.
    /// Vectors, list assignments, PQ codes, graph links and the panel
    /// cache stay where they are — only the id column changes. Returns the
    /// number of rows relabelled.
    ///
    /// The caller keeps live ids unique: a move onto an id that a live
    /// row keeps would leave two rows under it. On flat, IVF and PQ,
    /// search afterwards is bit-identical to removing the moved rows and
    /// re-adding their vectors under the new ids (scores are per row, ties
    /// break by id); HNSW returns the same neighbours with their ids
    /// mapped. Storage order no longer follows id order, which the wire
    /// formats carry as is.
    fn rekey(&mut self, moves: &HashMap<u64, u64>) -> usize;

    /// Replace-or-insert: tombstone any existing rows under the item ids,
    /// then bulk-insert the new vectors through
    /// [`VectorStore::add_batch`]. Afterwards search results are
    /// bit-identical to a store rebuilt from scratch over the final live
    /// rows — for IVF/PQ, one reusing the same trained coarse structure;
    /// HNSW's graph is insertion-order-dependent and documents its
    /// rebuild-on-compaction semantics in [`crate::hnsw`].
    fn upsert(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        let ids: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
        self.remove(&ids);
        self.add_batch(exec, items);
    }

    /// Number of tombstoned rows still resident in the backing storage.
    fn tombstones(&self) -> usize {
        0
    }

    /// Rewrite the backing storage without its tombstoned rows (a no-op
    /// when nothing is tombstoned). Trained coarse structure — IVF/PQ
    /// centroids and codebooks — is preserved, so post-compaction search
    /// is bit-identical to pre-compaction search; HNSW instead rebuilds
    /// its graph from the live rows in insertion order (see
    /// [`crate::hnsw`]).
    fn compact(&mut self, _exec: &Executor) {}

    /// An independent deep copy: the same rows, trained structure and
    /// tombstones, with a cold panel cache where the store has one (it
    /// keeps its budget): the copy of the previous round's store an
    /// incremental round starts from.
    fn boxed_clone(&self) -> Box<dyn VectorStore>;

    /// Batch search fanned out on `exec`'s pool; results are index-aligned
    /// with `queries` and bit-identical to per-query [`VectorStore::search`].
    fn search_batch(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        run_stage(exec, "search-batch", (0..queries.len()).collect(), |i| {
            self.search(&queries[i], k)
        })
        .0
    }

    /// Payload bytes of the backing storage (vectors + graph/list
    /// structure), for capacity reporting.
    fn payload_bytes(&self) -> usize;

    /// Re-budget the store's resident decoded-panel cache (see
    /// [`crate::embed::PanelCache`]). A no-op for backends without one:
    /// IVF and HNSW keep working vectors at F32 already, and flat scans
    /// its F16 rows in place, widening them inside the kernel's tile. Only
    /// PQ reconstructs panels at search time and caches them under this
    /// budget.
    fn set_panel_cache_budget(&mut self, _budget: crate::embed::PanelBudget) {}

    /// Bytes of decoded panels currently resident in the store's panel
    /// cache (0 for backends without one), for capacity reporting.
    fn panel_cache_resident_bytes(&self) -> usize {
        0
    }

    /// Serialise the store (self-describing: a 4-byte magic tag selects
    /// the decoder in [`decode_store`]).
    fn to_bytes(&self) -> Vec<u8>;
}

impl Clone for Box<dyn VectorStore> {
    fn clone(&self) -> Self {
        (**self).boxed_clone()
    }
}
