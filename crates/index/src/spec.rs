//! Backend selection by value: [`IndexSpec`] + the [`build_store`] factory
//! and the [`decode_store`] codec.
//!
//! Consumers (the pipeline config, the `repro` binary's `--index` flag)
//! carry an `IndexSpec` instead of a concrete index type; the factory
//! turns it into a `Box<dyn VectorStore>` and the codec turns persisted
//! bytes back into one by dispatching on each format's magic tag.
//! [`peek_store_header`] dispatches on the same tags to read a blob's
//! [`StoreHeader`] without decoding a row.

use mcqa_embed::Precision;
use mcqa_runtime::Executor;
use serde::{Deserialize, Serialize};

use crate::{
    FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Metric, PqConfig, PqIndex, VectorStore,
};

/// Which index family to build, with its parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IndexSpec {
    /// Exact brute-force scan (the ground-truth baseline).
    Flat,
    /// Hierarchical navigable-small-world graph.
    Hnsw(HnswConfig),
    /// Inverted-file index with a k-means coarse quantiser.
    Ivf(IvfConfig),
    /// Quantized IVF: coarse centroids + 4–8-bit residual codes.
    Pq(PqConfig),
}

// Not `#[derive(Default)]`: the offline serde derive shim parses the enum
// body itself and does not understand the `#[default]` variant attribute.
#[allow(clippy::derivable_impls)]
impl Default for IndexSpec {
    fn default() -> Self {
        IndexSpec::Flat
    }
}

impl IndexSpec {
    /// The lowercase backend label (`flat` / `hnsw` / `ivf` / `pq`), as
    /// accepted by [`IndexSpec::parse`] and the `repro --index` flag.
    pub fn label(&self) -> &'static str {
        match self {
            IndexSpec::Flat => "flat",
            IndexSpec::Hnsw(_) => "hnsw",
            IndexSpec::Ivf(_) => "ivf",
            IndexSpec::Pq(_) => "pq",
        }
    }

    /// Parse a backend label into a spec with that backend's default
    /// parameters. `None` for unknown labels.
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "flat" => Some(IndexSpec::Flat),
            "hnsw" => Some(IndexSpec::Hnsw(HnswConfig::default())),
            "ivf" => Some(IndexSpec::Ivf(IvfConfig::default())),
            "pq" => Some(IndexSpec::Pq(PqConfig::default())),
            _ => None,
        }
    }

    /// All four backends with default parameters, in canonical order
    /// (flat first — it is the recall baseline).
    pub fn all_defaults() -> [IndexSpec; 4] {
        [
            IndexSpec::Flat,
            IndexSpec::Hnsw(HnswConfig::default()),
            IndexSpec::Ivf(IvfConfig::default()),
            IndexSpec::Pq(PqConfig::default()),
        ]
    }
}

/// Build an empty store for `spec`. `precision` applies to the flat
/// backend's storage matrix; the graph/list backends keep working vectors
/// at full precision (as FAISS's IVF/HNSW "flat" variants do).
pub fn build_store(
    spec: &IndexSpec,
    dim: usize,
    metric: Metric,
    precision: Precision,
) -> Box<dyn VectorStore> {
    match spec {
        IndexSpec::Flat => Box::new(FlatIndex::new(dim, metric, precision)),
        IndexSpec::Hnsw(cfg) => Box::new(HnswIndex::new(dim, metric, cfg.clone())),
        IndexSpec::Ivf(cfg) => Box::new(IvfIndex::new(dim, metric, cfg.clone())),
        IndexSpec::Pq(cfg) => Box::new(PqIndex::new(dim, metric, cfg.clone())),
    }
}

/// Build a store for `spec` and load `items` into it: trains trainable
/// backends on a deterministic sample of the vectors, then bulk-inserts
/// through [`VectorStore::add_batch`] on `exec`'s pool.
pub fn build_store_from_vectors(
    spec: &IndexSpec,
    dim: usize,
    metric: Metric,
    precision: Precision,
    exec: &Executor,
    items: &[(u64, Vec<f32>)],
) -> Box<dyn VectorStore> {
    let mut store = build_store(spec, dim, metric, precision);
    if items.is_empty() {
        return store; // nothing to train on or insert
    }
    if store.needs_training() {
        // A deterministic prefix sample caps k-means cost on large loads
        // while keeping builds reproducible (items arrive in a canonical
        // order everywhere in the pipeline).
        let cap = training_sample_cap(spec).min(items.len());
        let sample: Vec<Vec<f32>> = items[..cap].iter().map(|(_, v)| v.clone()).collect();
        store.train(exec, &sample);
    }
    store.add_batch(exec, items);
    store
}

/// Training-sample ceiling per spec (k-means is O(sample × nlist)).
fn training_sample_cap(spec: &IndexSpec) -> usize {
    match spec {
        IndexSpec::Ivf(cfg) => (cfg.nlist * 256).max(2_048),
        IndexSpec::Pq(cfg) => (cfg.nlist * 256).max(2_048),
        _ => usize::MAX,
    }
}

/// Decode a store serialised by [`VectorStore::to_bytes`], dispatching on
/// the 4-byte magic tag. `None` on unknown tags or corrupted payloads.
pub fn decode_store(bytes: &[u8]) -> Option<Box<dyn VectorStore>> {
    match bytes.get(..4)? {
        m if m == FlatIndex::MAGIC => Some(Box::new(FlatIndex::from_bytes(bytes)?)),
        m if m == HnswIndex::MAGIC => Some(Box::new(HnswIndex::from_bytes(bytes)?)),
        m if m == IvfIndex::MAGIC => Some(Box::new(IvfIndex::from_bytes(bytes)?)),
        m if m == PqIndex::MAGIC => Some(Box::new(PqIndex::from_bytes(bytes)?)),
        _ => None,
    }
}

/// The header-only facts of a serialised store, readable without touching
/// row data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHeader {
    /// Backend label (`flat` / `hnsw` / `ivf` / `pq`), from the magic tag.
    pub backend: &'static str,
    /// Scoring metric.
    pub metric: Metric,
    /// Vector dimensionality.
    pub dim: usize,
    /// Stored vector count.
    pub len: usize,
    /// Whether the backend must be trained before it accepts vectors.
    pub needs_training: bool,
}

/// Decode the header of a store serialised by
/// [`VectorStore::to_bytes`], walking length framing but never row
/// payloads — each format's own walk sits beside its decoder. `None` on
/// unknown magic or a malformed header.
pub fn peek_store_header(bytes: &[u8]) -> Option<StoreHeader> {
    match bytes.get(..4)? {
        m if m == FlatIndex::MAGIC => FlatIndex::peek_header(bytes),
        m if m == HnswIndex::MAGIC => HnswIndex::peek_header(bytes),
        m if m == IvfIndex::MAGIC => IvfIndex::peek_header(bytes),
        m if m == PqIndex::MAGIC => PqIndex::peek_header(bytes),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        v[hot % dim] = 1.0;
        v
    }

    #[test]
    fn labels_roundtrip() {
        for spec in IndexSpec::all_defaults() {
            assert_eq!(IndexSpec::parse(spec.label()).unwrap().label(), spec.label());
        }
        assert!(IndexSpec::parse("faiss").is_none());
    }

    #[test]
    fn serde_roundtrip() {
        for spec in IndexSpec::all_defaults() {
            let s = serde_json::to_string(&spec).unwrap();
            let back: IndexSpec = serde_json::from_str(&s).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn factory_builds_each_backend() {
        for spec in IndexSpec::all_defaults() {
            let store = build_store(&spec, 8, Metric::Cosine, Precision::F32);
            assert_eq!(store.dim(), 8);
            assert_eq!(store.metric(), Metric::Cosine);
            assert!(store.is_empty());
            assert_eq!(
                store.needs_training(),
                matches!(spec, IndexSpec::Ivf(_) | IndexSpec::Pq(_))
            );
        }
    }

    #[test]
    fn build_from_vectors_searches_across_backends() {
        let items: Vec<(u64, Vec<f32>)> = (0..64).map(|i| (i as u64, unit(8, i))).collect();
        let exec = Executor::global();
        for spec in IndexSpec::all_defaults() {
            let store =
                build_store_from_vectors(&spec, 8, Metric::Cosine, Precision::F32, exec, &items);
            assert_eq!(store.len(), 64, "{}", spec.label());
            let hits = store.search(&unit(8, 3), 1);
            assert_eq!(hits[0].id % 8, 3, "{}: nearest shares the hot dim", spec.label());
        }
    }

    #[test]
    fn codec_roundtrips_every_backend() {
        let items: Vec<(u64, Vec<f32>)> = (0..40).map(|i| (i as u64, unit(6, i))).collect();
        let exec = Executor::global();
        for spec in IndexSpec::all_defaults() {
            let store =
                build_store_from_vectors(&spec, 6, Metric::Cosine, Precision::F16, exec, &items);
            let bytes = store.to_bytes();
            let back = decode_store(&bytes).unwrap_or_else(|| panic!("{} decodes", spec.label()));
            assert_eq!(back.len(), store.len());
            assert_eq!(back.dim(), store.dim());
            let q = unit(6, 2);
            assert_eq!(back.search(&q, 5), store.search(&q, 5), "{}", spec.label());
        }
        assert!(decode_store(b"????rest").is_none());
        assert!(decode_store(b"").is_none());
    }

    #[test]
    fn header_peek_matches_store_facts_across_backends() {
        let items: Vec<(u64, Vec<f32>)> = (0..37).map(|i| (i as u64 * 3, unit(6, i))).collect();
        let exec = Executor::global();
        for spec in IndexSpec::all_defaults() {
            let store =
                build_store_from_vectors(&spec, 6, Metric::Cosine, Precision::F16, exec, &items);
            let header = peek_store_header(&store.to_bytes()).expect("header decodes");
            assert_eq!(header.backend, spec.label());
            assert_eq!(header.metric, store.metric(), "{}", spec.label());
            assert_eq!(header.dim, store.dim(), "{}", spec.label());
            assert_eq!(header.len, store.len(), "{}", spec.label());
            assert_eq!(header.needs_training, store.needs_training(), "{}", spec.label());
        }
        assert!(peek_store_header(b"????rest").is_none());
        assert!(peek_store_header(b"FLAT").is_none(), "truncated header rejected");
        assert!(peek_store_header(b"").is_none());
    }

    #[test]
    fn empty_build_from_vectors_skips_training() {
        let exec = Executor::global();
        let spec = IndexSpec::Ivf(IvfConfig::default());
        let store = build_store_from_vectors(&spec, 4, Metric::Cosine, Precision::F32, exec, &[]);
        assert!(store.is_empty());
        assert!(store.search(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());
    }
}
