//! Property tests for the backend-agnostic `VectorStore` trait surface:
//! for every backend, the batch entry points must be observationally
//! identical to their sequential counterparts, and the persistence codec
//! must round-trip stores without changing a single search result.

use std::sync::OnceLock;

use mcqa_index::embed::Precision;
use mcqa_index::{
    build_store_from_vectors, decode_store, IndexSpec, Metric, SearchResult, VectorStore,
};
use mcqa_runtime::Executor;
use mcqa_util::KeyedStochastic;
use proptest::prelude::*;

fn exec() -> &'static Executor {
    static EXEC: OnceLock<Executor> = OnceLock::new();
    EXEC.get_or_init(|| Executor::new(4))
}

/// Deterministic unit vectors keyed on (seed, i).
fn unit_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let ks = KeyedStochastic::new(seed);
    (0..n)
        .map(|i| {
            let mut v: Vec<f32> = (0..dim)
                .map(|j| ks.gaussian(&["v", &i.to_string(), &j.to_string()]) as f32)
                .collect();
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            v
        })
        .collect()
}

fn build(spec: &IndexSpec, dim: usize, data: &[(u64, Vec<f32>)]) -> Box<dyn VectorStore> {
    build_store_from_vectors(spec, dim, Metric::Cosine, Precision::F32, exec(), data)
}

proptest! {
    /// `search_batch` through the trait is bit-identical to sequential
    /// `search` for all three backends, at every query-batch size
    /// (including empty) and several worker counts.
    #[test]
    fn search_batch_matches_sequential_search(
        n in 1usize..120,
        n_queries in 0usize..24,
        seed in 0u64..1_000,
    ) {
        let dim = 16;
        let data: Vec<(u64, Vec<f32>)> = unit_vectors(n, dim, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let queries = unit_vectors(n_queries, dim, seed ^ 0xDEAD);
        for spec in IndexSpec::all_defaults() {
            let store = build(&spec, dim, &data);
            let sequential: Vec<Vec<SearchResult>> =
                queries.iter().map(|q| store.search(q, 5)).collect();
            for workers in [1usize, 4] {
                let pool = Executor::new(workers);
                let batched = store.search_batch(&pool, &queries, 5);
                prop_assert_eq!(
                    &batched, &sequential,
                    "{} with {} workers", spec.label(), workers
                );
            }
        }
    }

    /// `add_batch` through the trait builds a store whose serialised bytes
    /// equal a store built by sequential `add` calls in the same order.
    #[test]
    fn add_batch_builds_identical_stores(
        n in 1usize..100,
        seed in 0u64..1_000,
    ) {
        let dim = 12;
        let data: Vec<(u64, Vec<f32>)> = unit_vectors(n, dim, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64 * 5, v))
            .collect();
        let sample: Vec<Vec<f32>> = data.iter().map(|(_, v)| v.clone()).collect();
        for spec in IndexSpec::all_defaults() {
            let mut serial = mcqa_index::build_store(&spec, dim, Metric::Cosine, Precision::F32);
            if serial.needs_training() {
                serial.train(exec(), &sample);
            }
            for (id, v) in &data {
                serial.add(*id, v);
            }
            let mut batched = mcqa_index::build_store(&spec, dim, Metric::Cosine, Precision::F32);
            if batched.needs_training() {
                batched.train(exec(), &sample);
            }
            batched.add_batch(exec(), &data);
            prop_assert_eq!(batched.to_bytes(), serial.to_bytes(), "{}", spec.label());
        }
    }

    /// Persistence: decode(encode(store)) answers every query identically,
    /// and the re-encoded bytes are stable.
    #[test]
    fn codec_roundtrip_preserves_search(
        n in 1usize..100,
        seed in 0u64..1_000,
    ) {
        let dim = 10;
        let data: Vec<(u64, Vec<f32>)> = unit_vectors(n, dim, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let queries = unit_vectors(6, dim, seed ^ 0xBEEF);
        for spec in IndexSpec::all_defaults() {
            let store = build(&spec, dim, &data);
            let bytes = store.to_bytes();
            let back = decode_store(&bytes).expect("store decodes");
            prop_assert_eq!(back.len(), store.len());
            prop_assert_eq!(back.dim(), store.dim());
            prop_assert_eq!(back.metric(), store.metric());
            for q in &queries {
                prop_assert_eq!(back.search(q, 5), store.search(q, 5), "{}", spec.label());
            }
            prop_assert_eq!(back.to_bytes(), bytes, "{} re-encode stable", spec.label());
        }
    }

    /// Degenerate inputs are defined, not panics: k = 0, k > len, and
    /// all-zero queries return cleanly for every backend.
    #[test]
    fn degenerate_queries_are_total(
        n in 1usize..60,
        seed in 0u64..1_000,
    ) {
        let dim = 8;
        let data: Vec<(u64, Vec<f32>)> = unit_vectors(n, dim, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = unit_vectors(1, dim, seed ^ 0xF00D).pop().unwrap();
        for spec in IndexSpec::all_defaults() {
            let store = build(&spec, dim, &data);
            prop_assert!(store.search(&q, 0).is_empty(), "{} k=0", spec.label());
            // k > len is total for every backend; exact backends return
            // everything, ANN backends at most their probed candidates.
            let all = store.search(&q, n + 50);
            prop_assert!(all.len() <= n, "{} k>len bounded by len", spec.label());
            prop_assert!(!all.is_empty(), "{} k>len finds something", spec.label());
            if matches!(spec, IndexSpec::Flat) {
                prop_assert_eq!(all.len(), n, "flat k>len returns len");
            }
            let zero = store.search(&vec![0.0; dim], 3);
            prop_assert!(zero.len() <= 3, "{} zero query", spec.label());
            prop_assert!(
                zero.iter().all(|h| h.score == 0.0),
                "{} zero query scores 0 under cosine", spec.label()
            );
        }
    }
}
