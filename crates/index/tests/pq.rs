//! Property tests for the quantized IVF backend: the residual codec's
//! error bound, bit-identical persistence and batching, the recall floor
//! against the flat oracle and the footprint under a flat store, and
//! degenerate-input totality.

use std::sync::OnceLock;

use mcqa_index::embed::Precision;
use mcqa_index::{
    decode_store, FlatIndex, Metric, PqConfig, PqIndex, ResidualCodec, SearchResult, VectorStore,
};
use mcqa_runtime::Executor;
use mcqa_util::KeyedStochastic;
use proptest::prelude::*;

fn exec() -> &'static Executor {
    static EXEC: OnceLock<Executor> = OnceLock::new();
    EXEC.get_or_init(|| Executor::new(4))
}

/// Clustered unit vectors: `n` points around `centres` separated
/// directions, keyed on (seed, i, j) so generation is order-independent.
fn clustered(n: usize, centres: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let rng = KeyedStochastic::new(seed);
    (0..n)
        .map(|i| {
            let c = i % centres;
            let mut v: Vec<f32> = (0..dim)
                .map(|j| {
                    let base = if j % centres == c { 1.0 } else { 0.0 };
                    base + 0.12 * rng.gaussian(&["g", &i.to_string(), &j.to_string()]) as f32
                })
                .collect();
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            v
        })
        .collect()
}

fn trained(dim: usize, data: &[Vec<f32>], config: PqConfig) -> PqIndex {
    let mut pq = PqIndex::new(dim, Metric::Cosine, config);
    pq.train(exec(), data);
    for (i, v) in data.iter().enumerate() {
        pq.add(i as u64, v);
    }
    pq
}

proptest! {
    /// Codec round-trip: every in-range residual dimension decodes within
    /// half a quantization step, at every bit width and subspace shape.
    #[test]
    fn codec_roundtrip_within_quantization_bound(
        bits in 4usize..9,
        sub_dim in 1usize..10,
        seed in 0u64..500,
    ) {
        let dim = 13; // ragged vs every sub_dim in range
        let rng = KeyedStochastic::new(seed);
        let residuals: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                (0..dim)
                    .map(|j| 0.4 * rng.gaussian(&["r", &i.to_string(), &j.to_string()]) as f32)
                    .collect()
            })
            .collect();
        let codec = ResidualCodec::fit(dim, bits, sub_dim, &residuals);
        prop_assert_eq!(codec.code_bytes(), (dim * bits).div_ceil(8));
        let zero = vec![0.0f32; dim];
        let mut rec = vec![0.0f32; dim];
        for r in &residuals {
            let mut codes = Vec::new();
            codec.encode_into(r, &mut codes);
            prop_assert_eq!(codes.len(), codec.code_bytes());
            codec.decode_into(&codes, &zero, &mut rec);
            for (j, (&x, &y)) in r.iter().zip(&rec).enumerate() {
                let bound = codec.quantum(j) * 0.5001 + 1e-6;
                prop_assert!(
                    (x - y).abs() <= bound,
                    "bits={} sub_dim={} dim {}: |{} - {}| > {}", bits, sub_dim, j, x, y, bound
                );
            }
        }
    }

    /// Persistence: a trained store's serde round-trip (through both the
    /// typed decoder and the magic-tag dispatch) answers every query with
    /// bit-identical scores, and re-encoding is stable.
    #[test]
    fn serde_roundtrip_preserves_search_bit_identically(
        n in 1usize..150,
        seed in 0u64..500,
    ) {
        let dim = 16;
        let data = clustered(n, 4, dim, seed);
        let pq = trained(
            dim,
            &data,
            PqConfig { nlist: 8, nprobe: 4, train_iters: 2, bits: 5, sub_dim: 6, seed },
        );
        let bytes = pq.to_bytes();
        let typed = PqIndex::from_bytes(&bytes).expect("typed decode");
        let dynamic = decode_store(&bytes).expect("magic-tag decode");
        prop_assert_eq!(typed.len(), pq.len());
        prop_assert_eq!(dynamic.len(), pq.len());
        for q in clustered(6, 4, dim, seed ^ 0xBEEF) {
            let a = pq.search(&q, 5);
            for hits in [typed.search(&q, 5), dynamic.search(&q, 5)] {
                prop_assert_eq!(hits.len(), a.len());
                for (x, y) in a.iter().zip(&hits) {
                    prop_assert_eq!(x.id, y.id);
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits(), "score bits");
                }
            }
        }
        prop_assert_eq!(typed.to_bytes(), bytes, "re-encode stable");
    }

    /// The list-sharded `search_batch` is bit-identical to sequential
    /// `search` at 1 and 4 workers, for every batch size (including 0).
    #[test]
    fn search_batch_matches_sequential(
        n in 1usize..200,
        n_queries in 0usize..16,
        seed in 0u64..500,
    ) {
        let dim = 16;
        let data = clustered(n, 4, dim, seed);
        let pq = trained(
            dim,
            &data,
            PqConfig { nlist: 8, nprobe: 3, train_iters: 2, bits: 4, sub_dim: 8, seed },
        );
        let queries = clustered(n_queries, 4, dim, seed ^ 0xDEAD);
        let sequential: Vec<Vec<SearchResult>> =
            queries.iter().map(|q| pq.search(q, 5)).collect();
        for workers in [1usize, 4] {
            let pool = Executor::new(workers);
            prop_assert_eq!(
                &pq.search_batch(&pool, &queries, 5), &sequential,
                "{} workers", workers
            );
        }
    }

    /// Degenerate inputs are defined, not panics: untrained stores,
    /// empty inverted lists (nlist ≫ distinct points), k = 0, k > len,
    /// and the zero query.
    #[test]
    fn degenerate_inputs_are_total(
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let dim = 8;
        let data = clustered(n, 2, dim, seed);
        let q = data[0].clone();
        let untrained = PqIndex::new(dim, Metric::Cosine, PqConfig::default());
        prop_assert!(!untrained.is_trained());
        prop_assert!(untrained.search(&q, 5).is_empty(), "untrained search is empty");
        // nlist far above the point count: the codebook shrinks, and any
        // empty lists that remain scan cleanly.
        let pq = trained(
            dim,
            &data,
            PqConfig { nlist: 64, nprobe: 64, train_iters: 2, bits: 4, sub_dim: 4, seed },
        );
        prop_assert!(pq.nlist() <= n, "codebook shrinks to the sample");
        prop_assert!(pq.list_sizes().iter().sum::<usize>() == n, "every vector lands in a list");
        prop_assert!(pq.search(&q, 0).is_empty(), "k=0");
        let all = pq.search(&q, n + 50);
        prop_assert!(!all.is_empty() && all.len() <= n, "k>len bounded");
        let zero = pq.search(&vec![0.0; dim], 3);
        prop_assert!(zero.iter().all(|h| h.score == 0.0), "zero query scores 0 under cosine");
    }
}

/// Recall floor against the flat oracle — statistical, so a plain test
/// with fixed generators rather than a proptest shrink target: at a
/// 6-bit width and a 1/4 probe ratio on clustered data, recall@5
/// must clear 0.9 while the serialised store stays under 55 % of an F16
/// flat store's. (4 bits tops out near 0.83 here — within-cluster top-5
/// ordering needs the finer residual grid.)
#[test]
fn recall_at_5_floor_against_flat_oracle() {
    let dim = 32;
    let data = clustered(3_000, 16, dim, 7);
    let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
    for (i, v) in data.iter().enumerate() {
        flat.add(i as u64, v);
    }
    let pq = trained(
        dim,
        &data,
        PqConfig { nlist: 32, nprobe: 8, train_iters: 4, bits: 6, sub_dim: 8, seed: 11 },
    );
    let queries = clustered(200, 16, dim, 4242);
    let truth = flat.search_batch(exec(), &queries, 5);
    let approx = pq.search_batch(exec(), &queries, 5);
    let mut hits = 0usize;
    let mut total = 0usize;
    for (t, a) in truth.iter().zip(&approx) {
        let ids: std::collections::HashSet<u64> = t.iter().map(|h| h.id).collect();
        hits += a.iter().filter(|h| ids.contains(&h.id)).count();
        total += ids.len();
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.9, "pq recall@5 = {recall:.3} < 0.9");

    // The codes must also compress: the serialised store sits well under
    // the pipeline's own F16 flat store over the same rows.
    let items: Vec<(u64, Vec<f32>)> = (0..).zip(data).collect();
    let mut f16 = FlatIndex::new(dim, Metric::Cosine, Precision::F16);
    f16.add_batch(exec(), &items);
    let (pq_bytes, f16_bytes) = (pq.to_bytes().len(), f16.to_bytes().len());
    assert!(
        pq_bytes * 100 <= f16_bytes * 55,
        "pq store {pq_bytes} B > 55% of F16 flat {f16_bytes} B"
    );
}
