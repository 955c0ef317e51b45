//! Pinned wire bytes and search hits for the two inverted-list backends.
//!
//! The constants were recorded before `IvfIndex` and `PqIndex` were folded
//! into one list store; any change to the `IVF0` / `PQIV` byte layout, to
//! list assignment, or to a single score bit moves them.

use mcqa_embed::Precision;
use mcqa_index::{
    build_store_from_vectors, IndexSpec, IvfConfig, IvfIndex, Metric, PqConfig, PqIndex,
    VectorStore,
};
use mcqa_runtime::Executor;
use mcqa_util::{fnv1a, KeyedStochastic};

const DIM: usize = 16;

/// Clustered unit vectors keyed on (seed, i, j).
fn clustered(n: usize, centres: usize, seed: u64) -> Vec<Vec<f32>> {
    let rng = KeyedStochastic::new(seed);
    (0..n)
        .map(|i| {
            let c = i % centres;
            let mut v: Vec<f32> = (0..DIM)
                .map(|j| {
                    let base = if j % centres == c { 1.0 } else { 0.0 };
                    base + 0.15 * rng.gaussian(&["g", &i.to_string(), &j.to_string()]) as f32
                })
                .collect();
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            v
        })
        .collect()
}

/// Build through the factory, then one `remove` and one `upsert` (two
/// re-vectored ids, one fresh) so the serialised bytes are the live view
/// of a store that still holds tombstones.
fn mutated(spec: &IndexSpec) -> Box<dyn VectorStore> {
    let exec = Executor::new(2);
    let data = clustered(160, 4, 23);
    let items: Vec<(u64, Vec<f32>)> =
        data.iter().enumerate().map(|(i, v)| (i as u64 * 3, v.clone())).collect();
    let mut store =
        build_store_from_vectors(spec, DIM, Metric::Cosine, Precision::F32, &exec, &items);
    assert_eq!(store.remove(&[0, 9, 30, 33, 300, 471, 7]), 6, "id 7 was never stored");
    store
        .upsert(&exec, &[(12, data[77].clone()), (303, data[5].clone()), (1_000, data[6].clone())]);
    assert_eq!(store.len(), 155);
    assert_eq!(store.tombstones(), 8);
    store
}

/// FNV-1a over every hit's id and score bits, queries in order.
fn hits_hash(store: &dyn VectorStore) -> u64 {
    let mut bytes = Vec::new();
    for q in clustered(12, 4, 99) {
        let hits = store.search(&q, 7);
        bytes.push(hits.len() as u8);
        for h in hits {
            bytes.extend_from_slice(&h.id.to_le_bytes());
            bytes.extend_from_slice(&h.score.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

#[test]
fn ivf_bytes_and_hits_are_pinned() {
    let spec = IndexSpec::Ivf(IvfConfig { nlist: 8, nprobe: 3, train_iters: 4, seed: 9 });
    let store = mutated(&spec);
    let bytes = store.to_bytes();
    let typed = IvfIndex::from_bytes(&bytes).expect("IVF0 decodes");
    assert!(typed.is_trained());
    assert!(typed.list_sizes().iter().filter(|&&n| n > 0).count() >= 2);
    assert_eq!(bytes.len(), 11_742);
    assert_eq!(fnv1a(&bytes), 0xff87_5d6b_d96f_1c2b, "IVF0 bytes moved");
    assert_eq!(hits_hash(store.as_ref()), 0xd54b_f187_add4_79d8, "ivf hits moved");
    assert_eq!(hits_hash(&typed), 0xd54b_f187_add4_79d8, "decoded ivf hits moved");
}

#[test]
fn pq_bytes_and_hits_are_pinned() {
    let spec = IndexSpec::Pq(PqConfig {
        nlist: 8,
        nprobe: 3,
        train_iters: 4,
        bits: 6,
        sub_dim: 4,
        seed: 9,
    });
    let store = mutated(&spec);
    let bytes = store.to_bytes();
    let typed = PqIndex::from_bytes(&bytes).expect("PQIV decodes");
    assert!(typed.is_trained());
    assert!(typed.list_sizes().iter().filter(|&&n| n > 0).count() >= 2);
    assert_eq!(bytes.len(), 2_679);
    assert_eq!(fnv1a(&bytes), 0xf48a_2114_f2bb_f4b1, "PQIV bytes moved");
    assert_eq!(hits_hash(store.as_ref()), 0xc721_18f2_449f_2e76, "pq hits moved");
    assert_eq!(hits_hash(&typed), 0xc721_18f2_449f_2e76, "decoded pq hits moved");
}
