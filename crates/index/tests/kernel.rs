//! Property suite for the blocked, query-batched flat-search kernel: every
//! (metric × precision × block size × query block × worker count) path must
//! return **identical ids and scores** to a naive per-row scalar oracle —
//! score each stored row with `Metric::score`, sort by (score desc, id
//! asc), truncate to k. Covers ragged tails (`len % block_rows != 0`),
//! `k >= len`, and duplicate-score ties; and, for the sparse path a block
//! of mostly-zero queries takes, every zero density, `−0.0` entries,
//! tombstones, non-finite F16 rows and blocks on both sides of its cost
//! rule.

use std::sync::OnceLock;

use mcqa_index::embed::Precision;
use mcqa_index::{FlatIndex, Metric, SearchResult, VectorStore};
use mcqa_runtime::Executor;
use mcqa_util::KeyedStochastic;
use proptest::prelude::*;

fn exec() -> &'static Executor {
    static EXEC: OnceLock<Executor> = OnceLock::new();
    EXEC.get_or_init(|| Executor::new(4))
}

/// Deterministic dense vectors keyed on (seed, i); deliberately *not*
/// normalised so Dot and L2 see a spread of magnitudes.
fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let ks = KeyedStochastic::new(seed);
    (0..n)
        .map(|i| {
            (0..dim).map(|j| ks.gaussian(&["v", &i.to_string(), &j.to_string()]) as f32).collect()
        })
        .collect()
}

/// Vectors whose elements are zero with probability `zero_share` —
/// alternately `+0.0` and `−0.0` — and Gaussian elsewhere: the shape of a
/// feature-hashed stem (≈ 71 % zeros at dim 256).
fn sparse_vectors(n: usize, dim: usize, seed: u64, zero_share: f64) -> Vec<Vec<f32>> {
    let ks = KeyedStochastic::new(seed);
    let mut out = vectors(n, dim, seed);
    for (i, v) in out.iter_mut().enumerate() {
        for (j, x) in v.iter_mut().enumerate() {
            if ks.bernoulli(zero_share, &["zero", &i.to_string(), &j.to_string()]) {
                *x = if (i + j) % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
    }
    out
}

/// Hits as (id, score bits): NaN scores compare equal to themselves.
fn bits(hits: &[SearchResult]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// The scalar oracle: per-row `Metric::score` on the store's own decoded
/// rows, full sort with the canonical tie-break, truncate.
fn oracle(idx: &FlatIndex, query: &[f32], k: usize) -> Vec<SearchResult> {
    let mut hits: Vec<SearchResult> = (0..idx.len())
        .map(|i| SearchResult { id: idx.row_id(i), score: idx.metric().score(query, &idx.row(i)) })
        .collect();
    hits.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.id.cmp(&b.id))
    });
    hits.truncate(k);
    hits
}

fn build(
    metric: Metric,
    precision: Precision,
    dim: usize,
    rows: &[Vec<f32>],
    duplicate_every: usize,
) -> FlatIndex {
    let mut idx = FlatIndex::new(dim, metric, precision);
    for (i, v) in rows.iter().enumerate() {
        // Duplicated rows under fresh ids force exact score ties, the case
        // where heap order and sort order could legally diverge if the
        // tie-break were not total.
        let v = if duplicate_every > 0 && i % duplicate_every == 0 && i > 0 { &rows[0] } else { v };
        idx.add(i as u64 * 3, v);
    }
    idx
}

const METRICS: [Metric; 3] = [Metric::Cosine, Metric::Dot, Metric::L2];

proptest! {
    /// Single-query blocked search equals the scalar oracle bit-for-bit at
    /// every panel height, including ragged tails and k >= len.
    #[test]
    fn blocked_search_matches_scalar_oracle(
        n in 1usize..90,
        dim in 1usize..40,
        k in 0usize..100,
        seed in 0u64..500,
        dup in 0usize..6,
    ) {
        let rows = vectors(n, dim, seed);
        let query = vectors(1, dim, seed ^ 0xABCD).pop().unwrap();
        for metric in METRICS {
            for precision in [Precision::F32, Precision::F16] {
                let idx = build(metric, precision, dim, &rows, dup);
                let expect = oracle(&idx, &query, k);
                for block_rows in [1usize, 3, 8, n.max(1), n + 7] {
                    let got = idx.search_blocked(&query, k, block_rows);
                    prop_assert_eq!(
                        &got, &expect,
                        "{:?}/{:?} n={} block={}", metric, precision, n, block_rows
                    );
                }
                // The trait entry point uses the default panel height.
                prop_assert_eq!(idx.search(&query, k), expect, "{:?}/{:?}", metric, precision);
            }
        }
    }

    /// Query-batched blocked search equals per-query search at every
    /// (panel height × query block × worker count), i.e. one amortised
    /// panel decode serves every query bit-identically.
    #[test]
    fn batched_search_matches_per_query_search(
        n in 1usize..70,
        n_queries in 0usize..12,
        seed in 0u64..500,
    ) {
        let dim = 24;
        let rows = vectors(n, dim, seed);
        let queries = vectors(n_queries, dim, seed ^ 0xBEEF);
        for metric in METRICS {
            for precision in [Precision::F32, Precision::F16] {
                let idx = build(metric, precision, dim, &rows, 3);
                let expect: Vec<Vec<SearchResult>> =
                    queries.iter().map(|q| oracle(&idx, q, 5)).collect();
                for workers in [1usize, 4] {
                    let pool = Executor::new(workers);
                    for (block_rows, query_block) in [(1, 1), (7, 3), (64, 0), (n.max(1), 2)] {
                        let got =
                            idx.search_batch_blocked(&pool, &queries, 5, block_rows, query_block);
                        prop_assert_eq!(
                            &got, &expect,
                            "{:?}/{:?} n={} rb={} qb={} w={}",
                            metric, precision, n, block_rows, query_block, workers
                        );
                    }
                    prop_assert_eq!(idx.search_batch(&pool, &queries, 5), expect.clone());
                }
            }
        }
    }
}

/// A task's queries are scored in fixed sub-blocks (the score scratch is
/// bounded however many queries a task holds): a block several sub-blocks
/// wide, with a ragged last one, still equals the oracle query by query —
/// every metric and precision, one task or split across workers.
#[test]
fn query_blocks_wider_than_the_score_sub_block_match_the_oracle() {
    let (dim, n, n_queries) = (24, 45, 75);
    let rows = vectors(n, dim, 5);
    let queries = vectors(n_queries, dim, 6);
    for metric in METRICS {
        for precision in [Precision::F32, Precision::F16] {
            let idx = build(metric, precision, dim, &rows, 4);
            let expect: Vec<Vec<SearchResult>> =
                queries.iter().map(|q| oracle(&idx, q, 5)).collect();
            for (block_rows, query_block) in [(7, n_queries), (64, 0), (16, 33)] {
                let got = idx.search_batch_blocked(exec(), &queries, 5, block_rows, query_block);
                assert_eq!(
                    got, expect,
                    "{metric:?}/{precision:?} rb={block_rows} qb={query_block}"
                );
            }
        }
    }
}

/// All-identical rows: every score ties, so the returned ids must be the k
/// smallest ids in order — for every metric, precision, and path.
#[test]
fn all_ties_rank_by_ascending_id() {
    let dim = 16;
    let v = vectors(1, dim, 77).pop().unwrap();
    for metric in METRICS {
        for precision in [Precision::F32, Precision::F16] {
            let mut idx = FlatIndex::new(dim, metric, precision);
            for id in [9u64, 2, 14, 5, 0, 7] {
                idx.add(id, &v);
            }
            let hits = idx.search_blocked(&v, 4, 4);
            assert_eq!(
                hits.iter().map(|h| h.id).collect::<Vec<_>>(),
                vec![0, 2, 5, 7],
                "{metric:?}/{precision:?}"
            );
            let batched = idx.search_batch_blocked(exec(), &[v.clone(), v.clone()], 4, 2, 1);
            assert_eq!(batched[0], hits, "{metric:?}/{precision:?} batched");
            assert_eq!(batched[1], hits, "{metric:?}/{precision:?} batched");
        }
    }
}

/// The scan offers a row to a full top-k set only if it reaches the set's
/// running k-th score. A row that *ties* that score enters on a smaller
/// id, and a tombstoned row never enters however well it scores. Here the
/// best-scoring rows are all dead, the heap fills with ties under large
/// ids, and ties with smaller ids arrive after it is full: the result must
/// still be the oracle's, on every panel height and on the batched path.
#[test]
fn ties_at_the_kth_score_after_the_heap_fills_still_enter() {
    const K: usize = 4;
    let dim = 9; // a ragged lane tail
    let query = vec![1.0f32; dim];
    // Against `query`, strictly best > tie > every worse row under all
    // three metrics: cosine 1 > 0.986 > ≤ 0.882, dot 9 > 8.5 > ≤ 7,
    // −L2 0 > −0.25 > ≤ −2.
    let best = query.clone();
    let mut tie = query.clone();
    tie[dim - 1] = 0.5;
    let worse =
        |j: usize| -> Vec<f32> { (0..dim).map(|i| if i < 8 - j { 1.0 } else { 0.0 }).collect() };
    // (id, vector, tombstoned), in position order.
    let mut rows: Vec<(u64, Vec<f32>, bool)> = Vec::new();
    rows.extend((200..203).map(|id| (id, best.clone(), true)));
    rows.extend((100..100 + K as u64).map(|id| (id, tie.clone(), false)));
    rows.extend((1..=8).map(|j| (300 + j as u64, worse(j), false)));
    rows.extend([7u64, 3, 5].map(|id| (id, tie.clone(), false)));
    rows.push((0, tie.clone(), true));
    rows.push((150, tie.clone(), false));
    rows.push((1, best.clone(), true));
    for metric in METRICS {
        for precision in [Precision::F32, Precision::F16] {
            let mut idx = FlatIndex::new(dim, metric, precision);
            for (id, v, _) in &rows {
                idx.add(*id, v);
            }
            let dead: Vec<u64> = rows.iter().filter(|r| r.2).map(|r| r.0).collect();
            assert_eq!(idx.remove(&dead), dead.len());
            let mut expect: Vec<SearchResult> = rows
                .iter()
                .filter(|r| !r.2)
                .map(|(id, v, _)| SearchResult { id: *id, score: metric.score(&query, v) })
                .collect();
            mcqa_util::sort_hits(&mut expect);
            expect.truncate(K);
            let ids: Vec<u64> = expect.iter().map(|h| h.id).collect();
            assert_eq!(ids, vec![3, 5, 7, 100], "{metric:?}/{precision:?}: the fixture's premise");
            // Nine queries in one block: two 4×2 groups and a lone query.
            let queries = vec![query.clone(); 9];
            for block_rows in [1usize, 2, 3, 5, 8, rows.len()] {
                let got = idx.search_blocked(&query, K, block_rows);
                assert_eq!(got, expect, "{metric:?}/{precision:?} block={block_rows}");
                let batched = idx.search_batch_blocked(exec(), &queries, K, block_rows, 9);
                assert!(batched.iter().all(|hits| *hits == expect), "{metric:?}/{precision:?}");
                // The query inside a block of all-zero queries: enough zeros
                // for the sparse path (except under L2, which is dense).
                let mut sparse_block = vec![vec![0.0; dim]; 16];
                sparse_block[5] = query.clone();
                let batched = idx.search_batch_blocked(exec(), &sparse_block, K, block_rows, 16);
                assert_eq!(batched[5], expect, "{metric:?}/{precision:?} sparse block");
            }
        }
    }
}

/// Degenerate shapes stay total on the blocked paths.
#[test]
fn degenerate_blocked_shapes() {
    let dim = 8;
    let idx = FlatIndex::new(dim, Metric::Cosine, Precision::F16);
    assert!(idx.search_blocked(&vec![0.0; dim], 5, 16).is_empty(), "empty index");
    let out = idx.search_batch_blocked(exec(), &[vec![0.0; dim]], 5, 16, 0);
    assert_eq!(out, vec![Vec::new()], "empty index, batched");

    let mut idx = FlatIndex::new(dim, Metric::Cosine, Precision::F16);
    idx.add(1, &vec![1.0; dim]);
    assert!(idx.search_blocked(&vec![1.0; dim], 0, 16).is_empty(), "k = 0");
    assert_eq!(idx.search_blocked(&vec![1.0; dim], 10, 16).len(), 1, "k > len");
    assert_eq!(
        idx.search_batch_blocked(exec(), &[], 5, 16, 0),
        Vec::<Vec<SearchResult>>::new(),
        "no queries"
    );
}

proptest! {
    /// Blocks of sparse queries — every zero density, `−0.0` entries, an
    /// all-zero and a lone-nonzero query — over stores with tombstones and
    /// duplicate rows (score ties at the floor), equal the scalar oracle at the dims around a lane and a panel
    /// boundary. A block takes the sparse path once its queries hold
    /// enough zeros (here: the one-task block at most densities) and the
    /// dense tile otherwise (a lone query; four workers' quarter-blocks at
    /// low densities), so both sides of the cost rule are held to it.
    #[test]
    fn sparse_query_blocks_match_the_scalar_oracle(
        n in 1usize..140,
        dim_pick in 0usize..4,
        n_queries in 2usize..48,
        zero_pct in 0u32..101,
        seed in 0u64..500,
        dead_every in 0usize..5,
        dup in 0usize..4,
    ) {
        let dim = [19, 255, 256, 257][dim_pick];
        let rows = vectors(n, dim, seed);
        let mut queries = sparse_vectors(n_queries, dim, seed ^ 0x5A, f64::from(zero_pct) / 100.0);
        queries[0] = (0..dim).map(|j| if j % 3 == 0 { -0.0 } else { 0.0 }).collect();
        queries[1] = vec![0.0; dim];
        queries[1][(seed as usize) % dim] = 0.5;
        for metric in METRICS {
            for precision in [Precision::F32, Precision::F16] {
                let mut idx = build(metric, precision, dim, &rows, dup);
                let dead: Vec<u64> = if dead_every == 0 {
                    Vec::new()
                } else {
                    (0..n as u64).filter(|i| i % dead_every as u64 == 1).map(|i| i * 3).collect()
                };
                idx.remove(&dead);
                let expect: Vec<Vec<SearchResult>> = queries
                    .iter()
                    .map(|q| {
                        let mut hits: Vec<SearchResult> = (0..n)
                            .filter(|&i| !dead.contains(&idx.row_id(i)))
                            .map(|i| SearchResult { id: idx.row_id(i), score: metric.score(q, &idx.row(i)) })
                            .collect();
                        mcqa_util::sort_hits(&mut hits);
                        hits.truncate(5);
                        hits
                    })
                    .collect();
                for (block_rows, query_block) in [(64, n_queries), (7, n_queries), (64, 0), (256, 3)] {
                    let got = idx.search_batch_blocked(exec(), &queries, 5, block_rows, query_block);
                    prop_assert_eq!(
                        &got, &expect,
                        "{:?}/{:?} dim={} rb={} qb={}", metric, precision, dim, block_rows, query_block
                    );
                }
                prop_assert_eq!(&idx.search(&queries[1], 5), &expect[1], "{:?}/{:?}", metric, precision);
            }
        }
    }
}

/// A panel holding ±∞ or NaN cannot skip its zero terms (`0 × ∞` is NaN),
/// so a sparse block scores that panel on the dense tile and the rest
/// sparsely: every query's hits, NaN scores included, equal its lone
/// (dense) search bit for bit — F16 rows overflowing to ±∞, F32 rows
/// holding them, and a NaN, in the first, a middle and the last panel.
#[test]
fn non_finite_rows_take_the_dense_tile_bit_for_bit() {
    let (dim, n) = (19, 40);
    let queries = sparse_vectors(64, dim, 9, 0.7);
    for (at, bad) in [(0, 1.0e6f32), (17, -1.0e6), (39, f32::INFINITY), (22, f32::NAN)] {
        for metric in [Metric::Cosine, Metric::Dot] {
            for precision in [Precision::F32, Precision::F16] {
                let mut rows = vectors(n, dim, 8);
                // ±10⁶ overflows F16 to ±∞; an F32 row holds ±∞ itself.
                let f32_bad = if bad.is_finite() { bad * f32::INFINITY } else { bad };
                rows[at][at % dim] = if precision == Precision::F32 { f32_bad } else { bad };
                let idx = build(metric, precision, dim, &rows, 0);
                assert!(!idx.row(at)[at % dim].is_finite(), "the fixture's premise");
                let lone: Vec<Vec<(u64, u32)>> =
                    queries.iter().map(|q| bits(&idx.search_blocked(q, 7, 8))).collect();
                let batched = idx.search_batch_blocked(exec(), &queries, 7, 8, queries.len());
                let batched: Vec<Vec<(u64, u32)>> = batched.iter().map(|h| bits(h)).collect();
                assert_eq!(batched, lone, "{metric:?}/{precision:?} {bad} in row {at}");
            }
        }
    }
}
