//! The fusion oracle: `rrf` and `weighted` sort one flat pair list and sum
//! each id's run; the `HashMap` formulations they replaced live on here as
//! the reference, and the two must agree **bitwise** (`f32::to_bits`) —
//! same ids, same order, same rounding — on any input, including ids
//! repeated across and within a list, empty lists, permuted lists and a
//! cut above or below the candidate count.

use std::collections::HashMap;

use mcqa_index::lexical::fusion::{rrf, weighted};
use mcqa_util::{cmp_hits, SearchResult};
use proptest::prelude::*;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Reciprocal rank fusion as it was: one `Vec` of denominators per id,
/// each sorted ascending before it is summed.
fn rrf_oracle(lists: &[&[SearchResult]], k0: u32, k: usize) -> Vec<SearchResult> {
    let mut ranks: HashMap<u64, Vec<u64>> = HashMap::new();
    for list in lists {
        for (rank, hit) in list.iter().enumerate() {
            ranks.entry(hit.id).or_default().push(u64::from(k0) + rank as u64 + 1);
        }
    }
    let mut fused: Vec<SearchResult> = ranks
        .into_iter()
        .map(|(id, mut denoms)| {
            denoms.sort_unstable();
            let score: f64 = denoms.iter().map(|&d| 1.0 / d as f64).sum();
            SearchResult { id, score: score as f32 }
        })
        .collect();
    fused.sort_by(cmp_hits);
    fused.truncate(k);
    fused
}

fn min_max_oracle(list: &[SearchResult]) -> Vec<(u64, f64)> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for h in list {
        lo = lo.min(f64::from(h.score));
        hi = hi.max(f64::from(h.score));
    }
    let span = hi - lo;
    list.iter()
        .map(|h| {
            let s = if span > 0.0 { (f64::from(h.score) - lo) / span } else { 1.0 };
            (h.id, s)
        })
        .collect()
}

/// Weighted-score fusion as it was: one accumulator per id, dense terms
/// added before lexical ones.
fn weighted_oracle(
    dense: &[SearchResult],
    lexical: &[SearchResult],
    dense_weight: f32,
    k: usize,
) -> Vec<SearchResult> {
    let w = f64::from(dense_weight).clamp(0.0, 1.0);
    let mut scores: HashMap<u64, f64> = HashMap::new();
    for (id, s) in min_max_oracle(dense) {
        *scores.entry(id).or_insert(0.0) += w * s;
    }
    for (id, s) in min_max_oracle(lexical) {
        *scores.entry(id).or_insert(0.0) += (1.0 - w) * s;
    }
    let mut fused: Vec<SearchResult> =
        scores.into_iter().map(|(id, s)| SearchResult { id, score: s as f32 }).collect();
    fused.sort_by(cmp_hits);
    fused.truncate(k);
    fused
}

/// A seed-derived candidate list of 0–11 hits over a pool of `ids`
/// distinct ids: a small pool repeats ids across lists *and* within one.
/// Scores come from a 7-value grid, so ties and constant-score (span 0)
/// lists occur; `constant` forces the latter.
fn list(seed: u64, ids: u64, constant: bool) -> Vec<SearchResult> {
    let n = splitmix(seed) % 12;
    (0..n)
        .map(|j| {
            let r = splitmix(seed ^ (j + 1).wrapping_mul(0x9e39));
            let score = if constant { 0.25 } else { ((r >> 20) % 7) as f32 * 1.375 - 3.0 };
            SearchResult { id: r % ids, score }
        })
        .collect()
}

/// Field-by-field with the score compared as bits: `SearchResult`'s
/// `PartialEq` would let `0.0 == -0.0` through.
fn bits(hits: &[SearchResult]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// Top-`k` cuts: nothing, one, a typical top-k, and more than any input
/// here can offer (3 lists × 11 hits).
const CUTS: [usize; 4] = [0, 1, 8, 1000];

proptest! {
    /// Flat-sort `rrf` is bitwise the `HashMap` formulation over 0–3
    /// lists in any order, at every cut.
    #[test]
    fn rrf_matches_the_hashmap_oracle_bitwise(
        nlists in 0usize..4,
        seed in 0u64..100_000,
        ids in 1u64..40,
        k0 in 0u32..120,
        rotate in 0usize..3,
    ) {
        let owned: Vec<Vec<SearchResult>> =
            (0..nlists as u64).map(|i| list(seed ^ (i * 0x49bb), ids, false)).collect();
        let mut lists: Vec<&[SearchResult]> = owned.iter().map(Vec::as_slice).collect();
        if nlists > 0 {
            lists.rotate_left(rotate % nlists);
        }
        for k in CUTS {
            let got = rrf(&lists, k0, k);
            prop_assert_eq!(bits(&got), bits(&rrf_oracle(&lists, k0, k)), "k = {}", k);
            lists.reverse();
            prop_assert_eq!(bits(&rrf(&lists, k0, k)), bits(&got), "reversed lists, k = {}", k);
        }
    }

    /// Flat-sort `weighted` is bitwise the `HashMap` formulation at the
    /// weights that zero one channel and one that mixes both, with either
    /// list possibly empty or constant-score.
    #[test]
    fn weighted_matches_the_hashmap_oracle_bitwise(
        seed in 0u64..100_000,
        ids in 1u64..40,
        weight_pick in 0usize..3,
        constant_pick in 0usize..4,
    ) {
        let w = [0.0f32, 0.37, 1.0][weight_pick];
        let dense = list(seed, ids, constant_pick == 1);
        let lexical = list(seed ^ 0xfeed, ids, constant_pick == 2);
        for k in CUTS {
            prop_assert_eq!(
                bits(&weighted(&dense, &lexical, w, k)),
                bits(&weighted_oracle(&dense, &lexical, w, k)),
                "k = {}", k
            );
        }
    }
}
