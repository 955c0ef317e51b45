//! The fusion oracle: `rrf` sorts one flat pair list and sums each id's
//! run; the `HashMap` formulation it replaced lives on here as the
//! reference, and the two must agree **bitwise** (`f32::to_bits`) — same
//! ids, same order, same rounding — on any input, including ids repeated
//! across and within a list, empty lists, permuted lists and a cut above
//! or below the candidate count.

use std::collections::HashMap;

use mcqa_index::lexical::fusion::{rrf, K0};
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
fn rrf_oracle(lists: &[&[SearchResult]], k: usize) -> Vec<SearchResult> {
    let mut ranks: HashMap<u64, Vec<u64>> = HashMap::new();
    for list in lists {
        for (rank, hit) in list.iter().enumerate() {
            ranks.entry(hit.id).or_default().push(K0 + rank as u64 + 1);
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

/// A seed-derived candidate list of 0–11 hits over a pool of `ids`
/// distinct ids: a small pool repeats ids across lists *and* within one.
/// Scores come from a 7-value grid; RRF reads only the ranks.
fn list(seed: u64, ids: u64) -> Vec<SearchResult> {
    let n = splitmix(seed) % 12;
    (0..n)
        .map(|j| {
            let r = splitmix(seed ^ (j + 1).wrapping_mul(0x9e39));
            let score = ((r >> 20) % 7) as f32 * 1.375 - 3.0;
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
        rotate in 0usize..3,
    ) {
        let owned: Vec<Vec<SearchResult>> =
            (0..nlists as u64).map(|i| list(seed ^ (i * 0x49bb), ids)).collect();
        let mut lists: Vec<&[SearchResult]> = owned.iter().map(Vec::as_slice).collect();
        if nlists > 0 {
            lists.rotate_left(rotate % nlists);
        }
        for k in CUTS {
            let got = rrf(&lists, k);
            prop_assert_eq!(bits(&got), bits(&rrf_oracle(&lists, k)), "k = {}", k);
            lists.reverse();
            prop_assert_eq!(bits(&rrf(&lists, k)), bits(&got), "reversed lists, k = {}", k);
        }
    }
}
