//! Rank fusion: merging dense and lexical candidate lists.
//!
//! Reciprocal rank fusion ([`rrf`]) scores an id by `Σ 1/(K0 + rank)` over
//! the lists that contain it, at the literature's `K0 = 60`. It is
//! rank-only, so the two channels' incommensurable score scales never
//! meet, and it is invariant under permutation of the input lists (per-id
//! contributions are summed in a canonical order, so even the
//! floating-point result is identical). Fused lists are ranked through
//! the shared [`cmp_hits`] order, so fused ties break exactly like
//! index-internal ties (descending score, ascending id).

use mcqa_util::{cmp_hits, SearchResult};

/// The rank-damping constant of [`rrf`] (the literature default).
pub const K0: u64 = 60;

/// The fusion rule carried on the query envelope: reciprocal rank fusion
/// at [`K0`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fusion;

impl Fusion {
    /// Merge one query's dense and lexical candidate lists into a fused
    /// top-`k`.
    pub fn fuse(
        &self,
        dense: &[SearchResult],
        lexical: &[SearchResult],
        k: usize,
    ) -> Vec<SearchResult> {
        rrf(&[dense, lexical], k)
    }

    /// A stable label for logs and bench output.
    pub fn label(&self) -> String {
        format!("rrf{K0}")
    }
}

/// The default per-channel over-fetch multiplier ([`fuse_depth`] with
/// `depth == 0`). 8× in practice: 4× left hybrid a hair below dense on
/// one trace source — rank evidence between 4k and 8k was still moving
/// the fused order.
pub(crate) const DEFAULT_FUSE_DEPTH: usize = 8;

/// How deep each underlying channel should retrieve before fusing to a
/// top-`k`: rank evidence below the cut still moves the fused order, so
/// both channels over-fetch `depth`× (`0` selects
/// `DEFAULT_FUSE_DEPTH`).
pub fn fuse_depth(k: usize, depth: usize) -> usize {
    let d = if depth == 0 { DEFAULT_FUSE_DEPTH } else { depth };
    k.saturating_mul(d)
}

/// Reciprocal rank fusion over any number of ranked lists.
///
/// Per-id contributions `1/(K0 + rank)` are collected from every list as
/// `(id, denominator)` pairs and sorted, so each id's run is summed in
/// ascending-denominator order — a canonical order, which makes the
/// result (bitwise, not just semantically) invariant under permutation of
/// `lists`. The best `k` fused ids are selected first and only they are
/// sorted: [`cmp_hits`] is a total order over distinct ids, so that is
/// the prefix a full sort would keep.
pub fn rrf(lists: &[&[SearchResult]], k: usize) -> Vec<SearchResult> {
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    for list in lists {
        for (rank, hit) in list.iter().enumerate() {
            pairs.push((hit.id, K0 + rank as u64 + 1));
        }
    }
    pairs.sort_unstable();
    let mut fused: Vec<SearchResult> = pairs
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let score = run.iter().fold(0.0, |sum, &(_, d)| sum + 1.0 / d as f64);
            SearchResult { id: run[0].0, score: score as f32 }
        })
        .collect();
    if k == 0 {
        return Vec::new();
    }
    if k < fused.len() {
        fused.select_nth_unstable_by(k - 1, cmp_hits);
        fused.truncate(k);
    }
    fused.sort_by(cmp_hits);
    fused
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(pairs: &[(u64, f32)]) -> Vec<SearchResult> {
        pairs.iter().map(|&(id, score)| SearchResult { id, score }).collect()
    }

    #[test]
    fn rrf_rewards_agreement() {
        let dense = hits(&[(1, 0.9), (2, 0.8), (3, 0.7)]);
        let lex = hits(&[(2, 12.0), (4, 11.0)]);
        let fused = rrf(&[&dense, &lex], 4);
        assert_eq!(fused[0].id, 2, "the id both channels rank wins: {fused:?}");
        assert_eq!(fused.len(), 4);
    }

    #[test]
    fn rrf_is_permutation_invariant_bitwise() {
        let a = hits(&[(1, 0.9), (2, 0.8)]);
        let b = hits(&[(2, 5.0), (3, 4.0)]);
        let c = hits(&[(3, 1.0), (1, 0.5)]);
        let base = rrf(&[&a, &b, &c], 10);
        for perm in [[&b, &a, &c], [&c, &b, &a], [&a, &c, &b]] {
            let lists: Vec<&[SearchResult]> = perm.iter().map(|l| l.as_slice()).collect();
            assert_eq!(rrf(&lists, 10), base);
        }
    }

    #[test]
    fn rrf_ties_break_by_ascending_id() {
        // Symmetric evidence: ids 7 and 3 each rank first in one list and
        // nowhere else — identical scores, so the lower id must lead.
        let a = hits(&[(7, 0.5)]);
        let b = hits(&[(3, 9.0)]);
        let fused = rrf(&[&a, &b], 2);
        assert_eq!(fused.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(fused[0].score, fused[1].score);
    }

    #[test]
    fn degenerate_inputs_are_total() {
        assert!(rrf(&[], 5).is_empty());
        assert!(rrf(&[&[], &[]], 5).is_empty());
        assert!(Fusion.fuse(&[], &[], 5).is_empty());
    }

    /// The fusion `rrf` replaced, kept as its oracle: sort every fused
    /// id, then cut to `k`.
    fn sort_then_truncate(lists: &[&[SearchResult]], k: usize) -> Vec<SearchResult> {
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for list in lists {
            for (rank, hit) in list.iter().enumerate() {
                pairs.push((hit.id, K0 + rank as u64 + 1));
            }
        }
        pairs.sort_unstable();
        let mut fused: Vec<SearchResult> = pairs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let score = run.iter().fold(0.0, |sum, &(_, d)| sum + 1.0 / d as f64);
                SearchResult { id: run[0].0, score: score as f32 }
            })
            .collect();
        fused.sort_by(cmp_hits);
        fused.truncate(k);
        fused
    }

    /// A ranked list of `len` distinct ids drawn from `0..span`: a small
    /// span makes two lists overlap, a large one keeps them disjoint, and
    /// equal rank positions across lists give duplicate fused scores.
    fn ranked(seed: u64, len: usize, span: u64) -> Vec<SearchResult> {
        let mut ids: Vec<u64> = Vec::new();
        let mut j = 0u64;
        while ids.len() < len.min(span as usize) {
            let id = mcqa_util::splitmix64(seed ^ j) % span;
            j += 1;
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let n = ids.len();
        ids.into_iter()
            .enumerate()
            .map(|(r, id)| SearchResult { id, score: (n - r) as f32 })
            .collect()
    }

    proptest::proptest! {
        /// Select-then-sort equals sort-then-truncate bit for bit, over
        /// overlapping and disjoint lists, duplicate scores, and `k` of 0,
        /// 1, 8 and past the number of distinct ids.
        #[test]
        fn rrf_equals_the_full_sort(
            seed in 0u64..1_000_000,
            lens in proptest::collection::vec(0usize..40, 0..4),
            span_pick in 0usize..3,
        ) {
            let span = [12u64, 64, 1 << 40][span_pick];
            let lists: Vec<Vec<SearchResult>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| ranked(seed ^ (i as u64) << 32, len, span))
                .collect();
            let lists: Vec<&[SearchResult]> = lists.iter().map(Vec::as_slice).collect();
            let distinct = sort_then_truncate(&lists, usize::MAX).len();
            for k in [0, 1, 8, distinct, distinct + 3] {
                let bits = |hits: &[SearchResult]| -> Vec<(u64, u32)> {
                    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                };
                assert_eq!(bits(&rrf(&lists, k)), bits(&sort_then_truncate(&lists, k)), "k={k}");
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Fusion.label(), "rrf60");
    }
}
