//! Rank fusion: merging dense and lexical candidate lists.
//!
//! Two strategies, both deterministic and both ranked through the shared
//! [`cmp_hits`] order so fused ties break exactly like index-internal
//! ties (descending score, ascending id):
//!
//! * **Reciprocal rank fusion** ([`rrf`]) — scores an id by
//!   `Σ 1/(k0 + rank)` over the lists that contain it. Rank-only, so the
//!   two channels' incommensurable score scales never meet; invariant
//!   under permutation of the input lists (per-id contributions are
//!   summed in a canonical order, so even the floating-point result is
//!   identical).
//! * **Weighted-score fusion** ([`weighted`]) — min-max normalises each
//!   list's scores to `[0, 1]`, then blends with `dense_weight` /
//!   `1 − dense_weight`. Sensitive to score shape but lets a caller dial
//!   channel trust.

use mcqa_util::{cmp_hits, SearchResult};

/// A fusion strategy, carried on the query envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fusion {
    /// Reciprocal rank fusion with constant `k0` (60 is the literature
    /// default).
    Rrf {
        /// The rank-damping constant.
        k0: u32,
    },
    /// Weighted min-max score fusion; `dense` ∈ [0, 1] is the dense
    /// list's weight, the lexical list gets `1 − dense`.
    Weighted {
        /// Weight of the dense channel.
        dense: f32,
    },
}

impl Default for Fusion {
    fn default() -> Self {
        Self::Rrf { k0: 60 }
    }
}

impl Fusion {
    /// Merge one query's dense and lexical candidate lists into a fused
    /// top-`k`.
    pub fn fuse(
        &self,
        dense: &[SearchResult],
        lexical: &[SearchResult],
        k: usize,
    ) -> Vec<SearchResult> {
        match *self {
            Fusion::Rrf { k0 } => rrf(&[dense, lexical], k0, k),
            Fusion::Weighted { dense: w } => weighted(dense, lexical, w, k),
        }
    }

    /// A stable label for logs and bench output.
    pub fn label(&self) -> String {
        match self {
            Fusion::Rrf { k0 } => format!("rrf{k0}"),
            Fusion::Weighted { dense } => format!("wsum{dense:.2}"),
        }
    }
}

/// The default per-channel over-fetch multiplier ([`fuse_depth`] with
/// `depth == 0`). 8× in practice: 4× left hybrid a hair below dense on
/// one trace source — rank evidence between 4k and 8k was still moving
/// the fused order.
pub const DEFAULT_FUSE_DEPTH: usize = 8;

/// How deep each underlying channel should retrieve before fusing to a
/// top-`k`: rank evidence below the cut still moves the fused order, so
/// both channels over-fetch `depth`× (`0` selects
/// [`DEFAULT_FUSE_DEPTH`]).
pub fn fuse_depth(k: usize, depth: usize) -> usize {
    let d = if depth == 0 { DEFAULT_FUSE_DEPTH } else { depth };
    k.saturating_mul(d)
}

/// Collapse id-sorted `(id, term)` pairs into one hit per id — a run's
/// terms are summed left to right — ranked by [`cmp_hits`], top `k`.
fn sum_runs<T>(pairs: &[(u64, T)], term: impl Fn(&T) -> f64, k: usize) -> Vec<SearchResult> {
    let mut fused: Vec<SearchResult> = pairs
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let score = run.iter().fold(0.0, |sum, (_, t)| sum + term(t));
            SearchResult { id: run[0].0, score: score as f32 }
        })
        .collect();
    fused.sort_by(cmp_hits);
    fused.truncate(k);
    fused
}

/// Reciprocal rank fusion over any number of ranked lists.
///
/// Per-id contributions `1/(k0 + rank)` are collected from every list as
/// `(id, denominator)` pairs and sorted, so each id's run is summed in
/// ascending-denominator order — a canonical order, which makes the
/// result (bitwise, not just semantically) invariant under permutation of
/// `lists`.
pub fn rrf(lists: &[&[SearchResult]], k0: u32, k: usize) -> Vec<SearchResult> {
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    for list in lists {
        for (rank, hit) in list.iter().enumerate() {
            pairs.push((hit.id, u64::from(k0) + rank as u64 + 1));
        }
    }
    pairs.sort_unstable();
    sum_runs(&pairs, |&d| 1.0 / d as f64, k)
}

/// Push `(id, weight · norm)` for every member of `list`, `norm` being its
/// score min-max normalised to `[0, 1]` (a degenerate list — empty or
/// constant-score — normalises to all-ones: every member is its channel's
/// best evidence).
fn push_min_max(list: &[SearchResult], weight: f64, pairs: &mut Vec<(u64, f64)>) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for h in list {
        lo = lo.min(f64::from(h.score));
        hi = hi.max(f64::from(h.score));
    }
    let span = hi - lo;
    pairs.extend(list.iter().map(|h| {
        let s = if span > 0.0 { (f64::from(h.score) - lo) / span } else { 1.0 };
        (h.id, weight * s)
    }));
}

/// Weighted-score fusion of one dense and one lexical list: each list is
/// min-max normalised, then an id scores
/// `dense_weight · dense_norm + (1 − dense_weight) · lexical_norm`
/// (missing from a list = 0 from that channel).
pub fn weighted(
    dense: &[SearchResult],
    lexical: &[SearchResult],
    dense_weight: f32,
    k: usize,
) -> Vec<SearchResult> {
    let w = f64::from(dense_weight).clamp(0.0, 1.0);
    let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(dense.len() + lexical.len());
    push_min_max(dense, w, &mut pairs);
    push_min_max(lexical, 1.0 - w, &mut pairs);
    // Stable: an id's dense term is added before its lexical one.
    pairs.sort_by_key(|&(id, _)| id);
    sum_runs(&pairs, |&s| s, k)
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
        let fused = rrf(&[&dense, &lex], 60, 4);
        assert_eq!(fused[0].id, 2, "the id both channels rank wins: {fused:?}");
        assert_eq!(fused.len(), 4);
    }

    #[test]
    fn rrf_is_permutation_invariant_bitwise() {
        let a = hits(&[(1, 0.9), (2, 0.8)]);
        let b = hits(&[(2, 5.0), (3, 4.0)]);
        let c = hits(&[(3, 1.0), (1, 0.5)]);
        let base = rrf(&[&a, &b, &c], 60, 10);
        for perm in [[&b, &a, &c], [&c, &b, &a], [&a, &c, &b]] {
            let lists: Vec<&[SearchResult]> = perm.iter().map(|l| l.as_slice()).collect();
            assert_eq!(rrf(&lists, 60, 10), base);
        }
    }

    #[test]
    fn rrf_ties_break_by_ascending_id() {
        // Symmetric evidence: ids 7 and 3 each rank first in one list and
        // nowhere else — identical scores, so the lower id must lead.
        let a = hits(&[(7, 0.5)]);
        let b = hits(&[(3, 9.0)]);
        let fused = rrf(&[&a, &b], 60, 2);
        assert_eq!(fused.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(fused[0].score, fused[1].score);
    }

    #[test]
    fn weighted_extremes_follow_one_channel() {
        let dense = hits(&[(1, 0.9), (2, 0.5), (3, 0.1)]);
        let lex = hits(&[(3, 8.0), (2, 6.0), (1, 2.0)]);
        let d_only = weighted(&dense, &lex, 1.0, 3);
        assert_eq!(d_only.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        let l_only = weighted(&dense, &lex, 0.0, 3);
        assert_eq!(l_only.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 2, 1]);
    }

    #[test]
    fn degenerate_inputs_are_total() {
        assert!(rrf(&[], 60, 5).is_empty());
        assert!(rrf(&[&[], &[]], 60, 5).is_empty());
        assert!(Fusion::default().fuse(&[], &[], 5).is_empty());
        assert!(weighted(&[], &[], 0.5, 0).is_empty());
        // Constant-score list (span 0) still fuses.
        let flat = hits(&[(1, 0.5), (2, 0.5)]);
        let fused = weighted(&flat, &[], 0.5, 2);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused[0].id, 1, "ties break by id");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Fusion::default().label(), "rrf60");
        assert_eq!(Fusion::Weighted { dense: 0.5 }.label(), "wsum0.50");
    }
}
