//! The shared search-hit type and its one canonical ordering.
//!
//! Every retrieval channel — the dense vector stores, the BM25 lexical
//! index, and the fusion layer that merges them — returns
//! [`SearchResult`]s ranked by [`cmp_hits`]: descending score, ties broken
//! by ascending id. Centralising the comparator here means the full-sort
//! path, the bounded-heap path, and the rank-fusion tie-breaks cannot
//! disagree.

use serde::{Deserialize, Serialize};

/// One search hit: an external id and a similarity score (higher = better
/// under every metric; L2 distances are negated).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// External id supplied at insertion.
    pub id: u64,
    /// Similarity score (metric-dependent; higher is more similar).
    pub score: f32,
}

/// The one hit ordering every retrieval channel uses: descending score,
/// then ascending id (`Less` = ranks earlier).
#[inline]
pub fn cmp_hits(a: &SearchResult, b: &SearchResult) -> std::cmp::Ordering {
    b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.id.cmp(&b.id))
}

/// Deterministically order candidate hits: descending score, then
/// ascending id. Shared by all index implementations.
pub fn sort_hits(hits: &mut [SearchResult]) {
    hits.sort_by(cmp_hits);
}

/// A [`SearchResult`] ordered by [`cmp_hits`] with `Greater` = worse, so a
/// max-[`std::collections::BinaryHeap`] keeps the worst retained hit at
/// the root.
struct WorstFirst(SearchResult);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        cmp_hits(&self.0, &other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_hits(&self.0, &other.0)
    }
}

/// A bounded top-k accumulator: keeps the `k` best hits under [`cmp_hits`]
/// out of an arbitrary stream, O(log k) per pushed improvement and O(1)
/// per rejected candidate, instead of materialising every hit and sorting.
///
/// Yields exactly what [`sort_hits`] + `truncate(k)` yields on the same
/// stream: [`cmp_hits`] is a total order whose ties are value-identical
/// hits, so which duplicate survives is unobservable.
pub struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstFirst>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        Self { k, heap: std::collections::BinaryHeap::with_capacity(k.min(1024)) }
    }

    #[inline]
    pub fn push(&mut self, hit: SearchResult) {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if cmp_hits(&hit, &worst.0) == std::cmp::Ordering::Less {
                *worst = WorstFirst(hit);
            }
        }
    }

    /// The score a candidate must reach to have a chance of entering: `-∞`
    /// until `k` hits are kept, then the worst kept score (`+∞` at
    /// `k = 0`, where nothing enters). [`TopK::push`] rejects anything
    /// scoring below it, so a scan may skip those pushes — but a candidate
    /// *at* the floor still enters on a smaller id, so the gate is
    /// `!(score < floor)`, which also sends NaN down the ungated path.
    #[inline]
    pub fn floor(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::NEG_INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |worst| worst.0.score)
        }
    }

    /// The kept hits, best first.
    pub fn into_sorted(self) -> Vec<SearchResult> {
        let mut hits: Vec<SearchResult> = self.heap.into_iter().map(|w| w.0).collect();
        sort_hits(&mut hits);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Duplicate scores, duplicate (score, id) pairs, ascending and
    /// descending runs.
    fn adversarial_stream() -> Vec<SearchResult> {
        (0..200u64)
            .map(|i| SearchResult { id: i % 40, score: ((i * 7919) % 23) as f32 / 23.0 })
            .collect()
    }

    const KS: [usize; 7] = [0, 1, 3, 5, 40, 200, 500];

    #[test]
    fn topk_equals_sort_then_truncate() {
        let hits = adversarial_stream();
        for k in KS {
            let mut oracle = hits.clone();
            sort_hits(&mut oracle);
            oracle.truncate(k);
            let mut topk = TopK::new(k);
            for h in &hits {
                topk.push(*h);
            }
            assert_eq!(topk.into_sorted(), oracle, "k={k}");
        }
    }

    #[test]
    fn floor_is_the_kth_best_score_once_k_are_kept() {
        assert_eq!(TopK::new(0).floor(), f32::INFINITY, "k = 0 admits nothing");
        let hits = adversarial_stream();
        for k in KS.into_iter().filter(|&k| k > 0) {
            let mut topk = TopK::new(k);
            for (n, h) in hits.iter().enumerate() {
                topk.push(*h);
                let mut kept = hits[..=n].to_vec();
                sort_hits(&mut kept);
                let expect = if n + 1 < k { f32::NEG_INFINITY } else { kept[k - 1].score };
                assert_eq!(
                    topk.floor().to_bits(),
                    expect.to_bits(),
                    "k={k} after {} pushes",
                    n + 1
                );
            }
        }
    }

    #[test]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // the gate under test
    fn gated_pushes_keep_what_ungated_pushes_keep() {
        let hits = adversarial_stream();
        for k in KS {
            let mut ungated = TopK::new(k);
            let mut gated = TopK::new(k);
            let mut skipped = 0;
            for h in &hits {
                ungated.push(*h);
                if !(h.score < gated.floor()) {
                    gated.push(*h);
                } else {
                    skipped += 1;
                }
            }
            assert_eq!(gated.into_sorted(), ungated.into_sorted(), "k={k}");
            if (1..hits.len()).contains(&k) {
                assert!(skipped > 0, "k={k}: the gate never fired");
            }
        }
    }
}
