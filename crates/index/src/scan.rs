//! The one scan loop under every exhaustive store: a block of queries,
//! their hoisted norms and running top-k sets, fed one fetched panel at a
//! time.
//!
//! [`FlatIndex`](crate::FlatIndex) walks its whole matrix through this,
//! [`ListStore`](crate::ListStore) each probed inverted list; a lone
//! `search` is the one-query block. However many queries a block holds —
//! the evaluator hands a task thousands — a panel is fetched once and the
//! score scratch stays `QUERY_SUB_BLOCK × panel rows` floats.
//!
//! Offering a score to a full top-k set costs a heap probe, and almost
//! every score of a long scan loses it. So each query's set is gated by
//! its running k-th score ([`TopK::floor`], kept in a local and refreshed
//! after every push): a row is offered only when `!(score < floor)`. That
//! skips exactly the pushes the heap would reject — a tie at the floor
//! still enters on a smaller id, and NaN takes the ungated path — so the
//! kept set is unchanged bit for bit.

use mcqa_util::kernel;

use crate::metric::Metric;
use crate::{SearchResult, TopK};

/// Queries scored per [`Metric::score_panel`] call. Large enough that the
/// call's fixed cost vanishes against `32 × rows` pair scores, small
/// enough that the sub-block's queries, the panel they sweep (≈ 64 KiB,
/// see [`crate::panel_rows`]) and the scores they produce (≈ 8 KiB) sit
/// in L2 together at any dimensionality.
const QUERY_SUB_BLOCK: usize = 32;

/// The queries of one scan task.
pub(crate) struct QueryBlock<'q> {
    queries: Vec<&'q [f32]>,
    sq_norms: Vec<f32>,
    topks: Vec<TopK>,
    /// Score scratch, grown to one sub-block × the tallest panel seen.
    scores: Vec<f32>,
}

impl<'q> QueryBlock<'q> {
    /// A block over `queries`, each keeping its best `k` hits.
    pub(crate) fn new(queries: impl IntoIterator<Item = &'q [f32]>, k: usize) -> Self {
        let queries: Vec<&[f32]> = queries.into_iter().collect();
        Self {
            sq_norms: queries.iter().map(|q| kernel::sq_norm(q)).collect(),
            topks: queries.iter().map(|_| TopK::new(k)).collect(),
            queries,
            scores: Vec::new(),
        }
    }

    /// Score one panel against every query of the block and offer each
    /// query's top-k the live rows that reach its floor. `row_sq_norms`,
    /// `ids` and `dead` are the panel's rows' columns, index-aligned with
    /// it.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must pass the gate
    pub(crate) fn scan(
        &mut self,
        metric: Metric,
        panel: &[f32],
        row_sq_norms: &[f32],
        ids: &[u64],
        dead: &[bool],
    ) {
        let rows = ids.len();
        for at in (0..self.queries.len()).step_by(QUERY_SUB_BLOCK) {
            let to = (at + QUERY_SUB_BLOCK).min(self.queries.len());
            if self.scores.len() < (to - at) * rows {
                self.scores.resize((to - at) * rows, 0.0);
            }
            let scores = &mut self.scores[..(to - at) * rows];
            let (queries, sq_norms) = (&self.queries[at..to], &self.sq_norms[at..to]);
            metric.score_panel(queries, sq_norms, panel, row_sq_norms, scores);
            for (topk, scores) in self.topks[at..to].iter_mut().zip(scores.chunks_exact(rows)) {
                let mut floor = topk.floor();
                for ((&score, &id), &dead) in scores.iter().zip(ids).zip(dead) {
                    if !(score < floor) && !dead {
                        topk.push(SearchResult { id, score });
                        floor = topk.floor();
                    }
                }
            }
        }
    }

    /// Every query's kept hits, best first, in query order.
    pub(crate) fn into_sorted(self) -> Vec<Vec<SearchResult>> {
        self.topks.into_iter().map(TopK::into_sorted).collect()
    }
}
