//! Similarity metrics shared by all index families.
//!
//! Scoring is built on the fixed-order kernels in [`mcqa_util::kernel`]:
//! [`Metric::score`] composes the per-pair kernels, and
//! [`Metric::score_panel`] scores a block of queries against a decoded row
//! panel through the register-blocked panel kernels, using
//! build-time-cached row norms. The panel kernels perform, per (query,
//! row) pair, exactly the per-pair kernels' operations in the same order,
//! so every blocked scan is bit-identical to a per-row scalar oracle
//! (property-tested in `tests/kernel.rs`).

use mcqa_util::kernel;
use serde::{Deserialize, Serialize};

/// Row norms [`Metric::score_panel`] roots per stack chunk: a whole panel
/// at dim ≥ 256 (see `panel_rows`), 256 bytes of stack.
const ROOT_CHUNK: usize = 64;

/// A vector similarity metric. Scores are oriented so that **higher is
/// more similar** for every variant (L2 is negated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Cosine similarity (vectors are normalised on the fly).
    Cosine,
    /// Raw inner product (use with pre-normalised vectors).
    Dot,
    /// Negative squared Euclidean distance.
    L2,
}

impl Metric {
    /// Score `a` against `b` (higher = more similar).
    #[inline]
    pub fn score(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => {
                let dot = kernel::dot(a, b);
                let na = kernel::sq_norm(a);
                let nb = kernel::sq_norm(b);
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot / (na.sqrt() * nb.sqrt())
                }
            }
            Metric::Dot => kernel::dot(a, b),
            Metric::L2 => -kernel::l2_sq(a, b),
        }
    }

    /// Score every query of a block against every row of a dense
    /// row-major `panel`: `out[q * rows + r]` is the score of `queries[q]`
    /// and row `r`, where `rows = out.len() / queries.len()` and
    /// `panel.len() == rows * dim`. A lone query is the one-query block.
    ///
    /// `query_sq_norms[q]` must be `kernel::sq_norm(queries[q])` and
    /// `row_sq_norms` the rows' cached squared norms (both consulted for
    /// Cosine only, so Dot/L2 callers may pass `&[]`). Hoisting the query
    /// norms and caching the row norms turns Cosine into a dot product per
    /// pair without changing a single bit: the expression evaluated here
    /// is the one [`Metric::score`] evaluates, over a kernel with the same
    /// accumulation order. Each norm is rooted once per call — a query's
    /// once per query, a row's once per row, never once per (query, row)
    /// pair — and since `sqrt` is correctly rounded, `s / (qn * rn)` over
    /// those roots is [`Metric::score`]'s bits.
    pub fn score_panel(
        self,
        queries: &[&[f32]],
        query_sq_norms: &[f32],
        panel: &[f32],
        row_sq_norms: &[f32],
        out: &mut [f32],
    ) {
        match self {
            Metric::Cosine => {
                kernel::dot_panel(queries, panel, out);
                let rows = row_sq_norms.len();
                assert_eq!(query_sq_norms.len(), queries.len(), "one norm per query");
                assert_eq!(rows * queries.len(), out.len(), "one norm per row");
                // Rows are rooted a stack chunk at a time, each once for the
                // whole block of queries.
                let mut roots = [0.0f32; ROOT_CHUNK];
                for at in (0..rows).step_by(ROOT_CHUNK) {
                    let norms = &row_sq_norms[at..(at + ROOT_CHUNK).min(rows)];
                    let roots = &mut roots[..norms.len()];
                    for (rn, &nb) in roots.iter_mut().zip(norms) {
                        *rn = nb.sqrt();
                    }
                    for (q, &q_sq) in query_sq_norms.iter().enumerate() {
                        let qn = q_sq.sqrt();
                        let scores = &mut out[q * rows + at..][..norms.len()];
                        for ((s, &nb), &rn) in scores.iter_mut().zip(norms).zip(&*roots) {
                            *s = if q_sq == 0.0 || nb == 0.0 { 0.0 } else { *s / (qn * rn) };
                        }
                    }
                }
            }
            Metric::Dot => kernel::dot_panel(queries, panel, out),
            Metric::L2 => {
                kernel::l2_sq_panel(queries, panel, out);
                for s in out.iter_mut() {
                    *s = -*s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_range() {
        let a = [1.0, 0.0];
        let b = [0.0, 2.0];
        assert_eq!(Metric::Cosine.score(&a, &a), 1.0);
        assert_eq!(Metric::Cosine.score(&a, &b), 0.0);
        assert_eq!(Metric::Cosine.score(&[0.0, 0.0], &a), 0.0);
    }

    #[test]
    fn dot_is_unnormalised() {
        assert_eq!(Metric::Dot.score(&[2.0, 0.0], &[3.0, 1.0]), 6.0);
    }

    #[test]
    fn l2_higher_is_closer() {
        let q = [0.0, 0.0];
        let near = [0.1, 0.0];
        let far = [3.0, 4.0];
        assert!(Metric::L2.score(&q, &near) > Metric::L2.score(&q, &far));
        assert_eq!(Metric::L2.score(&q, &far), -25.0);
        assert_eq!(Metric::L2.score(&q, &q), 0.0);
    }

    #[test]
    fn self_similarity_is_maximal_for_cosine_and_l2() {
        // Cosine is bounded by 1 (attained at v) and L2 by 0 (attained at
        // v), so self-similarity dominates any cross-similarity. Dot has no
        // such bound — score(v, w) > score(v, v) whenever w is a longer
        // vector in v's direction — so it is excluded.
        let v = [0.3f32, -0.4, 0.5];
        let others = [[0.9f32, 0.2, -0.7], [0.3, -0.4, 0.6], [-0.3, 0.4, -0.5]];
        for m in [Metric::Cosine, Metric::L2] {
            let self_score = m.score(&v, &v);
            for other in &others {
                assert!(self_score >= m.score(&v, other), "{m:?} vs {other:?}");
            }
        }
        let longer = [0.6f32, -0.8, 1.0]; // 2·v
        assert!(Metric::Dot.score(&v, &longer) > Metric::Dot.score(&v, &v));
    }

    #[test]
    fn score_panel_matches_per_row_score_bitwise() {
        let dim = 19; // ragged vs the kernel lane width
        let mk = |seed: u64| -> Vec<f32> {
            (0..dim)
                .map(|j| {
                    (mcqa_util::splitmix64(seed * 97 + j as u64) as f32 / u64::MAX as f32) - 0.5
                })
                .collect()
        };
        // A chunk of rooted norms plus seven rows, and three queries: a
        // ragged root chunk, a row tail and an odd query, so every tile
        // shape of the kernel takes part. Row 3 and query 1 are zero
        // vectors (Cosine's defined-as-0 arm).
        let mut rows: Vec<Vec<f32>> = (0..ROOT_CHUNK as u64 + 7).map(&mk).collect();
        rows[3] = vec![0.0; dim];
        let queries = [mk(1000), vec![0.0; dim], mk(1002)];
        let panel: Vec<f32> = rows.concat();
        let norms: Vec<f32> = rows.iter().map(|r| kernel::sq_norm(r)).collect();
        let q_sqs: Vec<f32> = queries.iter().map(|q| kernel::sq_norm(q)).collect();
        let qrefs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        for m in [Metric::Cosine, Metric::Dot, Metric::L2] {
            for n_queries in 0..=queries.len() {
                let mut out = vec![f32::NAN; n_queries * rows.len()];
                m.score_panel(&qrefs[..n_queries], &q_sqs[..n_queries], &panel, &norms, &mut out);
                for (q, scores) in out.chunks_exact(rows.len()).enumerate() {
                    for (row, got) in rows.iter().zip(scores) {
                        let expect = m.score(&queries[q], row);
                        assert_eq!(got.to_bits(), expect.to_bits(), "{m:?} query {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn score_panel_zero_vectors_are_defined() {
        let query = vec![0.0f32; 8];
        let panel = vec![0.0f32; 16];
        let mut out = vec![1.0f32; 2];
        Metric::Cosine.score_panel(&[&query], &[0.0], &panel, &[0.0, 0.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        // No rows: nothing to score, nothing to divide.
        Metric::Cosine.score_panel(&[&query], &[0.0], &[], &[], &mut []);
    }
}
