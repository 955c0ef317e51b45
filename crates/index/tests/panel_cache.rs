//! Property tests for the resident panel cache's core contract:
//! **caching is invisible**. Panels observed through
//! [`EmbeddingMatrix::for_each_panel`] under a resident cache are
//! byte-for-byte the panels it yields at `PanelBudget::Bytes(0)` (every
//! panel decoded into scratch), and both are the rows
//! [`EmbeddingMatrix::row`] returns — across precisions, block sizes, and
//! byte budgets (including a budget larger than the whole decoded
//! matrix), on cold and warm passes alike, with eviction churning in
//! between. Downstream, that makes cached scoring through
//! [`mcqa_index::Metric::score_panel`] bit-identical to uncached
//! scoring, which is the identity PQ search relies on (flat scans its
//! rows in place, with no cache).

use mcqa_index::embed::{EmbeddingMatrix, PanelBudget, PanelCache, Precision};
use mcqa_index::Metric;
use mcqa_util::kernel::Panel;
use proptest::prelude::*;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn sample_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let s = splitmix(seed ^ ((i * dim + j) as u64) << 13);
                    (s % 2000) as f32 / 1000.0 - 1.0
                })
                .collect()
        })
        .collect()
}

/// Every panel `for_each_panel` yields with caching disabled, as
/// `(start_row, bits)`, after checking each panel against `row(i)`.
fn uncached_panels(m: &EmbeddingMatrix, block_rows: usize) -> Vec<(usize, Vec<u32>)> {
    let panels = cached_panels(m, &PanelCache::new(PanelBudget::Bytes(0)), 0, block_rows);
    let rows: Vec<u32> =
        (0..m.len()).flat_map(|i| m.row(i).expect("in range")).map(f32::to_bits).collect();
    let streamed: Vec<u32> = panels.iter().flat_map(|(_, bits)| bits.iter().copied()).collect();
    assert_eq!(streamed, rows, "uncached panels are the rows, in order");
    panels
}

/// Every panel `for_each_panel` yields through `cache`, same encoding.
fn cached_panels(
    m: &EmbeddingMatrix,
    cache: &PanelCache,
    seg: u64,
    block_rows: usize,
) -> Vec<(usize, Vec<u32>)> {
    let mut out = Vec::new();
    m.for_each_panel(cache, seg, block_rows, |start, panel| {
        out.push((start, panel.iter().map(|v| v.to_bits()).collect()));
    });
    out
}

/// Score every row of the matrix against `query` panel by panel — the
/// shape of flat search's scan — through the given panel iterator.
fn scores_via<F: FnMut(&mut dyn FnMut(usize, &[f32]))>(
    m: &EmbeddingMatrix,
    metric: Metric,
    query: &[f32],
    mut iterate: F,
) -> Vec<u32> {
    let q_sq = mcqa_util::kernel::sq_norm(query);
    let norms = m.row_sq_norms();
    let mut scores = vec![0u32; m.len()];
    iterate(&mut |start, panel: &[f32]| {
        let rows = panel.len() / m.dim();
        let mut out = vec![0.0f32; rows];
        let (panel, norms) = (Panel::F32(panel), &norms[start..start + rows]);
        metric.score_panel(&[query], &[q_sq], panel, norms, &mut out);
        for (j, s) in out.iter().enumerate() {
            scores[start + j] = s.to_bits();
        }
    });
    scores
}

proptest! {
    /// The headline identity: cached panels (and the scores computed from
    /// them) equal uncached panels bitwise at every budget — disabled (0)
    /// itself, tiny (constant eviction), generous (≥ the full decoded
    /// matrix), and auto — across precisions, metrics, and block sizes, on
    /// the cold pass and on a warm pass replaying resident panels.
    #[test]
    fn cached_panels_and_scores_are_bit_identical_to_uncached(
        n in 1usize..48,
        dim_pick in 0usize..3,
        precision_pick in 0usize..2,
        metric_pick in 0usize..3,
        block_pick in 0usize..4,
        budget_pick in 0usize..4,
        seed in 0u64..1000,
    ) {
        let dim = [3usize, 8, 17][dim_pick];
        let precision = [Precision::F32, Precision::F16][precision_pick];
        let metric = [Metric::Cosine, Metric::Dot, Metric::L2][metric_pick];
        let block_rows = [1usize, 3, 8, 64][block_pick];
        let m = EmbeddingMatrix::from_rows(dim, precision, &sample_rows(n, dim, seed));
        let panel_bytes = block_rows.min(n) * dim * 4;
        let budget = [
            PanelBudget::Bytes(0),                     // disabled
            PanelBudget::Bytes(panel_bytes),           // one panel: constant eviction
            PanelBudget::Bytes(m.decoded_bytes() * 2), // everything fits
            PanelBudget::Auto,                         // resolves to decoded_bytes()
        ][budget_pick];
        let cache = PanelCache::new(budget);

        let expect = uncached_panels(&m, block_rows);
        let cold = cached_panels(&m, &cache, 7, block_rows);
        prop_assert_eq!(&cold, &expect, "cold pass");
        let warm = cached_panels(&m, &cache, 7, block_rows);
        prop_assert_eq!(&warm, &expect, "warm pass (replayed panels)");

        // The budget is a hard byte bound on resident panels, at every
        // point we can observe.
        if let PanelBudget::Bytes(b) = budget {
            prop_assert!(cache.resident_bytes() <= b,
                "resident {} > budget {}", cache.resident_bytes(), b);
        } else {
            prop_assert!(cache.resident_bytes() <= m.decoded_bytes());
        }

        // Scoring through the cache is bit-identical to scoring the
        // streamed panels — the identity index search depends on.
        let query: Vec<f32> = sample_rows(1, dim, seed ^ 0xabcd).remove(0);
        let off = PanelCache::new(PanelBudget::Bytes(0));
        let direct = scores_via(&m, metric, &query, |f| m.for_each_panel(&off, 7, block_rows, f));
        let via_cache =
            scores_via(&m, metric, &query, |f| m.for_each_panel(&cache, 7, block_rows, f));
        prop_assert_eq!(via_cache, direct, "scores {:?} {:?}", metric, precision);
    }

    /// Eviction under a budget smaller than the working set never changes
    /// what callers observe: interleaving two segments whose panels cannot
    /// both stay resident still yields exactly the uncached panels for
    /// each, and the budget holds throughout.
    #[test]
    fn eviction_churn_never_changes_observed_panels(
        n in 4usize..40,
        seed in 0u64..1000,
        rounds in 1usize..4,
    ) {
        let dim = 8;
        let block_rows = 4;
        let a = EmbeddingMatrix::from_rows(dim, Precision::F16, &sample_rows(n, dim, seed));
        let b = EmbeddingMatrix::from_rows(dim, Precision::F16, &sample_rows(n, dim, !seed));
        // Room for roughly two panels: every pass evicts most of the rest.
        let budget = 2 * block_rows * dim * 4;
        let cache = PanelCache::new(PanelBudget::Bytes(budget));
        let expect_a = uncached_panels(&a, block_rows);
        let expect_b = uncached_panels(&b, block_rows);
        for round in 0..rounds {
            prop_assert_eq!(&cached_panels(&a, &cache, 1, block_rows), &expect_a,
                "segment a, round {}", round);
            prop_assert_eq!(&cached_panels(&b, &cache, 2, block_rows), &expect_b,
                "segment b, round {}", round);
            prop_assert!(cache.resident_bytes() <= budget);
        }
        prop_assert!(cache.misses() > 0, "a tight budget must miss");
    }
}

/// A generous budget makes the warm pass pure hits: decode once, replay
/// forever — the mechanism behind the batch-of-1 latency win.
#[test]
fn warm_pass_is_all_hits_under_a_generous_budget() {
    let m = EmbeddingMatrix::from_rows(8, Precision::F16, &sample_rows(33, 8, 9));
    let cache = PanelCache::new(PanelBudget::Auto);
    let cold = cached_panels(&m, &cache, 0, 4);
    let misses_after_cold = cache.misses();
    assert_eq!(cache.hits(), 0);
    let warm = cached_panels(&m, &cache, 0, 4);
    assert_eq!(warm, cold);
    assert_eq!(cache.misses(), misses_after_cold, "warm pass decodes nothing");
    assert_eq!(cache.hits() as usize, cold.len(), "warm pass replays every panel");
}

/// F32 matrices are already resident: the accessor hands out direct
/// sub-slices and never touches the cache at any budget.
#[test]
fn f32_matrices_bypass_the_cache() {
    let m = EmbeddingMatrix::from_rows(8, Precision::F32, &sample_rows(20, 8, 3));
    let cache = PanelCache::new(PanelBudget::Auto);
    assert_eq!(cached_panels(&m, &cache, 0, 4), uncached_panels(&m, 4));
    assert_eq!(cache.hits() + cache.misses(), 0);
    assert_eq!(cache.resident_bytes(), 0);
}
