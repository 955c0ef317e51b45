//! The one scan loop under every exhaustive store: a block of queries,
//! their hoisted norms and running top-k sets, fed one fetched panel at a
//! time.
//!
//! [`FlatIndex`](crate::FlatIndex) walks its whole matrix through this,
//! its F16 rows in place, [`ListStore`](crate::ListStore) each probed
//! inverted list; a lone `search` is the one-query block. However many queries a block holds —
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
//!
//! Two paths score a panel, picked once per block. The dense path runs
//! [`Metric::score_panel`] over sub-blocks of queries. The sparse path —
//! Cosine and Dot blocks whose queries hold enough zeros, the evaluator's
//! stem replays — transposes each panel once ([`Columns`]) and lets the
//! column kernel skip every query's zero elements
//! ([`kernel::dot_columns`]). Its [`Gate`] scales (Cosine) and gates each
//! row group's eight dots inside the kernel, so no score scratch is
//! written or read back, and one test dismisses a group none of whose
//! rows reaches the floor. Skipping `0 × r` is exact only for finite `r`:
//! a panel holding ±∞ or NaN takes the dense path. Both paths produce
//! every score bit for bit as [`Metric::score`] does and offer rows in
//! the same order, so which one ran is unobservable.

use mcqa_util::kernel::{self, Columns, GroupSink, Panel, SparseQueries, LANES};

use crate::metric::{self, Metric};
use crate::{SearchResult, TopK};

/// Queries scored per [`Metric::score_panel`] call. Large enough that the
/// call's fixed cost vanishes against `32 × rows` pair scores, small
/// enough that the sub-block's queries, the panel they sweep (≈ 64 KiB,
/// see [`crate::panel_rows`]) and the scores they produce (≈ 8 KiB) sit
/// in L2 together at any dimensionality.
const QUERY_SUB_BLOCK: usize = 32;

/// A Cosine or Dot block takes the sparse path when its queries hold more
/// than this many zero elements per dimension in all: the zero terms it
/// skips must pay for transposing every panel once. Measured at dim 256 on
/// one worker of a 2-vCPU AVX2 host, scanning the scale-0.02 chunk store
/// (3 958 F16 rows) with blocks of feature-hashed stems (≈ 183 zeros
/// each), µs per query, median of five alternating runs:
///
/// | stems per block | 1 | 2 | 4 | 8 | 12 | 16 | 32 |
/// |---|---|---|---|---|---|---|---|
/// | zeros per dim | 0.7 | 1.4 | 2.9 | 5.7 | 8.6 | 11.4 | 22.9 |
/// | dense | 72 | 63 | 47 | 47 | 46 | 48 | 52 |
/// | sparse | 219 | 126 | 70 | 44 | 38 | 34 | 28 |
///
/// Sparse breaks even near eight stems and wins by 18 % at twelve,
/// so the rule sits at the upper end of that range. A lone query, a
/// serving micro-batch's per-worker share of eight tickets, and a dense
/// encoder's queries stay dense.
const SPARSE_MIN_ZEROS_PER_DIM: usize = 8;

/// The queries of one scan task.
pub(crate) struct QueryBlock<'q> {
    metric: Metric,
    queries: Vec<&'q [f32]>,
    sq_norms: Vec<f32>,
    topks: Vec<TopK>,
    /// Score scratch, grown to one sub-block × the tallest panel seen.
    scores: Vec<f32>,
    /// Set when the block skips its queries' zero elements.
    sparse: Option<Sparse>,
}

/// The sparse path's state: the block's nonzero elements, lane by lane,
/// and the current panel transposed, with its row norms and their roots
/// padded to whole row groups (Cosine only).
struct Sparse {
    terms: SparseQueries,
    columns: Columns,
    norms: Vec<f32>,
    roots: Vec<f32>,
}

impl<'q> QueryBlock<'q> {
    /// A block over `queries`, each keeping its best `k` hits under
    /// `metric`.
    pub(crate) fn new(
        metric: Metric,
        queries: impl IntoIterator<Item = &'q [f32]>,
        k: usize,
    ) -> Self {
        let queries: Vec<&[f32]> = queries.into_iter().collect();
        let dim = queries.first().map_or(0, |q| q.len());
        let zeros = queries.iter().flat_map(|q| q.iter()).filter(|&&x| x == 0.0).count();
        let sparse = (metric != Metric::L2 && zeros > SPARSE_MIN_ZEROS_PER_DIM * dim).then(|| {
            let mut terms = SparseQueries::default();
            queries.iter().for_each(|q| terms.push(q));
            Sparse { terms, columns: Columns::default(), norms: Vec::new(), roots: Vec::new() }
        });
        Self {
            metric,
            sq_norms: queries.iter().map(|q| kernel::sq_norm(q)).collect(),
            topks: queries.iter().map(|_| TopK::new(k)).collect(),
            queries,
            scores: Vec::new(),
            sparse,
        }
    }

    /// Score one panel, as stored, against every query of the block and
    /// offer each query's top-k the live rows that reach its floor.
    /// `row_sq_norms`, `ids` and `dead` are the panel's rows' columns,
    /// index-aligned with it.
    pub(crate) fn scan(
        &mut self,
        panel: Panel<'_>,
        row_sq_norms: &[f32],
        ids: &[u64],
        dead: &[bool],
    ) {
        if let Some(sparse) = &mut self.sparse {
            if sparse.columns.load(panel, ids.len()) {
                let topks = &mut self.topks;
                return sparse.scan(self.metric, &self.sq_norms, topks, row_sq_norms, ids, dead);
            }
        }
        self.scan_dense(panel, row_sq_norms, ids, dead);
    }

    /// [`QueryBlock::scan`] through the panel kernel, a sub-block of
    /// queries at a time.
    fn scan_dense(&mut self, panel: Panel<'_>, row_sq_norms: &[f32], ids: &[u64], dead: &[bool]) {
        let rows = ids.len();
        for at in (0..self.queries.len()).step_by(QUERY_SUB_BLOCK) {
            let to = (at + QUERY_SUB_BLOCK).min(self.queries.len());
            if self.scores.len() < (to - at) * rows {
                self.scores.resize((to - at) * rows, 0.0);
            }
            let scores = &mut self.scores[..(to - at) * rows];
            let (queries, sq_norms) = (&self.queries[at..to], &self.sq_norms[at..to]);
            self.metric.score_panel(queries, sq_norms, panel, row_sq_norms, scores);
            for (topk, scores) in self.topks[at..to].iter_mut().zip(scores.chunks_exact(rows)) {
                let mut floor = topk.floor();
                offer(topk, &mut floor, scores, ids, dead);
            }
        }
    }

    /// Every query's kept hits, best first, in query order.
    pub(crate) fn into_sorted(self) -> Vec<Vec<SearchResult>> {
        self.topks.into_iter().map(TopK::into_sorted).collect()
    }
}

impl Sparse {
    /// [`QueryBlock::scan`] over the panel [`Columns::load`] just
    /// transposed: each query's dots arrive a row group at a time from
    /// the column kernel and go through its [`Gate`] there.
    fn scan(
        &mut self,
        metric: Metric,
        sq_norms: &[f32],
        topks: &mut [TopK],
        row_sq_norms: &[f32],
        ids: &[u64],
        dead: &[bool],
    ) {
        let cosine = metric == Metric::Cosine;
        if cosine {
            self.norms.clear();
            self.norms.extend_from_slice(row_sq_norms);
            self.norms.resize(ids.len().next_multiple_of(LANES), 0.0);
            self.roots.clear();
            self.roots.extend(self.norms.iter().map(|nb| nb.sqrt()));
        }
        for (q, (topk, &q_sq)) in topks.iter_mut().zip(sq_norms).enumerate() {
            let floor = topk.floor();
            let (norms, roots) = (&self.norms[..], &self.roots[..]);
            let mut gate =
                Gate { topk, floor, cosine, q_sq, q_root: q_sq.sqrt(), norms, roots, ids, dead };
            kernel::dot_columns(&self.terms, q, &self.columns, &mut gate);
        }
    }
}

/// The sparse path's epilogue for one query and one panel, run on each
/// row group's dots inside the column kernel: scale them (Cosine), then
/// dismiss the whole group with one test when none reaches the query's
/// running floor.
struct Gate<'a> {
    topk: &'a mut TopK,
    floor: f32,
    cosine: bool,
    q_sq: f32,
    q_root: f32,
    /// The panel's row norms and their roots, padded to whole groups.
    norms: &'a [f32],
    roots: &'a [f32],
    ids: &'a [u64],
    dead: &'a [bool],
}

impl GroupSink for Gate<'_> {
    #[inline(always)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must pass the gate
    fn group(&mut self, first: usize, mut scores: [f32; LANES]) {
        if self.cosine {
            let norms: &[f32; LANES] =
                self.norms[first..first + LANES].try_into().expect("padded to whole groups");
            let roots: &[f32; LANES] =
                self.roots[first..first + LANES].try_into().expect("padded to whole groups");
            for r in 0..LANES {
                scores[r] = metric::cosine(scores[r], self.q_sq, self.q_root, norms[r], roots[r]);
            }
        }
        let mut reached = false;
        for &s in &scores {
            reached |= !(s < self.floor);
        }
        if reached {
            let group = first..(first + LANES).min(self.ids.len());
            let (ids, dead) = (&self.ids[group.clone()], &self.dead[group]);
            offer(self.topk, &mut self.floor, &scores, ids, dead);
        }
    }
}

/// Offer `topk` the live rows whose scores reach its running `floor`, in
/// row order, refreshing the floor after every push. Kept out of line so
/// that the [`Gate`] in front of it, compiled into the column kernel,
/// stays small: most row groups never get here.
#[inline(never)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must pass the gate
fn offer(topk: &mut TopK, floor: &mut f32, scores: &[f32], ids: &[u64], dead: &[bool]) {
    for ((&score, &id), &dead) in scores.iter().zip(ids).zip(dead) {
        if !(score < *floor) && !dead {
            topk.push(SearchResult { id, score });
            *floor = topk.floor();
        }
    }
}
