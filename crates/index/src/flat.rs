//! Exact brute-force index over an [`EmbeddingMatrix`], scored by a
//! blocked, query-batched kernel.
//!
//! Search never materialises the full hit list: rows arrive in panels
//! through the cache-aware accessor ([`EmbeddingMatrix::for_each_panel`],
//! backed by the index's resident [`PanelCache`]), and each panel is
//! scored against the task's whole block of queries by
//! [`Metric::score_panel`] — tiles of queries × rows, against the matrix's
//! build-time-cached row norms — and fed into bounded top-k heaps. One
//! panel fetch is thus amortised across every query of a task instead of
//! being repeated per query; the panel cache removes the remaining
//! per-search decode for batch-of-1 traffic — after the first search the
//! decoded panels are resident and a lone query (the one-query block)
//! runs at F32 speed. Results are bit-identical to scoring each row with
//! [`Metric::score`] and fully sorting (the property suite in
//! `tests/kernel.rs` holds every path to that oracle).

use mcqa_embed::{EmbeddingMatrix, PanelBudget, PanelCache, Precision};
use mcqa_runtime::{run_stage, Executor};

use crate::codec::{decode_metric, encode_metric, put_u64, Reader};
use crate::metric::Metric;
use crate::scan::QueryBlock;
use crate::spec::StoreHeader;
use crate::tombstones::Tombstones;
use crate::{panel_rows, SearchResult, VectorStore};

/// An exact (non-approximate) vector index. Ground truth for recall tests
/// and the right default below ~10⁵ vectors.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    matrix: EmbeddingMatrix,
    ids: Vec<u64>,
    metric: Metric,
    /// Tombstones by row position; tombstoned rows stay resident (and
    /// scored — their hits are filtered at the top-k push) until
    /// [`VectorStore::compact`] rewrites the matrix.
    dead: Tombstones,
    /// Resident decoded panels for F16 matrices (a `Clone` starts cold, so
    /// derived `Clone` stays correct for independently-mutating copies).
    /// Invalidated whenever the matrix bytes change; `remove` only
    /// tombstones, so it leaves the panels resident.
    cache: PanelCache,
}

impl FlatIndex {
    /// Magic tag opening the serialised format.
    pub(crate) const MAGIC: &'static [u8; 4] = b"FLAT";

    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric, precision: Precision) -> Self {
        Self {
            matrix: EmbeddingMatrix::new(dim, precision),
            ids: Vec::new(),
            metric,
            dead: Tombstones::default(),
            cache: PanelCache::default(),
        }
    }

    /// Deserialise from [`VectorStore::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let (metric, matrix) = Self::read_prefix(&mut r)?;
        let matrix = EmbeddingMatrix::from_bytes(matrix)?;
        let n = matrix.len();
        let ids: Vec<u64> = (0..n).map(|_| r.u64()).collect::<Option<_>>()?;
        r.exhausted().then_some(Self {
            matrix,
            ids,
            metric,
            dead: Tombstones::all_live(n),
            cache: PanelCache::default(),
        })
    }

    /// Magic tag, metric and the length-framed matrix blob: everything
    /// ahead of the id column.
    fn read_prefix<'a>(r: &mut Reader<'a>) -> Option<(Metric, &'a [u8])> {
        r.expect_magic(Self::MAGIC)?;
        let metric = decode_metric(r.u8()?)?;
        let mlen = r.u64()? as usize;
        Some((metric, r.take(mlen)?))
    }

    /// The header facts of [`VectorStore::to_bytes`] output, read without
    /// decoding a row.
    pub(crate) fn peek_header(bytes: &[u8]) -> Option<StoreHeader> {
        let (metric, matrix) = Self::read_prefix(&mut Reader::new(bytes))?;
        let (dim, len) = EmbeddingMatrix::peek_shape(matrix)?;
        Some(StoreHeader { backend: "flat", metric, dim, len, needs_training: false })
    }

    /// A tombstone-free copy: live rows re-encoded in position order. The
    /// F16 round-trip (decode → re-encode) is exact, so the copy scores
    /// (and serialises) identically to a cold build over the live rows.
    fn live_clone(&self) -> Self {
        let mut out = Self::new(self.matrix.dim(), self.metric, self.matrix.precision());
        out.cache = self.cache.clone(); // cold, but keeps the budget policy
        for (i, (&id, &dead)) in self.ids.iter().zip(self.dead.flags()).enumerate() {
            if !dead {
                out.add(id, &self.matrix.row(i).expect("row in range"));
            }
        }
        out
    }

    /// The external id stored at `position` (insertion order). Panics out
    /// of range.
    pub fn row_id(&self, position: usize) -> u64 {
        self.ids[position]
    }

    /// The stored vector at `position`, decoded to `f32` (i.e. exactly the
    /// values search scores). Panics out of range.
    pub fn row(&self, position: usize) -> Vec<f32> {
        self.matrix.row(position).expect("position out of range")
    }

    /// Scan the whole matrix for one block of queries: every panel is
    /// fetched once and scored against all of them.
    fn scan<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q [f32]>,
        k: usize,
        block_rows: usize,
    ) -> Vec<Vec<SearchResult>> {
        let mut block = QueryBlock::new(queries, k);
        let (norms, dead) = (self.matrix.row_sq_norms(), self.dead.flags());
        self.matrix.for_each_panel(&self.cache, 0, block_rows, |start, panel| {
            let rows = start..start + panel.len() / self.dim();
            block.scan(
                self.metric,
                panel,
                &norms[rows.clone()],
                &self.ids[rows.clone()],
                &dead[rows],
            );
        });
        block.into_sorted()
    }

    /// [`VectorStore::search`] with an explicit panel height. Exposed so
    /// the property suite and benches can sweep block sizes (including
    /// ragged tails, `len % block_rows != 0`); results are independent of
    /// `block_rows`.
    pub fn search_blocked(&self, query: &[f32], k: usize, block_rows: usize) -> Vec<SearchResult> {
        assert_eq!(query.len(), self.dim(), "query dimension mismatch");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        self.scan([query], k, block_rows).pop().expect("one query, one hit list")
    }

    /// [`VectorStore::search_batch`] with explicit panel height and
    /// queries-per-task block. `query_block == 0` picks the size
    /// automatically (the pool's stage batching heuristic). Results are
    /// independent of both block sizes and of the worker count.
    pub fn search_batch_blocked(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
        block_rows: usize,
        query_block: usize,
    ) -> Vec<Vec<SearchResult>> {
        for q in queries {
            assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        }
        if k == 0 || self.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        let query_block = if query_block == 0 {
            // One query block per worker, not `auto_batch_size`'s 8 tasks
            // per worker: search tasks are uniform, so nothing is gained
            // from finer load balancing, while every extra query in a
            // block is one less full-matrix panel fetch — on few workers
            // (or a micro-batch from the serving dispatcher) the widest
            // block is the whole speedup.
            queries.len().div_ceil(exec.workers().max(1)).max(1)
        } else {
            query_block
        };
        // One pool task per *query block*: inside a task every panel is
        // fetched once and scored against the whole block of queries, so
        // the number of full-matrix decodes is `ceil(queries / block)`
        // rather than `queries`, whatever the block's size (the score
        // scratch is bounded inside `QueryBlock`, not by the block).
        let blocks: Vec<&[Vec<f32>]> = queries.chunks(query_block).collect();
        let (hits, _metrics) = run_stage(exec, "search-batch", blocks, |block| {
            Ok::<_, String>(self.scan(block.iter().map(Vec::as_slice), k, block_rows))
        });
        hits.into_iter().flat_map(|b| b.expect("search cannot fail")).collect()
    }
}

impl VectorStore for FlatIndex {
    fn add(&mut self, id: u64, vector: &[f32]) {
        self.matrix.push(vector);
        self.ids.push(id);
        self.dead.grow_to(self.ids.len());
        // The tail panel's row count changed; resident copies are stale.
        self.cache.invalidate();
    }

    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        // Row quantisation is the per-item cost; fan it out while keeping
        // insertion order (and therefore bytes) identical to serial adds.
        let rows: Vec<&[f32]> = items.iter().map(|(_, v)| v.as_slice()).collect();
        self.matrix.extend_parallel(exec, &rows);
        self.ids.extend(items.iter().map(|(id, _)| *id));
        self.dead.grow_to(self.ids.len());
        self.cache.invalidate();
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        self.dead.kill(self.ids.iter().copied(), &ids.iter().copied().collect())
    }

    fn tombstones(&self) -> usize {
        self.dead.count()
    }

    fn compact(&mut self, _exec: &Executor) {
        if self.dead.count() > 0 {
            *self = self.live_clone();
        }
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        self.search_blocked(query, k, panel_rows(self.dim()))
    }

    fn search_batch(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        self.search_batch_blocked(exec, queries, k, panel_rows(self.dim()), 0)
    }

    fn len(&self) -> usize {
        self.ids.len() - self.dead.count()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.matrix.dim()
    }

    fn payload_bytes(&self) -> usize {
        self.matrix.payload_bytes() + self.ids.len() * 8
    }

    fn set_panel_cache_budget(&mut self, budget: PanelBudget) {
        self.cache.set_budget(budget);
    }

    fn panel_cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        if self.dead.count() > 0 {
            // The wire format is tombstone-free: serialise the live view.
            return self.live_clone().to_bytes();
        }
        let m = self.matrix.to_bytes();
        let mut out = Vec::with_capacity(m.len() + self.ids.len() * 8 + 16);
        out.extend_from_slice(Self::MAGIC);
        out.push(encode_metric(self.metric));
        put_u64(&mut out, m.len() as u64);
        out.extend_from_slice(&m);
        for id in &self.ids {
            put_u64(&mut out, *id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        v[hot] = 1.0;
        v
    }

    #[test]
    fn exact_nearest_neighbour() {
        let mut idx = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        for i in 0..4 {
            idx.add(100 + i as u64, &unit(4, i));
        }
        let hits = idx.search(&unit(4, 2), 2);
        assert_eq!(hits[0].id, 102);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn ties_break_by_id() {
        let mut idx = FlatIndex::new(2, Metric::Dot, Precision::F32);
        idx.add(7, &[1.0, 0.0]);
        idx.add(3, &[1.0, 0.0]);
        idx.add(5, &[1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 5, 7]);
    }

    #[test]
    fn k_larger_than_len() {
        let mut idx = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        idx.add(1, &[1.0, 0.0]);
        assert_eq!(idx.search(&[1.0, 0.0], 10).len(), 1);
        assert!(idx.search(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        assert!(idx.search(&[1.0, 0.0], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn dim_mismatch_panics() {
        let mut idx = FlatIndex::new(3, Metric::Cosine, Precision::F32);
        idx.add(1, &[1.0, 0.0, 0.0]);
        idx.search(&[1.0, 0.0], 1);
    }

    #[test]
    fn f16_backing_preserves_ranking() {
        let dim = 64;
        let mk = |seed: u64| -> Vec<f32> {
            let mut v: Vec<f32> = (0..dim)
                .map(|j| {
                    (mcqa_util::splitmix64(seed * 1000 + j as u64) as f32 / u64::MAX as f32) - 0.5
                })
                .collect();
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
            v
        };
        let mut f32_idx = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        let mut f16_idx = FlatIndex::new(dim, Metric::Cosine, Precision::F16);
        for i in 0..200u64 {
            let v = mk(i);
            f32_idx.add(i, &v);
            f16_idx.add(i, &v);
        }
        // Top-1 must agree on (almost) every query; check exactly.
        let mut agree = 0;
        for q in 0..50u64 {
            let query = mk(10_000 + q);
            let a = f32_idx.search(&query, 1)[0].id;
            let b = f16_idx.search(&query, 1)[0].id;
            if a == b {
                agree += 1;
            }
        }
        assert!(agree >= 48, "f16 quantisation changed too many top-1s: {agree}/50");
    }

    #[test]
    fn batch_matches_serial() {
        let mut idx = FlatIndex::new(8, Metric::Cosine, Precision::F32);
        for i in 0..20 {
            idx.add(i as u64, &unit(8, i % 8));
        }
        let queries: Vec<Vec<f32>> = (0..8).map(|i| unit(8, i)).collect();
        let batch = idx.search_batch(Executor::global(), &queries, 3);
        for (q, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits, &idx.search(q, 3));
        }
    }

    #[test]
    fn add_batch_is_bit_identical_to_serial_adds() {
        let items: Vec<(u64, Vec<f32>)> =
            (0..100).map(|i| (i as u64 * 7, unit(8, i % 8))).collect();
        for precision in [Precision::F32, Precision::F16] {
            let mut serial = FlatIndex::new(8, Metric::Cosine, precision);
            for (id, v) in &items {
                serial.add(*id, v);
            }
            let mut batched = FlatIndex::new(8, Metric::Cosine, precision);
            batched.add_batch(Executor::global(), &items);
            assert_eq!(batched.to_bytes(), serial.to_bytes(), "{precision:?}");
        }
    }

    #[test]
    fn remove_hides_rows_and_compact_rewrites() {
        for precision in [Precision::F32, Precision::F16] {
            let mut idx = FlatIndex::new(4, Metric::Cosine, precision);
            for i in 0..4 {
                idx.add(100 + i as u64, &unit(4, i));
            }
            assert_eq!(idx.remove(&[102, 999]), 1, "unknown ids are ignored");
            assert_eq!(idx.remove(&[102]), 0, "already tombstoned");
            assert_eq!(idx.len(), 3);
            assert_eq!(idx.tombstones(), 1);
            let hits = idx.search(&unit(4, 2), 4);
            assert!(hits.iter().all(|h| h.id != 102), "tombstoned row surfaced: {hits:?}");

            // Serialisation is tombstone-free and equals a cold build of
            // the live rows; compaction produces the same store.
            let mut cold = FlatIndex::new(4, Metric::Cosine, precision);
            for i in [0usize, 1, 3] {
                cold.add(100 + i as u64, &unit(4, i));
            }
            assert_eq!(idx.to_bytes(), cold.to_bytes(), "{precision:?}");
            idx.compact(Executor::global());
            assert_eq!(idx.tombstones(), 0);
            assert_eq!(idx.to_bytes(), cold.to_bytes(), "{precision:?}");
        }
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut idx = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        for i in 0..4 {
            idx.add(i as u64, &unit(4, i as usize));
        }
        idx.upsert(Executor::global(), &[(1, unit(4, 3)), (9, unit(4, 0))]);
        assert_eq!(idx.len(), 5, "one replacement + one insert");
        let hits = idx.search(&unit(4, 3), 2);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 3], "id 1 re-vectored");
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut idx = FlatIndex::new(8, Metric::L2, Precision::F16);
        for i in 0..10 {
            idx.add(i as u64 * 3, &unit(8, i % 8));
        }
        let bytes = idx.to_bytes();
        let back = FlatIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.metric(), Metric::L2);
        let q = unit(8, 3);
        assert_eq!(back.search(&q, 5), idx.search(&q, 5));
        // Corruption rejected.
        assert!(FlatIndex::from_bytes(&bytes[..bytes.len() - 5]).is_none());
        assert!(FlatIndex::from_bytes(b"nope").is_none());
    }
}
