//! Exact brute-force index over an [`EmbeddingMatrix`], scored by a
//! blocked, query-batched kernel.
//!
//! Search never materialises the full hit list: rows arrive in panels as
//! the matrix stores them (`EmbeddingMatrix::panels` — F16 bytes read in
//! place, widened to `f32` inside the kernel's register tile, never
//! decoded into a copy), and each panel is scored against the task's whole
//! block of queries by [`Metric::score_panel`] — tiles of queries × rows,
//! against the matrix's build-time-cached row norms — and fed into bounded
//! top-k heaps. One panel fetch is thus amortised across every query of a
//! task instead of being repeated per query, and a lone query (the
//! one-query block) streams two bytes per stored element: the store keeps
//! no decoded panels, so it has no panel cache to warm or budget. A task
//! whose queries are mostly zeros — a batch of feature-hashed stems —
//! instead widens each panel once into a transposed scratch and scores
//! only its queries' nonzero elements against it (the scan's sparse path,
//! `scan.rs`). Results are bit-identical to scoring each decoded row with
//! [`Metric::score`] and fully sorting (the property suite in
//! `tests/kernel.rs` holds every path to that oracle).

use std::collections::HashMap;

use crate::embed::{EmbeddingMatrix, Precision};
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
        }
    }

    /// Deserialise from [`VectorStore::to_bytes`] output.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let (metric, matrix) = Self::read_prefix(&mut r)?;
        let matrix = EmbeddingMatrix::from_bytes(matrix)?;
        let n = matrix.len();
        let ids: Vec<u64> = (0..n).map(|_| r.u64()).collect::<Option<_>>()?;
        r.exhausted().then_some(Self { matrix, ids, metric, dead: Tombstones::all_live(n) })
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

    /// Drop the tombstoned rows in place, keeping live rows in position
    /// order. Row bytes and their cached norms move unchanged, so the store
    /// scores (and serialises) identically to a cold build over the live
    /// rows.
    fn drop_dead_rows(&mut self) {
        if self.dead.count() == 0 {
            return;
        }
        self.matrix.retain_rows(self.dead.flags());
        self.dead.retain_live(&mut self.ids, 1);
        self.dead.clear_dead();
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
    /// read in place once and scored against all of them.
    fn scan<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q [f32]>,
        k: usize,
        block_rows: usize,
    ) -> Vec<Vec<SearchResult>> {
        let mut block = QueryBlock::new(self.metric, queries, k);
        let (norms, dead) = (self.matrix.row_sq_norms(), self.dead.flags());
        for (start, panel) in self.matrix.panels(block_rows) {
            let rows = start..start + panel.len() / self.dim();
            let (ids, dead) = (&self.ids[rows.clone()], &dead[rows.clone()]);
            block.scan(panel, &norms[rows], ids, dead);
        }
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
            // One query block per worker, not eight tasks per worker (and
            // `run_stage` keeps a stage that small at one item per task):
            // search tasks are uniform, so nothing is gained
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
            self.scan(block.iter().map(Vec::as_slice), k, block_rows)
        });
        hits.into_iter().flatten().collect()
    }
}

impl VectorStore for FlatIndex {
    fn add(&mut self, id: u64, vector: &[f32]) {
        self.matrix.push(vector);
        self.ids.push(id);
        self.dead.grow_to(self.ids.len());
    }

    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        // Row quantisation is the per-item cost; fan it out while keeping
        // insertion order (and therefore bytes) identical to serial adds.
        let rows: Vec<&[f32]> = items.iter().map(|(_, v)| v.as_slice()).collect();
        self.matrix.extend_parallel(exec, &rows);
        self.ids.extend(items.iter().map(|(id, _)| *id));
        self.dead.grow_to(self.ids.len());
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        self.dead.kill(self.ids.iter().copied(), &ids.iter().copied().collect())
    }

    fn rekey(&mut self, moves: &HashMap<u64, u64>) -> usize {
        self.dead.rekey(&mut self.ids, moves)
    }

    fn tombstones(&self) -> usize {
        self.dead.count()
    }

    fn compact(&mut self, _exec: &Executor) {
        self.drop_dead_rows();
    }

    fn boxed_clone(&self) -> Box<dyn VectorStore> {
        Box::new(self.clone())
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

    fn to_bytes(&self) -> Vec<u8> {
        if self.dead.count() > 0 {
            // The wire format is tombstone-free: serialise the live view.
            let mut live = self.clone();
            live.drop_dead_rows();
            return live.to_bytes();
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
    use crate::embed::PanelBudget;

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
    fn compaction_moves_rows_and_norms_as_a_decode_would_leave_them() {
        // Seeded interleavings of adds and removes; at every tombstoned
        // point an in-memory copy compacted must be the store a decode of
        // the serialised live view yields, cached norms bit for bit.
        let exec = Executor::global();
        let vector = |id: u64| -> Vec<f32> {
            (0..16)
                .map(|j| (mcqa_util::splitmix64(id * 16 + j) as f32 / u64::MAX as f32) - 0.5)
                .collect()
        };
        for precision in [Precision::F32, Precision::F16] {
            for seed in 0..8u64 {
                let mut idx = FlatIndex::new(16, Metric::Cosine, precision);
                let mut next = 0u64;
                for step in 0..10u64 {
                    let adds: Vec<(u64, Vec<f32>)> = (0..1 + (seed + step) % 5)
                        .map(|_| {
                            next += 1;
                            (next, vector(seed * 1000 + next))
                        })
                        .collect();
                    idx.upsert(exec, &adds);
                    let victims: Vec<u64> = (1..=next)
                        .filter(|id| mcqa_util::splitmix64(seed ^ id ^ step).is_multiple_of(4))
                        .collect();
                    idx.remove(&victims);
                    if idx.tombstones() == 0 {
                        continue;
                    }
                    let mut copy = idx.clone();
                    copy.compact(exec);
                    let decoded = FlatIndex::from_bytes(&idx.to_bytes()).expect("decodes");
                    let bits = |f: &FlatIndex| -> Vec<u32> {
                        f.matrix.row_sq_norms().iter().map(|n| n.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&copy),
                        bits(&decoded),
                        "{precision:?} seed {seed} step {step}"
                    );
                    assert_eq!(
                        copy.matrix, decoded.matrix,
                        "{precision:?} seed {seed} step {step}"
                    );
                    assert_eq!(copy.ids, decoded.ids);
                    assert_eq!(copy.dead.flags(), decoded.dead.flags());
                    assert_eq!(copy.to_bytes(), idx.to_bytes());
                }
            }
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
    fn f16_rows_are_scanned_in_place() {
        // Flat keeps no decoded panels: nothing is resident after single
        // and batched searches, and a panel budget — the trait's no-op
        // default — changes no result bit.
        let exec = Executor::global();
        let vector = |id: u64| -> Vec<f32> {
            (0..24)
                .map(|j| (mcqa_util::splitmix64(id * 24 + j) as f32 / u64::MAX as f32) - 0.5)
                .collect()
        };
        let mut idx = FlatIndex::new(24, Metric::Cosine, Precision::F16);
        let items: Vec<(u64, Vec<f32>)> = (0..300).map(|id| (id, vector(id))).collect();
        idx.add_batch(exec, &items);
        let queries: Vec<Vec<f32>> = (0..9).map(|q| vector(10_000 + q)).collect();
        let single: Vec<Vec<SearchResult>> = queries.iter().map(|q| idx.search(q, 5)).collect();
        assert_eq!(idx.search_batch(exec, &queries, 5), single);
        assert_eq!(idx.panel_cache_resident_bytes(), 0, "rows are scanned in place");
        for budget in [PanelBudget::Bytes(0), PanelBudget::Bytes(1 << 10), PanelBudget::Auto] {
            idx.set_panel_cache_budget(budget);
            assert_eq!(idx.search_batch(exec, &queries, 5), single, "{budget:?}");
            assert_eq!(idx.panel_cache_resident_bytes(), 0, "{budget:?}");
        }
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
        // Corruption rejected: every truncation, a foreign tag.
        for cut in 0..bytes.len() {
            assert!(FlatIndex::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        assert!(FlatIndex::from_bytes(b"nope").is_none());
    }
}
