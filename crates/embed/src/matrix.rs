//! Row-major embedding storage with optional FP16 compression.
//!
//! The paper stores its 173,318 chunk embeddings as FP16 (747 MB total).
//! [`EmbeddingMatrix`] offers both precisions behind one API and measures
//! the cosine error the compression introduces (property-tested to stay
//! within half-precision bounds).

use mcqa_util::f16::{decode_f16_bytes, decode_f16_into, encode_f16_bytes};
use serde::{Deserialize, Serialize};

use crate::panels::PanelCache;

/// Storage precision for an embedding matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// 4 bytes per component.
    F32,
    /// 2 bytes per component (the paper's FAISS configuration).
    F16,
}

/// A dense row-major embedding matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingMatrix {
    dim: usize,
    rows: usize,
    precision: Precision,
    /// F32 storage (empty when precision is F16).
    data_f32: Vec<f32>,
    /// F16 storage as raw little-endian bytes (empty when precision is F32).
    data_f16: Vec<u8>,
    /// Squared L2 norm of every *stored* row (i.e. of the decoded F16
    /// values when compressed), maintained at build time via
    /// [`mcqa_util::kernel::sq_norm`] so cosine search degenerates to a
    /// dot product per row at query time. Derived data: recomputed on
    /// deserialisation, never part of the wire format.
    sq_norms: Vec<f32>,
}

impl EmbeddingMatrix {
    /// Create an empty matrix.
    pub fn new(dim: usize, precision: Precision) -> Self {
        assert!(dim > 0);
        Self {
            dim,
            rows: 0,
            precision,
            data_f32: Vec::new(),
            data_f16: Vec::new(),
            sq_norms: Vec::new(),
        }
    }

    /// Build from rows (each must have length `dim`).
    pub fn from_rows(dim: usize, precision: Precision, rows: &[Vec<f32>]) -> Self {
        let mut m = Self::new(dim, precision);
        for r in rows {
            m.push(r);
        }
        m
    }

    /// Append one row.
    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        match self.precision {
            Precision::F32 => {
                self.data_f32.extend_from_slice(row);
                self.sq_norms.push(mcqa_util::kernel::sq_norm(row));
            }
            Precision::F16 => {
                let bytes = encode_f16_bytes(row);
                // The cached norm describes the *stored* (quantised) row —
                // the values search will decode — not the f32 input.
                let decoded = decode_f16_bytes(&bytes).expect("even length by construction");
                self.data_f16.extend_from_slice(&bytes);
                self.sq_norms.push(mcqa_util::kernel::sq_norm(&decoded));
            }
        }
        self.rows += 1;
    }

    /// Append many rows, fanning the per-row F16 quantisation out on
    /// `exec`'s pool (the dominant cost of an F16 bulk load). The result
    /// is byte-identical to pushing the rows sequentially in order, at any
    /// worker count; F32 appends are plain memcpy and stay serial.
    pub fn extend_parallel<R: AsRef<[f32]> + Sync>(
        &mut self,
        exec: &mcqa_runtime::Executor,
        rows: &[R],
    ) {
        for row in rows {
            assert_eq!(row.as_ref().len(), self.dim, "row dimension mismatch");
        }
        match self.precision {
            Precision::F32 => {
                for row in rows {
                    self.data_f32.extend_from_slice(row.as_ref());
                    self.sq_norms.push(mcqa_util::kernel::sq_norm(row.as_ref()));
                }
            }
            Precision::F16 => {
                let (encoded, _) = mcqa_runtime::run_stage_batched(
                    exec,
                    "f16-encode",
                    (0..rows.len()).collect(),
                    0,
                    |i| {
                        let bytes = encode_f16_bytes(rows[i].as_ref());
                        let decoded =
                            decode_f16_bytes(&bytes).expect("even length by construction");
                        Ok::<_, String>((bytes, mcqa_util::kernel::sq_norm(&decoded)))
                    },
                );
                for e in encoded {
                    let (bytes, norm) = e.expect("f16 encode cannot fail");
                    self.data_f16.extend_from_slice(&bytes);
                    self.sq_norms.push(norm);
                }
            }
        }
        self.rows += rows.len();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes used by the payload (excluding struct overhead) — lets benches
    /// report the FP16 saving the paper relies on.
    pub fn payload_bytes(&self) -> usize {
        match self.precision {
            Precision::F32 => self.data_f32.len() * 4,
            Precision::F16 => self.data_f16.len(),
        }
    }

    /// Bytes the matrix occupies fully decoded to F32 — what a
    /// [`PanelBudget::Auto`](crate::panels::PanelBudget::Auto) panel cache
    /// budgets for.
    pub fn decoded_bytes(&self) -> usize {
        self.rows * self.dim * 4
    }

    /// Fetch row `i` as `f32` (decompressing when stored as F16).
    ///
    /// Returns `None` when `i` is out of range.
    pub fn row(&self, i: usize) -> Option<Vec<f32>> {
        if i >= self.rows {
            return None;
        }
        Some(match self.precision {
            Precision::F32 => self.data_f32[i * self.dim..(i + 1) * self.dim].to_vec(),
            Precision::F16 => {
                let start = i * self.dim * 2;
                decode_f16_bytes(&self.data_f16[start..start + self.dim * 2])
                    .expect("even length by construction")
            }
        })
    }

    /// Visit every row without allocating per row (decodes into a reused
    /// buffer for F16).
    pub fn for_each_row<F: FnMut(usize, &[f32])>(&self, mut f: F) {
        match self.precision {
            Precision::F32 => {
                for i in 0..self.rows {
                    f(i, &self.data_f32[i * self.dim..(i + 1) * self.dim]);
                }
            }
            Precision::F16 => {
                let mut buf = vec![0.0f32; self.dim];
                for (i, row) in self.data_f16.chunks_exact(self.dim * 2).enumerate() {
                    decode_f16_into(row, &mut buf);
                    f(i, &buf);
                }
            }
        }
    }

    /// The cached squared L2 norm of every stored row, index-aligned with
    /// the rows. Computed at build time with the same fixed-order kernel
    /// exact search uses, so a consumer combining them with
    /// `kernel::dot` reproduces on-the-fly cosine bit-for-bit.
    pub fn row_sq_norms(&self) -> &[f32] {
        &self.sq_norms
    }

    /// Visit the rows in panels of up to `block_rows` rows: `f(start_row,
    /// panel)` receives a dense row-major `&[f32]` of `panel.len() /
    /// dim()` consecutive rows starting at `start_row` (the last panel may
    /// be ragged).
    ///
    /// This is the bulk-decode primitive behind blocked search: an F16
    /// matrix is decoded once per panel into a reused buffer — callers
    /// scoring many queries against the panel amortise that decode across
    /// all of them — while an F32 matrix hands out direct sub-slices of the
    /// backing storage, copy-free.
    pub fn for_each_block<F: FnMut(usize, &[f32])>(&self, block_rows: usize, mut f: F) {
        assert!(block_rows > 0, "block_rows must be positive");
        match self.precision {
            Precision::F32 => {
                for start in (0..self.rows).step_by(block_rows) {
                    let end = (start + block_rows).min(self.rows);
                    f(start, &self.data_f32[start * self.dim..end * self.dim]);
                }
            }
            Precision::F16 => {
                let mut panel = vec![0.0f32; block_rows * self.dim];
                for start in (0..self.rows).step_by(block_rows) {
                    let end = (start + block_rows).min(self.rows);
                    let n = (end - start) * self.dim;
                    self.decode_panel_into(start, end, &mut panel[..n]);
                    f(start, &panel[..n]);
                }
            }
        }
    }

    /// Decode rows `start..end` into `out` (which must hold exactly
    /// `(end - start) * dim` f32s). This is **the** F16 panel decode: both
    /// the streaming path ([`EmbeddingMatrix::for_each_block`]) and the
    /// cache-fill path ([`EmbeddingMatrix::for_each_panel`]) bottom out
    /// here, which is what makes cached and uncached scoring bit-identical
    /// by construction.
    fn decode_panel_into(&self, start: usize, end: usize, out: &mut [f32]) {
        decode_f16_into(&self.data_f16[start * self.dim * 2..end * self.dim * 2], out);
    }

    /// Cache-aware panel iteration: like [`EmbeddingMatrix::for_each_block`]
    /// but F16 panels are fetched from (and made resident in) `cache` under
    /// its byte budget, so repeat queries skip the decode entirely. `seg`
    /// namespaces this matrix inside a cache shared across segments.
    ///
    /// An F32 matrix hands out direct sub-slices exactly as
    /// `for_each_block` does — it is already resident, so the cache is
    /// bypassed. A miss (or a disabled cache) decodes through the same
    /// `decode_panel_into` the streaming path uses:
    /// panels observed through this accessor are byte-for-byte the panels
    /// `for_each_block` yields, at every budget including zero.
    pub fn for_each_panel<F: FnMut(usize, &[f32])>(
        &self,
        cache: &PanelCache,
        seg: u64,
        block_rows: usize,
        mut f: F,
    ) {
        assert!(block_rows > 0, "block_rows must be positive");
        match self.precision {
            Precision::F32 => {
                for start in (0..self.rows).step_by(block_rows) {
                    let end = (start + block_rows).min(self.rows);
                    f(start, &self.data_f32[start * self.dim..end * self.dim]);
                }
            }
            Precision::F16 => {
                let auto_cap = self.decoded_bytes();
                let mut scratch = Vec::new();
                for start in (0..self.rows).step_by(block_rows) {
                    let end = (start + block_rows).min(self.rows);
                    let n = (end - start) * self.dim;
                    cache.with_panel(
                        seg,
                        start,
                        n,
                        auto_cap,
                        &mut scratch,
                        |buf| self.decode_panel_into(start, end, buf),
                        |panel| f(start, panel),
                    );
                }
            }
        }
    }

    /// Serialise to bytes (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bytes() + 32);
        out.extend_from_slice(b"EMBX");
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        out.push(match self.precision {
            Precision::F32 => 0,
            Precision::F16 => 1,
        });
        match self.precision {
            Precision::F32 => {
                for v in &self.data_f32 {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Precision::F16 => out.extend_from_slice(&self.data_f16),
        }
        out
    }

    /// `(dim, rows)` from the header of [`EmbeddingMatrix::to_bytes`]
    /// output, without touching row data. `None` for a header no matrix
    /// can have: `dim == 0` (which [`EmbeddingMatrix::new`] refuses), or a
    /// shape whose decoded size overflows `usize`.
    pub fn peek_shape(bytes: &[u8]) -> Option<(usize, usize)> {
        if bytes.len() < 13 || &bytes[..4] != b"EMBX" {
            return None;
        }
        let dim = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        let rows = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        if dim == 0 {
            return None;
        }
        dim.checked_mul(rows)?.checked_mul(4)?;
        Some((dim, rows))
    }

    /// Deserialise from bytes produced by [`EmbeddingMatrix::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (dim, rows) = Self::peek_shape(bytes)?;
        let precision = match bytes[12] {
            0 => Precision::F32,
            1 => Precision::F16,
            _ => return None,
        };
        let payload = &bytes[13..];
        // `peek_shape` vouched for `dim * rows * 4`.
        let mut m = match precision {
            Precision::F32 => {
                if payload.len() != dim * rows * 4 {
                    return None;
                }
                let data_f32 = payload
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                Self { dim, rows, precision, data_f32, data_f16: Vec::new(), sq_norms: Vec::new() }
            }
            Precision::F16 => {
                if payload.len() != dim * rows * 2 {
                    return None;
                }
                Self {
                    dim,
                    rows,
                    precision,
                    data_f32: Vec::new(),
                    data_f16: payload.to_vec(),
                    sq_norms: Vec::new(),
                }
            }
        };
        // The norm cache is derived data: rebuild it rather than widening
        // the wire format (the bytes stay byte-compatible both ways).
        let mut sq_norms = Vec::with_capacity(m.rows);
        m.for_each_row(|_, row| sq_norms.push(mcqa_util::kernel::sq_norm(row)));
        m.sq_norms = sq_norms;
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_text::similarity::dense_cosine;

    fn sample_rows(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let mut v: Vec<f32> = (0..dim).map(|j| ((i * dim + j) as f32).sin()).collect();
                let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect()
    }

    #[test]
    fn f32_roundtrip_exact() {
        let rows = sample_rows(10, 32);
        let m = EmbeddingMatrix::from_rows(32, Precision::F32, &rows);
        assert_eq!(m.len(), 10);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&m.row(i).unwrap(), r);
        }
        assert!(m.row(10).is_none());
    }

    #[test]
    fn f16_compression_halves_storage() {
        let rows = sample_rows(50, 64);
        let m32 = EmbeddingMatrix::from_rows(64, Precision::F32, &rows);
        let m16 = EmbeddingMatrix::from_rows(64, Precision::F16, &rows);
        assert_eq!(m16.payload_bytes() * 2, m32.payload_bytes());
    }

    #[test]
    fn f16_cosine_error_small() {
        let rows = sample_rows(20, 128);
        let m = EmbeddingMatrix::from_rows(128, Precision::F16, &rows);
        for (i, r) in rows.iter().enumerate() {
            let back = m.row(i).unwrap();
            let cos = dense_cosine(r, &back);
            assert!(cos > 0.9999, "row {i}: cosine {cos}");
        }
    }

    #[test]
    fn for_each_row_matches_row() {
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(7, 16);
            let m = EmbeddingMatrix::from_rows(16, precision, &rows);
            let mut visited = 0;
            m.for_each_row(|i, r| {
                assert_eq!(r, m.row(i).unwrap().as_slice());
                visited += 1;
            });
            assert_eq!(visited, 7);
        }
    }

    #[test]
    fn for_each_block_matches_row_at_every_block_size() {
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(23, 16);
            let m = EmbeddingMatrix::from_rows(16, precision, &rows);
            for block_rows in [1usize, 4, 16, 23, 64] {
                let mut seen = 0usize;
                m.for_each_block(block_rows, |start, panel| {
                    assert_eq!(start, seen, "panels are consecutive");
                    assert_eq!(panel.len() % 16, 0);
                    let n = panel.len() / 16;
                    assert!(n <= block_rows);
                    for (j, row) in panel.chunks_exact(16).enumerate() {
                        assert_eq!(row, m.row(start + j).unwrap().as_slice(), "{precision:?}");
                    }
                    seen += n;
                });
                assert_eq!(seen, 23, "{precision:?} block={block_rows}");
            }
        }
    }

    #[test]
    fn row_sq_norms_describe_stored_rows_and_survive_roundtrip() {
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(9, 24);
            let m = EmbeddingMatrix::from_rows(24, precision, &rows);
            assert_eq!(m.row_sq_norms().len(), 9);
            for i in 0..9 {
                let expect = mcqa_util::kernel::sq_norm(&m.row(i).unwrap());
                assert_eq!(m.row_sq_norms()[i].to_bits(), expect.to_bits(), "{precision:?}");
            }
            let back = EmbeddingMatrix::from_bytes(&m.to_bytes()).unwrap();
            assert_eq!(back.row_sq_norms(), m.row_sq_norms(), "recomputed on decode");
        }
    }

    #[test]
    fn bytes_roundtrip() {
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(5, 24);
            let m = EmbeddingMatrix::from_rows(24, precision, &rows);
            let b = m.to_bytes();
            let back = EmbeddingMatrix::from_bytes(&b).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn bytes_rejects_garbage() {
        assert!(EmbeddingMatrix::from_bytes(b"").is_none());
        assert!(EmbeddingMatrix::from_bytes(b"EMBX").is_none());
        let rows = sample_rows(2, 8);
        let mut b = EmbeddingMatrix::from_rows(8, Precision::F16, &rows).to_bytes();
        b.truncate(b.len() - 3);
        assert!(EmbeddingMatrix::from_bytes(&b).is_none(), "length mismatch rejected");
        b[0] = b'X';
        assert!(EmbeddingMatrix::from_bytes(&b).is_none());
    }

    #[test]
    fn bytes_rejects_hostile_shapes() {
        let header = |dim: u32, rows: u32, precision: u8| {
            let mut b = b"EMBX".to_vec();
            b.extend_from_slice(&dim.to_le_bytes());
            b.extend_from_slice(&rows.to_le_bytes());
            b.push(precision);
            b
        };
        for precision in [0u8, 1] {
            // dim 0: an empty payload "matches" any row count.
            for rows in [0, 5, u32::MAX] {
                let b = header(0, rows, precision);
                assert!(EmbeddingMatrix::peek_shape(&b).is_none(), "dim 0, rows {rows}");
                assert!(EmbeddingMatrix::from_bytes(&b).is_none(), "dim 0, rows {rows}");
            }
            // Shapes whose decoded size overflows 64 bits. 2³¹ · 2³¹ · 4
            // wraps to exactly 0, which an unchecked product would accept
            // against an empty payload — and then walk 2³¹ rows.
            for (dim, rows) in [(u32::MAX, u32::MAX), (1 << 31, 1 << 31)] {
                let b = header(dim, rows, precision);
                assert!(EmbeddingMatrix::peek_shape(&b).is_none(), "{dim} × {rows}");
                assert!(EmbeddingMatrix::from_bytes(&b).is_none(), "{dim} × {rows}");
            }
        }
        // The smallest legal header still decodes.
        let empty = header(3, 0, 1);
        assert_eq!(EmbeddingMatrix::peek_shape(&empty), Some((3, 0)));
        assert!(EmbeddingMatrix::from_bytes(&empty).unwrap().is_empty());
    }

    #[test]
    fn extend_parallel_matches_sequential_push() {
        let exec = mcqa_runtime::Executor::global();
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(137, 24);
            let serial = EmbeddingMatrix::from_rows(24, precision, &rows);
            let mut parallel = EmbeddingMatrix::new(24, precision);
            parallel.extend_parallel(exec, &rows);
            assert_eq!(parallel, serial, "{precision:?}");
            assert_eq!(parallel.to_bytes(), serial.to_bytes(), "byte-identical {precision:?}");
        }
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn extend_parallel_checks_dims() {
        let mut m = EmbeddingMatrix::new(8, Precision::F16);
        m.extend_parallel(mcqa_runtime::Executor::global(), &[vec![0.0; 7]]);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn wrong_dim_row_panics() {
        let mut m = EmbeddingMatrix::new(8, Precision::F32);
        m.push(&[0.0; 9]);
    }

    #[test]
    fn empty_matrix() {
        let m = EmbeddingMatrix::new(16, Precision::F16);
        assert!(m.is_empty());
        assert_eq!(m.payload_bytes(), 0);
        assert!(m.row(0).is_none());
        let b = m.to_bytes();
        assert_eq!(EmbeddingMatrix::from_bytes(&b).unwrap(), m);
    }
}
