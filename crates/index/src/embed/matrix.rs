//! Row-major embedding storage with optional FP16 compression.
//!
//! The paper stores its 173,318 chunk embeddings as FP16 (747 MB total).
//! [`EmbeddingMatrix`] offers both precisions behind one API and measures
//! the cosine error the compression introduces (property-tested to stay
//! within half-precision bounds).
//!
//! Search reads the rows as stored: [`EmbeddingMatrix::panels`] hands out
//! consecutive rows as a [`Panel`] — an `f32` slice, or the F16 bytes
//! themselves, which the panel kernels widen inside their tile — so a
//! scan of an F16 matrix streams half the bytes of a decoded copy and
//! keeps none. [`EmbeddingMatrix::for_each_panel`] is the decoding walk
//! through a [`PanelCache`] that only the repository's benchmark still
//! calls.

use mcqa_util::f16::{decode_f16_bytes, decode_f16_into, encode_f16_bytes};
use mcqa_util::kernel::Panel;

use crate::embed::panels::PanelCache;

/// Storage precision for an embedding matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 4 bytes per component.
    F32,
    /// 2 bytes per component (the paper's FAISS configuration).
    F16,
}

/// A dense row-major embedding matrix.
#[derive(Debug, Clone, PartialEq)]
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
    pub(crate) fn new(dim: usize, precision: Precision) -> Self {
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
    pub(crate) fn push(&mut self, row: &[f32]) {
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
    pub(crate) fn extend_parallel<R: AsRef<[f32]> + Sync>(
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
                let (encoded, _) =
                    mcqa_runtime::run_stage(exec, "f16-encode", (0..rows.len()).collect(), |i| {
                        let bytes = encode_f16_bytes(rows[i].as_ref());
                        let decoded =
                            decode_f16_bytes(&bytes).expect("even length by construction");
                        (bytes, mcqa_util::kernel::sq_norm(&decoded))
                    });
                for (bytes, norm) in encoded {
                    self.data_f16.extend_from_slice(&bytes);
                    self.sq_norms.push(norm);
                }
            }
        }
        self.rows += rows.len();
    }

    /// Drop every row whose `dead` flag is set, keeping the rest in order.
    /// Surviving rows move as stored bytes, and their cached norms move
    /// with them, so the result equals a matrix built from the live rows
    /// alone — nothing is decoded or re-quantised.
    pub(crate) fn retain_rows(&mut self, dead: &[bool]) {
        assert_eq!(dead.len(), self.rows, "one flag per row");
        let (dim, mut kept) = (self.dim, 0);
        for (i, _) in dead.iter().enumerate().filter(|(_, &d)| !d) {
            match self.precision {
                Precision::F32 => self.data_f32.copy_within(i * dim..(i + 1) * dim, kept * dim),
                Precision::F16 => {
                    self.data_f16.copy_within(i * dim * 2..(i + 1) * dim * 2, kept * dim * 2)
                }
            }
            self.sq_norms[kept] = self.sq_norms[i];
            kept += 1;
        }
        self.data_f32.truncate(kept * dim);
        self.data_f16.truncate(kept * dim * 2);
        self.sq_norms.truncate(kept);
        self.rows = kept;
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

    /// Bytes used by the payload (excluding struct overhead) — lets benches
    /// report the FP16 saving the paper relies on.
    pub(crate) fn payload_bytes(&self) -> usize {
        match self.precision {
            Precision::F32 => self.data_f32.len() * 4,
            Precision::F16 => self.data_f16.len(),
        }
    }

    /// Bytes the matrix occupies fully decoded to F32 — what a
    /// [`PanelBudget::Auto`](crate::embed::panels::PanelBudget::Auto) panel cache
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
    pub(crate) fn for_each_row<F: FnMut(usize, &[f32])>(&self, mut f: F) {
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

    /// The rows in panels of up to `block_rows` rows, as stored: each item
    /// is the start row and a [`Panel`] of the consecutive rows from it
    /// (the last panel may be ragged) — a direct sub-slice of the `f32`
    /// storage, or of the F16 bytes, which the panel kernels widen inside
    /// their tile to exactly the values [`Self::row`] decodes. Nothing is
    /// decoded, copied or cached.
    pub(crate) fn panels(&self, block_rows: usize) -> impl Iterator<Item = (usize, Panel<'_>)> {
        assert!(block_rows > 0, "block_rows must be positive");
        (0..self.rows).step_by(block_rows).map(move |start| {
            let (from, to) = (start * self.dim, (start + block_rows).min(self.rows) * self.dim);
            let panel = match self.precision {
                Precision::F32 => Panel::F32(&self.data_f32[from..to]),
                Precision::F16 => Panel::F16(&self.data_f16[from * 2..to * 2]),
            };
            (start, panel)
        })
    }

    /// Decode rows `start..end` into `out` (which must hold exactly
    /// `(end - start) * dim` f32s): the F16 decode behind
    /// [`EmbeddingMatrix::for_each_panel`], resident or into scratch.
    fn decode_panel_into(&self, start: usize, end: usize, out: &mut [f32]) {
        decode_f16_into(&self.data_f16[start * self.dim * 2..end * self.dim * 2], out);
    }

    /// Visit the rows in panels of up to `block_rows` rows decoded to
    /// `f32`: `f(start_row, panel)` receives a dense row-major `&[f32]` of
    /// `panel.len() / dim()` consecutive rows starting at `start_row` (the
    /// last panel may be ragged).
    ///
    /// F16 panels are fetched from (and made resident in) `cache` under its
    /// byte budget; at
    /// [`PanelBudget::Bytes(0)`](crate::embed::panels::PanelBudget::Bytes) every
    /// panel is decoded into one reused scratch buffer instead. `seg`
    /// namespaces this matrix inside a cache shared across segments. An
    /// F32 matrix hands out direct sub-slices of its storage, copy-free —
    /// it is already resident, so the cache is bypassed. Panels observed
    /// through this accessor are byte-for-byte the rows [`Self::row`]
    /// returns, at every budget.
    ///
    /// Search does not come through here — it scans `Self::panels` in
    /// place. This walk stays for the repository benchmark's decode and
    /// cache-hit probes.
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
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
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

    /// Deserialise from bytes produced by [`EmbeddingMatrix::to_bytes`].
    /// `None` also for a header no matrix can have: `dim == 0` (which
    /// [`EmbeddingMatrix::new`] refuses), or a shape whose decoded size
    /// overflows `usize`.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 13 || &bytes[..4] != b"EMBX" {
            return None;
        }
        let dim = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        let rows = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        if dim == 0 {
            return None;
        }
        dim.checked_mul(rows)?.checked_mul(4)?;
        let precision = match bytes[12] {
            0 => Precision::F32,
            1 => Precision::F16,
            _ => return None,
        };
        let payload = &bytes[13..];
        // The header check vouched for `dim * rows * 4`.
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
    fn for_each_panel_matches_row_at_every_block_size() {
        use crate::embed::panels::PanelBudget;
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(23, 16);
            let m = EmbeddingMatrix::from_rows(16, precision, &rows);
            for block_rows in [1usize, 4, 16, 23, 64] {
                for budget in [PanelBudget::Bytes(0), PanelBudget::Auto] {
                    let cache = PanelCache::new(budget);
                    let mut seen = 0usize;
                    m.for_each_panel(&cache, 0, block_rows, |start, panel| {
                        assert_eq!(start, seen, "panels are consecutive");
                        assert_eq!(panel.len() % 16, 0);
                        let n = panel.len() / 16;
                        assert!(n <= block_rows);
                        for (j, row) in panel.chunks_exact(16).enumerate() {
                            assert_eq!(row, m.row(start + j).unwrap().as_slice(), "{precision:?}");
                        }
                        seen += n;
                    });
                    assert_eq!(seen, 23, "{precision:?} block={block_rows} {budget:?}");
                }
            }
        }
    }

    #[test]
    fn panels_are_the_stored_rows_at_every_block_size() {
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(23, 16);
            let m = EmbeddingMatrix::from_rows(16, precision, &rows);
            for block_rows in [1usize, 4, 16, 23, 64] {
                let mut seen = 0usize;
                for (start, panel) in m.panels(block_rows) {
                    assert_eq!(start, seen, "panels are consecutive");
                    let values = match panel {
                        Panel::F32(values) => values.to_vec(),
                        Panel::F16(bytes) => decode_f16_bytes(bytes).expect("whole byte pairs"),
                    };
                    let n = panel.len() / 16;
                    assert!(n <= block_rows && values.len() == panel.len());
                    for (j, row) in values.chunks_exact(16).enumerate() {
                        assert_eq!(row, m.row(start + j).unwrap().as_slice(), "{precision:?}");
                    }
                    seen += n;
                }
                assert_eq!(seen, 23, "{precision:?} block={block_rows}");
            }
            assert_eq!(EmbeddingMatrix::new(16, precision).panels(8).count(), 0);
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
        let rows = sample_rows(3, 8);
        for precision in [Precision::F32, Precision::F16] {
            let b = EmbeddingMatrix::from_rows(8, precision, &rows).to_bytes();
            for cut in 0..b.len() {
                assert!(
                    EmbeddingMatrix::from_bytes(&b[..cut]).is_none(),
                    "{precision:?} cut {cut}"
                );
            }
        }
        let mut b = EmbeddingMatrix::from_rows(8, Precision::F16, &rows).to_bytes();
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
                assert!(EmbeddingMatrix::from_bytes(&b).is_none(), "dim 0, rows {rows}");
            }
            // Shapes whose decoded size overflows 64 bits. 2³¹ · 2³¹ · 4
            // wraps to exactly 0, which an unchecked product would accept
            // against an empty payload — and then walk 2³¹ rows.
            for (dim, rows) in [(u32::MAX, u32::MAX), (1 << 31, 1 << 31)] {
                let b = header(dim, rows, precision);
                assert!(EmbeddingMatrix::from_bytes(&b).is_none(), "{dim} × {rows}");
            }
        }
        // The smallest legal header still decodes.
        let empty = header(3, 0, 1);
        let m = EmbeddingMatrix::from_bytes(&empty).unwrap();
        assert_eq!((m.dim(), m.len()), (3, 0));
    }

    #[test]
    fn retain_rows_equals_a_build_from_the_kept_rows() {
        for precision in [Precision::F32, Precision::F16] {
            let rows = sample_rows(11, 24);
            let dead: Vec<bool> = (0..11).map(|i| i % 3 == 1 || i == 10).collect();
            let mut m = EmbeddingMatrix::from_rows(24, precision, &rows);
            m.retain_rows(&dead);
            let kept: Vec<Vec<f32>> =
                rows.iter().zip(&dead).filter(|(_, &d)| !d).map(|(r, _)| r.clone()).collect();
            let cold = EmbeddingMatrix::from_rows(24, precision, &kept);
            assert_eq!(m, cold, "{precision:?}");
            assert_eq!(m.to_bytes(), cold.to_bytes(), "{precision:?}");
            let bits = |m: &EmbeddingMatrix| -> Vec<u32> {
                m.row_sq_norms().iter().map(|n| n.to_bits()).collect()
            };
            assert_eq!(bits(&m), bits(&cold), "{precision:?}");
            m.retain_rows(&vec![true; m.len()]);
            assert!(m.is_empty() && m.payload_bytes() == 0 && m.row_sq_norms().is_empty());
        }
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
