//! Fixed-order scoring kernels shared by the vector stores and the
//! embedding matrix: the per-pair definitions ([`dot`], [`sq_norm`],
//! [`l2_sq`]), the register-blocked panel kernels ([`dot_panel`],
//! [`l2_sq_panel`]) every store's scan runs on, and the column kernel
//! ([`dot_columns`]) that scores mostly-zero queries against a transposed
//! panel ([`Columns`]), skipping their zero elements.
//!
//! Exact retrieval is a dense dot-product sweep: at paper scale every query
//! visits every stored row, so the per-element loop *is* the hot path. The
//! per-pair kernels split the reduction across `LANES` accumulators over
//! `chunks_exact` blocks — a shape LLVM's autovectorizer already folds into
//! packed SIMD — and reduce the lanes in one **fixed** pairwise tree. What
//! capped a row-at-a-time scan built on them was never missing SIMD: the
//! eight lanes of one pair are a single packed add chain (two on SSE2), each
//! add waiting out the previous one's latency, so the loop ran at ≈ 1.5
//! multiply-adds per cycle with the multiplier and the load ports idle.
//!
//! The panel kernels score a *tile* — a few queries × a few panel rows — per
//! pass. Every (query, row) pair of the tile owns its own `[f32; LANES]`
//! accumulator, so the tile's chains are independent (add latency overlaps
//! across them) and each loaded row block is reused once per query of the
//! tile. The body is safe Rust over an aligned 8-lane value type, generic
//! over the tile shape and over how a row is stored ([`Panel`]: `f32`, or
//! the F16 bytes a store keeps, read in place), written once and compiled
//! twice: for the build's baseline target in 2×2 tiles (queries × rows;
//! the widest that fits SSE2's sixteen 128-bit registers), and under
//! `#[target_feature(enable = "avx2,f16c")]` in 4×2 tiles (eight 256-bit
//! accumulators; ≈ 6 % more multiply-adds per cycle than 2×2 L1-hot, 13 %
//! off the real scan — `AVX2_TILE_QUERIES` records the measured shapes),
//! selected per call by `is_x86_feature_detected!`. The tile shape only
//! changes which pairs advance together, never a pair's own operations.
//!
//! An F16 row is widened to `f32` inside the tile, one 8-lane block at a
//! time, right before the queries use it: by one `vcvtph2ps` under F16C,
//! lane by lane through [`F16::to_f32`] on the baseline target and in
//! every ragged tail. A scan of F16 storage thus streams two bytes per
//! element — half of what a decoded copy costs — and keeps no copy.
//!
//! The panel kernels are at their port peak (≈ 6.5 multiply-adds per
//! cycle under AVX2), so a query can only get cheaper by doing fewer of
//! them. A feature-hashed question stem has ≈ 73 nonzeros of 256 while a
//! chunk row has ≈ 197: most of a stem's products are `0 × r`. The column
//! kernel skips them. [`Columns::load`] widens a panel once into a
//! `[dim][rows]` scratch (64 KiB for 64 rows at dim 256) — eight rows of
//! one dimension per block — and [`dot_columns`] walks only a query's
//! nonzero elements ([`SparseQueries`]), lane by lane, each updating one
//! 8-row accumulator per row group: one broadcast, then a packed multiply
//! and add per group. Each row's eight lane sums then reduce in the same
//! tree as [`dot`]'s, eight rows at a time, and go straight to the
//! caller's [`GroupSink`].
//!
//! Determinism contract: every kernel accumulates in a fixed order that
//! depends only on the slice length — never on block boundaries, tile
//! shapes, row storage, worker counts, call sites or the host's
//! instruction set. Within a tile each pair sees exactly the operations
//! [`dot`] / [`l2_sq`] perform, in the same order (element `i` into lane
//! `i % LANES`, the ragged tail lane by lane from lane 0, one fixed
//! reduction tree), and the arithmetic is a plain multiply then add —
//! never a fused multiply-add — so both instantiations agree with the
//! per-pair definition bit for bit. Both widenings are exact, so an F16
//! row scores as the `f32` row [`F16::to_f32`] decodes (a signalling NaN,
//! which F16C returns quieted, is quieted by the first product anyway).
//! That is what makes blocked/batched search in `mcqa-index` bit-identical
//! to its per-row `Metric::score` oracle over decoded rows.
//!
//! The column kernel keeps the contract by construction and adds one
//! clause: a term `qᵢ · rᵢ` with `qᵢ = ±0.0` and `rᵢ` finite may be
//! skipped. Every lane still adds the same remaining products in the same
//! order (element `i` in lane `i % LANES`, ascending), with the same tree
//! after. Each skipped product is `±0.0`, and adding `±0.0` to a lane sum
//! is the identity unless the sum is `−0.0`: `−0.0 + +0.0` is `+0.0`.
//! But no lane sum is ever `−0.0`. It starts at `+0.0`, and under
//! round-to-nearest `x + y` is `−0.0` only when both `x` and `y` are —
//! an exact cancellation `x + (−x)` gives `+0.0`. The running sum is one
//! addend of every add into it, so it never becomes `−0.0`. A non-finite `rᵢ` would make `0 × rᵢ` NaN, so
//! [`Columns::load`] reports any panel holding ±∞ or NaN, and the caller
//! scores that panel on the panel kernels instead.

use crate::f16::F16;

/// Independent accumulator lanes per kernel. Eight f32 lanes fill one
/// AVX2 register (or two NEON registers) and leave the autovectorizer no
/// reassociation to prove — the source order already is the packed order.
pub const LANES: usize = 8;

/// Reduce the lanes in a fixed pairwise tree (part of the determinism
/// contract: the same inputs always reduce in the same order).
#[inline(always)]
fn reduce(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Dot product with a fixed accumulation order.
///
/// Element `i` lands in lane `i % LANES` over full blocks; the ragged tail
/// continues lane-by-lane from lane 0.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let split = (a.len() / LANES) * LANES;
    for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    for (l, (x, y)) in a[split..].iter().zip(&b[split..]).enumerate() {
        acc[l] += x * y;
    }
    reduce(acc)
}

/// Squared L2 norm (`Σ xᵢ²`) with the same accumulation order as [`dot`].
#[inline]
pub fn sq_norm(a: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let split = (a.len() / LANES) * LANES;
    for ca in a[..split].chunks_exact(LANES) {
        for l in 0..LANES {
            acc[l] += ca[l] * ca[l];
        }
    }
    for (l, x) in a[split..].iter().enumerate() {
        acc[l] += x * x;
    }
    reduce(acc)
}

/// Squared Euclidean distance (`Σ (xᵢ − yᵢ)²`) with the same accumulation
/// order as [`dot`].
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let split = (a.len() / LANES) * LANES;
    for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            acc[l] += d * d;
        }
    }
    for (l, (x, y)) in a[split..].iter().zip(&b[split..]).enumerate() {
        let d = x - y;
        acc[l] += d * d;
    }
    reduce(acc)
}

/// Queries per tile on the baseline target. With [`BASELINE_TILE_ROWS`]
/// it gives four independent accumulators in eight SSE2 registers: the
/// widest tile that does not spill there (4×2 and 2×4 run ≈ 40 % slower
/// on SSE2).
const BASELINE_TILE_QUERIES: usize = 2;
/// Panel rows per tile on the baseline target (see
/// [`BASELINE_TILE_QUERIES`]).
const BASELINE_TILE_ROWS: usize = 2;
/// Queries per tile under AVX2. With [`AVX2_TILE_ROWS`] it gives eight
/// accumulators in eight of the sixteen 256-bit registers, beside four
/// query blocks and two (widened) row blocks — fourteen in all. Measured
/// at dim 256 on a 64-row F32 panel, L1-hot:
///
/// | tile | GMAC/s |
/// |---|---|
/// | 2×2 | 29.2 |
/// | 4×2 | 31.1 |
/// | 2×4 | 31.5 |
/// | 3×2 | 28.4 |
/// | 4×4 (spills) | 16.4 |
///
/// 4×2 rather than 2×4: a block of queries is usually wider than two, and
/// in the real scan 4×2 takes 13 % off on top of the top-k gate and the
/// once-per-row norm roots. With F16 rows 2×4 would also widen twice as
/// many row blocks per multiply-add.
const AVX2_TILE_QUERIES: usize = 4;
/// Panel rows per tile under AVX2 (see [`AVX2_TILE_QUERIES`]).
const AVX2_TILE_ROWS: usize = 2;
/// Panel rows per tile for a lone query — one the tile's query count
/// leaves over: the same four chains as a 2×2 tile, with nothing to reuse
/// across queries.
const LONE_TILE_ROWS: usize = 4;

/// A panel of consecutive rows as a store keeps them: dense row-major
/// `f32`s, or little-endian IEEE binary16 — two bytes per element, the
/// layout [`crate::f16::encode_f16_bytes`] writes. The panel kernels read
/// either in place; an F16 row is widened to `f32` inside the tile, one
/// 8-lane block at a time, exactly as [`F16::to_f32`] decodes it.
#[derive(Debug, Clone, Copy)]
pub enum Panel<'a> {
    /// Rows of `f32`.
    F32(&'a [f32]),
    /// Rows of little-endian binary16 bytes.
    F16(&'a [u8]),
}

impl Panel<'_> {
    /// Elements in the panel (`rows × dim`), whatever their width.
    pub fn len(&self) -> usize {
        match self {
            Panel::F32(values) => values.len(),
            Panel::F16(bytes) => bytes.len() / 2,
        }
    }

    /// True when the panel holds no element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How the tile reads one stored row element and one [`LANES`]-wide block
/// of them: `f32` as is, F16 widened. The block widening and the per-lane
/// [`Widen::one`] must agree on every value a scan can meet — that is what
/// keeps the in-tile widening bit-identical to scoring the decoded row.
trait Widen {
    /// One stored element.
    type Elem: Copy;
    /// A full block, widened.
    fn block(block: &[Self::Elem; LANES]) -> [f32; LANES];
    /// One element of the ragged tail, widened.
    fn one(elem: Self::Elem) -> f32;
}

/// `f32` rows: nothing to widen.
struct F32Rows;

impl Widen for F32Rows {
    type Elem = f32;
    #[inline(always)]
    fn block(block: &[f32; LANES]) -> [f32; LANES] {
        *block
    }
    #[inline(always)]
    fn one(elem: f32) -> f32 {
        elem
    }
}

/// F16 rows widened lane by lane with [`F16::to_f32`]: the baseline
/// target's path, and every path's ragged tail.
struct F16Rows;

impl Widen for F16Rows {
    type Elem = [u8; 2];
    #[inline(always)]
    fn block(block: &[[u8; 2]; LANES]) -> [f32; LANES] {
        let mut wide = [0.0; LANES];
        for (w, &pair) in wide.iter_mut().zip(block) {
            *w = F16Rows::one(pair);
        }
        wide
    }
    #[inline(always)]
    fn one(pair: [u8; 2]) -> f32 {
        F16(u16::from_le_bytes(pair)).to_f32()
    }
}

/// F16 rows widened a block at a time by one `vcvtph2ps`. Exact, like
/// [`F16::to_f32`], on every half but a signalling NaN, which comes back
/// quieted — and which the first product a scan takes quiets anyway.
/// Instantiated only inside [`panel_avx2`].
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
struct F16cRows;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
impl Widen for F16cRows {
    type Elem = [u8; 2];
    #[inline(always)]
    fn block(block: &[[u8; 2]; LANES]) -> [f32; LANES] {
        #[cfg(target_arch = "x86")]
        use std::arch::x86::{_mm256_cvtph_ps, _mm_loadu_si128};
        #[cfg(target_arch = "x86_64")]
        use std::arch::x86_64::{_mm256_cvtph_ps, _mm_loadu_si128};
        // SAFETY: `block` is 16 readable bytes, which is all the unaligned
        // load reads, and `[f32; 8]` has the size of `__m256` with every
        // bit pattern valid. F16C (and AVX) are present: `F16cRows` is
        // instantiated only in `panel_avx2`, which runs only once
        // `panel_dispatch` (or a test) has detected both on this host.
        unsafe { std::mem::transmute(_mm256_cvtph_ps(_mm_loadu_si128(block.as_ptr().cast()))) }
    }
    #[inline(always)]
    fn one(pair: [u8; 2]) -> f32 {
        F16Rows::one(pair)
    }
}

/// One accumulator per (query, row) pair: eight lanes, aligned so the
/// autovectorizer keeps it in one 256-bit (or two 128-bit) registers.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Lanes([f32; LANES]);

impl Lanes {
    /// Lane `l` gains the term of `(x[l], y[l])`: `x · y`, or `(x − y)²`
    /// with `L2`.
    ///
    /// The body stays a plain expression on purpose. Whether LLVM packs
    /// the eight lanes into vector instructions is decided by its SLP
    /// pass, and routing the term through a helper function, or bounding
    /// the lane loop by a run-time count so the tail could share it, each
    /// left the tile scalar (measured 15 → 1.5 GMAC/s). `perfbench`'s
    /// `backend-scan` is what notices if a compiler upgrade does the same.
    #[inline(always)]
    fn add_block<const L2: bool>(&mut self, x: &[f32; LANES], y: &[f32; LANES]) {
        for l in 0..LANES {
            if L2 {
                let d = x[l] - y[l];
                self.0[l] += d * d;
            } else {
                self.0[l] += x[l] * y[l];
            }
        }
    }

    /// The ragged tail continues lane by lane from lane 0, each row
    /// element widened on its own.
    #[inline(always)]
    fn add_tail<const L2: bool, W: Widen>(&mut self, x: &[f32], y: &[W::Elem]) {
        for (acc, (x, &y)) in self.0.iter_mut().zip(x.iter().zip(y)) {
            let y = W::one(y);
            if L2 {
                let d = x - y;
                *acc += d * d;
            } else {
                *acc += x * y;
            }
        }
    }
}

/// Every vector as `blocks` full [`LANES`]-wide blocks and its ragged
/// tail. Slicing the blocks to the tile's one shared count lets the
/// compiler drop the bounds checks inside the block loop — provided it
/// sees the slicing, hence the plain loop: `array::map` / `from_fn` were
/// left as calls at `N = 4`, one per tile, hiding the lengths behind them.
#[inline(always)]
fn split<E, const N: usize>(vectors: [&[E]; N], blocks: usize) -> ([&[[E; LANES]]; N], [&[E]; N]) {
    let (mut full, mut tails) = ([[].as_slice(); N], [[].as_slice(); N]);
    for i in 0..N {
        let (blocks_of, tail) = vectors[i].as_chunks::<LANES>();
        (full[i], tails[i]) = (&blocks_of[..blocks], tail);
    }
    (full, tails)
}

/// Score a `Q × R` tile: `out[q * stride + r]` is the `dot` (or, with
/// `L2`, the `l2_sq`) of `queries[q]` and `rows[r]` widened through `W`,
/// every row of the queries' length. The `Q · R` accumulators advance
/// block by block in lockstep, which is the whole point — the loop
/// carries `Q · R` independent add chains instead of one. Each row block
/// is widened once per tile block, before the queries share it.
///
/// Index loops throughout: whether this body vectorises hangs on the exact
/// shape LLVM is handed (see [`Lanes::add_block`]), and these are the
/// loops that were measured.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn tile<const L2: bool, W: Widen, const Q: usize, const R: usize>(
    queries: [&[f32]; Q],
    rows: [&[W::Elem]; R],
    out: &mut [f32],
    stride: usize,
) {
    let blocks = queries[0].len() / LANES;
    let (query_blocks, query_tails) = split(queries, blocks);
    let (row_blocks, row_tails) = split(rows, blocks);
    let mut acc = [[Lanes([0.0; LANES]); R]; Q];
    for b in 0..blocks {
        let mut wide = [[0.0; LANES]; R];
        for r in 0..R {
            wide[r] = W::block(&row_blocks[r][b]);
        }
        for q in 0..Q {
            for r in 0..R {
                acc[q][r].add_block::<L2>(&query_blocks[q][b], &wide[r]);
            }
        }
    }
    for q in 0..Q {
        for r in 0..R {
            acc[q][r].add_tail::<L2, W>(query_tails[q], row_tails[r]);
            out[q * stride + r] = reduce(acc[q][r].0);
        }
    }
}

/// Sweep `Q` queries down a whole panel in tiles of `R` rows, then row by
/// row over what is left.
#[inline(always)]
fn sweep<const L2: bool, W: Widen, const Q: usize, const R: usize>(
    queries: [&[f32]; Q],
    panel: &[W::Elem],
    out: &mut [f32],
    rows: usize,
) {
    let dim = queries[0].len();
    let row = |r: usize| &panel[r * dim..(r + 1) * dim];
    let mut r = 0;
    while r + R <= rows {
        let mut tile_rows = [[].as_slice(); R];
        for (j, tile_row) in tile_rows.iter_mut().enumerate() {
            *tile_row = row(r + j);
        }
        tile::<L2, W, Q, R>(queries, tile_rows, &mut out[r..], rows);
        r += R;
    }
    while r < rows {
        tile::<L2, W, Q, 1>(queries, [row(r)], &mut out[r..], rows);
        r += 1;
    }
}

/// The panel kernel body: `out[q * rows + r]` for every query and every
/// row of `panel`, queries taken `Q` at a time down tiles of `R` rows, and
/// the `< Q` left over each alone. `#[inline(always)]` so each
/// instantiation below compiles its own copy, with its own tile shape and
/// row widening, under its own target features.
#[inline(always)]
fn panel_body<const L2: bool, W: Widen, const Q: usize, const R: usize>(
    queries: &[&[f32]],
    panel: &[W::Elem],
    out: &mut [f32],
) {
    let Some(first) = queries.first() else {
        assert!(out.is_empty(), "scores without queries");
        return;
    };
    let dim = first.len();
    let rows = out.len() / queries.len();
    assert_eq!(out.len(), rows * queries.len(), "out is not queries × rows");
    assert_eq!(panel.len(), rows * dim, "panel is not rows × dim");
    assert!(queries.iter().all(|q| q.len() == dim), "ragged queries");
    let mut groups = queries.chunks_exact(Q);
    let mut q = 0;
    for group in &mut groups {
        let group: [&[f32]; Q] = group.try_into().expect("chunks_exact length");
        sweep::<L2, W, Q, R>(group, panel, &mut out[q * rows..], rows);
        q += Q;
    }
    for &lone in groups.remainder() {
        sweep::<L2, W, 1, LONE_TILE_ROWS>([lone], panel, &mut out[q * rows..], rows);
        q += 1;
    }
}

/// [`panel_body`] compiled for the build's baseline target features, in
/// 2×2 tiles; F16 rows widen lane by lane.
fn panel_baseline<const L2: bool>(queries: &[&[f32]], panel: Panel<'_>, out: &mut [f32]) {
    const Q: usize = BASELINE_TILE_QUERIES;
    const R: usize = BASELINE_TILE_ROWS;
    match panel {
        Panel::F32(values) => panel_body::<L2, F32Rows, Q, R>(queries, values, out),
        Panel::F16(bytes) => panel_body::<L2, F16Rows, Q, R>(queries, half_pairs(bytes), out),
    }
}

/// [`panel_body`] compiled with 256-bit registers, in 4×2 tiles: every
/// pair sees the same operations in the same order, with twice as many
/// lanes per instruction and twice as many chains per tile. F16 rows
/// widen a block at a time through F16C.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,f16c")]
fn panel_avx2<const L2: bool>(queries: &[&[f32]], panel: Panel<'_>, out: &mut [f32]) {
    const Q: usize = AVX2_TILE_QUERIES;
    const R: usize = AVX2_TILE_ROWS;
    match panel {
        Panel::F32(values) => panel_body::<L2, F32Rows, Q, R>(queries, values, out),
        Panel::F16(bytes) => panel_body::<L2, F16cRows, Q, R>(queries, half_pairs(bytes), out),
    }
}

/// F16 panel bytes as one byte pair per element.
#[inline(always)]
fn half_pairs(bytes: &[u8]) -> &[[u8; 2]] {
    let (pairs, odd) = bytes.as_chunks::<2>();
    assert!(odd.is_empty(), "an F16 panel is whole byte pairs");
    pairs
}

/// True when this host runs [`panel_avx2`].
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn has_avx2_f16c() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("f16c")
}

/// Run the widest instantiation of the panel kernel the host supports.
#[inline]
fn panel_dispatch<const L2: bool>(queries: &[&[f32]], panel: Panel<'_>, out: &mut [f32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if has_avx2_f16c() {
        // SAFETY: `panel_avx2` is a safe function whose only requirement
        // is that the CPU supports AVX2 and F16C, which the check above
        // just established for this host.
        return unsafe { panel_avx2::<L2>(queries, panel, out) };
    }
    panel_baseline::<L2>(queries, panel, out)
}

/// [`dot`] of every query with every row of a dense row-major `panel`:
/// `out[q * rows + r] = dot(queries[q], row r)`, bit for bit, where
/// `rows = out.len() / queries.len()` and `panel.len() == rows * dim`.
/// An F16 row is scored as the `f32` row [`F16::to_f32`] decodes it to.
/// Panics on ragged queries or mismatched lengths.
pub fn dot_panel(queries: &[&[f32]], panel: Panel<'_>, out: &mut [f32]) {
    panel_dispatch::<false>(queries, panel, out)
}

/// [`l2_sq`] of every query with every row of `panel`, laid out and
/// checked as in [`dot_panel`].
pub fn l2_sq_panel(queries: &[&[f32]], panel: Panel<'_>, out: &mut [f32]) {
    panel_dispatch::<true>(queries, panel, out)
}

/// Column groups per pass of the column kernel on the baseline target:
/// four 8-row accumulators in eight SSE2 registers, beside the broadcast
/// query element and the loaded column block.
const BASELINE_COLUMN_GROUPS: usize = 4;
/// Column groups per pass under AVX2: eight 8-row accumulators — a whole
/// 64-row panel at dim 256 — in eight of the sixteen 256-bit registers.
const AVX2_COLUMN_GROUPS: usize = 8;

/// The nonzero elements of a block of queries, each query's grouped lane
/// by lane — element `i` in lane `i % LANES`, each lane's elements in
/// ascending `i` — the order [`dot_columns`] walks them in. A `±0.0`
/// element is left out: it is the term the column kernel skips.
#[derive(Debug, Default)]
pub struct SparseQueries {
    /// `(dimension, value)` of every kept element, query after query.
    terms: Vec<(u32, f32)>,
    /// `ends[q * LANES + l]`: one past query `q`'s last lane-`l` term.
    ends: Vec<usize>,
    /// The queries' shared dimension.
    dim: usize,
}

impl SparseQueries {
    /// Append `query`'s nonzero elements as the next query. Panics on a
    /// query of another dimension than the first.
    pub fn push(&mut self, query: &[f32]) {
        if self.ends.is_empty() {
            self.dim = query.len();
        }
        assert_eq!(query.len(), self.dim, "ragged queries");
        u32::try_from(query.len()).expect("a query dimension fits in u32");
        // Every element is written at the cursor and only a kept one moves
        // it on, so no branch depends on the data: the buffer grows by a
        // whole query, and what the cursor left behind is cut off again.
        let base = self.terms.len();
        self.terms.resize(base + query.len(), (0, 0.0));
        let out = &mut self.terms[base..];
        let mut kept = 0;
        for lane in 0..LANES {
            for (i, &x) in query.iter().enumerate().skip(lane).step_by(LANES) {
                out[kept] = (i as u32, x);
                kept += usize::from(x != 0.0);
            }
            self.ends.push(base + kept);
        }
        self.terms.truncate(base + kept);
    }

    /// Query `q`'s terms, lane by lane.
    fn lanes(&self, q: usize) -> [&[(u32, f32)]; LANES] {
        let ends = &self.ends[q * LANES..(q + 1) * LANES];
        let mut start = if q == 0 { 0 } else { self.ends[q * LANES - 1] };
        let mut lanes = [[].as_slice(); LANES];
        for (lane, &end) in lanes.iter_mut().zip(ends) {
            *lane = &self.terms[start..end];
            start = end;
        }
        lanes
    }
}

/// A panel transposed for [`dot_columns`] and widened to `f32`: element
/// `d` of row `r` sits at lane `r % LANES` of column block
/// `d * groups + r / LANES`, so one block holds one dimension of eight
/// consecutive rows. The last group's missing rows are zeros.
///
/// What the columns' layout was weighed against, on the scale-0.02 chunk
/// store (4 024 rows, 215 stems, one worker, kernel time only), so the
/// next change to the sparse scan starts from these readings:
///
/// * **F16 columns** (32 KiB a panel, L1-resident, each block widened by
///   one `vcvtph2ps` as the kernel reads it) are bit-identical but read
///   7.8–8.0 ms against 6.4–6.7 ms for these `f32` columns: the widening
///   costs more than the halved footprint saves.
/// * **L1-resident columns** cut the cost per nonzero element by only
///   about 20 %.
/// * **A fixed cost per (query, panel) pair** of about 125–165 ns is
///   about 30 % of a pair's cost at 72 nonzeros.
/// * **Block size:** a 2-worker sweep read 226 stems per block fastest
///   (10.1 ms, against 10.6 ms at 64 and 19.3 ms at 8).
#[derive(Debug, Default)]
pub struct Columns {
    blocks: Vec<Lanes>,
    rows: usize,
    dim: usize,
    /// Row groups of [`LANES`] rows: the stride between two dimensions.
    groups: usize,
    /// False when the last [`Columns::load`] met a non-finite element.
    finite: bool,
}

impl Columns {
    /// Transpose the `rows` rows of `panel` into the columns, each element
    /// widened exactly as the panel kernels widen it. Returns false when
    /// an element is ±∞ or NaN: a zero query element times it is NaN, not
    /// zero, so such a panel cannot skip its zero terms and is scored by
    /// [`dot_panel`] instead. Panics unless `panel` is `rows` whole rows.
    pub fn load(&mut self, panel: Panel<'_>, rows: usize) -> bool {
        self.load_with(panel, rows, columns_dispatch)
    }

    /// [`Columns::load`] through one instantiation of [`transpose`].
    fn load_with(&mut self, panel: Panel<'_>, rows: usize, transpose: Transpose) -> bool {
        let dim = panel.len().checked_div(rows).unwrap_or(0);
        assert_eq!(panel.len(), rows * dim, "panel is not rows × dim");
        let groups = rows.div_ceil(LANES);
        (self.rows, self.dim, self.groups) = (rows, dim, groups);
        self.blocks.resize(dim * groups, Lanes([0.0; LANES]));
        self.finite = transpose(panel, rows, dim, &mut self.blocks);
        self.finite
    }
}

/// How [`transpose`] turns eight widened rows of eight elements into
/// eight columns: `flip(tile)[j][r] == tile[r][j]`. A pure data move, so
/// every implementation gives the same bits.
trait Flip {
    fn flip(tile: [[f32; LANES]; LANES]) -> [[f32; LANES]; LANES];
}

/// The element-by-element transpose: the baseline target's path.
struct PortableFlip;

impl Flip for PortableFlip {
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    fn flip(tile: [[f32; LANES]; LANES]) -> [[f32; LANES]; LANES] {
        let mut flipped = [[0.0; LANES]; LANES];
        for j in 0..LANES {
            for r in 0..LANES {
                flipped[j][r] = tile[r][j];
            }
        }
        flipped
    }
}

/// The 8 × 8 transpose in 24 AVX shuffles. LLVM leaves [`PortableFlip`]
/// as scalar moves: a 64-row F16 panel at dim 256 loaded in 10–15 µs that
/// way, 5–6.5 µs this way. Instantiated only inside [`columns_avx2`].
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
struct Avx2Flip;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
impl Flip for Avx2Flip {
    #[inline(always)]
    fn flip(tile: [[f32; LANES]; LANES]) -> [[f32; LANES]; LANES] {
        #[cfg(target_arch = "x86")]
        use std::arch::x86::*;
        #[cfg(target_arch = "x86_64")]
        use std::arch::x86_64::*;
        // SAFETY: `[f32; 8]` and `__m256` have the same size and every bit
        // pattern is valid in both, and the shuffles touch registers only.
        // AVX is present: `Avx2Flip` is instantiated only in
        // `columns_avx2`, which runs only once `columns_dispatch` (or a
        // test) has detected AVX2 and F16C on this host.
        unsafe {
            let r: [__m256; LANES] = std::mem::transmute(tile);
            let t = [
                _mm256_unpacklo_ps(r[0], r[1]),
                _mm256_unpackhi_ps(r[0], r[1]),
                _mm256_unpacklo_ps(r[2], r[3]),
                _mm256_unpackhi_ps(r[2], r[3]),
                _mm256_unpacklo_ps(r[4], r[5]),
                _mm256_unpackhi_ps(r[4], r[5]),
                _mm256_unpacklo_ps(r[6], r[7]),
                _mm256_unpackhi_ps(r[6], r[7]),
            ];
            let u = [
                _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                _mm256_shuffle_ps::<0xee>(t[0], t[2]),
                _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                _mm256_shuffle_ps::<0xee>(t[1], t[3]),
                _mm256_shuffle_ps::<0x44>(t[4], t[6]),
                _mm256_shuffle_ps::<0xee>(t[4], t[6]),
                _mm256_shuffle_ps::<0x44>(t[5], t[7]),
                _mm256_shuffle_ps::<0xee>(t[5], t[7]),
            ];
            std::mem::transmute([
                _mm256_permute2f128_ps::<0x20>(u[0], u[4]),
                _mm256_permute2f128_ps::<0x20>(u[1], u[5]),
                _mm256_permute2f128_ps::<0x20>(u[2], u[6]),
                _mm256_permute2f128_ps::<0x20>(u[3], u[7]),
                _mm256_permute2f128_ps::<0x31>(u[0], u[4]),
                _mm256_permute2f128_ps::<0x31>(u[1], u[5]),
                _mm256_permute2f128_ps::<0x31>(u[2], u[6]),
                _mm256_permute2f128_ps::<0x31>(u[3], u[7]),
            ])
        }
    }
}

/// An instantiation of [`transpose`] over either row storage.
type Transpose = fn(Panel<'_>, usize, usize, &mut [Lanes]) -> bool;

/// Transpose `rows` rows of `panel` into `blocks` (laid out as
/// [`Columns`] documents), eight rows × eight dimensions at a time, and
/// report whether every element is finite. Every block is written, the
/// padding rows as zeros.
#[inline(always)]
fn transpose<W: Widen, X: Flip>(
    panel: &[W::Elem],
    rows: usize,
    dim: usize,
    blocks: &mut [Lanes],
) -> bool {
    let groups = rows.div_ceil(LANES);
    let split = dim / LANES * LANES;
    // An exponent field of all ones (±∞, NaN) carries into bit 31 once
    // one more exponent step is added; every finite exponent stays below.
    let mut carry = [0u32; LANES];
    let mut check = |wide: &[f32; LANES]| {
        for (c, x) in carry.iter_mut().zip(wide) {
            *c |= (x.to_bits() & 0x7f80_0000) + 0x0080_0000;
        }
    };
    // Dimension-major, so each column's blocks are written in one sweep
    // down the groups: group-major strode across the whole scratch and
    // took 1.8× as long.
    let group = |g: usize| &panel[g * LANES * dim..((g + 1) * LANES).min(rows) * dim];
    for at in (0..split).step_by(LANES) {
        for g in 0..groups {
            let mut tile = [[0.0f32; LANES]; LANES];
            for (wide, row) in tile.iter_mut().zip(group(g).chunks_exact(dim)) {
                *wide = W::block(row[at..at + LANES].try_into().expect("LANES elements"));
                check(wide);
            }
            for (j, column) in X::flip(tile).into_iter().enumerate() {
                blocks[(at + j) * groups + g] = Lanes(column);
            }
        }
    }
    for d in split..dim {
        for g in 0..groups {
            let mut column = [0.0f32; LANES];
            for (wide, row) in column.iter_mut().zip(group(g).chunks_exact(dim)) {
                *wide = W::one(row[d]);
            }
            check(&column);
            blocks[d * groups + g] = Lanes(column);
        }
    }
    carry.iter().all(|c| c & 0x8000_0000 == 0)
}

/// [`transpose`] compiled for the build's baseline target; F16 rows widen
/// lane by lane.
fn columns_baseline(panel: Panel<'_>, rows: usize, dim: usize, blocks: &mut [Lanes]) -> bool {
    match panel {
        Panel::F32(values) => transpose::<F32Rows, PortableFlip>(values, rows, dim, blocks),
        Panel::F16(bytes) => {
            transpose::<F16Rows, PortableFlip>(half_pairs(bytes), rows, dim, blocks)
        }
    }
}

/// [`transpose`] compiled with 256-bit registers; F16 rows widen a block
/// at a time through F16C.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,f16c")]
fn columns_avx2(panel: Panel<'_>, rows: usize, dim: usize, blocks: &mut [Lanes]) -> bool {
    match panel {
        Panel::F32(values) => transpose::<F32Rows, Avx2Flip>(values, rows, dim, blocks),
        Panel::F16(bytes) => transpose::<F16cRows, Avx2Flip>(half_pairs(bytes), rows, dim, blocks),
    }
}

/// Run the widest instantiation of [`transpose`] the host supports.
fn columns_dispatch(panel: Panel<'_>, rows: usize, dim: usize, blocks: &mut [Lanes]) -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if has_avx2_f16c() {
        // SAFETY: `columns_avx2` is a safe function whose only requirement
        // is that the CPU supports AVX2 and F16C, which the check above
        // just established for this host.
        return unsafe { columns_avx2(panel, rows, dim, blocks) };
    }
    columns_baseline(panel, rows, dim, blocks)
}

/// Score `P` row groups from group `from` on: each lane's terms in turn,
/// one 8-row accumulator per group, then each row's eight lane sums in
/// [`reduce`]'s tree. `out[g][r]` is row `(from + g) * LANES + r`'s dot.
///
/// The lane sums go through a plain array on purpose: computing them in
/// a `lane(l)` closure and folding the tree as they arrive left the pass
/// scalar (measured 10× slower), as [`Lanes::add_block`] warns.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn column_pass<const P: usize>(
    lanes: &[&[(u32, f32)]; LANES],
    blocks: &[Lanes],
    groups: usize,
    from: usize,
    out: &mut [[f32; LANES]],
) {
    let mut sums = [[Lanes([0.0; LANES]); P]; LANES];
    for l in 0..LANES {
        let mut acc = [Lanes([0.0; LANES]); P];
        for &(d, x) in lanes[l] {
            let column: &[Lanes; P] =
                blocks[d as usize * groups + from..][..P].try_into().expect("P blocks");
            for g in 0..P {
                for r in 0..LANES {
                    acc[g].0[r] += x * column[g].0[r];
                }
            }
        }
        sums[l] = acc;
    }
    for g in 0..P {
        let s = |l: usize| sums[l][g];
        let (low, high) = ((s(0) + s(1)) + (s(2) + s(3)), (s(4) + s(5)) + (s(6) + s(7)));
        out[g] = (low + high).0;
    }
}

/// Lane-wise sum: [`reduce`]'s additions for eight rows at once.
impl std::ops::Add for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn add(mut self, other: Lanes) -> Lanes {
        for (x, y) in self.0.iter_mut().zip(other.0) {
            *x += y;
        }
        self
    }
}

/// What [`dot_columns`] does with each row group's dots. The kernel body
/// is compiled once per target, and an `#[inline(always)]` [`GroupSink::group`]
/// is compiled into it — packed under AVX2 like the kernel — where a
/// closure was left as a call on the baseline target (eight scalar
/// divides per group for Cosine). Any `FnMut(first, dots)` is a sink.
pub trait GroupSink {
    /// The dots of rows `first..first + LANES`, in row order.
    fn group(&mut self, first: usize, dots: [f32; LANES]);
}

impl<F: FnMut(usize, [f32; LANES])> GroupSink for F {
    #[inline(always)]
    fn group(&mut self, first: usize, dots: [f32; LANES]) {
        self(first, dots)
    }
}

/// The column kernel body: every row group of `columns`, `G` groups a
/// pass and the groups left over in passes of four, two and one, each
/// group's scores handed to `sink` in row order.
#[inline(always)]
fn columns_body<const G: usize>(
    lanes: [&[(u32, f32)]; LANES],
    columns: &Columns,
    sink: &mut impl GroupSink,
) {
    let (blocks, groups) = (&columns.blocks[..], columns.groups);
    let mut scores = [[0.0f32; LANES]; G];
    let mut from = 0;
    while from < groups {
        let pass = match groups - from {
            left if left >= G => G,
            left if left >= 4 => 4,
            left if left >= 2 => 2,
            _ => 1,
        };
        let out = &mut scores[..pass];
        match pass {
            p if p == G => column_pass::<G>(&lanes, blocks, groups, from, out),
            4 => column_pass::<4>(&lanes, blocks, groups, from, out),
            2 => column_pass::<2>(&lanes, blocks, groups, from, out),
            _ => column_pass::<1>(&lanes, blocks, groups, from, out),
        }
        for (g, &group) in out.iter().enumerate() {
            sink.group((from + g) * LANES, group);
        }
        from += pass;
    }
}

/// [`columns_body`] compiled for the build's baseline target.
fn columns_kernel_baseline(
    lanes: [&[(u32, f32)]; LANES],
    columns: &Columns,
    sink: &mut impl GroupSink,
) {
    columns_body::<BASELINE_COLUMN_GROUPS>(lanes, columns, sink)
}

/// [`columns_body`] compiled with 256-bit registers.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,f16c")]
fn columns_kernel_avx2(
    lanes: [&[(u32, f32)]; LANES],
    columns: &Columns,
    sink: &mut impl GroupSink,
) {
    columns_body::<AVX2_COLUMN_GROUPS>(lanes, columns, sink)
}

/// [`dot`] of query `q` of `queries` with every row of `columns`, bit for
/// bit, skipping the query's zero elements: `sink` receives the dots of
/// rows `first..first + LANES` for every group of rows, in row order (the
/// last group's padding rows score `0.0`).
///
/// Each lane adds the same products in the same order as [`dot`], minus
/// the skipped ones, and each skipped product is `±0.0` (a zero times a
/// finite element, which [`Columns::load`] guarantees). A lane sum starts
/// at `+0.0` and, rounding to nearest, a sum is `−0.0` only when both
/// addends are, so no lane sum is ever `−0.0` — and adding `±0.0` to
/// anything else leaves it unchanged. Panics on a non-finite load or a
/// query of another dimension.
pub fn dot_columns(
    queries: &SparseQueries,
    q: usize,
    columns: &Columns,
    sink: &mut impl GroupSink,
) {
    assert!(columns.finite || columns.rows == 0, "columns hold a non-finite element");
    assert!(columns.rows == 0 || queries.dim == columns.dim, "query dimension mismatch");
    let lanes = queries.lanes(q);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if has_avx2_f16c() {
        // SAFETY: `columns_kernel_avx2` is a safe function whose only
        // requirement is that the CPU supports AVX2 and F16C, which the
        // check above just established for this host.
        return unsafe { columns_kernel_avx2(lanes, columns, sink) };
    }
    columns_kernel_baseline(lanes, columns, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| (crate::splitmix64(seed ^ i as u64) as f32 / u64::MAX as f32) - 0.5)
            .collect()
    }

    #[test]
    fn matches_naive_within_tolerance() {
        // The kernels reassociate relative to a serial fold, so compare
        // against f64 ground truth, not bit-for-bit against f32 serial.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 256, 1000] {
            let a = sample(n, 1);
            let b = sample(n, 2);
            let dot64: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
            let nrm64: f64 = a.iter().map(|x| (*x as f64) * (*x as f64)).sum();
            let l264: f64 = a.iter().zip(&b).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
            let tol = 1e-4 * (n as f64 + 1.0);
            assert!((dot(&a, &b) as f64 - dot64).abs() < tol, "dot n={n}");
            assert!((sq_norm(&a) as f64 - nrm64).abs() < tol, "sq_norm n={n}");
            assert!((l2_sq(&a, &b) as f64 - l264).abs() < tol, "l2_sq n={n}");
        }
    }

    #[test]
    fn fixed_order_is_length_only() {
        // Scoring a row as part of a longer panel sweep or alone must give
        // the same bits: the kernels only ever see one row's slice, so
        // slicing the same data differently upstream cannot change results.
        let a = sample(37, 3);
        let b = sample(37, 4);
        let d1 = dot(&a, &b);
        let d2 = dot(&a.clone(), &b.clone());
        assert_eq!(d1.to_bits(), d2.to_bits());
    }

    #[test]
    fn empty_and_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(sq_norm(&[]), 0.0);
        assert_eq!(l2_sq(&[], &[]), 0.0);
        let z = vec![0.0f32; 19];
        assert_eq!(sq_norm(&z), 0.0);
    }

    #[test]
    fn panel_kernels_match_the_pairwise_definition_bitwise() {
        // Every remainder shape of both tilings: no queries, a lone query,
        // one or two 4×2 groups with one to three queries left over, odd
        // and even counts of 2×2 groups, fewer rows than a tile, ragged
        // row and lane tails — over F32 rows and over F16 rows, which must
        // score as the rows `F16::to_f32` decodes. Each instantiation is
        // asserted by name, so the portable body (and its lane-by-lane
        // widening) is exercised on an AVX2 + F16C host too.
        type Pair = fn(&[f32], &[f32]) -> f32;
        type Kernel = fn(&[&[f32]], Panel<'_>, &mut [f32]);
        type Instantiations = Vec<(&'static str, Kernel)>;
        let mut kernels: [(&str, Pair, Instantiations); 2] = [
            ("dot", dot, vec![("baseline", panel_baseline::<false>), ("dispatched", dot_panel)]),
            (
                "l2_sq",
                l2_sq,
                vec![("baseline", panel_baseline::<true>), ("dispatched", l2_sq_panel)],
            ),
        ];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2_f16c() {
            // SAFETY (both): AVX2 and F16C were detected on this host just
            // above.
            kernels[0].2.push(("avx2+f16c", |q, p, o| unsafe { panel_avx2::<false>(q, p, o) }));
            kernels[1].2.push(("avx2+f16c", |q, p, o| unsafe { panel_avx2::<true>(q, p, o) }));
        }
        for dim in [1usize, 7, 8, 9, 31, 100, 256] {
            for rows in (0..=9).chain([64]) {
                let panel = sample(rows * dim, 11 + dim as u64);
                let half = crate::f16::encode_f16_bytes(&panel);
                let decoded = crate::f16::decode_f16_bytes(&half).expect("whole byte pairs");
                let stored =
                    [("f32", Panel::F32(&panel), &panel), ("f16", Panel::F16(&half), &decoded)];
                for n_queries in 0..=9usize {
                    let queries: Vec<Vec<f32>> =
                        (0..n_queries).map(|q| sample(dim, 1000 + q as u64)).collect();
                    let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                    for (name, pair, panels) in &kernels {
                        for &(rows_as, stored, values) in &stored {
                            let expect: Vec<u32> = queries
                                .iter()
                                .flat_map(|q| {
                                    values.chunks_exact(dim).map(|r| pair(q, r).to_bits())
                                })
                                .collect();
                            for (which, kernel) in panels {
                                let mut out = vec![f32::NAN; n_queries * rows];
                                kernel(&queries, stored, &mut out);
                                let got: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
                                assert_eq!(
                                    got, expect,
                                    "{name} {which} {rows_as} dim={dim} rows={rows} \
                                     queries={n_queries}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_half_widens_as_f16_to_f32_decodes_it() {
        // All 65 536 patterns, eight to a block, through each block
        // widening the tile can take. Compared as bits after one `* 1.0`
        // — the first product any scan takes — because F16C returns a
        // signalling NaN quieted; every other half must match untouched.
        let pairs: Vec<[u8; 2]> = (0..=0xffffu16).map(u16::to_le_bytes).collect();
        let (blocks, tail) = pairs.as_chunks::<LANES>();
        assert!(tail.is_empty());
        type Block = fn(&[[u8; 2]; LANES]) -> [f32; LANES];
        let mut widenings: Vec<(&str, Block)> = vec![("lane by lane", F16Rows::block)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2_f16c() {
            widenings.push(("f16c", F16cRows::block));
        }
        let one = std::hint::black_box(1.0f32);
        for (which, widen) in widenings {
            for (b, block) in blocks.iter().enumerate() {
                for (l, wide) in widen(block).into_iter().enumerate() {
                    let bits = (b * LANES + l) as u16;
                    let expect = F16(bits).to_f32();
                    let signalling = F16(bits).is_nan() && bits & 0x0200 == 0;
                    if !signalling {
                        assert_eq!(wide.to_bits(), expect.to_bits(), "{which} {bits:#06x}");
                    }
                    assert_eq!(
                        (wide * one).to_bits(),
                        (expect * one).to_bits(),
                        "{which} {bits:#06x}, after one product"
                    );
                }
            }
        }
    }

    /// A query with roughly `1 / sparsity` of its elements nonzero, the
    /// zeros alternating `+0.0` and `−0.0`.
    fn sparse_sample(n: usize, seed: u64, sparsity: u64) -> Vec<f32> {
        let mut q = sample(n, seed);
        for (i, x) in q.iter_mut().enumerate() {
            if !crate::splitmix64(seed.wrapping_mul(31) ^ i as u64).is_multiple_of(sparsity) {
                *x = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        q
    }

    #[test]
    fn sparse_terms_are_the_filtered_lanes() {
        // The oracle: each lane's elements in ascending order, filtered to
        // the nonzero ones — NaN is kept, `±0.0` is not.
        for dim in [1usize, 7, 8, 9, 19, 255, 256, 257] {
            let mut queries: Vec<Vec<f32>> =
                [1, 3, 16].iter().map(|&s| sparse_sample(dim, dim as u64 * s, s)).collect();
            queries.push(vec![-0.0; dim]);
            let mut odd = vec![0.0; dim];
            odd[dim - 1] = f32::NAN;
            odd[0] = f32::NEG_INFINITY;
            queries.push(odd);
            let mut sparse = SparseQueries::default();
            let (mut terms, mut ends) = (Vec::new(), Vec::new());
            for query in &queries {
                sparse.push(query);
                for lane in 0..LANES {
                    let lane = (lane..dim).step_by(LANES).map(|i| (i as u32, query[i]));
                    terms.extend(lane.filter(|&(_, x)| x != 0.0));
                    ends.push(terms.len());
                }
            }
            let bits =
                |t: &[(u32, f32)]| t.iter().map(|&(i, x)| (i, x.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&sparse.terms), bits(&terms), "dim={dim}");
            assert_eq!(sparse.ends, ends, "dim={dim}");
        }
    }

    #[test]
    fn column_kernel_matches_dot_bitwise() {
        // Every transposition × kernel instantiation, over F32 and F16
        // rows: ragged lane tails (dims 1–257), every row-group remainder
        // (the passes of eight, four, two and one), and queries from dense
        // to all-zero, with `−0.0` entries and a lone nonzero.
        type Kernel = fn(&SparseQueries, usize, &Columns, &mut dyn FnMut(usize, [f32; LANES]));
        // Every `FnMut(first, dots)` is a sink, a `&mut dyn` one included.
        let mut transposes: Vec<(&str, Transpose)> =
            vec![("baseline", columns_baseline), ("dispatched", columns_dispatch)];
        let mut kernels: Vec<(&str, Kernel)> = vec![
            ("baseline", |s, q, c, mut f| columns_kernel_baseline(s.lanes(q), c, &mut f)),
            ("dispatched", |s, q, c, mut f| dot_columns(s, q, c, &mut f)),
        ];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2_f16c() {
            // SAFETY (both): AVX2 and F16C were detected on this host just
            // above.
            transposes.push(("avx2+f16c", |p, r, d, b| unsafe { columns_avx2(p, r, d, b) }));
            kernels.push(("avx2+f16c", |s, q, c, mut f| unsafe {
                columns_kernel_avx2(s.lanes(q), c, &mut f)
            }));
        }
        for dim in [1usize, 7, 8, 9, 19, 31, 255, 256, 257] {
            let mut queries: Vec<Vec<f32>> = [1, 2, 4, 16, 1_000_000]
                .iter()
                .map(|&s| sparse_sample(dim, dim as u64 + s, s))
                .collect();
            let mut lone = vec![0.0; dim];
            lone[dim / 2] = 0.75;
            queries.extend([vec![-0.0; dim], lone]);
            let mut sparse = SparseQueries::default();
            queries.iter().for_each(|q| sparse.push(q));
            for rows in (0..=17).chain([64]) {
                let panel = sample(rows * dim, 7 + dim as u64);
                let half = crate::f16::encode_f16_bytes(&panel);
                let decoded = crate::f16::decode_f16_bytes(&half).expect("whole byte pairs");
                for (rows_as, stored, values) in
                    [("f32", Panel::F32(&panel), &panel), ("f16", Panel::F16(&half), &decoded)]
                {
                    for &(t_name, transpose) in &transposes {
                        let mut columns = Columns::default();
                        assert!(columns.load_with(stored, rows, transpose));
                        for &(k_name, kernel) in &kernels {
                            for (q, query) in queries.iter().enumerate() {
                                let mut got =
                                    vec![f32::NAN.to_bits(); rows.div_ceil(LANES) * LANES];
                                kernel(&sparse, q, &columns, &mut |first, scores| {
                                    for (g, s) in got[first..first + LANES].iter_mut().zip(scores) {
                                        *g = s.to_bits();
                                    }
                                });
                                let mut expect: Vec<u32> = values
                                    .chunks_exact(dim)
                                    .map(|r| dot(query, r).to_bits())
                                    .collect();
                                expect.resize(got.len(), 0.0f32.to_bits());
                                assert_eq!(
                                    got, expect,
                                    "{t_name} transpose, {k_name} kernel, {rows_as} dim={dim} \
                                     rows={rows} query={q}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn columns_refuse_non_finite_rows() {
        // A zero query element times ±∞ or NaN is NaN, so such a panel
        // must take the dense tile: every instantiation flags it, wherever
        // the element sits (a full lane block or the ragged tail).
        let (dim, rows) = (19, 11);
        let panel = sample(rows * dim, 3);
        let mut transposes: Vec<Transpose> = vec![columns_baseline, columns_dispatch];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2_f16c() {
            // SAFETY: AVX2 and F16C were detected on this host just above.
            transposes.push(|p, r, d, b| unsafe { columns_avx2(p, r, d, b) });
        }
        for transpose in transposes {
            let mut columns = Columns::default();
            assert!(columns.load_with(Panel::F32(&panel), rows, transpose));
            for at in [0, 9, 17, rows * dim - 1] {
                for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let mut panel = panel.clone();
                    panel[at] = bad;
                    let half = crate::f16::encode_f16_bytes(&panel);
                    assert!(
                        !columns.load_with(Panel::F32(&panel), rows, transpose),
                        "{bad} at {at}"
                    );
                    assert!(
                        !columns.load_with(Panel::F16(&half), rows, transpose),
                        "{bad} at {at}"
                    );
                }
                // The largest finite magnitudes stay finite.
                let mut panel = panel.clone();
                panel[at] = f32::MAX;
                assert!(columns.load_with(Panel::F32(&panel), rows, transpose));
                panel[at] = 65504.0;
                let half = crate::f16::encode_f16_bytes(&panel[..]);
                assert!(columns.load_with(Panel::F16(&half), rows, transpose));
            }
        }
    }

    /// The bit-identity tests above assert the 4×2 AVX2 + F16C
    /// instantiation, and the hardware widening, only where the host has
    /// both. On CI a runner without them fails here instead of leaving
    /// that instantiation silently untested.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn ci_runners_have_avx2() {
        if std::env::var_os("CI").is_some() {
            assert!(
                std::is_x86_feature_detected!("avx2"),
                "CI runner lacks AVX2: the 4×2 panel kernel went untested"
            );
            assert!(
                std::is_x86_feature_detected!("f16c"),
                "CI runner lacks F16C: the in-tile F16 widening went untested"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ragged queries")]
    fn panel_kernels_refuse_ragged_queries() {
        let (a, b) = (sample(8, 1), sample(7, 2));
        dot_panel(&[&a, &b], Panel::F32(&sample(16, 3)), &mut [0.0; 4]);
    }

    #[test]
    fn self_dot_equals_sq_norm_bits() {
        // dot(a, a) and sq_norm(a) share the accumulation order, so they
        // agree bit-for-bit — the cached-norms cosine path relies on it.
        for n in [5usize, 8, 23, 128, 257] {
            let a = sample(n, 9);
            assert_eq!(dot(&a, &a).to_bits(), sq_norm(&a).to_bits(), "n={n}");
        }
    }
}
