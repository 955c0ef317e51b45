//! Fixed-order scoring kernels shared by the vector stores and the
//! embedding matrix: the per-pair definitions ([`dot`], [`sq_norm`],
//! [`l2_sq`]) and the register-blocked panel kernels ([`dot_panel`],
//! [`l2_sq_panel`]) every store's scan runs on.
//!
//! Exact retrieval is a dense dot-product sweep: at paper scale every query
//! visits every stored row, so the per-element loop *is* the hot path. The
//! per-pair kernels split the reduction across [`LANES`] accumulators over
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
//! over the tile shape, written once and compiled twice: for the build's
//! baseline target in 2×2 tiles (queries × rows; the widest that fits
//! SSE2's sixteen 128-bit registers), and under
//! `#[target_feature(enable = "avx2")]` in 4×2 tiles (eight 256-bit
//! accumulators; ≈ 6 % more multiply-adds per cycle than 2×2 L1-hot, 13 %
//! off the real scan — `AVX2_TILE_QUERIES` records the measured shapes),
//! selected per call by `is_x86_feature_detected!`. The tile shape only
//! changes which pairs advance together, never a pair's own operations.
//!
//! Determinism contract: every kernel accumulates in a fixed order that
//! depends only on the slice length — never on block boundaries, tile
//! shapes, worker counts, call sites or the host's instruction set. Within a
//! tile each pair sees exactly the operations [`dot`] / [`l2_sq`] perform,
//! in the same order (element `i` into lane `i % LANES`, the ragged tail
//! lane by lane from lane 0, one fixed reduction tree), and the arithmetic
//! is a plain multiply then add — never a fused multiply-add — so both
//! instantiations agree with the per-pair definition bit for bit. That is
//! what makes blocked/batched search in `mcqa-index` bit-identical to its
//! per-row `Metric::score` oracle.

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
/// query blocks and two row blocks. Measured at dim 256 on a 64-row
/// panel, L1-hot:
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
/// once-per-row norm roots.
const AVX2_TILE_QUERIES: usize = 4;
/// Panel rows per tile under AVX2 (see [`AVX2_TILE_QUERIES`]).
const AVX2_TILE_ROWS: usize = 2;
/// Panel rows per tile for a lone query — one the tile's query count
/// leaves over: the same four chains as a 2×2 tile, with nothing to reuse
/// across queries.
const LONE_TILE_ROWS: usize = 4;

/// One accumulator per (query, row) pair: eight lanes, aligned so the
/// autovectorizer keeps it in one 256-bit (or two 128-bit) registers.
#[derive(Clone, Copy)]
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

    /// The ragged tail continues lane by lane from lane 0.
    #[inline(always)]
    fn add_tail<const L2: bool>(&mut self, x: &[f32], y: &[f32]) {
        for (acc, (x, y)) in self.0.iter_mut().zip(x.iter().zip(y)) {
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
fn split<const N: usize>(
    vectors: [&[f32]; N],
    blocks: usize,
) -> ([&[[f32; LANES]]; N], [&[f32]; N]) {
    let (mut full, mut tails) = ([[].as_slice(); N], [[].as_slice(); N]);
    for i in 0..N {
        let (blocks_of, tail) = vectors[i].as_chunks::<LANES>();
        (full[i], tails[i]) = (&blocks_of[..blocks], tail);
    }
    (full, tails)
}

/// Score a `Q × R` tile: `out[q * stride + r]` is the `dot` (or, with
/// `L2`, the `l2_sq`) of `queries[q]` and `rows[r]`, every slice of one
/// common length. The `Q · R` accumulators advance block by block in
/// lockstep, which is the whole point — the loop carries `Q · R`
/// independent add chains instead of one.
///
/// Index loops throughout: whether this body vectorises hangs on the exact
/// shape LLVM is handed (see [`Lanes::add_block`]), and these are the
/// loops that were measured.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn tile<const L2: bool, const Q: usize, const R: usize>(
    queries: [&[f32]; Q],
    rows: [&[f32]; R],
    out: &mut [f32],
    stride: usize,
) {
    let blocks = queries[0].len() / LANES;
    let (query_blocks, query_tails) = split(queries, blocks);
    let (row_blocks, row_tails) = split(rows, blocks);
    let mut acc = [[Lanes([0.0; LANES]); R]; Q];
    for b in 0..blocks {
        for q in 0..Q {
            for r in 0..R {
                acc[q][r].add_block::<L2>(&query_blocks[q][b], &row_blocks[r][b]);
            }
        }
    }
    for q in 0..Q {
        for r in 0..R {
            acc[q][r].add_tail::<L2>(query_tails[q], row_tails[r]);
            out[q * stride + r] = reduce(acc[q][r].0);
        }
    }
}

/// Sweep `Q` queries down a whole panel in tiles of `R` rows, then row by
/// row over what is left.
#[inline(always)]
fn sweep<const L2: bool, const Q: usize, const R: usize>(
    queries: [&[f32]; Q],
    panel: &[f32],
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
        tile::<L2, Q, R>(queries, tile_rows, &mut out[r..], rows);
        r += R;
    }
    while r < rows {
        tile::<L2, Q, 1>(queries, [row(r)], &mut out[r..], rows);
        r += 1;
    }
}

/// The panel kernel body: `out[q * rows + r]` for every query and every
/// row of `panel`, queries taken `Q` at a time down tiles of `R` rows, and
/// the `< Q` left over each alone. `#[inline(always)]` so each
/// instantiation below compiles its own copy, with its own tile shape,
/// under its own target features.
#[inline(always)]
fn panel_body<const L2: bool, const Q: usize, const R: usize>(
    queries: &[&[f32]],
    panel: &[f32],
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
        sweep::<L2, Q, R>(group, panel, &mut out[q * rows..], rows);
        q += Q;
    }
    for &lone in groups.remainder() {
        sweep::<L2, 1, LONE_TILE_ROWS>([lone], panel, &mut out[q * rows..], rows);
        q += 1;
    }
}

/// [`panel_body`] compiled for the build's baseline target features, in
/// 2×2 tiles.
fn panel_baseline<const L2: bool>(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
    panel_body::<L2, BASELINE_TILE_QUERIES, BASELINE_TILE_ROWS>(queries, panel, out)
}

/// [`panel_body`] compiled with 256-bit registers, in 4×2 tiles: every
/// pair sees the same operations in the same order, with twice as many
/// lanes per instruction and twice as many chains per tile.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn panel_avx2<const L2: bool>(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
    panel_body::<L2, AVX2_TILE_QUERIES, AVX2_TILE_ROWS>(queries, panel, out)
}

/// Run the widest instantiation of the panel kernel the host supports.
#[inline]
fn panel_dispatch<const L2: bool>(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `panel_avx2` is a safe function whose only requirement
        // is that the CPU supports AVX2, which the check above just
        // established for this host.
        return unsafe { panel_avx2::<L2>(queries, panel, out) };
    }
    panel_baseline::<L2>(queries, panel, out)
}

/// [`dot`] of every query with every row of a dense row-major `panel`:
/// `out[q * rows + r] = dot(queries[q], row r)`, bit for bit, where
/// `rows = out.len() / queries.len()` and `panel.len() == rows * dim`.
/// Panics on ragged queries or mismatched lengths.
pub fn dot_panel(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
    panel_dispatch::<false>(queries, panel, out)
}

/// [`l2_sq`] of every query with every row of `panel`, laid out and
/// checked as in [`dot_panel`].
pub fn l2_sq_panel(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
    panel_dispatch::<true>(queries, panel, out)
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
        // row and lane tails. Each instantiation is asserted by name, so
        // the portable body is exercised on an AVX2 host too.
        type Pair = fn(&[f32], &[f32]) -> f32;
        type Panel = fn(&[&[f32]], &[f32], &mut [f32]);
        type Instantiations = Vec<(&'static str, Panel)>;
        let mut kernels: [(&str, Pair, Instantiations); 2] = [
            ("dot", dot, vec![("baseline", panel_baseline::<false>), ("dispatched", dot_panel)]),
            (
                "l2_sq",
                l2_sq,
                vec![("baseline", panel_baseline::<true>), ("dispatched", l2_sq_panel)],
            ),
        ];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY (both): AVX2 was detected on this host just above.
            kernels[0].2.push(("avx2", |q, p, o| unsafe { panel_avx2::<false>(q, p, o) }));
            kernels[1].2.push(("avx2", |q, p, o| unsafe { panel_avx2::<true>(q, p, o) }));
        }
        for dim in [1usize, 7, 8, 9, 31, 100, 256] {
            for rows in (0..=9).chain([64]) {
                let panel = sample(rows * dim, 11 + dim as u64);
                for n_queries in 0..=9usize {
                    let queries: Vec<Vec<f32>> =
                        (0..n_queries).map(|q| sample(dim, 1000 + q as u64)).collect();
                    let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                    for (name, pair, panels) in &kernels {
                        let expect: Vec<u32> = queries
                            .iter()
                            .flat_map(|q| panel.chunks_exact(dim).map(|r| pair(q, r).to_bits()))
                            .collect();
                        for (which, kernel) in panels {
                            let mut out = vec![f32::NAN; n_queries * rows];
                            kernel(&queries, &panel, &mut out);
                            let got: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
                            assert_eq!(
                                got, expect,
                                "{name} {which} dim={dim} rows={rows} queries={n_queries}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The bit-identity test above asserts the 4×2 AVX2 instantiation only
    /// where the host has AVX2. On CI a runner without it fails here
    /// instead of leaving that instantiation silently untested.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn ci_runners_have_avx2() {
        if std::env::var_os("CI").is_some() {
            assert!(
                std::is_x86_feature_detected!("avx2"),
                "CI runner lacks AVX2: the 4×2 panel kernel went untested"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ragged queries")]
    fn panel_kernels_refuse_ragged_queries() {
        let (a, b) = (sample(8, 1), sample(7, 2));
        dot_panel(&[&a, &b], &sample(16, 3), &mut [0.0; 4]);
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
