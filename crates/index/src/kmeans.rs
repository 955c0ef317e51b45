//! Shared k-means trainer: k-means++ seeding plus Lloyd iterations fanned
//! out over the runtime pool.
//!
//! The inverted-list store ([`crate::ListStore`], i.e. both
//! [`crate::IvfIndex`] and [`crate::PqIndex`]) trains through this
//! module, and the module is private to the crate, so there is exactly
//! one caller and no second trainer to drift from. Seeding is k-means++ (D² sampling): each new
//! centre is drawn with probability proportional to its squared L2
//! distance to the nearest centre chosen so far, which bounds the expected
//! quantisation error within O(log k) of optimal (Arthur & Vassilvitskii
//! 2007). The naive uniform sampling it replaces has no such bound and
//! routinely seeds two centres inside one cluster, leaving another cluster
//! split across lists — directly visible as lost recall at fixed `nprobe`.
//!
//! Determinism: every random draw is keyed through [`KeyedStochastic`] (a
//! pure function of seed and key path), the parallel distance updates and
//! Lloyd assignments return input-ordered results from
//! [`run_stage_batched`], and accumulation happens serially in index
//! order — so the trained centroids are bit-identical at any worker count.

use mcqa_runtime::{run_stage_batched, Executor};
use mcqa_util::{kernel, KeyedStochastic};

use crate::metric::Metric;

/// Index of the centroid most similar to `v` under `metric` (argmax of
/// [`Metric::score`], ties to the lowest index). Panics on an empty
/// centroid set.
#[inline]
pub(crate) fn nearest(metric: Metric, centroids: &[Vec<f32>], v: &[f32]) -> usize {
    assert!(!centroids.is_empty(), "nearest() over no centroids");
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let s = metric.score(v, c);
        if s > best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

/// Train `k` centroids over `training` with k-means++ seeding and `iters`
/// Lloyd iterations, deterministically under `seed`.
///
/// `k` is clamped to `[1, training.len()]` (fewer training vectors than
/// requested centres shrinks the codebook, matching the IVF contract).
/// Seeding distances are squared L2 regardless of `metric` — for the
/// (near-)unit vectors every caller trains on, L2 and cosine order
/// neighbours identically — while Lloyd assignment uses `metric` itself,
/// so centroids settle under the same similarity that search will use.
/// Empty clusters keep their previous position. Panics on an empty sample
/// or mismatched vector dimensions.
pub(crate) fn train_centroids(
    exec: &Executor,
    metric: Metric,
    training: &[Vec<f32>],
    k: usize,
    iters: usize,
    seed: u64,
) -> Vec<Vec<f32>> {
    assert!(!training.is_empty(), "cannot train on an empty sample");
    let dim = training[0].len();
    for t in training {
        assert_eq!(t.len(), dim, "training vector dimension mismatch");
    }
    let k = k.clamp(1, training.len());
    let rng = KeyedStochastic::new(seed);

    // k-means++ seeding: the first centre uniformly, each subsequent one
    // D²-weighted. `d2` holds every point's squared distance to its
    // nearest chosen centre and is min-updated against only the newest
    // centre per round (the classic O(n·k) incremental form).
    let first = rng.below(training.len(), &["kpp", "0"]);
    let mut centroids: Vec<Vec<f32>> = vec![training[first].clone()];
    let mut d2: Vec<f64> = vec![f64::INFINITY; training.len()];
    for pick in 1..k {
        let newest = centroids.last().expect("seeded above").clone();
        let (updates, _) =
            run_stage_batched(exec, "kmeans-seed", (0..training.len()).collect(), |i| {
                Ok::<_, String>(d2[i].min(f64::from(kernel::l2_sq(&training[i], &newest))))
            });
        for (slot, u) in d2.iter_mut().zip(updates) {
            *slot = u.expect("distance cannot fail");
        }
        let total: f64 = d2.iter().sum();
        let idx = if total > 0.0 {
            // Prefix walk over the weights; the rposition fallback covers
            // the floating-point edge where rounding leaves the target
            // just past the final prefix sum.
            let target = rng.uniform(&["kpp", &pick.to_string()]) * total;
            let mut acc = 0.0f64;
            d2.iter()
                .position(|&w| {
                    acc += w;
                    acc > target
                })
                .or_else(|| d2.iter().rposition(|&w| w > 0.0))
                .expect("total > 0 implies a positive weight")
        } else {
            // Every point coincides with a chosen centre; any pick is a
            // duplicate, so a keyed draw keeps the codebook size stable
            // and the build deterministic.
            rng.below(training.len(), &["kpp-dup", &pick.to_string()])
        };
        centroids.push(training[idx].clone());
    }

    // Lloyd: parallel assignment, then a serial accumulation pass in
    // input order (f64 sums, so the mean is order-robust *and* the order
    // is fixed anyway — bit-identical at any worker count).
    for _iter in 0..iters {
        let (assigned, _) =
            run_stage_batched(exec, "kmeans-assign", (0..training.len()).collect(), |i| {
                Ok::<_, String>(nearest(metric, &centroids, &training[i]))
            });
        let mut sums: Vec<f64> = vec![0.0; k * dim];
        let mut counts = vec![0usize; k];
        for (v, c) in training.iter().zip(assigned) {
            let c = c.expect("assignment cannot fail");
            counts[c] += 1;
            for (s, x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(v) {
                *s += f64::from(*x);
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if counts[c] == 0 {
                continue; // keep the old position for empty clusters
            }
            for (ci, s) in centroid.iter_mut().zip(&sums[c * dim..]) {
                *ci = (*s / counts[c] as f64) as f32;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` points around `centres` well-separated one-hot directions.
    fn clustered(n: usize, centres: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let rng = KeyedStochastic::new(seed);
        (0..n)
            .map(|i| {
                let c = i % centres;
                let mut v: Vec<f32> = (0..dim)
                    .map(|j| {
                        let base = if j == c { 1.0 } else { 0.0 };
                        base + 0.05 * rng.gaussian(&["g", &i.to_string(), &j.to_string()]) as f32
                    })
                    .collect();
                let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect()
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let data = clustered(300, 6, 16, 11);
        let base = train_centroids(&Executor::new(1), Metric::Cosine, &data, 6, 4, 7);
        for workers in [2, 4] {
            let got = train_centroids(&Executor::new(workers), Metric::Cosine, &data, 6, 4, 7);
            assert_eq!(got, base, "workers={workers}");
        }
    }

    /// Sum of squared distances to the nearest centroid — the k-means
    /// objective the seeding bounds.
    fn quantisation_error(data: &[Vec<f32>], cents: &[Vec<f32>]) -> f64 {
        data.iter()
            .map(|v| f64::from(kernel::l2_sq(v, &cents[nearest(Metric::L2, cents, v)])))
            .sum()
    }

    #[test]
    fn seeding_nearly_covers_clusters_and_beats_uniform() {
        // With k == the number of true clusters, D² seeding lands at most
        // one duplicate centre (cluster id = argmax coordinate) and a
        // lower quantisation error than the uniform permutation seeding it
        // replaced, on every tested seed. (Full coverage per run is not a
        // D²-sampling guarantee — within-cluster mass keeps a small
        // duplicate probability — but near-coverage and the error ordering
        // are stable.)
        let centres = 8;
        let data = clustered(400, centres, 16, 3);
        let exec = Executor::global();
        for seed in 0..5u64 {
            let cents = train_centroids(exec, Metric::Cosine, &data, centres, 0, seed);
            let mut hit = vec![false; centres];
            for c in &cents {
                let arg = c
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap();
                hit[arg] = true;
            }
            let covered = hit.iter().filter(|&&h| h).count();
            assert!(covered >= centres - 1, "seed {seed}: covered {covered}/{centres} clusters");
            // The replaced seeding: uniform distinct picks via a keyed
            // permutation (what IvfIndex::train used to do).
            let perm = KeyedStochastic::new(seed).permutation(data.len(), &["init"]);
            let uniform: Vec<Vec<f32>> = perm[..centres].iter().map(|&i| data[i].clone()).collect();
            let (kpp_err, uni_err) =
                (quantisation_error(&data, &cents), quantisation_error(&data, &uniform));
            assert!(kpp_err <= uni_err, "seed {seed}: k-means++ {kpp_err} vs uniform {uni_err}");
        }
    }

    #[test]
    fn lloyd_reduces_quantisation_error() {
        let data = clustered(240, 4, 12, 5);
        let exec = Executor::global();
        let err = |cents: &[Vec<f32>]| -> f64 {
            data.iter()
                .map(|v| f64::from(kernel::l2_sq(v, &cents[nearest(Metric::L2, cents, v)])))
                .sum()
        };
        let seeded = train_centroids(exec, Metric::L2, &data, 4, 0, 9);
        let iterated = train_centroids(exec, Metric::L2, &data, 4, 6, 9);
        assert!(err(&iterated) <= err(&seeded), "Lloyd must not worsen the seeding");
    }

    #[test]
    fn k_clamps_to_sample_size() {
        let data = clustered(3, 3, 8, 1);
        let cents = train_centroids(Executor::global(), Metric::Cosine, &data, 64, 2, 1);
        assert_eq!(cents.len(), 3);
        let one = train_centroids(Executor::global(), Metric::Cosine, &data, 0, 2, 1);
        assert_eq!(one.len(), 1, "k=0 clamps up to a single centroid");
    }

    #[test]
    fn duplicate_points_keep_codebook_size() {
        let data = vec![vec![1.0f32, 0.0, 0.0, 0.0]; 5];
        let cents = train_centroids(Executor::global(), Metric::Cosine, &data, 3, 2, 2);
        assert_eq!(cents.len(), 3, "duplicates must not shrink the codebook");
        for c in &cents {
            assert_eq!(c, &data[0]);
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        train_centroids(Executor::global(), Metric::Cosine, &[], 4, 2, 0);
    }
}
