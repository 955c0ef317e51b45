//! What the `repro` binary computes — argument parsing ([`cli`]), the
//! retrieval-quality tables ([`recall`]), the incremental-vs-cold verdict
//! ([`ingest`]), the model-ledger census ([`models`]), the ablation series
//! ([`ablate`]) — as functions returning typed rows, plus the fixtures the
//! criterion benches share. Nothing here reads a clock or writes a file:
//! speed is measured by `perfbench/`.

pub mod ablate;
pub mod cli;
pub mod ingest;
pub mod models;
pub mod recall;

use mcqa_core::{Pipeline, PipelineConfig, PipelineOutput};

/// Scale of the shared test fixture (kept small so the row tests finish
/// quickly; the `repro` binary takes `--scale` for real runs).
pub const BENCH_SCALE: f64 = 0.01;

/// Build (once per process) a small pipeline output for the row tests.
pub fn bench_output() -> &'static PipelineOutput {
    static OUT: std::sync::OnceLock<PipelineOutput> = std::sync::OnceLock::new();
    OUT.get_or_init(|| Pipeline::run(&PipelineConfig::at_scale(BENCH_SCALE, 42)))
}

/// Sample prose for text-stage benches.
pub fn sample_prose(repeats: usize) -> String {
    let base = "Ionising radiation produces clustered lesions in tumour DNA. \
                Damage sensing kinases phosphorylate chromatin-bound substrates. \
                Repair pathway choice depends on cell-cycle phase and chromatin state. \
                Fractionated schedules exploit differential repair between tissues. \
                Hypoxic cores exhibit pronounced radioresistance through oxygen fixation. ";
    base.repeat(repeats)
}

/// Deterministic unit vectors for index benches.
pub fn random_unit_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let ks = mcqa_util::KeyedStochastic::new(seed);
    (0..n)
        .map(|i| {
            let mut v: Vec<f32> = (0..dim)
                .map(|j| ks.gaussian(&["v", &i.to_string(), &j.to_string()]) as f32)
                .collect();
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            v
        })
        .collect()
}

/// Deterministic *clustered* unit vectors for the quantized-index benches:
/// point `i` sits near centre `i * centres / n` (a sparse ±1 direction
/// pattern keyed off the centre id) with gaussian jitter `noise`, then
/// gets normalised. Clustered data is what coarse quantisers are built
/// for — uniform random vectors have no list structure to exploit, so
/// recall and crossover numbers on them say nothing about the deployed
/// regime. Cluster membership runs in contiguous id blocks, the way
/// chunked documents land in a real ingest (sequential chunk ids, one
/// topic per document) — which is also what the inverted lists'
/// delta-varint id compression is shaped for.
pub fn clustered_unit_vectors(
    n: usize,
    centres: usize,
    dim: usize,
    noise: f64,
    seed: u64,
) -> Vec<Vec<f32>> {
    let ks = mcqa_util::KeyedStochastic::new(seed);
    let centre_dirs: Vec<Vec<f32>> = (0..centres)
        .map(|c| {
            (0..dim)
                .map(|j| {
                    // ~1/4 of the dims are "hot" per centre, sign varied,
                    // so centres are well separated but not axis-aligned.
                    let r = ks.uniform(&["centre", &c.to_string(), &j.to_string()]);
                    if r < 0.125 {
                        1.0
                    } else if r < 0.25 {
                        -1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            let base = &centre_dirs[(i * centres / n).min(centres - 1)];
            let mut v: Vec<f32> = (0..dim)
                .map(|j| {
                    base[j] + (noise * ks.gaussian(&["p", &i.to_string(), &j.to_string()])) as f32
                })
                .collect();
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm.max(1e-12));
            v
        })
        .collect()
}

/// A clustered corpus with *planted* near-neighbour families, plus the
/// queries that own them: each query is a clustered unit vector and the
/// corpus contains `dups_per_query` jittered copies of it (jitter
/// `dup_noise`, applied on the unit sphere) among `n` background points
/// drawn from the same `centres` cluster structure.
///
/// This is the standard way to make ANN ground truth well-conditioned:
/// recall@k against an isotropic blob is meaningless — every point in a
/// dense cluster is an ε-perturbation away from swapping ranks, so *any*
/// lossy representation (PQ codes, but also F16 rounding) scores poorly
/// against it. Retrieval corpora are not isotropic: chunked documents
/// carry families of near-duplicate passages, and the planted families
/// reproduce that regime with exact knowledge of the true neighbours.
#[allow(clippy::too_many_arguments)] // bench fixture: the knobs *are* the API
pub fn planted_corpus(
    n: usize,
    centres: usize,
    n_queries: usize,
    dups_per_query: usize,
    noise: f64,
    dup_noise: f64,
    dim: usize,
    seed: u64,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let planted = n_queries * dups_per_query;
    assert!(planted < n, "corpus must be larger than the planted families");
    let queries = clustered_unit_vectors(n_queries, centres, dim, noise, seed ^ 0x9E37);
    let mut corpus = clustered_unit_vectors(n - planted, centres, dim, noise, seed);
    let ks = mcqa_util::KeyedStochastic::new(seed ^ 0xD0C5);
    for (qi, q) in queries.iter().enumerate() {
        for d in 0..dups_per_query {
            let mut v: Vec<f32> = q
                .iter()
                .enumerate()
                .map(|(j, &x)| {
                    let g = ks.gaussian(&["dup", &qi.to_string(), &d.to_string(), &j.to_string()]);
                    x + (dup_noise * g) as f32
                })
                .collect();
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm.max(1e-12));
            corpus.push(v);
        }
    }
    (corpus, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_work() {
        let prose = sample_prose(2);
        assert!(mcqa_text::token_count(&prose) > 50);
        let vecs = random_unit_vectors(4, 16, 1);
        assert_eq!(vecs.len(), 4);
        for v in vecs {
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
        let clustered = clustered_unit_vectors(8, 2, 16, 0.1, 3);
        assert_eq!(clustered.len(), 8);
        for v in &clustered {
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
        // Membership runs in id blocks: 0..4 share a centre, 4..8 the
        // other. Same-cluster points must look more alike than
        // cross-cluster ones.
        let same = mcqa_util::kernel::dot(&clustered[0], &clustered[2]);
        let cross = mcqa_util::kernel::dot(&clustered[0], &clustered[5]);
        assert!(same > cross, "cluster structure present: {same} vs {cross}");
    }
}
