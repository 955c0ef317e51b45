//! HNSW: hierarchical navigable small-world graph.
//!
//! The standard high-recall ANN index (Malkov & Yashunin 2016): vectors are
//! inserted into a layered proximity graph; search descends greedily
//! through the sparse upper layers and runs a beam search (`ef`) on the
//! bottom layer. Deterministic: level draws are keyed on the external id.
//!
//! # Mutation semantics
//!
//! [`VectorStore::remove`] tombstones nodes: they stay in the graph as
//! routing waypoints (removing them would tear the small-world structure)
//! but are filtered from results, with the beam width bumped by the
//! tombstone count so up to `k` live hits still surface.
//! [`VectorStore::compact`] — and serialisation, whose wire format is
//! always tombstone-free — **rebuilds the graph** from the live rows in
//! insertion order. Unlike flat/IVF/PQ, the rebuilt graph is *not*
//! bit-identical to one built without the removed rows ever present:
//! HNSW edges depend on insertion history. This is the documented
//! exception to the mutation surface's rebuild-equivalence contract
//! (see [`VectorStore::upsert`]); recall properties are unaffected.

use mcqa_runtime::Executor;
use mcqa_util::KeyedStochastic;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::codec::{decode_metric, encode_metric, put_f32s, put_u32, put_u64, Reader};
use crate::metric::Metric;
use crate::spec::StoreHeader;
use crate::tombstones::Tombstones;
use crate::{sort_hits, SearchResult, VectorStore};

/// HNSW parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max neighbours per node per layer (bottom layer gets `2 * m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search.
    pub ef_search: usize,
    /// Seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    /// Denser than the textbook m=16/ef=64: the pipeline's hash-encoded
    /// embeddings have flat similarity profiles, so holding recall@5 ≥ 0.9
    /// against the flat baseline at the 18.9k-vector scale-0.1 corpus
    /// takes a denser graph and wider beam (measured by `repro recall`:
    /// 0.936 recall at ~8× the exact scan's query throughput). Sharply
    /// clustered data can drop these substantially.
    fn default() -> Self {
        Self { m: 24, ef_construction: 150, ef_search: 256, seed: 42 }
    }
}

struct Node {
    id: u64,
    vector: Vec<f32>,
    /// Neighbour lists per layer (index 0 = bottom).
    neighbours: Vec<Vec<usize>>,
}

/// The HNSW index.
pub struct HnswIndex {
    config: HnswConfig,
    dim: usize,
    metric: Metric,
    nodes: Vec<Node>,
    /// Per-node tombstones, parallel to `nodes`.
    dead: Tombstones,
    entry: Option<usize>,
    max_layer: usize,
}

/// Max-heap entry ordered by score.
#[derive(PartialEq)]
struct Scored {
    score: f32,
    node: usize,
}

impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl HnswIndex {
    /// Magic tag opening the serialised format.
    pub(crate) const MAGIC: &'static [u8; 4] = b"HNSW";

    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric, config: HnswConfig) -> Self {
        assert!(config.m >= 2);
        assert!(config.ef_construction >= config.m);
        assert!(config.ef_search >= 1);
        Self {
            config,
            dim,
            metric,
            nodes: Vec::new(),
            dead: Tombstones::default(),
            entry: None,
            max_layer: 0,
        }
    }

    /// Build a fresh graph from the live nodes in insertion order — the
    /// compaction (and serialisation) path; see the module docs for why
    /// HNSW rebuilds rather than rewriting in place.
    fn rebuild_live(&self) -> Self {
        let mut out = Self::new(self.dim, self.metric, self.config.clone());
        for (node, &dead) in self.nodes.iter().zip(self.dead.flags()) {
            if !dead {
                out.add(node.id, &node.vector);
            }
        }
        out
    }

    /// Deserialise from [`VectorStore::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let (metric, dim, config, n) = Self::read_prefix(&mut r)?;
        if config.m < 2 || config.ef_construction < config.m || config.ef_search == 0 {
            return None;
        }
        let entry_raw = r.u32()?;
        let entry = if entry_raw == u32::MAX {
            None
        } else {
            ((entry_raw as usize) < n).then_some(entry_raw as usize)?;
            Some(entry_raw as usize)
        };
        if entry.is_none() != (n == 0) {
            return None;
        }
        let max_layer = r.u32()? as usize;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u64()?;
            let vector = r.f32_vec(dim)?;
            let layers = r.count(4)?;
            let neighbours: Vec<Vec<usize>> = (0..layers)
                .map(|_| {
                    let len = r.count(4)?;
                    (0..len)
                        .map(|_| {
                            let idx = r.u32()? as usize;
                            (idx < n).then_some(idx)
                        })
                        .collect::<Option<Vec<usize>>>()
                })
                .collect::<Option<_>>()?;
            nodes.push(Node { id, vector, neighbours });
        }
        // Structural invariants the beam search relies on — a blob that
        // violates them must be rejected here, not panic mid-traversal:
        // every node participates in layer 0, an edge at layer `l` only
        // points at a node that has layer `l`, and `max_layer` matches the
        // tallest node.
        if nodes.iter().any(|node| node.neighbours.is_empty()) {
            return None;
        }
        for node in &nodes {
            for (l, edges) in node.neighbours.iter().enumerate() {
                if edges.iter().any(|&nb| nodes[nb].neighbours.len() <= l) {
                    return None;
                }
            }
        }
        let tallest = nodes.iter().map(|node| node.neighbours.len()).max().unwrap_or(0);
        if n > 0 && max_layer + 1 != tallest {
            return None;
        }
        r.exhausted().then_some(Self {
            config,
            dim,
            metric,
            dead: Tombstones::all_live(nodes.len()),
            nodes,
            entry,
            max_layer,
        })
    }

    /// Magic tag, metric, dimensionality, config and node count:
    /// everything ahead of the graph.
    fn read_prefix(r: &mut Reader<'_>) -> Option<(Metric, usize, HnswConfig, usize)> {
        r.expect_magic(Self::MAGIC)?;
        let metric = decode_metric(r.u8()?)?;
        let dim = r.u32()? as usize;
        let config = HnswConfig {
            m: r.u32()? as usize,
            ef_construction: r.u32()? as usize,
            ef_search: r.u32()? as usize,
            seed: r.u64()?,
        };
        let n = r.count(8 + dim * 4)?;
        Some((metric, dim, config, n))
    }

    /// The header facts of [`VectorStore::to_bytes`] output, read without
    /// decoding a node.
    pub(crate) fn peek_header(bytes: &[u8]) -> Option<StoreHeader> {
        let (metric, dim, _, len) = Self::read_prefix(&mut Reader::new(bytes))?;
        Some(StoreHeader { backend: "hnsw", metric, dim, len, needs_training: false })
    }

    /// Geometric level draw, deterministic per id.
    fn draw_level(&self, id: u64) -> usize {
        let rng = KeyedStochastic::new(self.config.seed ^ 0x4E5_107);
        let u = rng.uniform(&["level", &id.to_string()]).max(1e-12);
        let ml = 1.0 / (self.config.m as f64).ln();
        (-(u.ln()) * ml).floor() as usize
    }

    /// Beam search on one layer starting from `entries`; returns up to `ef`
    /// best (score, node) pairs, best-first.
    fn search_layer(
        &self,
        query: &[f32],
        entries: &[usize],
        ef: usize,
        layer: usize,
    ) -> Vec<Scored> {
        let mut visited: std::collections::HashSet<usize> = entries.iter().copied().collect();
        let mut candidates: BinaryHeap<Scored> = BinaryHeap::new(); // max-heap by score
                                                                    // Result set as a min-heap via Reverse.
        let mut results: BinaryHeap<std::cmp::Reverse<Scored>> = BinaryHeap::new();

        for &e in entries {
            let s = self.metric.score(query, &self.nodes[e].vector);
            candidates.push(Scored { score: s, node: e });
            results.push(std::cmp::Reverse(Scored { score: s, node: e }));
        }
        while results.len() > ef {
            results.pop();
        }

        while let Some(best) = candidates.pop() {
            let worst_kept = results.peek().map(|r| r.0.score).unwrap_or(f32::NEG_INFINITY);
            if results.len() >= ef && best.score < worst_kept {
                break;
            }
            for &n in &self.nodes[best.node].neighbours[layer] {
                if !visited.insert(n) {
                    continue;
                }
                let s = self.metric.score(query, &self.nodes[n].vector);
                let worst = results.peek().map(|r| r.0.score).unwrap_or(f32::NEG_INFINITY);
                if results.len() < ef || s > worst {
                    candidates.push(Scored { score: s, node: n });
                    results.push(std::cmp::Reverse(Scored { score: s, node: n }));
                    while results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<Scored> = results.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }

    /// Select the best `m` neighbours from candidates (simple heuristic:
    /// highest scores win; deterministic tie-break on node index).
    fn select_neighbours(mut cands: Vec<Scored>, m: usize) -> Vec<usize> {
        cands.sort_by(|a, b| b.cmp(a));
        cands.truncate(m);
        cands.into_iter().map(|s| s.node).collect()
    }

    fn max_neighbours(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Prune a node's neighbour list down to capacity, keeping the closest.
    fn prune(&mut self, node: usize, layer: usize) {
        let cap = self.max_neighbours(layer);
        if self.nodes[node].neighbours[layer].len() <= cap {
            return;
        }
        let v = self.nodes[node].vector.clone();
        let mut scored: Vec<Scored> = self.nodes[node].neighbours[layer]
            .iter()
            .map(|&n| Scored { score: self.metric.score(&v, &self.nodes[n].vector), node: n })
            .collect();
        scored.sort_by(|a, b| b.cmp(a));
        scored.truncate(cap);
        self.nodes[node].neighbours[layer] = scored.into_iter().map(|s| s.node).collect();
    }
}

impl VectorStore for HnswIndex {
    fn add(&mut self, id: u64, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let level = self.draw_level(id);
        let new_idx = self.nodes.len();
        self.nodes.push(Node {
            id,
            vector: vector.to_vec(),
            neighbours: vec![Vec::new(); level + 1],
        });
        self.dead.grow_to(self.nodes.len());

        let Some(mut entry) = self.entry else {
            self.entry = Some(new_idx);
            self.max_layer = level;
            return;
        };

        // Greedy descent through layers above `level`.
        let mut layer = self.max_layer;
        while layer > level {
            let found = self.search_layer(
                vector,
                &[entry],
                1,
                layer.min(self.nodes[entry].neighbours.len() - 1),
            );
            if let Some(best) = found.first() {
                entry = best.node;
            }
            if layer == 0 {
                break;
            }
            layer -= 1;
        }

        // Insert from min(level, max_layer) down to 0.
        let mut entries = vec![entry];
        let top = level.min(self.max_layer);
        for l in (0..=top).rev() {
            // Restrict entries to nodes that exist on layer l.
            let eff_entries: Vec<usize> =
                entries.iter().copied().filter(|&n| self.nodes[n].neighbours.len() > l).collect();
            let eff_entries = if eff_entries.is_empty() { vec![entry] } else { eff_entries };
            let found = self.search_layer(vector, &eff_entries, self.config.ef_construction, l);
            let neighbours = Self::select_neighbours(
                found.iter().map(|s| Scored { score: s.score, node: s.node }).collect(),
                self.max_neighbours(l),
            );
            for &n in &neighbours {
                if n == new_idx {
                    continue;
                }
                self.nodes[new_idx].neighbours[l].push(n);
                if self.nodes[n].neighbours.len() > l {
                    self.nodes[n].neighbours[l].push(new_idx);
                    self.prune(n, l);
                }
            }
            entries = neighbours;
            if entries.is_empty() {
                entries = vec![entry];
            }
        }

        if level > self.max_layer {
            self.max_layer = level;
            self.entry = Some(new_idx);
        }
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.len() == 0 {
            return Vec::new();
        }
        let mut entry = self.entry.expect("non-empty index has an entry");
        // Greedy descent to layer 1.
        for layer in (1..=self.max_layer).rev() {
            if self.nodes[entry].neighbours.len() <= layer {
                continue;
            }
            loop {
                let cur_score = self.metric.score(query, &self.nodes[entry].vector);
                let mut improved = false;
                for &n in &self.nodes[entry].neighbours[layer] {
                    if self.metric.score(query, &self.nodes[n].vector) > cur_score {
                        entry = n;
                        improved = true;
                        break;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        // Beam search at the bottom. Tombstoned nodes still route (they
        // stay in the beam) but are filtered from the results; widening
        // the beam by the tombstone count keeps up to `k` live hits
        // reachable.
        let ef = self.config.ef_search.max(k).saturating_add(self.dead.count());
        let found = self.search_layer(query, &[entry], ef, 0);
        let mut hits: Vec<SearchResult> = found
            .into_iter()
            .filter(|s| !self.dead.flags()[s.node])
            .map(|s| SearchResult { id: self.nodes[s.node].id, score: s.score })
            .collect();
        sort_hits(&mut hits);
        hits.truncate(k);
        hits
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        self.dead.kill(self.nodes.iter().map(|n| n.id), &ids.iter().copied().collect())
    }

    fn tombstones(&self) -> usize {
        self.dead.count()
    }

    fn compact(&mut self, _exec: &Executor) {
        if self.dead.count() > 0 {
            *self = self.rebuild_live();
        }
    }

    fn len(&self) -> usize {
        self.nodes.len() - self.dead.count()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn payload_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                8 + n.vector.len() * 4 + n.neighbours.iter().map(|l| 4 + l.len() * 4).sum::<usize>()
            })
            .sum()
    }

    fn to_bytes(&self) -> Vec<u8> {
        if self.dead.count() > 0 {
            return self.rebuild_live().to_bytes();
        }
        let mut out = Vec::with_capacity(self.payload_bytes() + 64);
        out.extend_from_slice(Self::MAGIC);
        out.push(encode_metric(self.metric));
        put_u32(&mut out, self.dim);
        put_u32(&mut out, self.config.m);
        put_u32(&mut out, self.config.ef_construction);
        put_u32(&mut out, self.config.ef_search);
        put_u64(&mut out, self.config.seed);
        put_u32(&mut out, self.nodes.len());
        put_u32(&mut out, self.entry.map_or(u32::MAX as usize, |e| e));
        put_u32(&mut out, self.max_layer);
        for node in &self.nodes {
            put_u64(&mut out, node.id);
            put_f32s(&mut out, &node.vector);
            put_u32(&mut out, node.neighbours.len());
            for layer in &node.neighbours {
                put_u32(&mut out, layer.len());
                for &nb in layer {
                    put_u32(&mut out, nb);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use mcqa_embed::Precision;

    fn random_unit(dim: usize, seed: u64) -> Vec<f32> {
        let rng = KeyedStochastic::new(seed);
        let mut v: Vec<f32> =
            (0..dim).map(|j| rng.gaussian(&["v", &j.to_string()]) as f32).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n);
        v
    }

    #[test]
    fn single_and_empty() {
        let mut idx = HnswIndex::new(8, Metric::Cosine, HnswConfig::default());
        assert!(idx.search(&[0.0; 8], 3).is_empty());
        idx.add(42, &random_unit(8, 1));
        let hits = idx.search(&random_unit(8, 1), 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn exact_on_small_sets() {
        // With ef_search >= n the beam is exhaustive ⇒ matches flat.
        let dim = 16;
        let n = 60;
        let mut hnsw = HnswIndex::new(
            dim,
            Metric::Cosine,
            HnswConfig { m: 8, ef_construction: 64, ef_search: 64, seed: 2 },
        );
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        for i in 0..n {
            let v = random_unit(dim, 1000 + i);
            hnsw.add(i, &v);
            flat.add(i, &v);
        }
        for q in 0..10u64 {
            let query = random_unit(dim, 5000 + q);
            let a: Vec<u64> = hnsw.search(&query, 5).into_iter().map(|h| h.id).collect();
            let b: Vec<u64> = flat.search(&query, 5).into_iter().map(|h| h.id).collect();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn recall_on_larger_set() {
        let dim = 24;
        let n = 800u64;
        let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        for i in 0..n {
            let v = random_unit(dim, 77_000 + i);
            hnsw.add(i, &v);
            flat.add(i, &v);
        }
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in 0..30u64 {
            let query = random_unit(dim, 99_000 + q);
            let truth: std::collections::HashSet<u64> =
                flat.search(&query, 10).into_iter().map(|h| h.id).collect();
            let approx = hnsw.search(&query, 10);
            hit += approx.iter().filter(|h| truth.contains(&h.id)).count();
            total += truth.len();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.85, "HNSW recall@10 = {recall}");
    }

    #[test]
    fn deterministic() {
        let dim = 12;
        let mk = || {
            let mut idx = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
            for i in 0..100u64 {
                idx.add(i, &random_unit(dim, 31 + i));
            }
            idx
        };
        let a = mk();
        let b = mk();
        let q = random_unit(dim, 9);
        assert_eq!(a.search(&q, 7), b.search(&q, 7));
    }

    #[test]
    fn duplicate_vectors_handled() {
        let mut idx = HnswIndex::new(
            4,
            Metric::Cosine,
            HnswConfig { m: 4, ef_construction: 8, ef_search: 8, seed: 0 },
        );
        let v = [0.5f32, 0.5, 0.5, 0.5];
        for i in 0..20u64 {
            idx.add(i, &v);
        }
        let hits = idx.search(&v, 5);
        assert_eq!(hits.len(), 5);
        // Ties break by ascending id.
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch() {
        let mut idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default());
        idx.add(0, &[0.0; 5]);
    }

    #[test]
    fn zero_vector_inputs_are_defined() {
        // All-zero vectors score 0 under cosine (no NaNs): inserting and
        // querying them must neither panic nor poison the ranking.
        let mut idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default());
        idx.add(0, &[0.0; 4]);
        idx.add(1, &[1.0, 0.0, 0.0, 0.0]);
        idx.add(2, &[0.0, 1.0, 0.0, 0.0]);
        let hits = idx.search(&[0.0; 4], 3);
        assert_eq!(hits.len(), 3, "zero query returns all candidates");
        assert!(hits.iter().all(|h| h.score == 0.0));
        assert_eq!(idx.search(&[1.0, 0.0, 0.0, 0.0], 1)[0].id, 1);
    }

    #[test]
    fn k_exceeding_len_returns_len() {
        let mut idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default());
        for i in 0..3u64 {
            idx.add(i, &random_unit(4, i));
        }
        assert_eq!(idx.search(&random_unit(4, 9), 50).len(), 3);
        assert!(idx.search(&random_unit(4, 9), 0).is_empty());
    }

    #[test]
    fn remove_filters_results_and_compact_rebuilds() {
        let dim = 12;
        let exec = mcqa_runtime::Executor::global();
        let config = HnswConfig { m: 6, ef_construction: 24, ef_search: 32, seed: 4 };
        let mut idx = HnswIndex::new(dim, Metric::Cosine, config.clone());
        let data: Vec<Vec<f32>> = (0..80u64).map(|i| random_unit(dim, 300 + i)).collect();
        for (i, v) in data.iter().enumerate() {
            idx.add(i as u64, v);
        }

        assert_eq!(idx.remove(&[3, 4, 5, 999]), 3);
        assert_eq!(idx.remove(&[3]), 0, "re-removal is a no-op");
        assert_eq!(idx.len(), 77);
        assert_eq!(idx.tombstones(), 3);
        for q in 0..6u64 {
            let hits = idx.search(&random_unit(dim, 900 + q), 10);
            assert!(hits.iter().all(|h| !(3..=5).contains(&h.id)), "tombstoned ids filtered");
            assert_eq!(hits.len(), 10, "beam widening keeps k live hits");
        }

        // Upsert re-inserts a removed id with a new vector; the new node
        // must be searchable (per-node tombstones, not per-id).
        idx.upsert(exec, &[(4, data[70].clone())]);
        assert_eq!(idx.len(), 78);
        assert!(idx.search(&data[70], 2).iter().any(|h| h.id == 4));

        // Wire format and compaction are the same live rebuild.
        let mut rebuilt = HnswIndex::new(dim, Metric::Cosine, config);
        for (i, v) in data.iter().enumerate() {
            if !(3..=5).contains(&i) {
                rebuilt.add(i as u64, v);
            }
        }
        rebuilt.add(4, &data[70]);
        assert_eq!(idx.to_bytes(), rebuilt.to_bytes(), "wire = live rebuild");
        idx.compact(exec);
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.to_bytes(), rebuilt.to_bytes(), "compaction = live rebuild");
    }

    #[test]
    fn serialisation_roundtrip() {
        let dim = 12;
        let mut idx = HnswIndex::new(
            dim,
            Metric::Cosine,
            HnswConfig { m: 6, ef_construction: 24, ef_search: 16, seed: 4 },
        );
        for i in 0..120u64 {
            idx.add(i * 2, &random_unit(dim, 600 + i));
        }
        let bytes = idx.to_bytes();
        let back = HnswIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.metric(), idx.metric());
        assert_eq!(back.dim(), dim);
        for q in 0..8u64 {
            let query = random_unit(dim, 71 + q);
            assert_eq!(back.search(&query, 6), idx.search(&query, 6));
        }
        assert_eq!(back.to_bytes(), bytes, "re-serialisation is stable");
        // Corruption rejected.
        assert!(HnswIndex::from_bytes(&bytes[..bytes.len() - 2]).is_none());
        assert!(HnswIndex::from_bytes(b"HNSW").is_none());
        assert!(HnswIndex::from_bytes(b"garbage-bytes").is_none());
        // Empty round-trip.
        let empty = HnswIndex::new(4, Metric::L2, HnswConfig::default());
        let back = HnswIndex::from_bytes(&empty.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.metric(), Metric::L2);
    }

    /// A length-consistent blob can still describe a graph the beam search
    /// would panic on; such blobs must decode to `None`, not `Some`.
    #[test]
    fn structurally_invalid_blobs_rejected() {
        use crate::codec::{encode_metric, put_f32s, put_u32, put_u64};

        // (node layer counts, per-layer edges, max_layer) → blob with one
        // 2-dim vector per node and the minimal legal config.
        let blob = |layers: &[Vec<Vec<usize>>], max_layer: usize| {
            let mut out = Vec::new();
            out.extend_from_slice(HnswIndex::MAGIC);
            out.push(encode_metric(Metric::Cosine));
            put_u32(&mut out, 2); // dim
            put_u32(&mut out, 2); // m
            put_u32(&mut out, 2); // ef_construction
            put_u32(&mut out, 1); // ef_search
            put_u64(&mut out, 0); // seed
            put_u32(&mut out, layers.len());
            put_u32(&mut out, if layers.is_empty() { u32::MAX as usize } else { 0 });
            put_u32(&mut out, max_layer);
            for (i, node_layers) in layers.iter().enumerate() {
                put_u64(&mut out, i as u64);
                put_f32s(&mut out, &[1.0, 0.0]);
                put_u32(&mut out, node_layers.len());
                for edges in node_layers {
                    put_u32(&mut out, edges.len());
                    for &nb in edges {
                        put_u32(&mut out, nb);
                    }
                }
            }
            out
        };

        // Baseline sanity: a well-formed blob decodes and searches.
        let ok = blob(&[vec![vec![1]], vec![vec![0]]], 0);
        let store = HnswIndex::from_bytes(&ok).expect("well-formed blob decodes");
        assert_eq!(store.search(&[1.0, 0.0], 2).len(), 2);

        // A node with zero layers would panic the layer-0 beam.
        assert!(HnswIndex::from_bytes(&blob(&[vec![], vec![vec![0]]], 0)).is_none());
        // A layer-1 edge into a node without layer 1 would panic descent.
        assert!(HnswIndex::from_bytes(&blob(&[vec![vec![1], vec![1]], vec![vec![0]]], 1)).is_none());
        // max_layer disagreeing with the tallest node is corruption.
        assert!(HnswIndex::from_bytes(&blob(&[vec![vec![1]], vec![vec![0]]], 3)).is_none());
    }
}
