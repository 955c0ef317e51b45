//! Property tests for the mutation surface the incremental planner
//! drives: random edit sequences (upsert / remove / re-key / compact)
//! over every mutable index family must leave search results identical
//! to an index holding only the final live set.
//!
//! The reference differs per family, matching the determinism contract:
//!
//! * **flat** and **lexical** — a cold rebuild from scratch over the live
//!   set (per-row scores are insertion-order independent, BM25 statistics
//!   are live-corrected), bit for bit;
//! * **ivf** / **pq** — a decode of the store's own serialised live view
//!   (`to_bytes` drops tombstones), i.e. a rebuild reusing the same
//!   trained coarse structure. A from-scratch rebuild would retrain
//!   k-means on the edited collection and legitimately rank differently;
//! * **hnsw** — the same decode, once no tombstones remain (its graph
//!   depends on insertion history, so only the live rebuild is canonical);
//!   across a re-key, its own pre-re-key results with the ids mapped.

use std::collections::{BTreeMap, HashMap};

use mcqa_index::embed::Precision;
use mcqa_index::lexical::{Bm25Params, LexicalIndex};
use mcqa_index::{build_store_from_vectors, decode_store, IndexSpec, Metric};
use mcqa_runtime::Executor;
use mcqa_util::{sort_hits, KeyedStochastic, SearchResult};
use proptest::prelude::*;

const DIM: usize = 8;

/// Lexical probe queries.
const PROBES: [&str; 4] = ["proton dose", "gene pathway kinase", "tumour margin imaging", "trial"];

/// A deterministic unit-free vector keyed by (tag, id).
fn vector(rng: &KeyedStochastic, tag: &str, id: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| {
            let u = rng.uniform(&["vec", tag, &id.to_string(), &d.to_string()]);
            (u * 2.0 - 1.0) as f32
        })
        .collect()
}

/// A deterministic pseudo-document keyed by (tag, id): a handful of words
/// from a tiny vocabulary, so postings overlap across documents.
fn text(rng: &KeyedStochastic, tag: &str, id: u64) -> String {
    const WORDS: [&str; 12] = [
        "proton",
        "dose",
        "tumour",
        "margin",
        "gene",
        "pathway",
        "kinase",
        "imaging",
        "therapy",
        "expression",
        "receptor",
        "trial",
    ];
    let n = 3 + rng.below(6, &["len", tag, &id.to_string()]);
    (0..n)
        .map(|w| WORDS[rng.below(WORDS.len(), &["w", tag, &id.to_string(), &w.to_string()])])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The shared edit-sequence shape: at step `s`, op 0 = upsert a small
/// batch (half fresh ids, half overwrites), op 1 = remove a prefix of the
/// live set (possibly all of it), op 2 = compact, op 3 = re-key (see
/// [`rekey_step`]).
fn op_at(rng: &KeyedStochastic, s: usize) -> usize {
    rng.below(4, &["op", &s.to_string()])
}

/// A re-key step over the sorted `live` ids: one live id `x` to tombstone
/// first, then the moves, in one of three shapes — a swap, a 3-cycle, or
/// the shift-by-one chain an ingest round makes when `x`'s question goes
/// (every later id moves down one, the first onto `x`, which its dead row
/// still carries). Every shape also moves `x` itself, whose only row is
/// dead by then, so that move must be ignored. `None` and no moves when
/// nothing is live.
fn rekey_step(
    rng: &KeyedStochastic,
    s: usize,
    live: &[u64],
    next_id: &mut u64,
) -> (Option<u64>, HashMap<u64, u64>) {
    let st = s.to_string();
    let mut moves = HashMap::new();
    if live.is_empty() {
        return (None, moves);
    }
    let x = live[rng.below(live.len(), &["x", &st])];
    let rest: Vec<u64> = live.iter().copied().filter(|&id| id != x).collect();
    let n = rest.len();
    match rng.below(3, &["shape", &st]) {
        0 if n >= 2 => {
            let i = rng.below(n, &["i", &st]);
            let j = (i + 1 + rng.below(n - 1, &["j", &st])) % n;
            moves.insert(rest[i], rest[j]);
            moves.insert(rest[j], rest[i]);
        }
        1 if n >= 3 => {
            let i = rng.below(n, &["i", &st]);
            let (a, b, c) = (rest[i], rest[(i + 1) % n], rest[(i + 2) % n]);
            moves.extend([(a, b), (b, c), (c, a)]);
        }
        _ => {
            let mut to = x;
            for &id in rest.iter().filter(|&&id| id > x) {
                moves.insert(id, to);
                to = id;
            }
        }
    }
    *next_id += 1;
    moves.insert(x, *next_id);
    (Some(x), moves)
}

/// The live set after `moves`, as a re-key leaves it.
fn relabel<V>(live: BTreeMap<u64, V>, moves: &HashMap<u64, u64>) -> BTreeMap<u64, V> {
    live.into_iter().map(|(id, v)| (moves.get(&id).copied().unwrap_or(id), v)).collect()
}

/// `hits` under the ids `moves` gives them, in the canonical hit order.
fn mapped(mut hits: Vec<SearchResult>, moves: &HashMap<u64, u64>) -> Vec<SearchResult> {
    for h in &mut hits {
        h.id = moves.get(&h.id).copied().unwrap_or(h.id);
    }
    sort_hits(&mut hits);
    hits
}

proptest! {
    /// Dense stores: after any edit sequence, the mutated store's search
    /// equals a decode of its own serialised live view — and on flat, a
    /// genuine from-scratch rebuild over the live set, bit for bit, at
    /// both precisions (every pipeline store is F16).
    ///
    /// Mid-sequence, whenever tombstones are present, the in-memory copy
    /// an incremental round starts from (`boxed_clone` + `compact`) must
    /// equal that decode in bytes, length and search — on every backend,
    /// HNSW included: its compaction and its wire format are the same
    /// live rebuild. A re-key step is checked against its family's
    /// reference as soon as it lands.
    #[test]
    fn dense_mutation_matches_rebuild(
        seed in 0u64..24,
        spec_pick in 0usize..4,
        precision_pick in 0usize..2,
        workers_pick in 0usize..2,
    ) {
        let spec = match spec_pick {
            0 => IndexSpec::Flat,
            1 => IndexSpec::Ivf(Default::default()),
            2 => IndexSpec::Pq(Default::default()),
            _ => IndexSpec::Hnsw(Default::default()),
        };
        let precision = [Precision::F32, Precision::F16][precision_pick];
        let exec = Executor::new([1, 4][workers_pick]);
        let rng = KeyedStochastic::new(seed ^ 0x317A_B00C);

        let n0 = 8 + rng.below(24, &["n0"]) as u64;
        let mut live: BTreeMap<u64, Vec<f32>> =
            (0..n0).map(|id| (id, vector(&rng, "init", id))).collect();
        let items: Vec<(u64, Vec<f32>)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
        let mut store = build_store_from_vectors(&spec, DIM, Metric::Cosine, precision, &exec, &items);
        let queries: Vec<Vec<f32>> = (0..5).map(|q| vector(&rng, "query", q)).collect();

        let steps = 1 + rng.below(12, &["steps"]);
        let mut next_id = n0;
        for s in 0..steps {
            let st = s.to_string();
            match op_at(&rng, s) {
                0 => {
                    let m = 1 + rng.below(4, &["m", &st]);
                    let mut batch: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
                    for j in 0..m {
                        let jt = format!("{s}.{j}");
                        let id = if live.is_empty() || rng.bernoulli(0.5, &["new", &jt]) {
                            next_id += 1;
                            next_id
                        } else {
                            *live.keys().nth(rng.below(live.len(), &["pick", &jt])).expect("live")
                        };
                        batch.insert(id, vector(&rng, &jt, id));
                    }
                    let batch: Vec<(u64, Vec<f32>)> = batch.into_iter().collect();
                    live.extend(batch.iter().cloned());
                    store.upsert(&exec, &batch);
                }
                1 => {
                    let m = rng.below(live.len() + 1, &["rm", &st]);
                    let ids: Vec<u64> = live.keys().copied().take(m).collect();
                    for id in &ids {
                        live.remove(id);
                    }
                    prop_assert_eq!(store.remove(&ids), ids.len());
                }
                2 => store.compact(&exec),
                _ => {
                    let ids: Vec<u64> = live.keys().copied().collect();
                    let (gone, moves) = rekey_step(&rng, s, &ids, &mut next_id);
                    if let Some(x) = gone {
                        live.remove(&x);
                        prop_assert_eq!(store.remove(&[x]), 1);
                    }
                    let before: Vec<Vec<SearchResult>> =
                        queries.iter().map(|q| store.search(q, 10)).collect();
                    let moved = moves.keys().filter(|id| live.contains_key(id)).count();
                    prop_assert_eq!(store.rekey(&moves), moved, "step {}", s);
                    live = relabel(live, &moves);
                    prop_assert_eq!(store.len(), live.len());
                    match spec {
                        IndexSpec::Flat => {
                            let items: Vec<(u64, Vec<f32>)> =
                                live.iter().map(|(k, v)| (*k, v.clone())).collect();
                            let cold = build_store_from_vectors(
                                &spec, DIM, Metric::Cosine, precision, &exec, &items,
                            );
                            for q in &queries {
                                prop_assert_eq!(store.search(q, 10), cold.search(q, 10));
                            }
                        }
                        IndexSpec::Hnsw(_) => {
                            for (q, hits) in queries.iter().zip(before) {
                                prop_assert_eq!(store.search(q, 10), mapped(hits, &moves));
                            }
                        }
                        _ => {
                            let decoded = decode_store(&store.to_bytes()).expect("decodes");
                            for q in &queries {
                                prop_assert_eq!(store.search(q, 10), decoded.search(q, 10));
                            }
                        }
                    }
                }
            }
            if store.tombstones() > 0 {
                let dead = store.tombstones();
                let mut copy = store.boxed_clone();
                copy.compact(&exec);
                let decoded = decode_store(&store.to_bytes()).expect("live view decodes");
                prop_assert_eq!(copy.to_bytes(), decoded.to_bytes(), "step {}", s);
                prop_assert_eq!((copy.len(), copy.tombstones()), (decoded.len(), 0));
                for q in &queries {
                    prop_assert_eq!(copy.search(q, 10), decoded.search(q, 10), "step {}", s);
                }
                prop_assert_eq!(store.tombstones(), dead, "the copy is independent");
            }
        }

        prop_assert_eq!(store.len(), live.len());
        let roundtrip = decode_store(&store.to_bytes()).expect("live view decodes");
        prop_assert_eq!(roundtrip.len(), live.len());
        prop_assert_eq!(roundtrip.tombstones(), 0, "serialised view carries no tombstones");

        // A tombstoned HNSW graph still routes through its dead nodes, so
        // it ranks as the rebuilt graph only once compacted.
        if !matches!(spec, IndexSpec::Hnsw(_)) || store.tombstones() == 0 {
            for q in &queries {
                prop_assert_eq!(store.search(q, 10), roundtrip.search(q, 10));
            }
        }
        if matches!(spec, IndexSpec::Flat) {
            let items: Vec<(u64, Vec<f32>)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
            let cold =
                build_store_from_vectors(&spec, DIM, Metric::Cosine, precision, &exec, &items);
            for q in &queries {
                prop_assert_eq!(store.search(q, 10), cold.search(q, 10));
            }
        }
    }

    /// The lexical index: any edit sequence is bit-identical to a cold
    /// BM25 rebuild over the final live set — document frequencies,
    /// lengths, and the corpus average all correct themselves as
    /// tombstones accrue, and a re-key changes nothing but the ids.
    #[test]
    fn lexical_mutation_matches_rebuild(seed in 0u64..32, workers_pick in 0usize..2) {
        let exec = Executor::new([1, 4][workers_pick]);
        let rng = KeyedStochastic::new(seed ^ 0x1E_C1A1);

        let n0 = 8 + rng.below(24, &["n0"]) as u64;
        let mut live: BTreeMap<u64, String> =
            (0..n0).map(|id| (id, text(&rng, "init", id))).collect();
        let mut index = LexicalIndex::new(Bm25Params::default());
        let items: Vec<(u64, String)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
        index.add_batch(&exec, &items);

        let steps = 1 + rng.below(12, &["steps"]);
        let mut next_id = n0;
        for s in 0..steps {
            let st = s.to_string();
            match op_at(&rng, s) {
                0 => {
                    let m = 1 + rng.below(4, &["m", &st]);
                    let mut batch: BTreeMap<u64, String> = BTreeMap::new();
                    for j in 0..m {
                        let jt = format!("{s}.{j}");
                        let id = if live.is_empty() || rng.bernoulli(0.5, &["new", &jt]) {
                            next_id += 1;
                            next_id
                        } else {
                            *live.keys().nth(rng.below(live.len(), &["pick", &jt])).expect("live")
                        };
                        batch.insert(id, text(&rng, &jt, id));
                    }
                    let batch: Vec<(u64, String)> = batch.into_iter().collect();
                    live.extend(batch.iter().cloned());
                    index.upsert(&exec, &batch);
                }
                1 => {
                    let m = rng.below(live.len() + 1, &["rm", &st]);
                    let ids: Vec<u64> = live.keys().copied().take(m).collect();
                    for id in &ids {
                        live.remove(id);
                    }
                    prop_assert_eq!(index.remove(&ids), ids.len());
                }
                2 => index.compact(),
                _ => {
                    let ids: Vec<u64> = live.keys().copied().collect();
                    let (gone, moves) = rekey_step(&rng, s, &ids, &mut next_id);
                    if let Some(x) = gone {
                        live.remove(&x);
                        prop_assert_eq!(index.remove(&[x]), 1);
                    }
                    let moved = moves.keys().filter(|id| live.contains_key(id)).count();
                    prop_assert_eq!(index.rekey(&moves), moved, "step {}", s);
                    live = relabel(live, &moves);
                    let mut cold = LexicalIndex::new(Bm25Params::default());
                    let items: Vec<(u64, String)> =
                        live.iter().map(|(k, v)| (*k, v.clone())).collect();
                    cold.add_batch(&exec, &items);
                    for probe in PROBES {
                        prop_assert_eq!(index.search(probe, 10), cold.search(probe, 10));
                    }
                }
            }
        }

        prop_assert_eq!(index.len(), live.len());
        let mut cold = LexicalIndex::new(Bm25Params::default());
        let items: Vec<(u64, String)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
        cold.add_batch(&exec, &items);
        for probe in PROBES {
            prop_assert_eq!(index.search(probe, 10), cold.search(probe, 10), "probe {}", probe);
        }
    }
}

/// Removing every document leaves an empty, searchable store — and
/// compacting the all-tombstone store stays empty and searchable.
#[test]
fn remove_all_is_a_valid_state() {
    let exec = Executor::new(2);
    let rng = KeyedStochastic::new(77);
    let items: Vec<(u64, Vec<f32>)> = (0..16).map(|id| (id, vector(&rng, "ra", id))).collect();
    let ids: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
    let q = vector(&rng, "q", 0);

    for spec in
        [IndexSpec::Flat, IndexSpec::Ivf(Default::default()), IndexSpec::Pq(Default::default())]
    {
        let mut store =
            build_store_from_vectors(&spec, DIM, Metric::Cosine, Precision::F32, &exec, &items);
        assert_eq!(store.remove(&ids), ids.len(), "{}", spec.label());
        assert_eq!(store.len(), 0);
        assert!(store.search(&q, 5).is_empty(), "{}", spec.label());
        store.compact(&exec);
        assert_eq!(store.len(), 0);
        assert_eq!(store.tombstones(), 0, "compaction drops every tombstone");
        assert!(store.search(&q, 5).is_empty());
    }

    let mut lex = LexicalIndex::new(Bm25Params::default());
    let docs: Vec<(u64, String)> = (0..16u64).map(|id| (id, text(&rng, "ra", id))).collect();
    lex.add_batch(&exec, &docs);
    assert_eq!(lex.remove(&ids), ids.len());
    assert_eq!(lex.len(), 0);
    assert!(lex.search("proton dose", 5).is_empty());
    lex.compact();
    assert_eq!(lex.len(), 0);
    assert!(lex.search("proton dose", 5).is_empty());
}

/// Upserting identical content over the same ids must not change what
/// search returns (the planner's no-op path never reaches the index, but
/// the index itself must also tolerate the identity edit).
#[test]
fn upsert_same_content_preserves_search() {
    let exec = Executor::new(2);
    let rng = KeyedStochastic::new(99);
    let items: Vec<(u64, Vec<f32>)> = (0..20).map(|id| (id, vector(&rng, "same", id))).collect();
    let q = vector(&rng, "q", 1);

    let mut store = build_store_from_vectors(
        &IndexSpec::Flat,
        DIM,
        Metric::Cosine,
        Precision::F32,
        &exec,
        &items,
    );
    let before = store.search(&q, 10);
    store.upsert(&exec, &items[3..9]);
    assert_eq!(store.search(&q, 10), before);
    store.compact(&exec);
    assert_eq!(store.search(&q, 10), before);

    let mut lex = LexicalIndex::new(Bm25Params::default());
    let docs: Vec<(u64, String)> = (0..20u64).map(|id| (id, text(&rng, "same", id))).collect();
    lex.add_batch(&exec, &docs);
    let before = lex.search("gene pathway", 10);
    lex.upsert(&exec, &docs[5..12]);
    assert_eq!(lex.search("gene pathway", 10), before);
    lex.compact();
    assert_eq!(lex.search("gene pathway", 10), before);
}
