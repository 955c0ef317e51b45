//! Property tests for the lexical channel's determinism contract:
//!
//! * **Batch ≡ serial** — `add_batch` and `search_batch` are bit-identical
//!   to their sequential counterparts at 1 and 4 workers, over corpora
//!   several counting runs long whose vocabulary keeps growing.
//! * **Index ≡ definition** — term count, document count and every BM25
//!   score agree with an oracle that counts `content_tokens` into one
//!   ordered map per document and shares no code with the index's
//!   insertion path.
//! * **Codec fidelity** — a `LEXI` round trip reproduces the index
//!   structurally *and* behaviourally: every search on the decoded index
//!   is bit-identical, and re-encoding is byte-identical.
//! * **RRF permutation invariance** — fusing the same ranked lists in any
//!   order yields bitwise-identical output (the canonical-order summation
//!   the fusion module promises).
//! * **Degenerate totality** — empty queries, all-stopword queries,
//!   `k = 0`, `k > len`, and empty indexes all return cleanly, and top-k
//!   lists are prefixes of deeper searches.

use std::collections::{BTreeMap, BTreeSet};

use mcqa_index::lexical::fusion::rrf;
use mcqa_index::lexical::{Bm25Params, LexicalIndex};
use mcqa_runtime::Executor;
use mcqa_text::content_tokens;
use mcqa_util::{cmp_hits, SearchResult};
use proptest::prelude::*;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Content words plus genuine stopwords ("the", "of", "and", "during"),
/// so generated documents exercise the stopword filter and repeated-term
/// frequencies, not just distinct-term postings.
const WORDS: [&str; 16] = [
    "radiation",
    "dose",
    "fractionation",
    "apoptosis",
    "hypoxia",
    "tumour",
    "repair",
    "pathway",
    "proton",
    "dosimetry",
    "plasma",
    "telescope",
    "the",
    "of",
    "and",
    "during",
];

/// A deterministic pseudo-document: 0-11 words drawn by seed (length 0
/// covers the empty-document case inside corpora) from the pool plus
/// `novel0 .. novel{novel-1}`.
fn doc(seed: u64, novel: u64) -> String {
    let n = (splitmix(seed) % 12) as usize;
    (0..n)
        .map(|j| match splitmix(seed ^ (j as u64 + 1).wrapping_mul(0x9e39)) % (16 + novel) {
            pick @ 0..=15 => WORDS[pick as usize].to_string(),
            pick => format!("novel{}", pick - 16),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// How many `novel` terms a corpus of `n` documents may have reached.
fn novel_terms(n: usize) -> u64 {
    1 + n as u64 / 8
}

/// `n` documents under deliberately non-contiguous external ids (the
/// delta-zigzag id codec must not depend on dense id spaces). Document `i`
/// draws from a vocabulary that grows with `i`, so a long corpus keeps
/// meeting terms for the first time in its late counting runs while the
/// pool words recur in every one.
fn corpus(n: usize, seed: u64) -> Vec<(u64, String)> {
    (0..n)
        .map(|i| (i as u64 * 7 + 3, doc(seed ^ ((i as u64 + 1) * 0x5bd1), novel_terms(i))))
        .collect()
}

/// `add_batch` counts runs of 64 documents (a private constant of the
/// index): corpora up to this long span four of them.
const LONG: usize = 3 * 64 + 40;

fn build(docs: &[(u64, String)]) -> LexicalIndex {
    let mut idx = LexicalIndex::default();
    for (id, text) in docs {
        idx.add(*id, text);
    }
    idx
}

/// BM25 from the definition: one ordered `term → tf` map per document.
struct Oracle {
    ids: Vec<u64>,
    counts: Vec<BTreeMap<String, u32>>,
}

impl Oracle {
    fn new(docs: &[(u64, String)]) -> Self {
        let counts = docs
            .iter()
            .map(|(_, text)| {
                let mut tf = BTreeMap::new();
                for tok in content_tokens(text) {
                    *tf.entry(tok).or_insert(0u32) += 1;
                }
                tf
            })
            .collect();
        Self { ids: docs.iter().map(|(id, _)| *id).collect(), counts }
    }

    /// Okapi BM25 with Lucene's non-negative idf, summed per document over
    /// the query's distinct terms in string order, ranked by `cmp_hits`.
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        let Bm25Params { k1, b } = Bm25Params::default();
        let (k1, b) = (f64::from(k1), f64::from(b));
        let lens: Vec<u32> = self.counts.iter().map(|tf| tf.values().sum()).collect();
        let n = self.counts.len() as f64;
        let avgdl = lens.iter().map(|&l| u64::from(l)).sum::<u64>() as f64 / n;
        let mut scores: Vec<Option<f64>> = vec![None; self.counts.len()];
        for term in content_tokens(query).into_iter().collect::<BTreeSet<String>>() {
            let df = self.counts.iter().filter(|tf| tf.contains_key(&term)).count() as f64;
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for (d, tf) in self.counts.iter().enumerate() {
                if let Some(&tf) = tf.get(&term) {
                    let tf = f64::from(tf);
                    let norm = k1 * (1.0 - b + b * f64::from(lens[d]) / avgdl);
                    *scores[d].get_or_insert(0.0) += idf * (tf * (k1 + 1.0)) / (tf + norm);
                }
            }
        }
        let mut hits: Vec<SearchResult> = scores
            .iter()
            .zip(&self.ids)
            .filter_map(|(s, &id)| s.map(|s| SearchResult { id, score: s as f32 }))
            .collect();
        hits.sort_by(cmp_hits);
        hits.truncate(k);
        hits
    }
}

proptest! {
    /// `add_batch` produces the same index as serial `add`, and
    /// `search_batch` the same hits as per-query `search`, at 1 and 4
    /// workers — bit-identical, scores and serialised bytes included, for
    /// corpora that end inside the first counting run or span several.
    #[test]
    fn batch_build_and_search_match_serial_at_any_worker_count(
        n in 1usize..LONG,
        seed in 0u64..1000,
        k in 0usize..12,
        workers_pick in 0usize..2,
    ) {
        let workers = [1usize, 4][workers_pick];
        let exec = Executor::new(workers);
        let docs = corpus(n, seed);
        let serial = build(&docs);
        let mut batched = LexicalIndex::default();
        batched.add_batch(&exec, &docs);
        prop_assert_eq!(&batched, &serial, "add_batch diverged at {} workers", workers);
        prop_assert_eq!(batched.to_bytes(), serial.to_bytes(), "bytes at {} workers", workers);

        let queries: Vec<String> =
            (0..6).map(|i| doc(seed ^ 0xbeef ^ (i as u64 * 0x7f4a), novel_terms(n))).collect();
        let batch = batched.search_batch(&exec, &queries, k);
        prop_assert_eq!(batch.len(), queries.len());
        for (q, hits) in queries.iter().zip(&batch) {
            prop_assert_eq!(hits, &serial.search(q, k), "query {:?} at {} workers", q, workers);
        }
    }

    /// The index against the definition of what it stores: per document an
    /// ordered map of `content_tokens` counts, BM25 recomputed from those
    /// maps' tf / df / lengths. Public surface only.
    #[test]
    fn batch_built_index_matches_a_per_document_counting_oracle(
        n in 1usize..LONG,
        seed in 0u64..1000,
        k in 1usize..12,
        workers_pick in 0usize..2,
    ) {
        let docs = corpus(n, seed);
        let mut idx = LexicalIndex::default();
        idx.add_batch(&Executor::new([1usize, 4][workers_pick]), &docs);

        let oracle = Oracle::new(&docs);
        prop_assert_eq!(idx.len(), n);
        let distinct: BTreeSet<&String> = oracle.counts.iter().flat_map(BTreeMap::keys).collect();
        prop_assert_eq!(idx.num_terms(), distinct.len());
        for i in 0..5u64 {
            let q = doc(seed ^ 0x0a1e ^ (i * 0x2b3d), novel_terms(n));
            let got: Vec<(u64, u32)> =
                idx.search(&q, k).iter().map(|h| (h.id, h.score.to_bits())).collect();
            let want: Vec<(u64, u32)> =
                oracle.search(&q, k).iter().map(|h| (h.id, h.score.to_bits())).collect();
            prop_assert_eq!(got, want, "query {:?}", q);
        }
    }

    /// A serialise → decode round trip reproduces the index exactly: the
    /// decoded index searches bit-identically and re-encodes to the same
    /// bytes.
    #[test]
    fn codec_roundtrip_searches_bit_identically(
        n in 1usize..24,
        seed in 0u64..1000,
        k in 1usize..8,
    ) {
        let idx = build(&corpus(n, seed));
        let bytes = idx.to_bytes();
        let back = LexicalIndex::from_bytes(&bytes).expect("round trip decodes");
        prop_assert_eq!(&back, &idx);
        prop_assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
        for i in 0..6u64 {
            let q = doc(seed ^ 0xdead ^ (i * 0x1331), novel_terms(n));
            prop_assert_eq!(back.search(&q, k), idx.search(&q, k), "query {:?}", q);
        }
    }

    /// RRF output is bitwise invariant under permutation of its input
    /// lists, for real BM25 result lists.
    #[test]
    fn rrf_is_invariant_under_list_permutation(
        n in 2usize..24,
        seed in 0u64..1000,
        k in 1usize..10,
    ) {
        let idx = build(&corpus(n, seed));
        let lists: Vec<Vec<SearchResult>> = (0..3u64)
            .map(|i| idx.search(&doc(seed ^ 0xfeed ^ (i * 0x49bb), novel_terms(n)), n))
            .collect();
        let as_slices = |order: [usize; 3]| -> Vec<&[SearchResult]> {
            order.iter().map(|&i| lists[i].as_slice()).collect()
        };
        let base = rrf(&as_slices([0, 1, 2]), k);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            prop_assert_eq!(rrf(&as_slices(order), k), base.clone(), "order {:?}", order);
        }
    }

    /// Degenerate inputs are total, and top-k lists are prefixes of
    /// deeper searches (the total order makes truncation consistent).
    #[test]
    fn degenerate_queries_are_total(n in 0usize..16, seed in 0u64..1000, k in 1usize..6) {
        let idx = build(&corpus(n, seed));
        prop_assert_eq!(idx.len(), n);
        prop_assert!(idx.search("", 5).is_empty(), "empty query");
        prop_assert!(idx.search("the of and during", 5).is_empty(), "all-stopword query");
        prop_assert!(idx.search("zzz9unknown", 5).is_empty(), "unknown term");
        prop_assert!(idx.search("radiation dose", 0).is_empty(), "k = 0");

        let q = doc(seed ^ 0xabcd, novel_terms(n));
        let deep = idx.search(&q, n + 100);
        prop_assert!(deep.len() <= n, "k > len returns at most the matching docs");
        let top = idx.search(&q, k);
        prop_assert_eq!(&top[..], &deep[..k.min(deep.len())], "top-k is a prefix of top-all");
    }
}
