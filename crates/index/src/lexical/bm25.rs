//! An Okapi BM25 inverted index over the workspace's shared tokenisation.
//!
//! Documents are tokenised with [`for_each_content_token`] — the same
//! visitor the vocabulary and the hash embeddings use, so the corpus side
//! and the query side can never disagree — and interned into a
//! [`Vocabulary`], which carries the term ↔ id tables and document
//! frequencies. Per-term postings record `(doc index, term frequency)`
//! in insertion order, which keeps doc indices strictly increasing per
//! list and makes the serialised form delta-varint friendly.
//!
//! Insertion is one path in two steps. *Counting* (`count_batch`) walks a
//! run of consecutive documents with one term dictionary for the run: one
//! map lookup per content token, one `String` per term the run has not
//! seen, and per document its `(local term, tf)` pairs in first-occurrence
//! order. It reads nothing of the index, so [`LexicalIndex::add_batch`]
//! fans the runs out on the executor. *Merging* (`merge_batch`) is serial
//! and in document order: it interns a run's dictionary once and then
//! posts every pair by array lookup — no string is hashed, allocated or
//! freed per posting. [`LexicalIndex::add`] is a run of one document
//! through the same two functions.
//!
//! Determinism contract (property-tested in `tests/lexical_bm25.rs` and in this
//! module): a run's dictionary lists its terms in first-occurrence order
//! and runs merge in item order, so a term new to the index is interned
//! exactly when sequential insertion would have met it. Term ids, posting
//! order, document frequencies — and therefore [`LexicalIndex::to_bytes`]
//! — do not depend on where the runs are cut or on the worker count:
//! [`LexicalIndex::add_batch`] produces a store bit-identical to serial
//! [`LexicalIndex::add`] calls in item order, and
//! [`LexicalIndex::search_batch`] is bit-identical to per-query
//! [`LexicalIndex::search`]. Scoring accumulates
//! per-document sums in sorted term-**string** order, so the
//! floating-point addition order is fixed *and* independent of interning
//! order — a mutated index (whose vocabulary still holds terms the live
//! documents no longer use) scores bit-identically to one rebuilt from
//! scratch over the live documents.
//!
//! Mutation surface (mirroring [`VectorStore`](crate::VectorStore)):
//! [`LexicalIndex::remove`] tombstones documents by external id — their
//! postings stay resident but are skipped, with `n`, `avgdl`, and each
//! term's `df` corrected to the live view so scores match a live-only
//! rebuild. [`LexicalIndex::compact`] (and serialisation, whose `LEXI`
//! wire format is always tombstone-free) rewrites postings without the
//! dead documents.

use std::collections::HashMap;

use mcqa_runtime::{run_stage, Executor};
use mcqa_text::{for_each_content_token, TermId, Vocabulary};
use mcqa_util::codec::{put_u32, put_varint, unzigzag, zigzag, Reader};
use mcqa_util::{SearchResult, TopK};

/// Okapi BM25 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation (`k1`).
    pub k1: f32,
    /// Length normalisation strength (`b`).
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// One posting: a document (by insertion index) and the term's frequency
/// in it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// One indexed document: its external id and content-token length.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DocEntry {
    id: u64,
    len: u32,
}

/// A BM25 inverted index: the lexical sibling of a dense vector store.
///
/// External ids are arbitrary `u64`s supplied at insertion — the same id
/// space the paired dense store uses, so fused result lists refer to the
/// same documents.
#[derive(Debug, Clone, PartialEq)]
pub struct LexicalIndex {
    params: Bm25Params,
    vocab: Vocabulary,
    /// Postings per term, indexed by [`TermId`]; doc indices are strictly
    /// increasing within each list.
    postings: Vec<Vec<Posting>>,
    /// Documents in insertion order.
    docs: Vec<DocEntry>,
    /// Sum of all documents' content-token lengths.
    total_tokens: u64,
    /// Per-document tombstones, parallel to `docs`. Per entry rather than
    /// per id so an upsert (tombstone + re-append the same id) never
    /// masks the new live document. Never serialised.
    dead: Vec<bool>,
    dead_count: usize,
    /// Content-token lengths of tombstoned documents, for `avgdl`
    /// correction.
    dead_tokens: u64,
}

/// Documents per counting run in [`LexicalIndex::add_batch`]. Large enough
/// that a run's dictionary already holds nearly every term its later
/// documents use, small enough that a few hundred documents still spread
/// over the workers. The built index does not depend on it.
const RUN_DOCS: usize = 64;

/// What counting a run of documents produces, and all `merge_batch` reads.
struct BatchCounts {
    /// The run's distinct content terms, in first-occurrence order.
    terms: Vec<String>,
    /// Every document's `(index into terms, tf)` pairs back to back; one
    /// document's pairs are in its own first-occurrence order.
    pairs: Vec<(u32, u32)>,
    /// Per document: where its pairs end in `pairs`, and its content length.
    docs: Vec<(usize, u32)>,
}

/// Count the content tokens of a run of documents against one dictionary.
fn count_batch<'a>(texts: impl IntoIterator<Item = &'a str>) -> BatchCounts {
    // Term → (its index in `terms`, the index of its latest pair). The
    // second is the stamp of the document that last touched the term: that
    // pair is the current document's iff it sits at or past the document's
    // first pair, so no per-document map (or reset between documents) is
    // needed.
    let mut seen: HashMap<String, (u32, usize)> = HashMap::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut docs = Vec::new();
    for text in texts {
        let first = pairs.len();
        let mut len = 0u32;
        for_each_content_token(text, |tok| {
            len += 1;
            match seen.get_mut(tok) {
                Some(&mut (_, latest)) if latest >= first => pairs[latest].1 += 1,
                Some((term, latest)) => {
                    *latest = pairs.len();
                    pairs.push((*term, 1));
                }
                None => {
                    let term = seen.len() as u32;
                    seen.insert(tok.to_string(), (term, pairs.len()));
                    pairs.push((term, 1));
                }
            }
        });
        docs.push((pairs.len(), len));
    }
    let mut terms = vec![String::new(); seen.len()];
    for (term, (t, _)) in seen {
        terms[t as usize] = term;
    }
    BatchCounts { terms, pairs, docs }
}

impl Default for LexicalIndex {
    fn default() -> Self {
        Self::new(Bm25Params::default())
    }
}

impl LexicalIndex {
    /// Serialisation magic tag.
    pub(crate) const MAGIC: &'static [u8; 4] = b"LEXI";

    /// An empty index.
    pub fn new(params: Bm25Params) -> Self {
        Self {
            params,
            vocab: Vocabulary::new(),
            postings: Vec::new(),
            docs: Vec::new(),
            total_tokens: 0,
            dead: Vec::new(),
            dead_count: 0,
            dead_tokens: 0,
        }
    }

    /// Number of live (non-tombstoned) indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len() - self.dead_count
    }

    /// True when no live documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vocabulary size (distinct content terms seen).
    pub fn num_terms(&self) -> usize {
        self.vocab.len()
    }

    /// Index one document under an external id: a run of one through the
    /// same counting and merging [`LexicalIndex::add_batch`] uses.
    /// Stopword-only and empty documents are recorded (they count toward
    /// length statistics) but post nothing.
    pub fn add(&mut self, id: u64, text: &str) {
        self.merge_batch([id], count_batch([text]));
    }

    /// Fold one counted run into the index, `ids` naming its documents in
    /// order. The serial tail of every insertion: the run's dictionary is
    /// interned here, in first-occurrence order and after every earlier
    /// run's, so a term gets the id sequential insertion would give it
    /// however the documents were cut into runs.
    fn merge_batch(&mut self, ids: impl IntoIterator<Item = u64>, counts: BatchCounts) {
        let tids: Vec<TermId> = counts.terms.iter().map(|t| self.vocab.intern(t)).collect();
        self.postings.resize_with(self.vocab.len(), Vec::new);
        let mut distinct: Vec<TermId> = Vec::new();
        let mut first = 0usize;
        for (id, (end, len)) in ids.into_iter().zip(counts.docs) {
            let doc = u32::try_from(self.docs.len()).expect("doc count fits u32");
            distinct.clear();
            for &(t, tf) in &counts.pairs[first..end] {
                let tid = tids[t as usize];
                self.postings[tid.0 as usize].push(Posting { doc, tf });
                distinct.push(tid);
            }
            self.vocab.record_document(&distinct);
            self.docs.push(DocEntry { id, len });
            self.dead.push(false);
            self.total_tokens += u64::from(len);
            first = end;
        }
    }

    /// Tombstone the documents stored under `ids`: they stop appearing in
    /// results (and stop counting toward `n`/`avgdl`/`df`) immediately;
    /// postings are only rewritten by [`LexicalIndex::compact`] or
    /// serialisation. Unknown (or already tombstoned) ids are ignored.
    /// Returns the number of documents newly tombstoned.
    pub fn remove(&mut self, ids: &[u64]) -> usize {
        let targets: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let mut removed = 0usize;
        let mut removed_tokens = 0u64;
        for (d, dead) in self.docs.iter().zip(self.dead.iter_mut()) {
            if !*dead && targets.contains(&d.id) {
                *dead = true;
                removed += 1;
                removed_tokens += u64::from(d.len);
            }
        }
        self.dead_count += removed;
        self.dead_tokens += removed_tokens;
        removed
    }

    /// Replace-or-insert: tombstone any existing documents under the item
    /// ids, then bulk-insert the new texts. Afterwards search results are
    /// bit-identical to an index rebuilt from scratch over the final live
    /// documents.
    pub fn upsert<S: AsRef<str> + Sync>(&mut self, exec: &Executor, items: &[(u64, S)]) {
        let ids: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
        self.remove(&ids);
        self.add_batch(exec, items);
    }

    /// Number of tombstoned documents still resident in the postings.
    pub fn tombstones(&self) -> usize {
        self.dead_count
    }

    /// Rewrite postings without the tombstoned documents (a no-op when
    /// nothing is tombstoned). Vocabulary term ids are preserved — terms
    /// whose every posting died stay interned with an empty list — which
    /// is invisible to search (accumulation is string-ordered and `df`
    /// counts live postings).
    pub fn compact(&mut self) {
        if self.dead_count > 0 {
            *self = self.live_view();
        }
    }

    /// The tombstone-free rewrite backing [`LexicalIndex::compact`] and
    /// [`LexicalIndex::to_bytes`]: live documents keep their insertion
    /// order (doc indices renumbered densely), postings drop dead entries,
    /// and the vocabulary's document frequencies are rebuilt from the
    /// surviving lists.
    fn live_view(&self) -> Self {
        let mut remap = vec![u32::MAX; self.docs.len()];
        let mut docs = Vec::with_capacity(self.docs.len() - self.dead_count);
        for (i, (d, &dead)) in self.docs.iter().zip(&self.dead).enumerate() {
            if !dead {
                remap[i] = docs.len() as u32;
                docs.push(*d);
            }
        }
        let mut dfs = Vec::with_capacity(self.postings.len());
        let mut postings = Vec::with_capacity(self.postings.len());
        for list in &self.postings {
            let live: Vec<Posting> = list
                .iter()
                .filter(|p| remap[p.doc as usize] != u32::MAX)
                .map(|p| Posting { doc: remap[p.doc as usize], tf: p.tf })
                .collect();
            dfs.push(live.len() as u32);
            postings.push(live);
        }
        let terms: Vec<String> = self.vocab.terms().map(str::to_string).collect();
        let vocab = Vocabulary::from_parts(terms, dfs, docs.len() as u32)
            .expect("live view preserves vocabulary invariants");
        let n_docs = docs.len();
        Self {
            params: self.params,
            vocab,
            postings,
            docs,
            total_tokens: self.total_tokens - self.dead_tokens,
            dead: vec![false; n_docs],
            dead_count: 0,
            dead_tokens: 0,
        }
    }

    /// Bulk insertion. Tokenising and counting fan out on `exec`'s pool
    /// over runs of `RUN_DOCS` consecutive items with one term dictionary
    /// each; interning those dictionaries and posting stay
    /// serial, in `items` order. A dictionary lists its terms in
    /// first-occurrence order, so ids are assigned exactly as sequential
    /// insertion assigns them: the result is **bit-identical** to
    /// [`LexicalIndex::add`] calls in item order at any worker count.
    pub fn add_batch<S: AsRef<str> + Sync>(&mut self, exec: &Executor, items: &[(u64, S)]) {
        self.add_runs(exec, items, RUN_DOCS);
    }

    /// [`LexicalIndex::add_batch`] with the run length spelled out (the
    /// tests cut the same items at several lengths; `run_docs ≥ 1`).
    fn add_runs<S: AsRef<str> + Sync>(
        &mut self,
        exec: &Executor,
        items: &[(u64, S)],
        run_docs: usize,
    ) {
        let runs: Vec<&[(u64, S)]> = items.chunks(run_docs).collect();
        let (counted, _) = run_stage(exec, "lex-tokenize", runs, |run| {
            count_batch(run.iter().map(|(_, text)| text.as_ref()))
        });
        for (run, counts) in items.chunks(run_docs).zip(counted) {
            self.merge_batch(run.iter().map(|(id, _)| *id), counts);
        }
    }

    /// Top-`k` BM25 hits for `query`, best first, ties broken by
    /// ascending id (the shared [`mcqa_util::cmp_hits`] order). Returns
    /// fewer than `k` hits when fewer documents share a term with the
    /// query — lexical recall is sparse by nature, and the fusion layer
    /// treats a short list as "no lexical evidence" rather than padding
    /// it with zeros.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Distinct known query terms in sorted term-**string** order: a
        // fixed accumulation order makes scores bit-stable however the
        // query spelled them, and — unlike id order — is independent of
        // interning history, so a tombstoned index scores bit-identically
        // to one rebuilt from scratch over its live documents.
        let mut qterms: Vec<(String, TermId)> = Vec::new();
        for_each_content_token(query, |t| {
            if let Some(id) = self.vocab.id(t) {
                qterms.push((t.to_string(), id));
            }
        });
        qterms.sort_by(|a, b| a.0.cmp(&b.0));
        qterms.dedup_by(|a, b| a.0 == b.0);
        if qterms.is_empty() {
            return Vec::new();
        }
        let n = self.len() as f64;
        let avgdl = (self.total_tokens - self.dead_tokens) as f64 / n;
        let Bm25Params { k1, b } = self.params;
        let (k1, b) = (f64::from(k1), f64::from(b));
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for (_, tid) in qterms {
            let list = &self.postings[tid.0 as usize];
            let df = if self.dead_count == 0 {
                list.len()
            } else {
                list.iter().filter(|p| !self.dead[p.doc as usize]).count()
            } as f64;
            if df == 0.0 {
                continue; // every posting tombstoned: no live evidence
            }
            // Lucene's non-negative Okapi idf.
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for p in list {
                if self.dead[p.doc as usize] {
                    continue;
                }
                let tf = f64::from(p.tf);
                let dl = f64::from(self.docs[p.doc as usize].len);
                let norm = k1 * (1.0 - b + b * dl / avgdl);
                *scores.entry(p.doc).or_insert(0.0) += idf * (tf * (k1 + 1.0)) / (tf + norm);
            }
        }
        // TopK's total order makes the outcome independent of the
        // HashMap's iteration order.
        let mut topk = TopK::new(k);
        for (&doc, &score) in &scores {
            topk.push(SearchResult { id: self.docs[doc as usize].id, score: score as f32 });
        }
        topk.into_sorted()
    }

    /// Batch search fanned out on `exec`'s pool; results are
    /// index-aligned with `queries` and bit-identical to per-query
    /// [`LexicalIndex::search`].
    pub fn search_batch<S: AsRef<str> + Sync>(
        &self,
        exec: &Executor,
        queries: &[S],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        run_stage(exec, "lex-search", (0..queries.len()).collect(), |i| {
            self.search(queries[i].as_ref(), k)
        })
        .0
    }

    /// Resident payload bytes: postings, the documents table, and the
    /// vocabulary's term strings + frequency table. The capacity number
    /// `mem_bytes=` columns report for the lexical channel.
    pub fn payload_bytes(&self) -> usize {
        let postings: usize = self.postings.iter().map(|l| l.len() * 8).sum();
        let docs = self.docs.len() * 12;
        let terms: usize = self.vocab.terms().map(|t| t.len()).sum();
        postings + docs + terms + 4 * self.vocab.len()
    }

    /// Serialise under the `LEXI` magic tag. External doc ids are
    /// delta-zigzag-varint coded in insertion order; each term's posting
    /// list delta-varint codes its (strictly increasing) doc indices.
    pub fn to_bytes(&self) -> Vec<u8> {
        if self.dead_count > 0 {
            return self.live_view().to_bytes();
        }
        let mut out = Vec::new();
        out.extend_from_slice(Self::MAGIC);
        out.extend_from_slice(&self.params.k1.to_le_bytes());
        out.extend_from_slice(&self.params.b.to_le_bytes());
        put_u32(&mut out, self.docs.len());
        let mut prev_id = 0i64;
        for d in &self.docs {
            put_varint(&mut out, zigzag((d.id as i64).wrapping_sub(prev_id)));
            put_varint(&mut out, u64::from(d.len));
            prev_id = d.id as i64;
        }
        put_u32(&mut out, self.vocab.len());
        for (term, list) in self.vocab.terms().zip(&self.postings) {
            put_varint(&mut out, term.len() as u64);
            out.extend_from_slice(term.as_bytes());
            put_varint(&mut out, list.len() as u64);
            let mut prev_doc = 0u64;
            for p in list {
                put_varint(&mut out, u64::from(p.doc) - prev_doc);
                put_varint(&mut out, u64::from(p.tf));
                prev_doc = u64::from(p.doc);
            }
        }
        out
    }

    /// Decode a [`LexicalIndex::to_bytes`] artifact. `None` on any
    /// truncation, magic mismatch, or internal inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let k1 = f32::from_le_bytes(r.take(4)?.try_into().ok()?);
        let b = f32::from_le_bytes(r.take(4)?.try_into().ok()?);
        if !(k1.is_finite() && b.is_finite()) {
            return None;
        }
        let ndocs = r.count(2)?; // ≥ 2 bytes per doc entry
        let mut docs = Vec::with_capacity(ndocs);
        let mut total_tokens = 0u64;
        let mut prev_id = 0i64;
        for _ in 0..ndocs {
            let id = prev_id.wrapping_add(unzigzag(r.varint()?));
            let len = u32::try_from(r.varint()?).ok()?;
            docs.push(DocEntry { id: id as u64, len });
            total_tokens = total_tokens.checked_add(u64::from(len))?;
            prev_id = id;
        }
        let nterms = r.count(2)?; // ≥ 2 bytes per term entry
        let mut terms = Vec::with_capacity(nterms);
        let mut dfs = Vec::with_capacity(nterms);
        let mut postings = Vec::with_capacity(nterms);
        for _ in 0..nterms {
            let tlen = usize::try_from(r.varint()?).ok()?;
            let term = std::str::from_utf8(r.take(tlen)?).ok()?;
            terms.push(term.to_string());
            let n = usize::try_from(r.varint()?).ok()?;
            if n > ndocs {
                return None; // a term cannot appear in more docs than exist
            }
            let mut list = Vec::with_capacity(n);
            let mut doc = 0u64;
            for i in 0..n {
                let delta = r.varint()?;
                if i > 0 && delta == 0 {
                    return None; // doc indices strictly increase
                }
                doc = doc.checked_add(delta)?;
                if doc as usize >= ndocs {
                    return None;
                }
                let tf = u32::try_from(r.varint()?).ok()?;
                // A term occurs in a document it is posted for, and no
                // more often than the document is long (which also keeps
                // `avgdl` non-zero whenever anything can score).
                if tf == 0 || tf > docs[doc as usize].len {
                    return None;
                }
                list.push(Posting { doc: doc as u32, tf });
            }
            dfs.push(list.len() as u32);
            postings.push(list);
        }
        let vocab = Vocabulary::from_parts(terms, dfs, u32::try_from(ndocs).ok()?)?;
        r.exhausted().then_some(Self {
            params: Bm25Params { k1, b },
            vocab,
            postings,
            docs,
            total_tokens,
            dead: vec![false; ndocs],
            dead_count: 0,
            dead_tokens: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<(u64, &'static str)> {
        vec![
            (10, "Radiation induces apoptosis in tumour cells."),
            (11, "Radiation damages DNA. Repair pathways respond to radiation."),
            (12, "Hypoxia causes radioresistance in tumour cores."),
            (13, "Hospital billing codes changed in fiscal budgets."),
            (14, "the of and"), // stopword-only: counted, posts nothing
            (15, ""),
        ]
    }

    fn build() -> LexicalIndex {
        let mut idx = LexicalIndex::default();
        for (id, text) in corpus() {
            idx.add(id, text);
        }
        idx
    }

    #[test]
    fn bm25_ranks_keyword_matches_first() {
        let idx = build();
        let hits = idx.search("radiation repair", 3);
        assert_eq!(hits[0].id, 11, "two matching terms beat one: {hits:?}");
        assert_eq!(hits[1].id, 10);
        assert!(hits.iter().all(|h| h.id != 13), "unrelated doc never surfaces");
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        let idx = build();
        let hits = idx.search("hypoxia radiation", 4);
        // "hypoxia" (df 1) out-scores "radiation" (df 2, higher tf).
        assert_eq!(hits[0].id, 12, "{hits:?}");
    }

    #[test]
    fn degenerate_queries_are_total() {
        let idx = build();
        assert!(idx.search("", 5).is_empty());
        assert!(idx.search("the of and", 5).is_empty(), "all-stopword query");
        assert!(idx.search("zzzunknown", 5).is_empty());
        assert!(idx.search("radiation", 0).is_empty(), "k = 0");
        let all = idx.search("radiation tumour hypoxia billing", 100);
        assert!(all.len() <= idx.len(), "k > len returns at most the matches");
        assert!(LexicalIndex::default().search("radiation", 5).is_empty(), "empty index");
    }

    #[test]
    fn batch_build_and_search_match_serial() {
        let exec = Executor::global();
        let serial = build();
        let mut batched = LexicalIndex::default();
        batched.add_batch(exec, &corpus());
        assert_eq!(serial, batched, "add_batch ≡ serial add");
        let queries = ["radiation repair", "", "tumour cores", "billing"];
        let batch = batched.search_batch(exec, &queries, 4);
        for (q, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits, &serial.search(q, 4), "query {q:?}");
        }
    }

    /// A corpus several counting runs long whose vocabulary keeps growing
    /// (`late{i / 5}` first appears at document `i`) while `shared` and the
    /// `cycle*` terms recur in every run. On either side of every multiple
    /// of 7 and of `RUN_DOCS` sits a document a run boundary could
    /// mishandle: an empty one, a stopword-only one, or — astride the third
    /// `RUN_DOCS` boundary — one whose only term (`anchor`) was last seen
    /// in document 0, three runs earlier.
    fn long_corpus() -> Vec<(u64, String)> {
        let edge = |i: usize| {
            [7, RUN_DOCS].iter().any(|&run| i.is_multiple_of(run) || (i + 1).is_multiple_of(run))
        };
        (0..3 * RUN_DOCS + 9)
            .map(|i| {
                let text = match i {
                    0 => "anchor shared cycle0 anchor".to_string(),
                    _ if i + 1 == 3 * RUN_DOCS || i == 3 * RUN_DOCS => "anchor".to_string(),
                    _ if edge(i) && i % 3 == 0 => String::new(),
                    _ if edge(i) => "the of and".to_string(),
                    _ => format!(
                        "cycle{0} shared late{1} cycle{2} the cycle{0}",
                        i % 11,
                        i / 5,
                        i % 4
                    ),
                };
                (1000 + 3 * i as u64, text)
            })
            .collect()
    }

    #[test]
    fn run_length_never_shows_in_the_bytes() {
        let docs = long_corpus();
        let mut serial = LexicalIndex::default();
        for (id, text) in &docs {
            serial.add(*id, text);
        }
        let bytes = serial.to_bytes();
        for exec in [Executor::new(1), Executor::new(4)] {
            for run_docs in [1, 2, 7, RUN_DOCS, docs.len()] {
                let mut idx = LexicalIndex::default();
                idx.add_runs(&exec, &docs, run_docs);
                assert_eq!(idx, serial, "runs of {run_docs}");
                assert_eq!(idx.to_bytes(), bytes, "runs of {run_docs}");
            }
        }
        // Two bulk inserts continue one another: the second meets a
        // vocabulary the first already interned.
        let (head, tail) = docs.split_at(RUN_DOCS + 5);
        let mut resumed = LexicalIndex::default();
        resumed.add_batch(Executor::global(), head);
        resumed.add_batch(Executor::global(), tail);
        assert_eq!(resumed.to_bytes(), bytes);
        // The edge documents are all there: `anchor` finds document 0 and
        // the two astride the third run boundary, and the empty and
        // stopword-only ones are counted.
        let mut anchored: Vec<u64> =
            serial.search("anchor", docs.len()).iter().map(|h| h.id).collect();
        anchored.sort_unstable();
        assert_eq!(anchored, [0, 3 * RUN_DOCS - 1, 3 * RUN_DOCS].map(|i| docs[i].0));
        assert_eq!(serial.len(), docs.len());
    }

    #[test]
    fn decode_rejects_postings_the_builder_cannot_produce() {
        // `LEXI`, k1, b; ndocs = 1: (id Δ0, len 0); nterms = 1: "xenon",
        // n = 1, (Δ0, tf 7). A zero-length document with a posting:
        // `avgdl` would be 0 / 1 and the document's length norm 0 / 0 — a
        // NaN score.
        let mut hostile = LexicalIndex::default().to_bytes()[..12].to_vec();
        hostile.extend_from_slice(&[1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 5]);
        hostile.extend_from_slice(b"xenon");
        hostile.extend_from_slice(&[1, 0, 7]);
        assert!(LexicalIndex::from_bytes(&hostile).is_none(), "tf 7 in a document of length 0");
        // The same blob with len 7 is what `add(0, "xenon ×7")` writes.
        let mut honest = hostile.clone();
        honest[17] = 7;
        let idx = LexicalIndex::from_bytes(&honest).expect("tf = len decodes");
        let mut built = LexicalIndex::default();
        built.add(0, "xenon xenon xenon xenon xenon xenon xenon");
        assert_eq!(idx, built);
        assert!(idx.search("xenon", 3)[0].score.is_finite());
        // tf = 0: a posting for a term the document does not contain.
        let mut zero_tf = honest.clone();
        *zero_tf.last_mut().expect("non-empty") = 0;
        assert!(LexicalIndex::from_bytes(&zero_tf).is_none(), "tf 0");
        // tf one past the document's length.
        let mut long_tf = honest;
        *long_tf.last_mut().expect("non-empty") = 8;
        assert!(LexicalIndex::from_bytes(&long_tf).is_none(), "tf 8 in a document of length 7");
    }

    #[test]
    fn codec_roundtrip_is_bit_identical() {
        let idx = build();
        let bytes = idx.to_bytes();
        let back = LexicalIndex::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, idx);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
        // Truncation at every prefix length is rejected, never panics.
        for cut in 0..bytes.len() {
            assert!(LexicalIndex::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage rejected.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(LexicalIndex::from_bytes(&longer).is_none());
        // Wrong magic rejected.
        let mut wrong = idx.to_bytes();
        wrong[0] = b'X';
        assert!(LexicalIndex::from_bytes(&wrong).is_none());
    }

    #[test]
    fn remove_upsert_compact_match_rebuild_from_scratch() {
        let exec = Executor::global();
        let mut idx = build();

        assert_eq!(idx.remove(&[11, 14, 999]), 2);
        assert_eq!(idx.remove(&[11]), 0, "re-removal is a no-op");
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.tombstones(), 2);
        assert!(idx.search("repair", 5).is_empty(), "df of a fully dead term is live-corrected");

        // Upsert replaces doc 12 and re-introduces id 11 with new text:
        // per-entry tombstones must surface the new entries.
        idx.upsert(
            exec,
            &[(12, "Proton arcs spare healthy tissue."), (11, "Dose painting boosts tumours.")],
        );
        assert_eq!(idx.len(), 5, "12 replaced in place, 11 re-added");

        // From-scratch rebuild over the final live docs: interning order
        // differs (e.g. "radiation" is no longer term 0), yet every score
        // must match bit-for-bit thanks to string-ordered accumulation
        // and live-corrected n/avgdl/df.
        let mut rebuilt = LexicalIndex::default();
        rebuilt.add(10, "Radiation induces apoptosis in tumour cells.");
        rebuilt.add(13, "Hospital billing codes changed in fiscal budgets.");
        rebuilt.add(15, "");
        rebuilt.add(12, "Proton arcs spare healthy tissue.");
        rebuilt.add(11, "Dose painting boosts tumours.");
        for q in ["radiation tumour", "proton dose", "billing", "repair pathways", ""] {
            assert_eq!(idx.search(q, 6), rebuilt.search(q, 6), "query {q:?}");
        }

        // Serialisation writes the live view; compaction is the same
        // rewrite in place, and neither changes a single search bit.
        let wire = idx.to_bytes();
        idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.to_bytes(), wire);
        for q in ["radiation tumour", "proton dose", "billing"] {
            assert_eq!(idx.search(q, 6), rebuilt.search(q, 6), "post-compaction query {q:?}");
        }
        // The decoded live view keeps matching too.
        let back = LexicalIndex::from_bytes(&wire).expect("decodes");
        assert_eq!(back.search("radiation tumour", 6), rebuilt.search("radiation tumour", 6));

        // The same on a corpus several counting runs long: an upsert that
        // itself spans two runs lands on a batch-built, tombstoned index
        // (its terms already interned, some only by documents now dead),
        // and compaction must not move a search bit.
        let docs = long_corpus();
        let mut idx = LexicalIndex::default();
        idx.add_batch(exec, &docs);
        let fresh: Vec<(u64, String)> = (0..RUN_DOCS + 3)
            .map(|i| {
                // Every third document of the first run and a half is
                // replaced; the rest of the batch is new ids.
                let id = if i < RUN_DOCS / 2 { docs[3 * i].0 } else { 9000 + i as u64 };
                (id, format!("proton{} shared late{} proton{0} brandnew{}", i % 5, i / 2, i / 9))
            })
            .collect();
        let gone: Vec<u64> = docs[RUN_DOCS - 2..RUN_DOCS + 2].iter().map(|(id, _)| *id).collect();
        assert_eq!(idx.remove(&gone), 4, "four documents astride the first run boundary");
        idx.upsert(exec, &fresh);
        assert_eq!(
            idx.tombstones(),
            4 + RUN_DOCS / 2 - 1,
            "document 63 was removed first and comes back under its old id"
        );
        let replaced: std::collections::HashSet<u64> =
            gone.iter().copied().chain(fresh.iter().map(|(id, _)| *id)).collect();
        let mut rebuilt = LexicalIndex::default();
        for (id, text) in docs.iter().filter(|(id, _)| !replaced.contains(id)).chain(&fresh) {
            rebuilt.add(*id, text);
        }
        assert_eq!(idx.len(), rebuilt.len());
        let queries =
            ["anchor", "shared late3 cycle2", "proton1 brandnew0 late40", "late12 cycle7"];
        let before: Vec<_> = queries.iter().map(|q| idx.search(q, 12)).collect();
        for (q, hits) in queries.iter().zip(&before) {
            assert!(!hits.is_empty(), "query {q:?} matches something");
            assert_eq!(hits, &rebuilt.search(q, 12), "long corpus, query {q:?}");
        }
        let wire = idx.to_bytes();
        idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.to_bytes(), wire, "long corpus: compaction writes the live view");
        let back = LexicalIndex::from_bytes(&wire).expect("decodes");
        for (q, hits) in queries.iter().zip(&before) {
            assert_eq!(&idx.search(q, 12), hits, "long corpus, compacted, query {q:?}");
            assert_eq!(&back.search(q, 12), hits, "long corpus, decoded, query {q:?}");
        }

        // Degenerate: removing everything empties the index (the
        // vocabulary survives with zero-df terms, invisible to search).
        let mut all_gone = build();
        let ids: Vec<u64> = corpus().iter().map(|(id, _)| *id).collect();
        assert_eq!(all_gone.remove(&ids), 6);
        assert!(all_gone.is_empty());
        assert!(all_gone.search("radiation", 5).is_empty());
        all_gone.compact();
        assert_eq!(all_gone.len(), 0);
        let back = LexicalIndex::from_bytes(&all_gone.to_bytes()).expect("decodes");
        assert!(back.is_empty());
        assert!(back.search("radiation", 5).is_empty());
    }

    #[test]
    fn payload_bytes_counts_resident_structures() {
        let idx = build();
        assert!(idx.payload_bytes() > 0);
        assert!(idx.payload_bytes() >= idx.num_terms() * 4);
        assert_eq!(LexicalIndex::default().payload_bytes(), 0);
    }

    #[test]
    fn stats_track_documents() {
        let idx = build();
        assert_eq!(idx.len(), 6);
        assert!(idx.num_terms() > 0);
        assert!(!idx.is_empty());
    }
}
