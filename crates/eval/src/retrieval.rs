//! Per-question retrieval with oracle relevance labels.

use std::collections::HashMap;
use std::time::Instant;

use mcqa_core::PipelineOutput;
use mcqa_llm::{McqItem, Passage, TraceMode};
use mcqa_runtime::{run_stage, StageMetrics};
use mcqa_serve::{QueryMode, QueryRequest, QueryService, ServeConfig};
use mcqa_text::token_count;

/// A retrieval source key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    /// The chunk database.
    Chunks,
    /// A trace database.
    Traces(TraceMode),
}

impl Source {
    /// All four sources in canonical order.
    pub const ALL: [Source; 4] = [
        Source::Chunks,
        Source::Traces(TraceMode::Detailed),
        Source::Traces(TraceMode::Focused),
        Source::Traces(TraceMode::Efficient),
    ];

    /// Position in [`Source::ALL`] — the per-question array slot this
    /// source's passages live in. Constant-time (no linear scan).
    pub(crate) fn index(self) -> usize {
        match self {
            Source::Chunks => 0,
            Source::Traces(TraceMode::Detailed) => 1,
            Source::Traces(TraceMode::Focused) => 2,
            Source::Traces(TraceMode::Efficient) => 3,
        }
    }

    /// The pipeline registry name of this source's vector database.
    pub fn store_name(self) -> &'static str {
        match self {
            Source::Chunks => mcqa_core::CHUNKS_STORE,
            Source::Traces(mode) => mode.db_name(),
        }
    }
}

/// What labelling a retrieved id reads, indexed once per pipeline output:
/// each chunk's position, and each trace's text, token count and fact. An
/// evaluator builds one and labels both of its bundles with it, so every
/// trace is tokenised once per evaluator, not once per bundle.
pub(crate) struct PassageTexts<'a> {
    output: &'a PipelineOutput,
    /// chunk_id → position in `output.chunks`.
    chunk_pos: HashMap<u64, usize>,
    /// (question_id, mode) → trace text and its token count.
    traces: HashMap<(u64, TraceMode), (&'a str, usize)>,
    /// question_id → the fact its traces reason about.
    trace_fact: HashMap<u64, u64>,
}

impl<'a> PassageTexts<'a> {
    /// Index `output`'s chunks and traces.
    pub(crate) fn new(output: &'a PipelineOutput) -> Self {
        let chunk_pos = output.chunks.iter().enumerate().map(|(i, c)| (c.chunk_id, i)).collect();
        let mut traces = HashMap::new();
        let mut trace_fact = HashMap::new();
        for t in &output.traces {
            traces.insert((t.question_id, t.mode), (t.trace.as_str(), token_count(&t.trace)));
            trace_fact.insert(t.question_id, t.fact_id);
        }
        Self { output, chunk_pos, traces, trace_fact }
    }
}

/// Precomputed retrieval results for a set of questions: for every
/// (question, source) the top-k passages with oracle relevance labels, each
/// borrowing its text from the pipeline output and carrying its own token
/// count ([`Passage::tokens`]) — so assembling a window for one more model
/// card copies and tokenises nothing.
pub struct RetrievalBundle<'a> {
    /// `passages[q][source-index]` = retrieved passages for question `q`.
    passages: Vec<[Vec<Passage<'a>>; 4]>,
}

/// The serving front door a retrieval bundle replays through: the
/// pipeline's own registry, encoder and executor.
pub(crate) fn retrieval_service(output: &PipelineOutput) -> QueryService {
    QueryService::start(
        output.indexes.clone(),
        Some(output.encoder.clone()),
        output.executor.clone(),
        ServeConfig::default(),
    )
}

impl<'a> RetrievalBundle<'a> {
    /// Run retrieval for `items` over the pipeline's stores under `mode`
    /// (dense, lexical, or hybrid — every mode rides the same
    /// [`QueryService`] envelope), fanned out on the pipeline's own
    /// executor.
    ///
    /// Relevance labelling (ground truth, used by the simulator only):
    /// * a chunk passage supports the question's fact iff the chunk's
    ///   provenance fact list contains it;
    /// * a trace passage supports it iff the trace's source fact matches.
    pub fn build_mode(
        output: &'a PipelineOutput,
        items: &[McqItem],
        k: usize,
        mode: QueryMode,
    ) -> Self {
        let service = retrieval_service(output);
        Self::build_metered(&PassageTexts::new(output), items, k, mode, &service).0
    }

    /// [`RetrievalBundle::build_mode`] through a caller-held `service`,
    /// labelled from a caller-held [`PassageTexts`], also returning the
    /// fan-out's runtime [`StageMetrics`] so the evaluator can fold
    /// retrieval into its stage report instead of re-timing the same work.
    /// All four sources travel as one replay, so a bundle is one admission
    /// unit, one dispatch and one reply. Stems travel as text: the service
    /// encodes each distinct one once, in one batch, and serves every later
    /// request for it — the other three sources, a second bundle — from its
    /// own cache. It is the same admission-controlled, micro-batching front
    /// door online traffic uses, so there is exactly one code path into the
    /// vector stores.
    pub(crate) fn build_metered(
        texts: &PassageTexts<'a>,
        items: &[McqItem],
        k: usize,
        mode: QueryMode,
        service: &QueryService,
    ) -> (Self, StageMetrics) {
        let PassageTexts { output, chunk_pos, traces, trace_fact } = texts;
        // Fact → subject entity (traces about the same subject transfer:
        // a distilled rationale about TRK2's signalling helps answer other
        // TRK2 questions, which is the knowledge-transfer channel the
        // paper attributes reasoning-trace retrieval's exam gains to).
        let subject_of = |fact_id: u64| -> Option<u32> {
            output.ontology.fact(mcqa_ontology::FactId(fact_id)).map(|f| f.subject.0)
        };

        let retrieve_timer = Instant::now();

        // One replay over all four source databases through the query
        // service: one admission unit and one dispatch, whose grouped
        // `search_batch` scans each store once for every stem.
        // Queries = the stems. Including the options would inject six
        // same-kind distractor names that pull retrieval toward unrelated
        // chunks (measured: −20 points of hit rate). A service-side failure
        // here (an unregistered store) is a wiring bug, not a skippable
        // condition.
        let reqs = Source::ALL.iter().flat_map(|source| {
            items
                .iter()
                .map(|item| QueryRequest::text(source.store_name(), &item.stem, k).with_mode(mode))
        });
        let mut replies = service.query_batch(reqs.collect()).into_iter();
        let hits_per_source: [Vec<Vec<mcqa_util::SearchResult>>; 4] = Source::ALL.map(|source| {
            replies
                .by_ref()
                .take(items.len())
                .map(|r| match r {
                    Ok(resp) => resp.hits,
                    Err(e) => panic!("retrieval from '{}' failed: {e}", source.store_name()),
                })
                .collect()
        });

        // Attach texts and oracle relevance labels per question. A trace
        // supports the question when it reasons about the same fact, or
        // about another fact with the same subject entity (knowledge
        // transfer: a distilled rationale about TRK2's signalling helps
        // answer other TRK2 questions — the channel the paper attributes
        // reasoning-trace retrieval's exam gains to).
        let (passages, _) =
            run_stage(&output.executor, "eval-retrieve-label", (0..items.len()).collect(), |qi| {
                let item = &items[qi];
                let mut per_source: [Vec<Passage<'a>>; 4] =
                    [Vec::new(), Vec::new(), Vec::new(), Vec::new()];

                for hit in &hits_per_source[Source::Chunks.index()][qi] {
                    let Some(&pos) = chunk_pos.get(&hit.id) else { continue };
                    let chunk = &output.chunks[pos];
                    per_source[Source::Chunks.index()].push(Passage::new(
                        &chunk.text,
                        chunk.tokens,
                        chunk.facts.contains(&item.fact).then_some(item.fact),
                    ));
                }

                let item_subject = subject_of(item.fact.0);
                for mode in TraceMode::ALL {
                    let source = Source::Traces(mode);
                    for hit in &hits_per_source[source.index()][qi] {
                        let Some(&(text, tokens)) = traces.get(&(hit.id, mode)) else {
                            continue;
                        };
                        let supports = trace_fact
                            .get(&hit.id)
                            .filter(|f| {
                                **f == item.fact.0
                                    || (item_subject.is_some() && subject_of(**f) == item_subject)
                            })
                            .map(|_| item.fact);
                        per_source[source.index()].push(Passage::new(text, tokens, supports));
                    }
                }
                per_source
            });

        // One stage row spanning the served replay and labelling, so the report's
        // `eval-retrieve` line reports end-to-end questions/s (`items/s`)
        // and passages/s (`out/s`).
        let produced: usize = passages.iter().map(|p| p.iter().map(Vec::len).sum::<usize>()).sum();
        let metrics = StageMetrics::single(
            "eval-retrieve",
            items.len(),
            produced,
            retrieve_timer.elapsed().as_secs_f64(),
        );

        (Self { passages }, metrics)
    }

    /// Retrieved passages for question index `q` from `source`.
    pub(crate) fn passages(&self, q: usize, source: Source) -> &[Passage<'a>] {
        &self.passages[q][source.index()]
    }

    /// Raw retrieval hit rate (before truncation) for a source: the
    /// fraction of questions whose top-k contains a supporting passage.
    pub fn raw_hit_rate(&self, source: Source) -> f64 {
        if self.passages.is_empty() {
            return 0.0;
        }
        let si = source.index();
        let hits =
            self.passages.iter().filter(|p| p[si].iter().any(|x| x.supports.is_some())).count();
        hits as f64 / self.passages.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_core::{Pipeline, PipelineConfig, PipelineOutput};

    impl RetrievalBundle<'_> {
        /// Number of questions covered.
        fn len(&self) -> usize {
            self.passages.len()
        }

        /// True when no questions are covered.
        fn is_empty(&self) -> bool {
            self.passages.is_empty()
        }
    }

    fn output() -> &'static PipelineOutput {
        static OUT: std::sync::OnceLock<PipelineOutput> = std::sync::OnceLock::new();
        OUT.get_or_init(|| Pipeline::run(&PipelineConfig::tiny(42)))
    }

    #[test]
    fn bundle_covers_all_items_with_k_passages() {
        let out = output();
        let bundle = RetrievalBundle::build_mode(out, &out.items, 5, QueryMode::Dense);
        assert_eq!(bundle.len(), out.items.len());
        for q in 0..bundle.len() {
            for s in Source::ALL {
                let ps = bundle.passages(q, s);
                assert!(ps.len() <= 5);
                assert!(!ps.is_empty(), "q{q} {s:?} returned nothing");
                // Passages carry counts taken elsewhere (the chunk record's,
                // one per trace); checked here so release builds see it too.
                for p in ps {
                    assert_eq!(p.tokens(), token_count(p.text()), "q{q} {s:?}");
                }
            }
        }
    }

    #[test]
    fn trace_retrieval_hits_own_question() {
        // A synthetic question's own trace is in the DB and shares its
        // vocabulary: hit rates must be near-perfect.
        let out = output();
        let bundle = RetrievalBundle::build_mode(out, &out.items, 5, QueryMode::Dense);
        for mode in TraceMode::ALL {
            let r = bundle.raw_hit_rate(Source::Traces(mode));
            assert!(r > 0.9, "{mode:?} raw hit rate {r:.3}");
        }
    }

    #[test]
    fn chunk_retrieval_hits_most_questions() {
        let out = output();
        let bundle = RetrievalBundle::build_mode(out, &out.items, 5, QueryMode::Dense);
        let r = bundle.raw_hit_rate(Source::Chunks);
        assert!(r > 0.5, "chunk raw hit rate {r:.3}");
        assert!(r < 1.0, "chunk retrieval should not be perfect");
    }

    #[test]
    fn relevance_labels_match_oracle() {
        let out = output();
        let bundle = RetrievalBundle::build_mode(out, &out.items, 5, QueryMode::Dense);
        let chunk_by_id: HashMap<u64, &mcqa_core::ChunkRecord> =
            out.chunks.iter().map(|c| (c.chunk_id, c)).collect();
        for (q, item) in out.items.iter().enumerate().take(40) {
            for p in bundle.passages(q, Source::Chunks) {
                if let Some(f) = p.supports {
                    assert_eq!(f, item.fact);
                    // Find the chunk by text and confirm the oracle.
                    let supporting = chunk_by_id
                        .values()
                        .any(|c| c.text == p.text() && c.facts.contains(&item.fact));
                    assert!(supporting, "labelled passage lacks oracle support");
                }
            }
        }
    }

    #[test]
    fn bundles_share_one_service() {
        let out = output();
        let service = retrieval_service(out);
        let texts = PassageTexts::new(out);
        let (b1, _) =
            RetrievalBundle::build_metered(&texts, &out.items, 5, QueryMode::Dense, &service);
        let (b2, _) =
            RetrievalBundle::build_metered(&texts, &out.items, 5, QueryMode::Dense, &service);
        assert_eq!(b1.len(), b2.len());
        // Both bundles' searches rode the service: everything submitted was
        // admitted and answered, one dispatch per bundle (its four sources
        // travel as one replay).
        let snap = service.shutdown();
        let expected = 2 * 4 * out.items.len() as u64;
        assert_eq!(snap.admitted, expected);
        assert_eq!(snap.served_ok, expected);
        assert_eq!(snap.batches, 2);
    }

    #[test]
    fn service_retrieval_is_bit_identical_to_direct_search() {
        // The reroute through the serving layer must not change a single
        // hit: send what the bundle sends — every stem, as text, against
        // all four sources in one replay — and compare against
        // encode-then-search done by hand for every (question, source) pair.
        let out = output();
        let service = retrieval_service(out);
        let k = 5;
        let reqs: Vec<QueryRequest> = Source::ALL
            .iter()
            .flat_map(|s| out.items.iter().map(|i| QueryRequest::text(s.store_name(), &i.stem, k)))
            .collect();
        let served = service.query_batch(reqs);
        assert_eq!(served.len(), 4 * out.items.len());
        let mut served = served.into_iter();
        for source in Source::ALL {
            let store = out.indexes.expect_store(source.store_name());
            for (item, res) in out.items.iter().zip(served.by_ref()) {
                let direct = store.search(&out.encoder.encode(&item.stem), k);
                assert_eq!(res.expect("served").hits, direct, "{source:?}");
            }
        }
        assert_eq!(service.shutdown().batches, 1, "the four sources rode one dispatch");
    }

    #[test]
    fn lexical_and_hybrid_bundles_cover_all_items() {
        let out = output();
        let k = 5;
        let dense = RetrievalBundle::build_mode(out, &out.items, k, QueryMode::Dense);
        let lexical = RetrievalBundle::build_mode(out, &out.items, k, QueryMode::Lexical);
        let hybrid = RetrievalBundle::build_mode(
            out,
            &out.items,
            k,
            QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 },
        );
        assert_eq!(lexical.len(), out.items.len());
        assert_eq!(hybrid.len(), out.items.len());
        // A question's own trace shares its vocabulary: the lexical
        // channel must find it nearly always, and fusing both channels
        // must not give up what either finds alone.
        for mode in TraceMode::ALL {
            let s = Source::Traces(mode);
            assert!(lexical.raw_hit_rate(s) > 0.8, "{mode:?} lexical {}", lexical.raw_hit_rate(s));
            assert!(
                hybrid.raw_hit_rate(s) + 0.05 >= dense.raw_hit_rate(s),
                "{mode:?} hybrid {} vs dense {}",
                hybrid.raw_hit_rate(s),
                dense.raw_hit_rate(s)
            );
        }
    }

    #[test]
    fn empty_items() {
        let out = output();
        let bundle = RetrievalBundle::build_mode(out, &[], 5, QueryMode::Dense);
        assert!(bundle.is_empty());
        assert_eq!(bundle.raw_hit_rate(Source::Chunks), 0.0);
    }

    #[test]
    fn source_index_matches_canonical_order() {
        for (i, s) in Source::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s:?}");
        }
        assert_eq!(Source::Chunks.store_name(), "chunks");
        assert_eq!(Source::Traces(TraceMode::Focused).store_name(), "traces-focused");
    }
}
