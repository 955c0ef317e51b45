//! Per-question retrieval, oracle relevance labels and context assembly.

use std::collections::HashMap;
use std::time::Instant;

use mcqa_core::PipelineOutput;
use mcqa_llm::context::assemble;
use mcqa_llm::{AssembledContext, McqItem, PreparedItem, TraceMode};
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
    /// source's context lives in. Constant-time (no linear scan).
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
/// each chunk's position, and each trace's token count and fact. An
/// evaluator builds one and labels both benchmarks' hits with it, so every
/// trace is tokenised once per evaluator, not once per benchmark.
pub(crate) struct HitLabels<'a> {
    output: &'a PipelineOutput,
    /// chunk_id → position in `output.chunks`.
    chunk_pos: HashMap<u64, usize>,
    /// (question_id, mode) → the trace's token count.
    trace_tokens: HashMap<(u64, TraceMode), usize>,
    /// question_id → the fact its traces reason about.
    trace_fact: HashMap<u64, u64>,
}

impl<'a> HitLabels<'a> {
    /// Index `output`'s chunks and traces.
    pub(crate) fn new(output: &'a PipelineOutput) -> Self {
        let chunk_pos = output.chunks.iter().enumerate().map(|(i, c)| (c.chunk_id, i)).collect();
        let mut trace_tokens = HashMap::new();
        let mut trace_fact = HashMap::new();
        for t in &output.traces {
            trace_tokens.insert((t.question_id, t.mode), token_count(&t.trace));
            trace_fact.insert(t.question_id, t.fact_id);
        }
        Self { output, chunk_pos, trace_tokens, trace_fact }
    }
}

/// The serving front door retrieval replays through: the pipeline's own
/// registry, encoder and executor.
pub(crate) fn retrieval_service(output: &PipelineOutput) -> QueryService {
    QueryService::start(
        output.indexes.clone(),
        Some(output.encoder.clone()),
        output.executor.clone(),
        ServeConfig::default(),
    )
}

/// Retrieve the top-`k` hits for every item from all four sources under
/// `mode` (dense, lexical, or hybrid — every mode rides the same
/// [`QueryService`] envelope), label each hit from `labels` and assemble
/// one context per (item, source), in [`Source::ALL`] order. Also returns
/// the run's `eval-retrieve` [`StageMetrics`] row, so the evaluator folds
/// retrieval into its stage report instead of re-timing the same work.
///
/// All four sources travel as one replay through `service`: one admission
/// unit, one dispatch and one reply. Stems travel as text: the service
/// encodes each distinct one once, in one batch, and serves every later
/// request for it — the other three sources, a second replay — from its
/// own cache. It is the same admission-controlled, micro-batching front
/// door online traffic uses, so there is exactly one code path into the
/// vector stores.
///
/// Relevance labelling (ground truth, used by the simulator only):
/// * a chunk supports the question's fact iff the chunk's provenance fact
///   list contains it;
/// * a trace supports it iff the trace reasons about the same fact, or
///   about another fact with the same subject entity (knowledge transfer:
///   a distilled rationale about TRK2's signalling helps answer other TRK2
///   questions — the channel the paper attributes reasoning-trace
///   retrieval's exam gains to).
///
/// A hit whose id `labels` does not know is skipped.
pub(crate) fn retrieve_contexts(
    labels: &HitLabels<'_>,
    items: &[PreparedItem],
    k: usize,
    mode: QueryMode,
    service: &QueryService,
) -> (Vec<[AssembledContext; 4]>, StageMetrics) {
    let HitLabels { output, chunk_pos, trace_tokens, trace_fact } = labels;
    let subject_of = |fact_id: u64| -> Option<u32> {
        output.ontology.fact(mcqa_ontology::FactId(fact_id)).map(|f| f.subject.0)
    };

    let retrieve_timer = Instant::now();

    // Queries = the stems. Including the options would inject six
    // same-kind distractor names that pull retrieval toward unrelated
    // chunks (measured: −20 points of hit rate). The replay's grouped
    // `search_batch` scans each store once for every stem. A service-side
    // failure here (an unregistered store) is a wiring bug, not a
    // skippable condition.
    let reqs = Source::ALL.iter().flat_map(|source| {
        items.iter().map(|item| {
            QueryRequest::text(source.store_name(), &item.item().stem, k).with_mode(mode)
        })
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

    let (contexts, _) =
        run_stage(&output.executor, "eval-retrieve-label", (0..items.len()).collect(), |qi| {
            let item = &items[qi];
            let fact = item.item().fact;
            let item_subject = subject_of(fact.0);
            let trace_supports =
                |f: u64| f == fact.0 || (item_subject.is_some() && subject_of(f) == item_subject);
            Source::ALL.map(|source| {
                let hits = hits_per_source[source.index()][qi].iter();
                match source {
                    Source::Chunks => assemble(
                        item.tokens(),
                        hits.filter_map(|hit| {
                            let chunk = &output.chunks[*chunk_pos.get(&hit.id)?];
                            Some((chunk.tokens, chunk.facts.contains(&fact)))
                        }),
                    ),
                    Source::Traces(mode) => assemble(
                        item.tokens(),
                        hits.filter_map(|hit| {
                            let tokens = *trace_tokens.get(&(hit.id, mode))?;
                            Some((
                                tokens,
                                trace_fact.get(&hit.id).is_some_and(|&f| trace_supports(f)),
                            ))
                        }),
                    ),
                }
            })
        });

    // One stage row spanning the served replay and labelling, so the
    // report's `eval-retrieve` line reports end-to-end questions/s
    // (`items/s`) and passages/s (`out/s`).
    let produced: usize = contexts.iter().flatten().map(|c| c.passages).sum();
    let metrics = StageMetrics::single(
        "eval-retrieve",
        items.len(),
        produced,
        retrieve_timer.elapsed().as_secs_f64(),
    );
    (contexts, metrics)
}

/// Usable-hit rate for a source: the fraction of the questions `mask`
/// picks (`None`: all of them) whose context holds a supporting passage.
/// A context holds every retrieved passage, so this is also the rate at
/// which top-k retrieval finds one. No question picked reads 0.
pub(crate) fn hit_rate(
    contexts: &[[AssembledContext; 4]],
    source: Source,
    mask: Option<&[bool]>,
) -> f64 {
    let si = source.index();
    let (mut hits, mut total) = (0usize, 0usize);
    for (q, ctx) in contexts.iter().enumerate() {
        if mask.is_none_or(|m| m[q]) {
            total += 1;
            hits += usize::from(ctx[si].relevant);
        }
    }
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

/// Usable-hit rate of each source, in [`Source::ALL`] order, when `items`
/// retrieve top-`k` under `mode` from `output`'s stores — the evaluator's
/// own retrieval and labelling, through a service of its own.
pub fn source_hit_rates(
    output: &PipelineOutput,
    items: &[McqItem],
    k: usize,
    mode: QueryMode,
) -> [f64; 4] {
    let items: Vec<_> = items.iter().cloned().map(PreparedItem::new).collect();
    let service = retrieval_service(output);
    let (contexts, _) = retrieve_contexts(&HitLabels::new(output), &items, k, mode, &service);
    Source::ALL.map(|s| hit_rate(&contexts, s, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astro::AstroExam;
    use mcqa_core::{Pipeline, PipelineConfig, PipelineOutput};
    use mcqa_ontology::FactId;

    fn output() -> &'static PipelineOutput {
        static OUT: std::sync::OnceLock<PipelineOutput> = std::sync::OnceLock::new();
        OUT.get_or_init(|| Pipeline::run(&PipelineConfig::tiny(42)))
    }

    fn prepared(items: &[McqItem]) -> Vec<PreparedItem> {
        items.iter().cloned().map(PreparedItem::new).collect()
    }

    /// Every (item, source) context of `items` under `mode`, through a
    /// service of its own.
    fn contexts(
        out: &PipelineOutput,
        items: &[McqItem],
        k: usize,
        mode: QueryMode,
    ) -> Vec<[AssembledContext; 4]> {
        let service = retrieval_service(out);
        retrieve_contexts(&HitLabels::new(out), &prepared(items), k, mode, &service).0
    }

    #[test]
    fn contexts_match_a_hand_search_and_the_oracle() {
        // Encode-then-search by hand, tokenise each retrieved text here and
        // re-derive its label from the provenance oracle: the counts and
        // labels `retrieve_contexts` reads from its index must agree. The
        // exam's questions have no trace of their own, so their trace hits
        // are usable only through the subject-transfer rule.
        let out = output();
        let k = 5;
        let exam = AstroExam::generate(&out.ontology, &out.models, 42, &out.executor);
        let subject = |f: u64| out.ontology.fact(FactId(f)).map(|f| f.subject);
        for items in [&out.items, &exam.items] {
            let ctxs = contexts(out, items, k, QueryMode::Dense);
            assert_eq!(ctxs.len(), items.len());
            for (q, per_source) in ctxs.iter().enumerate() {
                for (s, ctx) in Source::ALL.iter().zip(per_source) {
                    assert!((1..=k).contains(&ctx.passages), "q{q} {s:?}: {}", ctx.passages);
                }
            }
            let mut relevant = [0; 4];
            for (item, per_source) in items.iter().zip(&ctxs).take(40) {
                let query = out.encoder.encode(&item.stem);
                for source in Source::ALL {
                    let hits = out.indexes.expect_store(source.store_name()).search(&query, k);
                    let passages: Vec<(usize, bool)> = hits
                        .iter()
                        .filter_map(|hit| match source {
                            Source::Chunks => {
                                let c = out.chunks.iter().find(|c| c.chunk_id == hit.id)?;
                                Some((token_count(&c.text), c.facts.contains(&item.fact)))
                            }
                            Source::Traces(mode) => {
                                let t = out
                                    .traces
                                    .iter()
                                    .find(|t| t.question_id == hit.id && t.mode == mode)?;
                                let same_subject = subject(item.fact.0)
                                    .is_some_and(|s| subject(t.fact_id) == Some(s));
                                let supports = t.fact_id == item.fact.0 || same_subject;
                                Some((token_count(&t.trace), supports))
                            }
                        })
                        .collect();
                    let got = &per_source[source.index()];
                    let expected = assemble(item.prompt_tokens(), passages);
                    assert_eq!(got, &expected, "{:?} q{} {source:?}", item.bench, item.qid);
                    relevant[source.index()] += usize::from(got.relevant);
                }
            }
            assert!(relevant.iter().all(|&n| n > 0), "a source had no usable hit: {relevant:?}");
        }
    }

    #[test]
    fn trace_retrieval_hits_own_question() {
        // A synthetic question's own trace is in the DB and shares its
        // vocabulary: hit rates must be near-perfect.
        let out = output();
        let ctxs = contexts(out, &out.items, 5, QueryMode::Dense);
        for mode in TraceMode::ALL {
            let r = hit_rate(&ctxs, Source::Traces(mode), None);
            assert!(r > 0.9, "{mode:?} raw hit rate {r:.3}");
        }
    }

    #[test]
    fn chunk_retrieval_hits_most_questions() {
        let out = output();
        let ctxs = contexts(out, &out.items, 5, QueryMode::Dense);
        let r = hit_rate(&ctxs, Source::Chunks, None);
        assert!(r > 0.5, "chunk raw hit rate {r:.3}");
        assert!(r < 1.0, "chunk retrieval should not be perfect");
        // A mask picking every question is no mask; one picking none reads 0.
        let all = vec![true; ctxs.len()];
        assert_eq!(hit_rate(&ctxs, Source::Chunks, Some(&all)).to_bits(), r.to_bits());
        let none = vec![false; ctxs.len()];
        assert_eq!(hit_rate(&ctxs, Source::Chunks, Some(&none)), 0.0);
    }

    #[test]
    fn replays_share_one_service() {
        let out = output();
        let service = retrieval_service(out);
        let labels = HitLabels::new(out);
        let items = prepared(&out.items);
        let (c1, _) = retrieve_contexts(&labels, &items, 5, QueryMode::Dense, &service);
        let (c2, _) = retrieve_contexts(&labels, &items, 5, QueryMode::Dense, &service);
        assert_eq!(c1, c2, "a second replay reads the same contexts");
        // Both replays' searches rode the service: everything submitted was
        // admitted and answered, one dispatch per replay (its four sources
        // travel together).
        let snap = service.shutdown();
        let expected = 2 * 4 * out.items.len() as u64;
        assert_eq!(snap.admitted, expected);
        assert_eq!(snap.served_ok, expected);
        assert_eq!(snap.batches, 2);
    }

    #[test]
    fn service_retrieval_is_bit_identical_to_direct_search() {
        // The reroute through the serving layer must not change a single
        // hit: send what `retrieve_contexts` sends — every stem, as text,
        // against all four sources in one replay — and compare against
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
    fn lexical_and_hybrid_contexts_cover_all_items() {
        let out = output();
        let k = 5;
        let hybrid = QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 };
        let dense = contexts(out, &out.items, k, QueryMode::Dense);
        let lexical = contexts(out, &out.items, k, QueryMode::Lexical);
        let hybrid = contexts(out, &out.items, k, hybrid);
        assert_eq!(lexical.len(), out.items.len());
        assert_eq!(hybrid.len(), out.items.len());
        // A question's own trace shares its vocabulary: the lexical
        // channel must find it nearly always, and fusing both channels
        // must not give up what either finds alone.
        for mode in TraceMode::ALL {
            let s = Source::Traces(mode);
            let [d, l, h] = [&dense, &lexical, &hybrid].map(|c| hit_rate(c, s, None));
            assert!(l > 0.8, "{mode:?} lexical {l}");
            assert!(h + 0.05 >= d, "{mode:?} hybrid {h} vs dense {d}");
        }
    }

    #[test]
    fn empty_items() {
        let out = output();
        let ctxs = contexts(out, &[], 5, QueryMode::Dense);
        assert!(ctxs.is_empty());
        for mask in [None, Some(&[][..])] {
            assert_eq!(hit_rate(&ctxs, Source::Chunks, mask), 0.0, "{mask:?}");
        }
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
