//! The orchestrated end-to-end pipeline.
//!
//! Every run — the cold full build and the incremental re-run — flows
//! through one planner (`Pipeline::run_planned`): the corpus is content-
//! hashed, its id-sorted address table is merged against the previous
//! run's [`IngestManifest`] (empty on a cold build, so everything
//! classifies as added), and only the chunk→embed→question slices the
//! [`ChangeSet`](crate::ingest::ChangeSet) touches are re-run. Unchanged slices replay from the previous output; stale index
//! rows are tombstoned and fresh rows upserted in place. There is no
//! second bookkeeping path: a full rebuild is the all-added degenerate
//! case of the incremental plan.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mcqa_corpus::{CorpusLibrary, DocId};
use mcqa_embed::{BioEncoder, Precision};
use mcqa_index::lexical::LexicalIndex;
use mcqa_index::{build_store_from_vectors, IndexRegistry, Metric, VectorStore};
use mcqa_llm::{
    BenchKind, Judge, McqItem, ModelHub, QuestionPrompt, Teacher, TraceMode, OPTION_LETTERS,
};
use mcqa_ontology::Ontology;
use mcqa_runtime::{run_stage, Executor, RunReport, StageMetrics};
use mcqa_util::{KeyedStochastic, ScopeTimer};

use crate::chunks::{ChunkRecord, MentionMatcher};
use crate::config::PipelineConfig;
use crate::ingest::{diff, ContentHash, IngestCensus, IngestManifest};
use crate::parse::{AdaptiveParser, ParseOutcome, ParsedDocument};
use crate::schema::{Provenance, QualityBlock, QuestionRecord, TraceRecord};

/// Registry name of the chunk vector database. The per-mode trace
/// databases are named by [`TraceMode::db_name`] (`traces-<mode>`).
pub const CHUNKS_STORE: &str = "chunks";

/// A store is compacted once tombstones exceed a quarter of its live
/// rows — cheap enough to amortise, tight enough that scans never wade
/// through mostly-dead storage.
fn over_tombstone_threshold(tombstones: usize, live: usize) -> bool {
    tombstones * 4 > live.max(1)
}

/// Bring one retrieval source — the dense store `name` and its `lex-`
/// sibling — up to date: compact what the previous round left tombstoned,
/// tombstone the rows of `dead` ids, add the fresh `vectors` / `texts`,
/// compact a side once its tombstones pass the threshold. A cold build is
/// the same plan with nothing registered and nothing dead: the dense store
/// is bulk-loaded (which is where IVF / PQ train) and the sibling starts
/// empty. One `index-<name>` and one `index-lex-<name>` stage row either
/// way (items = rows added, out = live rows afterwards).
///
/// The start-of-round compaction keeps a round's input what a decode of
/// the previous registry's tombstone-free wire format would be, so the
/// threshold only ever sees this round's tombstones. It is not counted in
/// `census.compactions`.
#[allow(clippy::too_many_arguments)]
fn refresh_source(
    config: &PipelineConfig,
    exec: &Executor,
    indexes: &mut IndexRegistry,
    census: &mut IngestCensus,
    report: &mut RunReport,
    name: &str,
    dead: &[u64],
    vectors: &[(u64, Vec<f32>)],
    texts: &[(u64, &str)],
) {
    let t = ScopeTimer::start("index");
    match indexes.get_mut(name) {
        None => indexes.insert(
            name,
            build_store_from_vectors(
                &config.index,
                config.embed.dim,
                Metric::Cosine,
                Precision::F16,
                exec,
                vectors,
            ),
        ),
        Some(store) => {
            store.compact(exec);
            census.tombstones_dense += store.remove(dead);
            store.add_batch(exec, vectors);
            if over_tombstone_threshold(store.tombstones(), store.len()) {
                store.compact(exec);
                census.compactions += 1;
            }
        }
    }
    report.add(StageMetrics::single(
        &format!("index-{name}"),
        vectors.len(),
        indexes.expect_store(name).len(),
        t.elapsed_secs(),
    ));

    // The BM25 sibling over the same texts, keyed by the same ids, so both
    // channels retrieve the same documents.
    let t = ScopeTimer::start("index-lex");
    let sibling = IndexRegistry::lexical_sibling(name);
    if indexes.lexical(&sibling).is_none() {
        indexes.insert_lexical(&sibling, LexicalIndex::new(Default::default()));
    }
    let lex = indexes.expect_lexical_mut(&sibling);
    lex.compact();
    census.tombstones_lexical += lex.remove(dead);
    lex.add_batch(exec, texts);
    if over_tombstone_threshold(lex.tombstones(), lex.len()) {
        lex.compact();
        census.compactions += 1;
    }
    report.add(StageMetrics::single(
        &format!("index-lex-{name}"),
        texts.len(),
        lex.len(),
        t.elapsed_secs(),
    ));
}

/// Everything the pipeline produces, ready for evaluation.
pub struct PipelineOutput {
    /// The configuration that produced this output.
    pub config: PipelineConfig,
    /// The generating ontology (ground truth).
    pub ontology: Arc<Ontology>,
    /// The corpus library (documents + blobs + oracle).
    pub library: Arc<CorpusLibrary>,
    /// All semantic chunks with provenance.
    pub chunks: Vec<ChunkRecord>,
    /// The shared encoder.
    pub encoder: BioEncoder,
    /// Accepted question records (Figure-2 schema).
    pub questions: Vec<QuestionRecord>,
    /// Accepted questions in evaluation form (index-aligned with
    /// `questions`; `qid` equals the position).
    pub items: Vec<McqItem>,
    /// Number of candidate questions generated (one per chunk), counting
    /// memoized candidates replayed by an incremental run.
    pub candidates: usize,
    /// Reasoning-trace records (Figure-3 schema), 3 per accepted question.
    pub traces: Vec<TraceRecord>,
    /// Per-mode trace embeddings in question-id order
    /// (`trace_vectors[mode-index][qid]`, mode index as in
    /// [`TraceMode::ALL`]). Trace text — and therefore its embedding —
    /// depends only on question content, so an incremental re-run re-keys
    /// a shifted question's store rows from these instead of re-encoding
    /// three unchanged traces per shifted id.
    pub trace_vectors: Vec<Vec<Vec<f32>>>,
    /// The paper's four vector databases behind one registry, all built
    /// with the backend `config.index` selects: [`CHUNKS_STORE`] keyed by
    /// `chunk_id` plus one [`TraceMode::db_name`] store per mode keyed by
    /// `question_id`. `Arc`-shared so the serving layer's dispatcher
    /// thread can hold the registry without copying the stores.
    pub indexes: Arc<IndexRegistry>,
    /// The model hub that served every model call: the simulator behind
    /// the response cache and per-role call ledger. The evaluator routes its judge/classifier/answerer
    /// calls through this same hub, so one ledger accounts for the whole
    /// reproduction and repeated evaluation passes hit the cache.
    pub models: Arc<ModelHub>,
    /// Per-stage metrics (Figure-1 reproduction). The model layer's cost
    /// accounting is `models.ledger()`, not a row here.
    pub report: RunReport,
    /// The scheduler the pipeline ran on. Downstream consumers (the
    /// evaluator, retrieval bundles, ablations) clone this handle so the
    /// whole reproduction shares one pool and one metrics surface.
    pub executor: Executor,
    /// The corpus content-address table this output was built from; the
    /// next run diffs its own table against this one to plan incremental
    /// work.
    pub manifest: IngestManifest,
    /// What the ingest planner scanned, skipped, and re-ran.
    pub ingest: IngestCensus,
}

impl PipelineOutput {
    /// Quality-filter acceptance rate (paper: ≈ 9.6%).
    pub fn acceptance_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.items.len() as f64 / self.candidates as f64
        }
    }

    /// The chunk vector database. Panics when absent (a wiring bug).
    pub fn chunk_store(&self) -> &dyn VectorStore {
        self.indexes.expect_store(CHUNKS_STORE)
    }

    /// The trace vector database for `mode`. Panics when absent.
    pub fn trace_store(&self, mode: TraceMode) -> &dyn VectorStore {
        self.indexes.expect_store(mode.db_name())
    }
}

/// The pipeline runner.
pub struct Pipeline;

/// A memoized per-chunk generation outcome replayed from a previous run.
struct PrevOutcome<'a> {
    record: &'a QuestionRecord,
    item: &'a McqItem,
    /// The question id the previous run assigned (ids are dense in
    /// acceptance order, so edits upstream shift them).
    old_qid: u64,
}

impl Pipeline {
    /// Run every stage from scratch: generate the ontology, acquire the
    /// corpus, and hand off to the planner with no previous output.
    pub fn run(config: &PipelineConfig) -> PipelineOutput {
        let mut report = RunReport::new();
        let exec = Executor::new(config.effective_workers());

        // Stage 1: ontology + corpus acquisition (synthesis and SPDF
        // rendering fan out on the pool inside `CorpusLibrary::build`).
        let t = ScopeTimer::start("acquire");
        let ontology = Arc::new(Ontology::generate(&config.ontology));
        let library = Arc::new(CorpusLibrary::build(&ontology, &config.acquisition, &exec));
        report.add(StageMetrics::single("acquire", library.len(), library.len(), t.elapsed_secs()));

        Self::run_planned(config, ontology, library, exec, report, None)
    }

    /// Full build over an existing (possibly edited) corpus — the cold
    /// rebuild an incremental run is measured against.
    pub fn run_full(
        config: &PipelineConfig,
        ontology: Arc<Ontology>,
        library: Arc<CorpusLibrary>,
    ) -> PipelineOutput {
        let exec = Executor::new(config.effective_workers());
        Self::run_planned(config, ontology, library, exec, RunReport::new(), None)
    }

    /// Incremental run: content-hash `library`, diff against `prev`'s
    /// manifest, and re-run only the slices the change set touches.
    /// Unchanged chunks replay their memoized generation outcome. The
    /// stores start from an in-memory copy of `prev`'s registry, each
    /// compacted of the tombstones `prev`'s round left; index rows for
    /// removed/modified slices are then tombstoned and fresh rows
    /// upserted, compacting once this round's tombstones exceed the
    /// threshold.
    ///
    /// `config` must equal `prev.config` in every field but `workers`
    /// (no artifact depends on the worker count). Replayed chunks, vectors
    /// and judged questions were made under `prev.config`; beside fresh
    /// ones made under any other setting the output would not be the cold
    /// rebuild of `library` under `config`, so a differing config panics.
    pub fn run_incremental(
        config: &PipelineConfig,
        prev: &PipelineOutput,
        library: Arc<CorpusLibrary>,
    ) -> PipelineOutput {
        assert_eq!(
            *config,
            PipelineConfig { workers: config.workers, ..prev.config.clone() },
            "incremental run must keep every setting of the previous run but `workers`"
        );
        let exec = Executor::new(config.effective_workers());
        Self::run_planned(
            config,
            Arc::clone(&prev.ontology),
            library,
            exec,
            RunReport::new(),
            Some(prev),
        )
    }

    /// The single planner every run flows through. `prev: None` is the
    /// cold build: the diff against an empty manifest classifies every
    /// document as added, so the whole corpus is one big re-run slice.
    fn run_planned(
        config: &PipelineConfig,
        ontology: Arc<Ontology>,
        library: Arc<CorpusLibrary>,
        exec: Executor,
        mut report: RunReport,
        prev: Option<&PipelineOutput>,
    ) -> PipelineOutput {
        let mut census = IngestCensus::default();

        // Ingest scan: content-hash every live document (fanned out), then
        // one merge pass over this run's table and the previous run's.
        let live_ids = library.live_ids();
        let (table, mut scan_metrics) = run_stage(&exec, "ingest-scan", live_ids, |id| {
            let blob = library.download(id).expect("live doc has a blob");
            (id.0 as u64, ContentHash::of_bytes(blob))
        });
        let manifest = IngestManifest::new(table);
        let changes = diff(prev.map_or(&[], |p| p.manifest.docs()), manifest.docs());
        census.docs_scanned = library.live_len();
        census.docs_added = changes.added.len();
        census.docs_modified = changes.modified.len();
        census.docs_removed = changes.removed.len();
        scan_metrics.produced = changes.len();
        report.add(scan_metrics);

        // Stage 2: adaptive parallel parsing — only the added/modified
        // documents (everything, on a cold build).
        let mut parse_ids: Vec<u32> =
            changes.added.iter().chain(&changes.modified).map(|id| *id as u32).collect();
        parse_ids.sort_unstable();
        let parser = AdaptiveParser;
        let (parse_results, mut parse_metrics) = run_stage(&exec, "parse", parse_ids, |id| {
            let blob = library.download(DocId(id)).expect("live doc has a blob");
            match parser.parse(blob) {
                ParseOutcome::Parsed { doc, .. } => Some((id, doc)),
                ParseOutcome::Failed { .. } => None,
            }
        });
        let parsed: Vec<(u32, ParsedDocument)> = parse_results.into_iter().flatten().collect();
        parse_metrics.produced = parsed.len();
        report.add(parse_metrics);

        // Stage 3: semantic chunking with provenance mapping, fanned out
        // over the re-parsed documents on the executor. Each chunk leaves
        // the chunker with its embedding, read off the same per-document
        // prefix sums as the drift test's windows. The stage's metrics
        // keep both rates observable: `throughput()` is docs/s,
        // `output_throughput()` is chunks/s.
        let encoder = BioEncoder::new(config.embed.clone());
        let chunker_cfg = config.chunker.clone();
        let (chunk_results, mut chunk_metrics) = run_stage(&exec, "chunk", parsed, |(id, pdoc)| {
            let chunker = mcqa_text::Chunker::new(&encoder, chunker_cfg.clone());
            let doc_id = DocId(id);
            let truth = library.document(doc_id);
            let text = pdoc.full_text();
            // Provenance oracle: which fact mentions landed in each chunk
            // (verbatim sentence containment), one pass per chunk.
            let mentions = truth.map_or(&[][..], |d| &d.mentions[..]);
            let matcher = MentionMatcher::new(mentions.iter().map(|m| m.sentence.as_str()));
            let records: Vec<(ChunkRecord, Vec<f32>)> = chunker
                .chunk_embedded(&text)
                .into_iter()
                .enumerate()
                .map(|(ci, (c, vector))| {
                    let mut facts: Vec<mcqa_ontology::FactId> =
                        matcher.matches(&c.text).into_iter().map(|i| mentions[i].fact).collect();
                    facts.sort_unstable();
                    facts.dedup();
                    let record = ChunkRecord {
                        chunk_id: ChunkRecord::make_id(doc_id, ci as u32),
                        doc: doc_id,
                        index_in_doc: ci as u32,
                        text: c.text,
                        tokens: c.tokens,
                        facts,
                    };
                    (record, vector)
                })
                .collect();
            records
        });
        let mut fresh: Vec<(ChunkRecord, Vec<f32>)> = chunk_results.into_iter().flatten().collect();
        fresh.sort_by_key(|(c, _)| c.chunk_id);
        let (mut fresh_chunks, chunk_vectors): (Vec<ChunkRecord>, Vec<(u64, Vec<f32>)>) = fresh
            .into_iter()
            .map(|(c, vector)| {
                let id = c.chunk_id;
                (c, (id, vector))
            })
            .unzip();
        chunk_metrics.produced = fresh_chunks.len();
        report.add(chunk_metrics);

        // Ingest merge: replay chunks of untouched documents from the
        // previous run, splice in the freshly chunked slices, and keep the
        // global chunk-id order a cold build would produce.
        let t = ScopeTimer::start("ingest-chunks");
        let dead_docs: HashSet<u32> =
            changes.modified.iter().chain(&changes.removed).map(|id| *id as u32).collect();
        let fresh_ids: HashSet<u64> = fresh_chunks.iter().map(|c| c.chunk_id).collect();
        let mut chunks: Vec<ChunkRecord> = prev
            .map(|p| p.chunks.iter().filter(|c| !dead_docs.contains(&c.doc.0)).cloned().collect())
            .unwrap_or_default();
        census.chunks_reused = chunks.len();
        census.chunks_rerun = fresh_chunks.len();
        chunks.append(&mut fresh_chunks);
        chunks.sort_by_key(|c| c.chunk_id);
        census.chunks_total = chunks.len();
        report.add(StageMetrics::single(
            "ingest-chunks",
            chunks.len(),
            census.chunks_rerun,
            t.elapsed_secs(),
        ));

        // The re-run chunks, picked out of the merged list: what the chunk
        // DB's sibling indexes and what question generation reads.
        // Unchanged chunks keep their rows in the previous run's stores.
        let gen_chunks: Vec<&ChunkRecord> =
            chunks.iter().filter(|c| fresh_ids.contains(&c.chunk_id)).collect();

        // Chunk DB and its lexical sibling (the hybrid retrieval channel's
        // word-level view). A cold build starts from an empty registry; an
        // incremental run copies the previous one in memory (one
        // `ingest-registry` row: items = stores + siblings copied), and
        // `refresh_source` compacts each copy, tombstones the rows of
        // removed/modified documents, and appends the fresh ones.
        let mut indexes = match prev {
            None => IndexRegistry::new(),
            Some(p) => {
                let t = ScopeTimer::start("ingest-registry");
                let copy = (*p.indexes).clone();
                let entries = copy.len() + copy.lexical_names().len();
                report.add(StageMetrics::single(
                    "ingest-registry",
                    entries,
                    entries,
                    t.elapsed_secs(),
                ));
                copy
            }
        };
        let dead_chunk_ids: Vec<u64> = prev
            .map(|p| {
                p.chunks
                    .iter()
                    .filter(|c| dead_docs.contains(&c.doc.0))
                    .map(|c| c.chunk_id)
                    .collect()
            })
            .unwrap_or_default();
        let chunk_texts: Vec<(u64, &str)> =
            gen_chunks.iter().map(|c| (c.chunk_id, c.text.as_str())).collect();
        refresh_source(
            config,
            &exec,
            &mut indexes,
            &mut census,
            &mut report,
            CHUNKS_STORE,
            &dead_chunk_ids,
            &chunk_vectors,
            &chunk_texts,
        );
        drop(chunk_vectors);
        drop(chunk_texts);

        // Stage 5: question generation (one candidate per re-run chunk) +
        // judge filtering at the paper's 7/10 threshold. Both model roles
        // run through the hub's batched completion API. Unchanged
        // chunks replay their memoized outcome below — including memoized
        // rejections, which must not burn a second model call.
        let models = Arc::new(ModelHub::new(config.seed, Arc::clone(&ontology)));
        let teacher = Teacher::new(Arc::clone(&models), config.seed);
        let judge = Judge::new(Arc::clone(&models), config.seed);
        let rng = KeyedStochastic::new(config.seed ^ 0x9E5_71A6);
        let candidates = chunks.len();

        let t = ScopeTimer::start("generate+judge");
        // Anchor fact per chunk: one stated by the chunk, or (relevance
        // failure) an arbitrary fact — real pipelines generate from every
        // chunk and rely on QC to drop the unanchored ones.
        struct Candidate<'a> {
            chunk: &'a ChunkRecord,
            fact_id: mcqa_ontology::FactId,
            relevant: bool,
        }
        let cands: Vec<Candidate> = gen_chunks
            .iter()
            .filter_map(|chunk| {
                let ckey = chunk.chunk_id.to_string();
                let (fact_id, relevant) = if chunk.facts.is_empty() {
                    let all = ontology.facts();
                    (all[rng.below(all.len(), &["anchor", &ckey])].id, false)
                } else {
                    (chunk.facts[rng.below(chunk.facts.len(), &["anchor", &ckey])], true)
                };
                ontology.fact(fact_id).map(|_| Candidate { chunk, fact_id, relevant })
            })
            .collect();

        let prompts: Vec<QuestionPrompt> = cands
            .iter()
            .map(|c| QuestionPrompt {
                fact: c.fact_id,
                salt: c.chunk.chunk_id.to_string(),
                passage: &c.chunk.text,
            })
            .collect();
        let generated = teacher.generate_question_batch(&exec, &prompts);

        // Candidates whose distractor pool was exhausted (< 7 options)
        // never reach the judge.
        let wellformed: Vec<(&Candidate, &mcqa_llm::GeneratedQuestion)> =
            cands.iter().zip(&generated).filter(|(_, q)| q.options.len() == 7).collect();
        let score_prompts: Vec<(&mcqa_llm::GeneratedQuestion, f64)> = wellformed
            .iter()
            .map(|(c, q)| (*q, ontology.fact(c.fact_id).expect("anchor resolved").salience))
            .collect();
        let judgments = judge.score_question_batch(&exec, &score_prompts);

        // Accepted outcomes of the re-run slice, in chunk-id order. Ids
        // stay provisional (0) until the merge renumbers the full set.
        let mut fresh_accepted: Vec<(u64, QuestionRecord, McqItem)> = Vec::new();
        for ((cand, q), mut judgment) in wellformed.into_iter().zip(judgments) {
            if !cand.relevant {
                // The paper's relevance check: the chunk does not state the
                // tested fact.
                judgment.score = judgment.score.saturating_sub(4).max(1);
                judgment.reasoning = format!(
                    "Relevance check failed: source chunk does not state the tested fact. {}",
                    judgment.reasoning
                );
            }
            let passed = judgment.score >= config.quality_threshold;
            if !passed {
                continue;
            }
            let fact = ontology.fact(cand.fact_id).expect("anchor resolved");
            let record = QuestionRecord {
                question_id: 0,
                question: q.stem.clone(),
                options: q.options.clone(),
                answer_letter: OPTION_LETTERS[q.recorded_key],
                answer_text: q.options[q.recorded_key].clone(),
                question_type: "multiple-choice".into(),
                topic: fact.topic,
                provenance: Provenance {
                    chunk_id: cand.chunk.chunk_id,
                    file_path: cand.chunk.file_path(),
                    doc_id: cand.chunk.doc.0,
                    fact_id: fact.id.0,
                },
                relevance_check: cand.relevant,
                quality: QualityBlock {
                    score: judgment.score,
                    reasoning: judgment.reasoning,
                    passed,
                },
            };
            let item = McqItem {
                qid: 0,
                bench: BenchKind::Synthetic,
                fact: fact.id,
                stem: record.question.clone(),
                options: record.options.clone(),
                correct: q.recorded_key,
                difficulty: fact.difficulty,
                is_math: false,
            };
            fresh_accepted.push((cand.chunk.chunk_id, record, item));
        }
        report.add(StageMetrics::single(
            "generate+judge",
            gen_chunks.len(),
            fresh_accepted.len(),
            t.elapsed_secs(),
        ));

        // Stage 6: reasoning-trace distillation for the re-run questions —
        // every (question, mode) pair is one batched hub request.
        // Trace text depends only on question content and mode, never on
        // ids, so replayed questions keep their previous traces verbatim.
        let t = ScopeTimer::start("traces");
        let trace_stride = TraceMode::ALL.len();
        let teacher_views: Vec<mcqa_llm::GeneratedQuestion> = fresh_accepted
            .iter()
            .map(|(_, _, item)| mcqa_llm::GeneratedQuestion {
                fact: item.fact,
                stem: item.stem.clone(),
                options: item.options.clone(),
                recorded_key: item.correct,
                true_key: item.correct,
                defects: vec![],
                distractor_plausibility: 1.0,
            })
            .collect();
        let trace_prompts: Vec<(&mcqa_llm::GeneratedQuestion, TraceMode)> = teacher_views
            .iter()
            .flat_map(|gq| TraceMode::ALL.iter().map(move |mode| (gq, *mode)))
            .collect();
        let trace_texts = teacher.generate_trace_batch(&exec, &trace_prompts);
        report.add(StageMetrics::single(
            "traces",
            fresh_accepted.len(),
            trace_texts.len(),
            t.elapsed_secs(),
        ));

        // Memoized outcomes from the previous run, keyed by chunk id. A
        // chunk present with no question is a memoized rejection.
        let mut snapshot: HashMap<u64, Option<PrevOutcome<'_>>> = HashMap::new();
        if let Some(p) = prev {
            for c in &p.chunks {
                snapshot.insert(c.chunk_id, None);
            }
            for (qi, (record, item)) in p.questions.iter().zip(&p.items).enumerate() {
                snapshot.insert(
                    record.provenance.chunk_id,
                    Some(PrevOutcome { record, item, old_qid: qi as u64 }),
                );
            }
        }
        let mut fresh_map: HashMap<u64, (QuestionRecord, McqItem, Vec<String>)> = HashMap::new();
        for (ai, (chunk_id, record, item)) in fresh_accepted.into_iter().enumerate() {
            let texts: Vec<String> =
                trace_texts[ai * trace_stride..(ai + 1) * trace_stride].to_vec();
            fresh_map.insert(chunk_id, (record, item, texts));
        }

        // Merge in chunk-id order — the acceptance order a cold build
        // walks — renumbering question and trace ids densely. `identical`
        // marks replayed questions whose id did not shift: their rows in
        // the trace stores are already correct and stay untouched.
        let mut questions: Vec<QuestionRecord> = Vec::new();
        let mut items: Vec<McqItem> = Vec::new();
        let mut traces: Vec<TraceRecord> = Vec::new();
        let mut identical: Vec<bool> = Vec::new();
        // `prev_qids[qid]` = the question's id in the previous run (None
        // for freshly generated questions) — the key its reusable trace
        // vectors live under in `prev.trace_vectors`.
        let mut prev_qids: Vec<Option<u64>> = Vec::new();
        for chunk in &chunks {
            let cid = chunk.chunk_id;
            let (mut record, mut item, texts, old_qid) = if fresh_ids.contains(&cid) {
                match fresh_map.remove(&cid) {
                    Some((r, it, tx)) => (r, it, tx, None),
                    None => continue, // freshly generated and rejected
                }
            } else {
                match snapshot.get(&cid) {
                    Some(Some(pq)) => {
                        let base = pq.old_qid as usize * trace_stride;
                        let texts: Vec<String> = prev.expect("snapshot implies prev").traces
                            [base..base + trace_stride]
                            .iter()
                            .map(|tr| tr.trace.clone())
                            .collect();
                        (pq.record.clone(), pq.item.clone(), texts, Some(pq.old_qid))
                    }
                    _ => continue, // memoized rejection
                }
            };
            let qid = questions.len() as u64;
            record.question_id = qid;
            item.qid = qid;
            identical.push(old_qid == Some(qid));
            prev_qids.push(old_qid);
            for (mi, text) in texts.into_iter().enumerate() {
                traces.push(TraceRecord {
                    trace_id: qid * trace_stride as u64 + mi as u64,
                    question_id: qid,
                    mode: TraceMode::ALL[mi],
                    trace: text,
                    teacher: "GPT-4.1-sim".into(),
                    answer_excluded: true,
                    fact_id: item.fact.0,
                });
            }
            items.push(item);
            questions.push(record);
        }

        // Stage 7: embed the traces no previous vector exists for — all of
        // them on a cold build, only fresh questions' on an incremental
        // run. A replayed question's traces are verbatim replays, so even
        // when its dense id shifted (forcing re-keyed store rows) the
        // previous run's vectors are reused instead of re-encoded.
        let to_embed: Vec<usize> = traces
            .iter()
            .enumerate()
            .filter(|(i, _)| prev_qids[i / trace_stride].is_none())
            .map(|(i, _)| i)
            .collect();
        let (trace_embed_results, trace_embed_metrics) =
            run_stage(&exec, "embed-traces", to_embed, |i| {
                let tr = &traces[i];
                (tr.mode, tr.question_id, encoder.encode(&tr.trace))
            });
        let mut fresh_vecs: HashMap<(usize, u64), Vec<f32>> = HashMap::new();
        for (mode, qid, v) in trace_embed_results {
            let mi = TraceMode::ALL.iter().position(|m| *m == mode).expect("known mode");
            fresh_vecs.insert((mi, qid), v);
        }
        report.add(trace_embed_metrics);

        // Assemble, per mode: the rows whose store key must change
        // (`mode_vectors`, ascending qid — the cold build's insertion
        // order) and the full vector table the next incremental run reuses
        // (`trace_vectors`).
        let mut mode_vectors: Vec<Vec<(u64, Vec<f32>)>> =
            (0..trace_stride).map(|_| Vec::with_capacity(items.len())).collect();
        let mut trace_vectors: Vec<Vec<Vec<f32>>> =
            (0..trace_stride).map(|_| Vec::with_capacity(items.len())).collect();
        for qid in 0..items.len() as u64 {
            let old = prev_qids[qid as usize];
            for mi in 0..trace_stride {
                let v = match old {
                    Some(pq) => {
                        prev.expect("replay implies prev").trace_vectors[mi][pq as usize].clone()
                    }
                    None => fresh_vecs.remove(&(mi, qid)).expect("fresh trace was embedded"),
                };
                if old != Some(qid) {
                    mode_vectors[mi].push((qid, v.clone()));
                }
                trace_vectors[mi].push(v);
            }
        }

        // Previous-run question ids whose rows are stale: everything not
        // replayed in place. Removed FIRST across every trace store, so a
        // shifted id's old row can never mask its re-inserted one.
        let dead_qids: Vec<u64> = prev
            .map(|p| {
                (0..p.items.len() as u64)
                    .filter(|q| {
                        let q = *q as usize;
                        !(q < identical.len() && identical[q])
                    })
                    .collect()
            })
            .unwrap_or_default();

        for (mode, vectors) in TraceMode::ALL.iter().zip(&mode_vectors) {
            let texts: Vec<(u64, &str)> = traces
                .iter()
                .filter(|tr| tr.mode == *mode && !identical[tr.question_id as usize])
                .map(|tr| (tr.question_id, tr.trace.as_str()))
                .collect();
            refresh_source(
                config,
                &exec,
                &mut indexes,
                &mut census,
                &mut report,
                mode.db_name(),
                &dead_qids,
                vectors,
                &texts,
            );
        }

        PipelineOutput {
            config: config.clone(),
            ontology,
            library,
            chunks,
            encoder,
            questions,
            items,
            candidates,
            traces,
            trace_vectors,
            indexes: Arc::new(indexes),
            models,
            report,
            executor: exec,
            manifest,
            ingest: census,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_corpus::EditBatch;

    fn tiny_output() -> &'static PipelineOutput {
        static OUT: std::sync::OnceLock<PipelineOutput> = std::sync::OnceLock::new();
        OUT.get_or_init(|| Pipeline::run(&PipelineConfig::tiny(42)))
    }

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let out = tiny_output();
        assert!(out.chunks.len() > 50, "chunks: {}", out.chunks.len());
        assert_eq!(out.candidates, out.chunks.len(), "one candidate per chunk");
        assert!(!out.items.is_empty(), "no questions survived the filter");
        assert_eq!(out.items.len(), out.questions.len());
        assert_eq!(out.traces.len(), out.items.len() * 3);
        assert_eq!(out.chunk_store().len(), out.chunks.len());
        for mode in TraceMode::ALL {
            assert_eq!(out.trace_store(mode).len(), out.items.len());
        }
        // The paper's four stores, all registered under canonical names —
        // lexical siblings live in their own namespace and never leak in.
        assert_eq!(
            out.indexes.names(),
            vec![CHUNKS_STORE, "traces-detailed", "traces-efficient", "traces-focused"]
        );
        // Every dense source has a BM25 sibling covering the same docs.
        assert_eq!(
            out.indexes.lexical_names(),
            vec!["lex-chunks", "lex-traces-detailed", "lex-traces-efficient", "lex-traces-focused"]
        );
        assert_eq!(out.indexes.expect_lexical("lex-chunks").len(), out.chunks.len());
        for mode in TraceMode::ALL {
            let lex = out.indexes.expect_lexical(&IndexRegistry::lexical_sibling(mode.db_name()));
            assert_eq!(lex.len(), out.items.len());
        }
        // Figure-1 stage census, including the ingest planner's scan and
        // merge rows and one build row per store (dense and lexical).
        let names: Vec<&str> = out.report.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "acquire",
                "ingest-scan",
                "parse",
                "chunk",
                "ingest-chunks",
                "index-chunks",
                "index-lex-chunks",
                "generate+judge",
                "traces",
                "embed-traces",
                "index-traces-detailed",
                "index-lex-traces-detailed",
                "index-traces-focused",
                "index-lex-traces-focused",
                "index-traces-efficient",
                "index-lex-traces-efficient",
            ]
        );
        // The cold build is the all-added degenerate case of the planner.
        assert_eq!(out.ingest.docs_added, out.library.len());
        assert_eq!(out.ingest.docs_skipped(), 0);
        assert_eq!(out.ingest.chunks_reused, 0);
        assert_eq!(out.ingest.chunks_rerun, out.chunks.len());
        assert_eq!(out.manifest.docs().len(), out.library.len());
    }

    #[test]
    fn model_ledger_accounts_for_every_pipeline_call() {
        let out = tiny_output();
        let teacher = out.models.ledger().role(mcqa_llm::Role::Teacher);
        // One generation request per anchored candidate plus one trace
        // request per (accepted question, mode).
        assert_eq!(
            teacher.calls as usize,
            out.candidates + out.items.len() * TraceMode::ALL.len(),
            "teacher calls must equal generation + distillation requests"
        );
        assert_eq!(teacher.batches, 2, "one generation batch + one trace batch");
        assert!(teacher.tokens_in > 0 && teacher.tokens_out > 0);
        let judge = out.models.ledger().role(mcqa_llm::Role::Judge);
        assert!(judge.calls as usize <= out.candidates);
        assert!(judge.calls as usize >= out.items.len());
        // Nothing repeats during generation — and the hub's payload-aware
        // policy knows it: teacher generation/distillation and judge
        // quality scoring bypass the cache entirely, so after the pipeline
        // the cache holds nothing (it fills with grading/answer/classify
        // completions at evaluation time, where repeats exist).
        assert_eq!(teacher.cache_hits, 0);
        assert_eq!(judge.cache_hits, 0);
        assert_eq!(
            out.models.cache().len(),
            0,
            "once-only generation requests must not be retained"
        );
    }

    #[test]
    fn acceptance_rate_in_paper_band() {
        let out = tiny_output();
        let rate = out.acceptance_rate();
        assert!((0.04..=0.25).contains(&rate), "acceptance rate {rate:.3}, paper has 0.096");
    }

    #[test]
    fn provenance_links_resolve() {
        let out = tiny_output();
        for (q, item) in out.questions.iter().zip(&out.items) {
            // Chunk exists and belongs to the recorded document.
            let chunk = out
                .chunks
                .iter()
                .find(|c| c.chunk_id == q.provenance.chunk_id)
                .unwrap_or_else(|| panic!("chunk {} missing", q.provenance.chunk_id));
            assert_eq!(chunk.doc.0, q.provenance.doc_id);
            // Relevant questions: the chunk really states the fact.
            if q.relevance_check {
                assert!(
                    chunk.facts.contains(&item.fact),
                    "chunk {} does not state fact {:?}",
                    chunk.chunk_id,
                    item.fact
                );
            }
            // The answer letter maps back to the answer text.
            let idx = OPTION_LETTERS.iter().position(|l| *l == q.answer_letter).unwrap();
            assert_eq!(q.options[idx], q.answer_text);
            // Item validates structurally.
            item.validate().unwrap_or_else(|e| panic!("qid {}: {e}", item.qid));
        }
    }

    #[test]
    fn chunk_records_carry_their_token_count() {
        // The chunker sums per-sentence counts; tokens never span the
        // single space sentences are joined by, so the sum is the count of
        // the chunk text — which lets a consumer (the evaluator's passage
        // budget) read the record instead of tokenising the text again.
        let out = tiny_output();
        for c in &out.chunks {
            assert_eq!(c.tokens, mcqa_text::token_count(&c.text), "chunk {}", c.chunk_id);
        }
    }

    #[test]
    fn chunk_facts_match_per_mention_containment() {
        // The one-pass matcher against the oracle it replaced: every
        // mention of the chunk's document, tested with `contains`.
        let out = tiny_output();
        let mut hits = 0;
        for c in &out.chunks {
            let doc = out.library.document(c.doc).expect("chunked docs are live");
            let mut facts: Vec<_> = doc
                .mentions
                .iter()
                .filter(|m| c.text.contains(&m.sentence))
                .map(|m| m.fact)
                .collect();
            facts.sort_unstable();
            facts.dedup();
            hits += facts.len();
            assert_eq!(c.facts, facts, "chunk {}", c.chunk_id);
        }
        assert!(hits > 0, "the fixture must exercise provenance");
    }

    #[test]
    fn accepted_questions_passed_quality_bar() {
        let out = tiny_output();
        for q in &out.questions {
            assert!(q.quality.passed);
            assert!(q.quality.score >= out.config.quality_threshold);
            assert!(!q.quality.reasoning.is_empty());
        }
    }

    #[test]
    fn trace_ids_are_dense() {
        // The id stride is `TraceMode::ALL.len()`: with n questions and m
        // modes, ids must be exactly {0, 1, …, n*m − 1} — no phantom gaps
        // from a stale hard-coded stride.
        let out = tiny_output();
        let stride = TraceMode::ALL.len() as u64;
        let mut ids: Vec<u64> = out.traces.iter().map(|t| t.trace_id).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..out.items.len() as u64 * stride).collect();
        assert_eq!(ids, expected, "trace ids must be dense in [0, n*modes)");
        for t in &out.traces {
            assert_eq!(t.trace_id / stride, t.question_id, "id encodes its question");
            let mi = (t.trace_id % stride) as usize;
            assert_eq!(t.mode, TraceMode::ALL[mi], "id encodes its mode");
        }
    }

    #[test]
    fn traces_exclude_answers_globally() {
        // The paper's leakage control, audited over the whole artifact.
        let out = tiny_output();
        for tr in &out.traces {
            let item = &out.items[tr.question_id as usize];
            assert!(tr.answer_excluded);
            assert!(
                !tr.trace.contains(item.correct_text()),
                "trace {} leaks the answer",
                tr.trace_id
            );
            assert_eq!(tr.fact_id, item.fact.0);
        }
    }

    #[test]
    fn ann_backends_produce_identical_artifacts() {
        // The store backend only affects retrieval; every generation
        // artifact (questions, traces, store cardinalities) must be
        // identical whichever backend the config selects.
        let flat = tiny_output();
        for label in ["hnsw", "ivf"] {
            let mut cfg = PipelineConfig::tiny(42);
            cfg.index = mcqa_index::IndexSpec::parse(label).unwrap();
            let out = Pipeline::run(&cfg);
            assert_eq!(out.config.index.label(), label);
            assert_eq!(out.questions, flat.questions, "{label}");
            assert_eq!(out.traces, flat.traces, "{label}");
            assert_eq!(out.chunk_store().len(), flat.chunk_store().len(), "{label}");
            for mode in TraceMode::ALL {
                assert_eq!(out.trace_store(mode).len(), flat.trace_store(mode).len(), "{label}");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Pipeline::run(&PipelineConfig::tiny(7));
        let b = Pipeline::run(&PipelineConfig::tiny(7));
        assert_eq!(a.chunks.len(), b.chunks.len());
        assert_eq!(a.questions, b.questions);
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.manifest, b.manifest);
    }

    #[test]
    fn chunk_sizes_respect_budget() {
        let out = tiny_output();
        let max = out.config.chunker.max_tokens;
        let oversized = out.chunks.iter().filter(|c| c.tokens > max).count();
        // Only single-oversized-sentence chunks may exceed the budget.
        assert!(
            oversized * 100 <= out.chunks.len(),
            "{oversized}/{} chunks over budget",
            out.chunks.len()
        );
    }

    #[test]
    fn chunks_per_doc_near_paper_ratio() {
        // Paper: 173,318 chunks / 22,548 docs ≈ 7.7 per doc.
        let out = tiny_output();
        let ratio = out.chunks.len() as f64 / out.library.len() as f64;
        assert!((3.0..=16.0).contains(&ratio), "chunks/doc = {ratio:.1}");
    }

    #[test]
    fn incremental_noop_reuses_everything() {
        // Unchanged corpus: 100%-skipped census, zero model calls, and
        // artifacts identical to the previous output.
        let prev = tiny_output();
        let out = Pipeline::run_incremental(&prev.config, prev, Arc::clone(&prev.library));
        assert_eq!(out.ingest.docs_changed(), 0);
        assert_eq!(out.ingest.docs_skipped(), out.ingest.docs_scanned);
        assert_eq!(out.ingest.chunks_rerun, 0);
        assert_eq!(out.ingest.chunks_reused, prev.chunks.len());
        assert_eq!(out.ingest.tombstones_dense, 0);
        assert_eq!(out.ingest.tombstones_lexical, 0);
        assert_eq!(out.questions, prev.questions);
        assert_eq!(out.traces, prev.traces);
        assert_eq!(out.chunks, prev.chunks);
        assert_eq!(out.manifest, prev.manifest);
        let teacher = out.models.ledger().role(mcqa_llm::Role::Teacher);
        assert_eq!(teacher.calls, 0, "no-op run must not burn model calls");
        // Every store was found registered: its row adds nothing and
        // reports what the previous run left. The cold build's rows took
        // the other side of that decision (everything in, the same out).
        let row = |report: &RunReport, name: &str| {
            let s = report.stages().iter().find(|s| s.name == name).expect("stage row");
            (s.items, s.produced)
        };
        for name in prev.indexes.names() {
            let len = prev.indexes.expect_store(name).len();
            for stage in [format!("index-{name}"), format!("index-lex-{name}")] {
                assert_eq!(row(&out.report, &stage), (0, len), "{stage}");
                assert_eq!(row(&prev.report, &stage), (len, len), "{stage}");
            }
        }
        // The copy of the previous registry has its own row: four stores
        // and four siblings. A cold build has nothing to copy.
        assert_eq!(row(&out.report, "ingest-registry"), (8, 8));
        assert!(prev.report.stages().iter().all(|s| s.name != "ingest-registry"));
    }

    #[test]
    #[should_panic(expected = "incremental run must keep every setting")]
    fn incremental_rejects_a_config_the_previous_run_was_not_built_from() {
        // Seed and backend agree, the chunker does not: replayed chunks
        // would sit beside chunks cut to another budget.
        let prev = tiny_output();
        let mut config = prev.config.clone();
        config.chunker.max_tokens += 1;
        Pipeline::run_incremental(&config, prev, Arc::clone(&prev.library));
    }

    #[test]
    fn incremental_matches_full_rebuild_after_edits() {
        // The tentpole acceptance: after a synthetic edit batch, the
        // incremental run's artifacts AND search behaviour are identical
        // to a cold rebuild over the edited corpus.
        // Three hops, each incremental over the last: tombstones a round
        // leaves under the threshold cross into the next round in memory,
        // so every hop compares every artifact, and searches every dense
        // store (flat backend) and every lexical sibling over real probe
        // queries, bit for bit.
        let probes = ["proton therapy dose", "gene expression pathway", "tumour margin imaging"];
        let first = tiny_output();
        let mut hop_outputs: Vec<PipelineOutput> = Vec::new();
        for (hop, (seed, edits)) in [(13, 5), (14, 4), (15, 6)].into_iter().enumerate() {
            let prev = hop_outputs.last().unwrap_or(first);
            if hop > 0 {
                let carried: usize = prev.indexes.iter().map(|(_, s)| s.tombstones()).sum();
                assert!(carried > 0, "hop {hop} must start from tombstoned stores");
            }
            let mut library = (*prev.library).clone();
            library.apply_edits(&prev.ontology, &EditBatch::synthetic(&library, seed, edits));
            let library = Arc::new(library);
            let inc = Pipeline::run_incremental(&prev.config, prev, Arc::clone(&library));
            let full = Pipeline::run_full(&prev.config, Arc::clone(&prev.ontology), library);

            assert!(inc.ingest.docs_changed() > 0, "hop {hop}: batch must touch the corpus");
            assert!(inc.ingest.chunks_reused > 0, "hop {hop}: most chunks replay");
            assert_eq!(inc.chunks, full.chunks, "hop {hop}");
            assert_eq!(inc.questions, full.questions, "hop {hop}");
            assert_eq!(inc.items, full.items, "hop {hop}");
            assert_eq!(inc.traces, full.traces, "hop {hop}");
            assert_eq!(inc.manifest, full.manifest, "hop {hop}");
            for name in inc.indexes.names() {
                let (a, b) = (inc.indexes.expect_store(name), full.indexes.expect_store(name));
                assert_eq!(a.len(), b.len(), "hop {hop}: {name} cardinality");
                for p in &probes {
                    let q = inc.encoder.encode(p);
                    assert_eq!(a.search(&q, 10), b.search(&q, 10), "hop {hop}: {name} {p:?}");
                }
            }
            for name in inc.indexes.lexical_names() {
                let (a, b) = (inc.indexes.expect_lexical(name), full.indexes.expect_lexical(name));
                assert_eq!(a.len(), b.len(), "hop {hop}: {name} cardinality");
                for p in &probes {
                    assert_eq!(a.search(p, 10), b.search(p, 10), "hop {hop}: {name} {p:?}");
                }
            }
            hop_outputs.push(inc);
        }
    }
}
