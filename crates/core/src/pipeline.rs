//! The orchestrated end-to-end pipeline.
//!
//! The cold build and the incremental re-run flow through one planner
//! (`Pipeline::run_planned`): the corpus is content-hashed, its address
//! table is diffed against the previous run's [`IngestManifest`] (empty on
//! a cold build, so everything classifies as added), and only the slices
//! the [`ChangeSet`] touches are re-run. Unchanged slices replay from the
//! previous output; stale index rows are tombstoned, rows whose question
//! id shifted move to the new id in place, and fresh rows are appended.
//!
//! The planner calls private stage functions in the order the Figure-1
//! report prints their rows; each returns its output and its rows, and
//! none touches the report: `scan` (`ingest-scan`) → `parse` → `chunk`
//! (the chunk vectors ride out with the chunks) → `merge_chunks`
//! (`ingest-chunks`) → `copy_registry` (`ingest-registry`, incremental
//! runs only) → `refresh_source` (`index-chunks`, plus `index-lex-chunks`
//! on incremental runs) → `generate_and_judge` (`generate+judge`) →
//! `distil` (`traces`) → `merge_questions` (no row) → `embed_traces`
//! (`embed-traces`) → `refresh_source` once per trace mode
//! (`index-traces-<mode>`, plus `index-lex-traces-<mode>` on incremental
//! runs).
//!
//! A cold build registers each BM25 sibling unbuilt, so the dense-only
//! evaluation, the paper's protocol, never pays for one: whatever reads a
//! sibling first (lexical or hybrid retrieval, the registry's bytes)
//! builds it. An incremental round builds the previous round's sibling,
//! then edits it, and reports its `index-lex-*` row.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use mcqa_corpus::{CorpusLibrary, DocId};
use mcqa_index::embed::{BioEncoder, Precision};
use mcqa_index::{FlatIndex, IndexRegistry, Metric, VectorStore};
use mcqa_llm::{BenchKind, McqItem, ModelHub, QuestionPrompt, TraceMode, OPTION_LETTERS};
use mcqa_ontology::Ontology;
use mcqa_runtime::{run_stage, Executor, RunReport, StageMetrics};
use mcqa_text::ChunkerConfig;
use mcqa_util::KeyedStochastic;

use crate::chunks::{ChunkRecord, MentionMatcher};
use crate::config::PipelineConfig;
use crate::ingest::{diff, ChangeSet, ContentHash, IngestCensus, IngestManifest};
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
    /// The paper's four vector databases behind one registry, each an
    /// exact FP16 cosine [`FlatIndex`]: [`CHUNKS_STORE`] keyed by
    /// `chunk_id` plus one [`TraceMode::db_name`] store per mode keyed by
    /// `question_id`. Each has a BM25 sibling under
    /// [`IndexRegistry::lexical_sibling`]; a cold build registers the
    /// siblings unbuilt, and the first read of one builds it. `Arc`-shared
    /// so the serving layer's dispatcher thread can hold the registry
    /// without copying the stores.
    pub indexes: Arc<IndexRegistry>,
    /// The model hub that served every model call: the simulator and the
    /// per-role call ledger. The evaluator routes its judge/classifier/answerer
    /// calls through this same hub, so one ledger accounts for the whole
    /// reproduction.
    pub models: Arc<ModelHub>,
    /// Per-stage metrics (Figure-1 reproduction). The model layer's cost
    /// accounting is `models.ledger()`, not a row here.
    pub report: RunReport,
    /// The scheduler the pipeline ran on. Downstream consumers (the
    /// evaluator and its retrieval, ablations) clone this handle so the
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
}

/// The pipeline runner.
pub struct Pipeline;

impl Pipeline {
    /// Run every stage from scratch: generate the ontology, acquire the
    /// corpus, and hand off to the planner with no previous output.
    pub fn run(config: &PipelineConfig) -> PipelineOutput {
        let mut report = RunReport::new();
        let exec = Executor::new(config.effective_workers());

        // Stage 1: ontology + corpus acquisition (synthesis and SPDF
        // rendering fan out on the pool inside `CorpusLibrary::build`).
        let t = Instant::now();
        let ontology = Arc::new(Ontology::generate(&config.ontology));
        let library = Arc::new(CorpusLibrary::build(&ontology, &config.acquisition, &exec));
        report.add(StageMetrics::single(
            "acquire",
            library.len(),
            library.len(),
            t.elapsed().as_secs_f64(),
        ));

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
    /// removed/modified slices are then tombstoned, replayed questions'
    /// trace rows re-keyed to their shifted ids, and fresh rows appended,
    /// compacting once this round's tombstones exceed the threshold.
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
    /// It calls the stage functions in the order their rows print.
    fn run_planned(
        config: &PipelineConfig,
        ontology: Arc<Ontology>,
        library: Arc<CorpusLibrary>,
        exec: Executor,
        mut report: RunReport,
        prev: Option<&PipelineOutput>,
    ) -> PipelineOutput {
        let mut census = IngestCensus::default();
        let (manifest, changes, row) = scan(&exec, &library, prev, &mut census);
        report.add(row);
        let (parsed, row) = parse(&exec, &library, &changes);
        report.add(row);
        let encoder = BioEncoder::new(config.embed.clone());
        let (fresh_chunks, chunk_vectors, row) =
            chunk(&exec, &config.chunker, &encoder, &library, parsed);
        report.add(row);
        let (chunks, fresh, dead_chunks, row) =
            merge_chunks(prev, &changes, fresh_chunks, &mut census);
        report.add(row);

        // Only the re-run chunks are indexed, generated from and judged.
        // Chunk ids are content addresses (document, index in document), so
        // no surviving chunk's id ever shifts.
        let gen_chunks: Vec<&ChunkRecord> =
            chunks.iter().zip(&fresh).filter_map(|(c, &f)| f.then_some(c)).collect();
        let (mut indexes, row) = copy_registry(prev);
        row.into_iter().for_each(|row| report.add(row));
        let chunk_edit = SourceEdit {
            dead: &dead_chunks,
            moves: &HashMap::new(),
            vectors: chunk_vectors,
            texts: gen_chunks.iter().map(|c| (c.chunk_id, c.text.as_str())).collect(),
        };
        let rows =
            refresh_source(config, &exec, &mut indexes, &mut census, CHUNKS_STORE, chunk_edit);
        rows.into_iter().for_each(|row| report.add(row));

        // Every other chunk replays its memoized outcome in the merge,
        // memoized rejections included: no second model call.
        let models = Arc::new(ModelHub::new(config.seed, Arc::clone(&ontology)));
        let (accepted, row) = generate_and_judge(&exec, config, &ontology, &models, &gen_chunks);
        report.add(row);
        let (trace_texts, row) = distil(&exec, config, &models, &accepted);
        report.add(row);
        let merged = merge_questions(prev, &chunks, &fresh, accepted, trace_texts);

        let (trace_edits, row) = embed_traces(&exec, &encoder, &merged);
        report.add(row);
        for (mode, edit) in TraceMode::ALL.iter().zip(trace_edits) {
            let rows =
                refresh_source(config, &exec, &mut indexes, &mut census, mode.db_name(), edit);
            rows.into_iter().for_each(|row| report.add(row));
        }

        PipelineOutput {
            config: config.clone(),
            ontology,
            library,
            candidates: chunks.len(),
            chunks,
            encoder,
            questions: merged.questions,
            items: merged.items,
            traces: merged.traces,
            indexes: Arc::new(indexes),
            models,
            report,
            executor: exec,
            manifest,
            ingest: census,
        }
    }
}

/// `ingest-scan`: content-hash every live document (fanned out), then one
/// merge pass over this run's table and the previous run's.
fn scan(
    exec: &Executor,
    library: &CorpusLibrary,
    prev: Option<&PipelineOutput>,
    census: &mut IngestCensus,
) -> (IngestManifest, ChangeSet, StageMetrics) {
    let (table, mut row) = run_stage(exec, "ingest-scan", library.live_ids(), |id| {
        let blob = library.download(id).expect("live doc has a blob");
        (id.0 as u64, ContentHash::of_bytes(blob))
    });
    let manifest = IngestManifest::new(table);
    let changes = diff(prev.map_or(&[], |p| p.manifest.docs()), manifest.docs());
    census.docs_scanned = library.live_len();
    census.docs_added = changes.added.len();
    census.docs_modified = changes.modified.len();
    census.docs_removed = changes.removed.len();
    row.produced = changes.len();
    (manifest, changes, row)
}

/// `parse`: adaptive parallel parsing of the added and modified documents
/// (everything, on a cold build), in id order, through
/// [`AdaptiveParser::parse_batch`]. Unparseable ones drop out.
fn parse(
    exec: &Executor,
    library: &CorpusLibrary,
    changes: &ChangeSet,
) -> (Vec<(u32, ParsedDocument)>, StageMetrics) {
    let mut ids: Vec<u32> =
        changes.added.iter().chain(&changes.modified).map(|id| *id as u32).collect();
    ids.sort_unstable();
    let blobs: Vec<&[u8]> =
        ids.iter().map(|&id| library.download(DocId(id)).expect("live doc has a blob")).collect();
    let (outcomes, row) = AdaptiveParser.parse_batch(exec, &blobs);
    let parsed = ids
        .into_iter()
        .zip(outcomes)
        .filter_map(|(id, outcome)| match outcome {
            ParseOutcome::Parsed { doc } => Some((id, doc)),
            ParseOutcome::Failed { .. } => None,
        })
        .collect();
    (parsed, row)
}

/// `chunk`: semantic chunking with provenance mapping, fanned out over
/// the parsed documents. Each chunk leaves the chunker with its
/// embedding, read off the same per-document prefix sums as the drift
/// test's windows, so the chunks come back with their `(chunk_id, vector)`
/// rows, both in chunk-id order. The row keeps both rates observable:
/// `throughput()` is docs/s, `output_throughput()` is chunks/s.
fn chunk(
    exec: &Executor,
    config: &ChunkerConfig,
    encoder: &BioEncoder,
    library: &CorpusLibrary,
    parsed: Vec<(u32, ParsedDocument)>,
) -> (Vec<ChunkRecord>, Vectors, StageMetrics) {
    let (results, mut row) = run_stage(exec, "chunk", parsed, |(id, pdoc)| {
        let chunker = mcqa_text::Chunker::new(encoder, config.clone());
        let doc_id = DocId(id);
        // Provenance oracle: which fact mentions landed in each chunk
        // (verbatim sentence containment), one pass per chunk.
        let mentions = library.document(doc_id).map_or(&[][..], |d| &d.mentions[..]);
        let matcher = MentionMatcher::new(mentions.iter().map(|m| m.sentence.as_str()));
        chunker
            .chunk_embedded(&pdoc.full_text())
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
                    text: c.text,
                    tokens: c.tokens,
                    facts,
                };
                (record, vector)
            })
            .collect::<Vec<_>>()
    });
    let mut fresh: Vec<(ChunkRecord, Vec<f32>)> = results.into_iter().flatten().collect();
    fresh.sort_by_key(|(c, _)| c.chunk_id);
    row.produced = fresh.len();
    let (vectors, chunks) = fresh.into_iter().map(|(c, vector)| ((c.chunk_id, vector), c)).unzip();
    (chunks, vectors, row)
}

/// `ingest-chunks`: replay the previous run's chunks of untouched
/// documents, splice in the freshly chunked slices, and keep the global
/// chunk-id order a cold build would produce. Returns the merged chunks,
/// a flag per merged chunk marking the fresh ones, and the ids of the
/// previous chunks whose document was modified or removed.
fn merge_chunks(
    prev: Option<&PipelineOutput>,
    changes: &ChangeSet,
    fresh: Vec<ChunkRecord>,
    census: &mut IngestCensus,
) -> (Vec<ChunkRecord>, Vec<bool>, Vec<u64>, StageMetrics) {
    let t = Instant::now();
    let dead_docs: HashSet<u32> =
        changes.modified.iter().chain(&changes.removed).map(|id| *id as u32).collect();
    let (dead, kept): (Vec<&ChunkRecord>, Vec<&ChunkRecord>) =
        prev.map_or(&[][..], |p| &p.chunks[..]).iter().partition(|c| dead_docs.contains(&c.doc.0));
    census.chunks_reused = kept.len();
    census.chunks_rerun = fresh.len();
    // The two sides come from disjoint documents, so no id appears twice.
    let mut merged: Vec<(ChunkRecord, bool)> =
        kept.into_iter().map(|c| (c.clone(), false)).collect();
    merged.extend(fresh.into_iter().map(|c| (c, true)));
    merged.sort_by_key(|(c, _)| c.chunk_id);
    let (chunks, is_fresh): (Vec<ChunkRecord>, Vec<bool>) = merged.into_iter().unzip();
    census.chunks_total = chunks.len();
    let row = StageMetrics::single(
        "ingest-chunks",
        chunks.len(),
        census.chunks_rerun,
        t.elapsed().as_secs_f64(),
    );
    (chunks, is_fresh, dead.iter().map(|c| c.chunk_id).collect(), row)
}

/// `ingest-registry`: an incremental run starts from an in-memory copy of
/// the previous registry (items = stores + siblings copied). A cold build
/// starts from an empty registry and has no row.
fn copy_registry(prev: Option<&PipelineOutput>) -> (IndexRegistry, Option<StageMetrics>) {
    let Some(p) = prev else { return (IndexRegistry::new(), None) };
    let t = Instant::now();
    let copy = (*p.indexes).clone();
    let entries = copy.len() + copy.lexical_names().len();
    (
        copy,
        Some(StageMetrics::single("ingest-registry", entries, entries, t.elapsed().as_secs_f64())),
    )
}

/// Dense-store rows: `(id, vector)`.
type Vectors = Vec<(u64, Vec<f32>)>;

/// One round's edit of one retrieval source, applied to the dense store
/// and its `lex-` sibling alike (both are keyed by the same ids).
struct SourceEdit<'a> {
    /// Previous-round ids whose rows are gone.
    dead: &'a [u64],
    /// Rows that stay but whose id shifted, old id → new id.
    moves: &'a HashMap<u64, u64>,
    /// Fresh rows for the dense store, in ascending id order.
    vectors: Vectors,
    /// The same rows' texts for the sibling.
    texts: Vec<(u64, &'a str)>,
}

/// Bring one retrieval source — the dense store `name` and its `lex-`
/// sibling — up to date with `edit`. A cold build (nothing registered
/// under `name`, nothing dead or moved) makes the dense store a fresh
/// [`FlatIndex`] over the rows and registers the sibling unbuilt over the
/// same texts ([`IndexRegistry::insert_lexical_unbuilt`]): whatever reads
/// it first builds it. It returns the `index-<name>` row alone. An
/// incremental round builds the previous sibling if it is unbuilt, then
/// edits both sides alike: compact what the previous round left
/// tombstoned, tombstone the rows of the dead ids, move the shifted rows
/// to their new ids in place ([`VectorStore::rekey`]), add the fresh
/// rows, and compact a side once its tombstones pass the threshold. A
/// move that finds no live row is a wiring bug and panics. It returns the
/// `index-<name>` and `index-lex-<name>` rows. Items = rows added, out =
/// live rows afterwards.
///
/// The start-of-round compaction keeps a round's input what a decode of
/// the previous registry's tombstone-free wire format would be, so the
/// threshold only ever sees this round's tombstones. It is not counted in
/// `census.compactions`.
fn refresh_source(
    config: &PipelineConfig,
    exec: &Executor,
    indexes: &mut IndexRegistry,
    census: &mut IngestCensus,
    name: &str,
    edit: SourceEdit<'_>,
) -> Vec<StageMetrics> {
    let t = Instant::now();
    // The BM25 sibling covers the same texts, keyed by the same ids, so
    // both channels retrieve the same documents.
    let sibling = IndexRegistry::lexical_sibling(name);
    let Some(store) = indexes.get_mut(name) else {
        let mut store = FlatIndex::new(config.embed.dim, Metric::Cosine, Precision::F16);
        store.add_batch(exec, &edit.vectors);
        let (added, live) = (edit.vectors.len(), store.len());
        indexes.insert(name, Box::new(store));
        let rows = edit.texts.into_iter().map(|(id, text)| (id, text.into())).collect();
        indexes.insert_lexical_unbuilt(&sibling, exec, rows);
        let secs = t.elapsed().as_secs_f64();
        return vec![StageMetrics::single(&format!("index-{name}"), added, live, secs)];
    };
    store.compact(exec);
    census.tombstones_dense += store.remove(edit.dead);
    let moved = store.rekey(edit.moves);
    assert_eq!(moved, edit.moves.len(), "{name}: a re-key found no live row");
    census.rekeyed_dense += moved;
    store.add_batch(exec, &edit.vectors);
    if over_tombstone_threshold(store.tombstones(), store.len()) {
        store.compact(exec);
        census.compactions += 1;
    }
    let dense = StageMetrics::single(
        &format!("index-{name}"),
        edit.vectors.len(),
        store.len(),
        t.elapsed().as_secs_f64(),
    );

    let t = Instant::now();
    let lex = indexes.expect_lexical_mut(&sibling);
    lex.compact();
    census.tombstones_lexical += lex.remove(edit.dead);
    let moved = lex.rekey(edit.moves);
    assert_eq!(moved, edit.moves.len(), "{sibling}: a re-key found no live document");
    census.rekeyed_lexical += moved;
    lex.add_batch(exec, &edit.texts);
    if over_tombstone_threshold(lex.tombstones(), lex.len()) {
        lex.compact();
        census.compactions += 1;
    }
    let lexical = StageMetrics::single(
        &format!("index-lex-{name}"),
        edit.texts.len(),
        lex.len(),
        t.elapsed().as_secs_f64(),
    );
    vec![dense, lexical]
}

/// An accepted outcome of the re-run slice: its chunk id, question record
/// and evaluation form, ids provisional (0) until `merge_questions`.
type Accepted = (u64, QuestionRecord, McqItem);

/// `generate+judge`: one candidate question per re-run chunk, then judge
/// filtering at the paper's 7/10 threshold. Both model roles run through
/// the hub's batched calls. Returns the accepted outcomes in chunk-id
/// order.
fn generate_and_judge(
    exec: &Executor,
    config: &PipelineConfig,
    ontology: &Ontology,
    models: &ModelHub,
    gen_chunks: &[&ChunkRecord],
) -> (Vec<Accepted>, StageMetrics) {
    let t = Instant::now();
    let rng = KeyedStochastic::new(config.seed ^ 0x9E5_71A6);
    // Anchor fact per chunk: one stated by the chunk, or (relevance
    // failure) an arbitrary fact — real pipelines generate from every
    // chunk and rely on QC to drop the unanchored ones.
    struct Candidate<'a> {
        chunk: &'a ChunkRecord,
        fact: &'a mcqa_ontology::Fact,
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
            ontology.fact(fact_id).map(|fact| Candidate { chunk, fact, relevant })
        })
        .collect();
    let prompts: Vec<QuestionPrompt> = cands
        .iter()
        .map(|c| QuestionPrompt {
            fact: c.fact,
            salt: c.chunk.chunk_id.to_string(),
            passage_tokens: c.chunk.tokens,
        })
        .collect();
    let generated = models.questions(exec, config.seed, &prompts);
    // Candidates whose distractor pool was exhausted (< 7 options)
    // never reach the judge.
    let wellformed: Vec<(&Candidate, mcqa_llm::GeneratedQuestion)> =
        cands.iter().zip(generated).filter(|(_, q)| q.options.len() == 7).collect();
    let score_prompts: Vec<(&mcqa_llm::GeneratedQuestion, f64)> =
        wellformed.iter().map(|(c, q)| (q, c.fact.salience)).collect();
    let judgments = models.quality_scores(exec, config.seed, &score_prompts);

    let mut accepted: Vec<Accepted> = Vec::new();
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
        // The item clones the accepted question once; the record takes
        // the generated strings themselves.
        let item = McqItem {
            qid: 0,
            bench: BenchKind::Synthetic,
            fact: cand.fact.id,
            stem: q.stem.clone(),
            options: q.options.clone(),
            correct: q.recorded_key,
            difficulty: cand.fact.difficulty,
            is_math: false,
        };
        let record = QuestionRecord {
            question_id: 0,
            answer_letter: OPTION_LETTERS[q.recorded_key],
            answer_text: q.options[q.recorded_key].clone(),
            question: q.stem,
            options: q.options,
            question_type: "multiple-choice".into(),
            topic: cand.fact.topic,
            provenance: Provenance {
                chunk_id: cand.chunk.chunk_id,
                file_path: cand.chunk.file_path(),
                doc_id: cand.chunk.doc.0,
                fact_id: cand.fact.id.0,
            },
            relevance_check: cand.relevant,
            quality: QualityBlock { score: judgment.score, reasoning: judgment.reasoning, passed },
        };
        accepted.push((cand.chunk.chunk_id, record, item));
    }
    let row = StageMetrics::single(
        "generate+judge",
        gen_chunks.len(),
        accepted.len(),
        t.elapsed().as_secs_f64(),
    );
    (accepted, row)
}

/// `traces`: reasoning-trace distillation for the re-run questions —
/// every (question, mode) pair is one batched hub request. Returns the
/// texts in that order, `TraceMode::ALL.len()` per accepted question.
fn distil(
    exec: &Executor,
    config: &PipelineConfig,
    models: &ModelHub,
    fresh: &[Accepted],
) -> (Vec<String>, StageMetrics) {
    let t = Instant::now();
    let prompts: Vec<(&McqItem, TraceMode)> = fresh
        .iter()
        .flat_map(|(_, _, item)| TraceMode::ALL.iter().map(move |mode| (item, *mode)))
        .collect();
    let texts = models.traces(exec, config.seed, &prompts);
    let row = StageMetrics::single("traces", fresh.len(), texts.len(), t.elapsed().as_secs_f64());
    (texts, row)
}

/// The merged question set: what the output keeps, plus what the trace
/// stores need to catch up.
#[derive(Default)]
struct MergedQuestions {
    questions: Vec<QuestionRecord>,
    items: Vec<McqItem>,
    traces: Vec<TraceRecord>,
    /// Per question: generated this round, so its traces are embedded
    /// and indexed. A replayed question keeps its rows in the stores.
    fresh: Vec<bool>,
    /// Previous-round question ids whose question is gone.
    dead: Vec<u64>,
    /// Replayed questions whose id shifted, old id → new id.
    moves: HashMap<u64, u64>,
}

/// Merge in chunk-id order — the acceptance order a cold build walks —
/// renumbering question and trace ids densely. A fresh chunk takes the
/// next accepted outcome if that outcome is its own, and was rejected
/// this round otherwise. Any other chunk comes from `prev.chunks`, so it
/// replays its previous question, or was a memoized rejection if it had
/// none. Trace text depends only on question content and mode, never on
/// ids, so a replayed question keeps its traces verbatim.
fn merge_questions(
    prev: Option<&PipelineOutput>,
    chunks: &[ChunkRecord],
    fresh: &[bool],
    accepted: Vec<Accepted>,
    trace_texts: Vec<String>,
) -> MergedQuestions {
    let stride = TraceMode::ALL.len();
    let prev_questions = prev.map_or(&[][..], |p| &p.questions[..]);
    let prev_items = prev.map_or(&[][..], |p| &p.items[..]);
    let prev_traces = prev.map_or(&[][..], |p| &p.traces[..]);
    let mut prev_qid: HashMap<u64, usize> =
        prev_questions.iter().enumerate().map(|(qi, r)| (r.provenance.chunk_id, qi)).collect();
    let mut accepted = accepted.into_iter().peekable();
    let mut trace_texts = trace_texts.into_iter();
    let mut out = MergedQuestions::default();
    for (chunk, &is_fresh) in chunks.iter().zip(fresh) {
        let (mut record, mut item, old_qid) = if is_fresh {
            match accepted.next_if(|(id, ..)| *id == chunk.chunk_id) {
                Some((_, record, item)) => (record, item, None),
                None => continue, // freshly generated and rejected
            }
        } else {
            match prev_qid.remove(&chunk.chunk_id) {
                Some(old) => (prev_questions[old].clone(), prev_items[old].clone(), Some(old)),
                None => continue, // memoized rejection
            }
        };
        let qid = out.questions.len() as u64;
        record.question_id = qid;
        item.qid = qid;
        out.fresh.push(old_qid.is_none());
        if let Some(old) = old_qid.filter(|&old| old as u64 != qid) {
            out.moves.insert(old as u64, qid);
        }
        for (mi, mode) in TraceMode::ALL.into_iter().enumerate() {
            let trace = match old_qid {
                Some(old) => prev_traces[old * stride + mi].trace.clone(),
                None => trace_texts.next().expect("one trace per accepted question and mode"),
            };
            out.traces.push(TraceRecord {
                trace_id: qid * stride as u64 + mi as u64,
                question_id: qid,
                mode,
                trace,
                teacher: "GPT-4.1-sim".into(),
                answer_excluded: true,
                fact_id: item.fact.0,
            });
        }
        out.items.push(item);
        out.questions.push(record);
    }
    // Dead: the previous questions no chunk replayed (removed or re-run).
    out.dead = prev_qid.into_values().map(|q| q as u64).collect();
    out.dead.sort_unstable();
    out
}

/// `embed-traces`: encode the fresh questions' traces — all of them on a
/// cold build; a replayed question's rows stay in the stores, so its
/// traces are neither re-encoded nor re-tokenised. Returns each mode's
/// store edit, its fresh rows in ascending qid (the cold build's
/// insertion order; a trace's position encodes its mode).
fn embed_traces<'a>(
    exec: &Executor,
    encoder: &BioEncoder,
    merged: &'a MergedQuestions,
) -> (Vec<SourceEdit<'a>>, StageMetrics) {
    let stride = TraceMode::ALL.len();
    let traces = &merged.traces;
    let to_embed: Vec<usize> = (0..traces.len()).filter(|i| merged.fresh[i / stride]).collect();
    let (embedded, row) =
        run_stage(exec, "embed-traces", to_embed, |i| (i, encoder.encode(&traces[i].trace)));
    let dead = &merged.dead;
    let moves = &merged.moves;
    let mut edits: Vec<SourceEdit<'a>> =
        (0..stride).map(|_| SourceEdit { dead, moves, vectors: vec![], texts: vec![] }).collect();
    for (i, v) in embedded {
        let tr = &traces[i];
        edits[i % stride].vectors.push((tr.question_id, v));
        edits[i % stride].texts.push((tr.question_id, tr.trace.as_str()));
    }
    (edits, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_corpus::{EditBatch, EditOp};

    /// The trace vector database for `mode`, as the assertions below read
    /// it. Panics when absent.
    trait TraceStore {
        fn trace_store(&self, mode: TraceMode) -> &dyn VectorStore;
    }

    impl TraceStore for PipelineOutput {
        fn trace_store(&self, mode: TraceMode) -> &dyn VectorStore {
            self.indexes.expect_store(mode.db_name())
        }
    }

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
        // merge rows and one build row per dense store. The siblings are
        // registered unbuilt, so they have no row.
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
                "generate+judge",
                "traces",
                "embed-traces",
                "index-traces-detailed",
                "index-traces-focused",
                "index-traces-efficient",
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
        assert!(judge.tokens_in > 0 && judge.tokens_out > 0);
        // Classification and answering belong to the evaluation.
        let ledger = out.models.ledger();
        assert_eq!(ledger.role(mcqa_llm::Role::Classifier).calls, 0);
        assert_eq!(ledger.role(mcqa_llm::Role::Answerer).calls, 0);
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
        // the chunk text — which lets a consumer (the evaluator's context
        // assembly) read the record instead of tokenising the text again.
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
        // Every store and sibling was found registered: its row adds
        // nothing and reports what the previous run left. The cold build's
        // dense rows took the other side of that decision (everything in,
        // the same out); its siblings were registered unbuilt, with no row.
        let row = |report: &RunReport, name: &str| {
            let s = report.stages().iter().find(|s| s.name == name)?;
            Some((s.items, s.produced))
        };
        for name in prev.indexes.names() {
            let len = prev.indexes.expect_store(name).len();
            let (dense, lexical) = (format!("index-{name}"), format!("index-lex-{name}"));
            assert_eq!(row(&out.report, &dense), Some((0, len)), "{dense}");
            assert_eq!(row(&out.report, &lexical), Some((0, len)), "{lexical}");
            assert_eq!(row(&prev.report, &dense), Some((len, len)), "{dense}");
            assert_eq!(row(&prev.report, &lexical), None, "{lexical}");
        }
        // The copy of the previous registry has its own row: four stores
        // and four siblings. A cold build has nothing to copy.
        assert_eq!(row(&out.report, "ingest-registry"), Some((8, 8)));
        assert!(prev.report.stages().iter().all(|s| s.name != "ingest-registry"));
    }

    #[test]
    #[should_panic(expected = "incremental run must keep every setting")]
    fn incremental_rejects_a_config_the_previous_run_was_not_built_from() {
        // The seed agrees, the chunker does not: replayed chunks
        // would sit beside chunks cut to another budget.
        let prev = tiny_output();
        let mut config = prev.config.clone();
        config.chunker.max_tokens += 1;
        Pipeline::run_incremental(&config, prev, Arc::clone(&prev.library));
    }

    #[test]
    fn removing_the_first_anchoring_document_moves_every_later_question() {
        // Question ids are positions in the accepted list, so retracting
        // the lowest-id document that anchors a question shifts every
        // later question. Only that document's rows are tombstoned; every
        // other trace row moves to its new id in place, so no store
        // crosses the compaction threshold.
        let prev = tiny_output();
        let doc = prev.questions[0].provenance.doc_id;
        let chunks = prev.chunks.iter().filter(|c| c.doc.0 == doc).count();
        let questions = prev.questions.iter().filter(|q| q.provenance.doc_id == doc).count();
        let mut library = (*prev.library).clone();
        let remove = EditOp::Remove { id: DocId(doc) };
        library.apply_edits(&prev.ontology, &EditBatch { ops: vec![remove], seed: 1 });
        let library = Arc::new(library);
        let inc = Pipeline::run_incremental(&prev.config, prev, Arc::clone(&library));
        let full = Pipeline::run_full(&prev.config, Arc::clone(&prev.ontology), library);

        let c = &inc.ingest;
        let stride = TraceMode::ALL.len();
        assert_eq!(c.docs_removed, 1, "{c:?}");
        assert_eq!(c.tombstones_dense, chunks + stride * questions, "{c:?}");
        assert_eq!(c.tombstones_lexical, c.tombstones_dense, "{c:?}");
        let shifted = prev.questions.len() - questions;
        assert!(shifted > 0, "the fixture must have later questions");
        assert_eq!((c.rekeyed_dense, c.rekeyed_lexical), (stride * shifted, stride * shifted));
        assert_eq!(c.compactions, 0, "{c:?}");

        assert_eq!(inc.chunks, full.chunks);
        assert_eq!(inc.questions, full.questions);
        assert_eq!(inc.items, full.items);
        assert_eq!(inc.traces, full.traces);
        assert_eq!(inc.manifest, full.manifest);
        let probes = ["proton therapy dose", "gene expression pathway", "tumour margin imaging"];
        for name in inc.indexes.names() {
            let (a, b) = (inc.indexes.expect_store(name), full.indexes.expect_store(name));
            assert_eq!(a.len(), b.len(), "{name}");
            for p in probes {
                let q = inc.encoder.encode(p);
                assert_eq!(a.search(&q, 10), b.search(&q, 10), "{name} {p:?}");
            }
        }
        for name in inc.indexes.lexical_names() {
            let (a, b) = (inc.indexes.expect_lexical(name), full.indexes.expect_lexical(name));
            assert_eq!(a.len(), b.len(), "{name}");
            for p in probes {
                assert_eq!(a.search(p, 10), b.search(p, 10), "{name} {p:?}");
            }
        }
    }

    #[test]
    fn incremental_matches_full_rebuild_after_edits() {
        // The tentpole acceptance: after a synthetic edit batch, the
        // incremental run's artifacts AND search behaviour are identical
        // to a cold rebuild over the edited corpus.
        // Three hops, each incremental over the last: tombstones a round
        // leaves under the threshold cross into the next round in memory,
        // so every hop compares every artifact, and searches every dense
        // store and every lexical sibling over real probe queries, bit for
        // bit.
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
