//! `repro recall`: retrieval quality and footprint per vector backend and
//! per retrieval mode — every value a pure function of the pipeline
//! output. (Speed per backend is `perfbench`'s `backend-scan` workload.)

use mcqa_core::PipelineOutput;
use mcqa_eval::{RetrievalBundle, Source};
use mcqa_index::{IndexRegistry, IndexSpec};
use mcqa_serve::QueryMode;

/// Recall and footprint of one store: a vector backend
/// ([`backend_recall`]) or one source database under one retrieval mode
/// ([`mode_recall`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RecallRow {
    /// [`IndexSpec::label`], or the source's registry name.
    pub name: &'static str,
    pub recall: f64,
    /// Serialised footprint: the bytes the store costs at rest (and, for
    /// the code-carrying backends, roughly in RAM) — the denominator of
    /// the compression claim. For a retrieval mode, the channel's resident
    /// bytes: the dense store's, the BM25 sibling's postings + vocabulary
    /// ([`mcqa_index::lexical::LexicalIndex::payload_bytes`]), or their sum for
    /// hybrid, so the memory table stays uniform across channels.
    pub mem_bytes: usize,
    pub bytes_per_vec: f64,
}

impl RecallRow {
    /// `recall_at_<k>=… mem_bytes=… bytes_per_vec=…`, the tail of a
    /// greppable `[recall]` line.
    fn key_values(&self, k: usize) -> String {
        let Self { recall, mem_bytes, bytes_per_vec, .. } = self;
        format!("recall_at_{k}={recall:.4} mem_bytes={mem_bytes} bytes_per_vec={bytes_per_vec:.1}")
    }
}

/// Build every backend of [`IndexSpec::all_defaults`] over the *same*
/// chunk embeddings and report the share of an exact oracle's top-`k` ids
/// each one's top-`k` holds, per question stem. The oracle is an
/// [`IndexSpec::Flat`] store built for the purpose, and flat is scored
/// against it like the rest, so exact search that stops being exact shows
/// as recall < 1.
///
/// `None` when the pipeline accepted no question: with no stem queries
/// recall would be 1.0 for every backend by definition, a vacuously
/// passing floor.
pub fn backend_recall(output: &PipelineOutput, k: usize) -> Option<Vec<RecallRow>> {
    let exec = &output.executor;
    let texts: Vec<&str> = output.chunks.iter().map(|c| c.text.as_str()).collect();
    let vectors = output.encoder.encode_batch(exec, &texts);
    let items: Vec<(u64, Vec<f32>)> =
        output.chunks.iter().map(|c| c.chunk_id).zip(vectors).collect();
    let stems: Vec<&str> = output.items.iter().map(|i| i.stem.as_str()).collect();
    let queries = output.encoder.encode_batch(exec, &stems);
    if queries.is_empty() {
        return None;
    }

    let build = |spec: &IndexSpec| {
        mcqa_index::build_store_from_vectors(
            spec,
            output.config.embed.dim,
            mcqa_index::Metric::Cosine,
            mcqa_embed::Precision::F16,
            exec,
            &items,
        )
    };
    let top_ids = |store: &dyn mcqa_index::VectorStore| -> Vec<Vec<u64>> {
        let results = store.search_batch(exec, &queries, k);
        results.iter().map(|hits| hits.iter().map(|h| h.id).collect()).collect()
    };
    let oracle = top_ids(build(&IndexSpec::Flat).as_ref());

    let score = |spec: &IndexSpec| {
        let store = build(spec);
        let (mut hit, mut total) = (0usize, 0usize);
        for (approx, exact) in top_ids(store.as_ref()).iter().zip(&oracle) {
            hit += approx.iter().filter(|id| exact.contains(id)).count();
            total += exact.len();
        }
        let mem_bytes = store.to_bytes().len();
        RecallRow {
            name: spec.label(),
            recall: if total == 0 { 1.0 } else { hit as f64 / total as f64 },
            mem_bytes,
            bytes_per_vec: mem_bytes as f64 / items.len().max(1) as f64,
        }
    };
    Some(IndexSpec::all_defaults().iter().map(score).collect())
}

/// The human table with a greppable `[recall] backend=…` line under each
/// row.
pub fn render_backend_recall(rows: &[RecallRow], k: usize) -> String {
    let mut out =
        format!("{:<8} {:>10} {:>11} {:>7}\n", "backend", "recall@k", "mem-bytes", "B/vec");
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>10.3} {:>11} {:>7.1}\n[recall] backend={} {}\n",
            r.name,
            r.recall,
            r.mem_bytes,
            r.bytes_per_vec,
            r.name,
            r.key_values(k)
        ));
    }
    out
}

/// One retrieval mode over every source database.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeRecall {
    pub mode: &'static str,
    /// One row per [`Source::ALL`] entry, in that order; `recall` is the
    /// oracle-labelled hit rate ([`RetrievalBundle::raw_hit_rate`]): the
    /// fraction of questions whose top-k contains a supporting passage.
    pub sources: Vec<RecallRow>,
    /// Mean recall over the sources (the `source=all` line).
    pub mean: f64,
}

/// The retrieval-mode comparison behind the README's hybrid table: dense
/// vs lexical vs hybrid (RRF) recall@`k` over the pipeline's own source
/// databases, with every query riding the `QueryService` envelope exactly
/// the way the evaluator's retrieval does.
pub fn mode_recall(output: &PipelineOutput, k: usize) -> Vec<ModeRecall> {
    let modes: [(&str, QueryMode); 3] = [
        ("dense", QueryMode::Dense),
        ("lexical", QueryMode::Lexical),
        ("hybrid", QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 }),
    ];
    let mut rows = Vec::new();
    for (label, mode) in modes {
        let bundle = RetrievalBundle::build_mode(output, &output.items, k, mode);
        let mut mean = 0.0;
        let mut sources = Vec::new();
        for source in Source::ALL {
            let name = source.store_name();
            let recall = bundle.raw_hit_rate(source);
            mean += recall / Source::ALL.len() as f64;
            let store = output.indexes.expect_store(name);
            let dense_bytes = store.to_bytes().len();
            let lex = output.indexes.expect_lexical(&IndexRegistry::lexical_sibling(name));
            let (mem_bytes, docs) = match mode {
                QueryMode::Dense => (dense_bytes, store.len()),
                QueryMode::Lexical => (lex.payload_bytes(), lex.len()),
                QueryMode::Hybrid { .. } => (dense_bytes + lex.payload_bytes(), store.len()),
            };
            let bytes_per_vec = mem_bytes as f64 / docs.max(1) as f64;
            sources.push(RecallRow { name, recall, mem_bytes, bytes_per_vec });
        }
        rows.push(ModeRecall { mode: label, sources, mean });
    }
    rows
}

/// The human table with a greppable `[recall] mode=… source=…` line under
/// each row and a `source=all` line closing each mode.
pub fn render_mode_recall(modes: &[ModeRecall], k: usize) -> String {
    let mut out = format!(
        "{:<8} {:<18} {:>10} {:>12} {:>9}\n",
        "mode", "source", "recall@k", "mem-bytes", "B/doc"
    );
    for m in modes {
        let mode = m.mode;
        for s in &m.sources {
            out.push_str(&format!(
                "{mode:<8} {:<18} {:>10.4} {:>12} {:>9.1}\n[recall] mode={mode} source={} {}\n",
                s.name,
                s.recall,
                s.mem_bytes,
                s.bytes_per_vec,
                s.name,
                s.key_values(k)
            ));
        }
        out.push_str(&format!("[recall] mode={mode} source=all recall_at_{k}={:.4}\n", m.mean));
    }
    out
}
