//! `repro recall`: retrieval quality and footprint per retrieval mode over
//! the pipeline's own stores — every value a pure function of the pipeline
//! output. (Recall, footprint and speed per vector backend are
//! `perfbench`'s `backend-scan` workload.)

use mcqa_core::PipelineOutput;
use mcqa_eval::{source_hit_rates, Source};
use mcqa_index::IndexRegistry;
use mcqa_serve::QueryMode;

/// Recall and footprint of one source database under one retrieval mode.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallRow {
    /// The source's registry name.
    pub name: &'static str,
    pub recall: f64,
    /// The channel's resident bytes: the dense store's serialised
    /// footprint, the BM25 sibling's postings + vocabulary
    /// ([`mcqa_index::lexical::LexicalIndex::payload_bytes`]), or their
    /// sum for hybrid, so the memory table stays uniform across channels.
    pub mem_bytes: usize,
    pub bytes_per_vec: f64,
}

/// One retrieval mode over every source database.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeRecall {
    pub mode: &'static str,
    /// One row per [`Source::ALL`] entry, in that order; `recall` is the
    /// oracle-labelled hit rate ([`source_hit_rates`]): the fraction of
    /// questions whose top-k contains a supporting passage.
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
        let rates = source_hit_rates(output, &output.items, k, mode);
        let mut mean = 0.0;
        let mut sources = Vec::new();
        for (source, recall) in Source::ALL.into_iter().zip(rates) {
            let name = source.store_name();
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
        for RecallRow { name, recall, mem_bytes, bytes_per_vec } in &m.sources {
            out.push_str(&format!(
                "{mode:<8} {name:<18} {recall:>10.4} {mem_bytes:>12} {bytes_per_vec:>9.1}\n\
                 [recall] mode={mode} source={name} recall_at_{k}={recall:.4} \
                 mem_bytes={mem_bytes} bytes_per_vec={bytes_per_vec:.1}\n"
            ));
        }
        out.push_str(&format!("[recall] mode={mode} source=all recall_at_{k}={:.4}\n", m.mean));
    }
    out
}
