//! `repro ingest`: does an incremental re-run after a seeded edit batch
//! leave what a cold rebuild of the edited corpus leaves? (How much faster
//! it is is `perfbench`'s `ingest-churn` workload.)

use mcqa_core::{IngestCensus, Pipeline, PipelineConfig};
use mcqa_corpus::EditBatch;
use mcqa_runtime::RunReport;
use std::sync::Arc;

/// How the incremental run compared with the cold rebuild.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every artifact equal and every probe's hits equal, dense stores
    /// and lexical siblings alike.
    Identical,
    /// What differed, one `key=value …` description each.
    Mismatch(Vec<String>),
}

/// One incremental-vs-cold comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    pub edits: usize,
    /// The edit batch's (add, modify, remove) split.
    pub profile: (usize, usize, usize),
    /// The planner's skip / re-run census of the incremental run.
    pub census: IngestCensus,
    /// Dense stores + lexical siblings compared.
    pub stores: usize,
    pub probes: usize,
    pub verdict: Verdict,
    /// The incremental run's stage report: its `ingest-scan` and
    /// `ingest-registry` rows are a round's fixed cost.
    pub stages: RunReport,
}

/// Cold-build `config`, apply a seeded synthetic batch of `edits` edits
/// (default ≈ 1% of the live corpus, minimum 1), re-run incrementally, and
/// compare against a cold rebuild of the edited corpus.
///
/// Every pipeline artifact (chunks, questions, traces, the ingest
/// manifest) must be equal, and every store's search results are compared
/// probe by probe, exactly: the pipeline's dense stores are flat, so an
/// incremental round must leave the hits a cold build leaves.
pub fn ingest_check(config: &PipelineConfig, edits: Option<usize>) -> IngestReport {
    let base = Pipeline::run(config);

    let edits = edits.unwrap_or_else(|| (base.library.live_len() / 100).max(1));
    let mut library = (*base.library).clone();
    let batch = EditBatch::synthetic(&library, config.seed, edits);
    let profile = batch.profile();
    library.apply_edits(&base.ontology, &batch);
    let library = Arc::new(library);

    let inc = Pipeline::run_incremental(config, &base, library.clone());
    let cold = Pipeline::run_full(config, base.ontology.clone(), library);

    let mut mismatches = Vec::new();
    for (what, ok) in [
        ("chunks", inc.chunks == cold.chunks),
        ("questions", inc.questions == cold.questions),
        ("items", inc.items == cold.items),
        ("traces", inc.traces == cold.traces),
        ("manifest", inc.manifest == cold.manifest),
    ] {
        if !ok {
            mismatches.push(format!("artifact={what}"));
        }
    }

    let probes = ["proton therapy dose", "gene expression pathway", "tumour margin imaging"];
    let k = 10;
    let mut stores = 0;
    for name in inc.indexes.names() {
        let store = inc.indexes.expect_store(name);
        let other = cold.indexes.expect_store(name);
        for p in &probes {
            let q = inc.encoder.encode(p);
            if store.search(&q, k) != other.search(&q, k) {
                mismatches.push(format!("store={name} probe={p:?}"));
            }
        }
        stores += 1;
    }
    for name in inc.indexes.lexical_names() {
        let lex = inc.indexes.expect_lexical(name);
        let other = cold.indexes.expect_lexical(name);
        for p in &probes {
            if lex.search(p, k) != other.search(p, k) {
                mismatches.push(format!("store={name} probe={p:?}"));
            }
        }
        stores += 1;
    }

    let verdict =
        if mismatches.is_empty() { Verdict::Identical } else { Verdict::Mismatch(mismatches) };
    IngestReport {
        edits,
        profile,
        census: inc.ingest,
        stores,
        probes: probes.len(),
        verdict,
        stages: inc.report,
    }
}

impl IngestReport {
    /// Greppable `[ingest] key=value` lines: the batch, the census, then
    /// the verdict (one `verify=mismatch` line per difference).
    pub fn render(&self) -> String {
        let (add, modify, remove) = self.profile;
        let mut out =
            format!("[ingest] edits={} add={add} modify={modify} remove={remove}\n", self.edits);
        for (key, value) in self.census.lines() {
            out.push_str(&format!("[ingest] {key}={value}\n"));
        }
        let compared = format!("stores={} probes={}", self.stores, self.probes);
        match &self.verdict {
            Verdict::Identical => out.push_str(&format!("[ingest] verify=identical {compared}\n")),
            Verdict::Mismatch(what) => {
                for w in what {
                    out.push_str(&format!("[ingest] verify=mismatch {w}\n"));
                }
            }
        }
        out
    }
}
