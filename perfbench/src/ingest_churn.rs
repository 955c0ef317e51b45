//! `ingest-churn` — refreshing the benchmark as the literature grows.
//!
//! The write path (remove / upsert / tombstones / compact, merkle diff,
//! re-keyed trace vectors) beside the read path. Each round edits about 5 %
//! of the live corpus (`EditBatch::synthetic` → `apply_edits`), re-runs the
//! pipeline incrementally over the previous output, and then reads through
//! the mutated stores with a fixed probe. A scan optimisation that slows
//! mutation, or a mutation shortcut that leaves scans wading through
//! tombstones, shows here and nowhere else.
//!
//! * `primary_ms` — wall of one 5 %-churn `Pipeline::run_incremental` per
//!   1 000 live rows in the stores it maintains
//! * `secondary_ms` — wall of the read probe (`search_batch`, every store)
//!   right after the round, tombstones present, per 1 000 live rows
//! * `throughput_per_s` — documents changed ÷ seconds of edit + re-run +
//!   probe, round by round
//!
//! (all three at reference speed, see `host::Reference`)
//!
//! After the timed region the edited corpus is rebuilt from scratch with
//! `Pipeline::run_full`; the incremental artifacts must equal it.

use std::sync::Arc;

use distllm::corpus::EditBatch;
use distllm::index::{decode_store, SearchResult};
use distllm::prelude::*;

use crate::stats::{mean, median};
use crate::{Ctx, Timing};

const K: usize = 8;
/// Probe queries per store.
const PROBE_PER_STORE: usize = 50;
/// Share of the live corpus one round edits: 22 of 451 documents. (At 1 %,
/// four documents, whether the seed drew a removal or a full paper decided
/// the round's time: the rounds of one run spread 0.3 around their median.)
const ROUND_SHARE: f64 = 0.05;
/// The traced pass's heavy rounds: five times the churn.
const HEAVY_SHARE: f64 = 0.25;

struct Env {
    base: PipelineOutput,
    /// Pre-encoded probe queries (question stems of the base build).
    probes: Vec<Vec<f32>>,
}

fn probe(out: &PipelineOutput, probes: &[Vec<f32>]) -> Vec<Vec<Vec<SearchResult>>> {
    out.indexes
        .names()
        .into_iter()
        .map(|name| out.indexes.expect_store(name).search_batch(&out.executor, probes, K))
        .collect()
}

/// Live rows over all vector stores, in thousands. Three of the four stores
/// hold one row per accepted question, and the judge accepts 331–487 of them
/// depending on the seed; a round's re-keying and the probe's scans follow
/// that count, so both are reported per 1 000 rows.
fn kilo_rows(out: &PipelineOutput) -> f64 {
    let rows: usize =
        out.indexes.names().into_iter().map(|name| out.indexes.expect_store(name).len()).sum();
    rows as f64 / 1e3
}

/// One churn round over `prev`: edit `share` of the live corpus, re-run
/// incrementally, probe. Returns the new output and the three timings.
fn round(
    ctx: &mut Ctx,
    config: &PipelineConfig,
    prev: &PipelineOutput,
    probes: &[Vec<f32>],
    share: f64,
    salt: u64,
) -> (PipelineOutput, [Timing; 3]) {
    ctx.tracer.next_request();
    let mut library = (*prev.library).clone();
    let n = ((library.live_len() as f64 * share) as usize).max(1);
    let batch = EditBatch::synthetic(&library, ctx.plan.seed ^ salt, n);
    let ((), edit) =
        ctx.paced("corpus.apply_edits", |_| library.apply_edits(&prev.ontology, &batch));
    let library = Arc::new(library);
    let (next, run) =
        ctx.paced("core.run_incremental", |_| Pipeline::run_incremental(config, prev, library));
    let (hits, read) = ctx.paced("index.probe", |_| probe(&next, probes));
    std::hint::black_box(hits);
    let panics: usize = next.report.stages().iter().map(|s| s.panics).sum();
    ctx.report.count(1, u64::from(panics > 0));
    (next, [edit, run, read])
}

pub fn run(ctx: &mut Ctx) {
    let plan = ctx.plan.clone();
    let config = PipelineConfig::at_scale(plan.scale, plan.seed);
    let Env { base, probes } = ctx.setup(|_| {
        let base = Pipeline::run(&config);
        let stems: Vec<&str> =
            base.items.iter().take(PROBE_PER_STORE).map(|i| i.stem.as_str()).collect();
        let probes = base.encoder.encode_batch(&base.executor, &stems);
        Env { base, probes }
    });
    let base_docs = base.library.live_len();

    let deadline = ctx.deadline(if plan.traced { 0.5 } else { 1.0 });
    let (mut edits, mut rounds, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut round_ms, mut probe_ms) = (Vec::new(), Vec::new());
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut docs_per_s = Vec::new();
    let (mut skipped, mut rerun, mut amplification, mut compactions) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut prev = base;
    let mut i = 0;
    while ctx.more(i, 5, deadline) {
        let traced = ctx.trace_rep(i);
        let (next, [e, r, p]) = round(ctx, &config, &prev, &probes, ROUND_SHARE, i as u64);
        edits.push(e);
        rounds.push(r);
        reads.push(p);
        round_ms.push(r.norm_s * 1e3 / kilo_rows(&next));
        probe_ms.push(p.norm_s * 1e3 / kilo_rows(&next));
        if traced { &mut traced_s } else { &mut plain_s }.push(r.norm_s);
        let c = &next.ingest;
        docs_per_s.push(c.docs_changed() as f64 / (e.norm_s + r.norm_s + p.norm_s));
        skipped.push(c.docs_skipped() as f64 / c.docs_scanned.max(1) as f64);
        rerun.push(c.chunks_rerun as f64 / c.chunks_total.max(1) as f64);
        amplification.push(c.tombstones_dense as f64 / c.chunks_rerun.max(1) as f64);
        compactions.push(c.compactions as f64);
        prev = next;
        i += 1;
    }

    let raw = |v: &[Timing]| v.iter().map(|t| t.raw_s).collect::<Vec<f64>>();
    let (round_s, probe_s) = (raw(&rounds), raw(&reads));
    let queries = (probes.len() * prev.indexes.len()) as f64;
    ctx.report.set_gated("primary_ms", &round_ms);
    ctx.report.set_gated("secondary_ms", &probe_ms);
    ctx.report.set_gated("throughput_per_s", &docs_per_s);
    ctx.report.set_samples("ingest_round_s", &round_s);
    ctx.report.set_samples("corpus.apply_edits_s", &raw(&edits));
    ctx.report.set_samples(
        "index.probe_qps_after_edit",
        &probe_s.iter().map(|s| queries / s).collect::<Vec<_>>(),
    );
    ctx.report.set_samples("ingest.docs_skipped_share", &skipped);
    ctx.report.set_samples("ingest.chunks_rerun_share", &rerun);
    ctx.report.set_samples("ingest.rows_tombstoned_per_changed_chunk", &amplification);
    ctx.report.set("ingest.compactions_per_round", mean(&compactions));
    ctx.set_trace_overhead(&traced_s, &plain_s);

    if plan.traced {
        ctx.tracer.set_enabled(true);
        // The fixed cost: hash + diff + skip everything.
        ctx.tracer.next_request();
        let library = Arc::clone(&prev.library);
        let (noop, s) = ctx.tracer.time("core.run_incremental_noop", |_| {
            Pipeline::run_incremental(&config, &prev, library)
        });
        ctx.report.check(noop.ingest.docs_changed() == 0, "a no-op round changed documents");
        ctx.report.set("ingest.noop_round_s", s);
        prev = noop;
        let mut heavy = Vec::new();
        for h in 0..if plan.smoke { 1 } else { 2 } {
            let (next, [_, r, _]) = round(ctx, &config, &prev, &probes, HEAVY_SHARE, 0x4EA7 + h);
            heavy.push(r.raw_s);
            prev = next;
        }
        ctx.report.set("ingest.heavy_round_s", median(&heavy));
        mutate_directly(ctx, &prev);
    }

    // Ground truth: a cold rebuild of the edited corpus.
    ctx.tracer.next_request();
    let (cold, full_s) = ctx.tracer.time("core.run_full", |_| {
        Pipeline::run_full(&config, Arc::clone(&prev.ontology), Arc::clone(&prev.library))
    });
    ctx.report.set("ingest.full_rebuild_s", full_s);
    ctx.report.set("ingest.speedup", full_s / median(&round_s));
    for (what, same) in [
        ("chunks", prev.chunks == cold.chunks),
        ("questions", prev.questions == cold.questions),
        ("items", prev.items == cold.items),
        ("traces", prev.traces == cold.traces),
        ("manifest", prev.manifest == cold.manifest),
        ("probe results", probe(&prev, &probes) == probe(&cold, &probes)),
    ] {
        ctx.report.check(same, &format!("incremental {what} differ from the full rebuild"));
    }
    ctx.report.check(prev.library.live_len() * 2 > base_docs, "the corpus withered under churn");
}

/// The stores' own mutation surface on decoded copies, with no pipeline
/// around it: upsert, compact, and the lexical sibling's upsert.
fn mutate_directly(ctx: &mut Ctx, out: &PipelineOutput) {
    let exec = &out.executor;
    let take = (out.chunks.len() / 20).max(1);
    let texts: Vec<&str> = out.chunks.iter().take(take).map(|c| c.text.as_str()).collect();
    let vectors = out.encoder.encode_batch(exec, &texts);
    let rows: Vec<(u64, Vec<f32>)> = out.chunks.iter().map(|c| c.chunk_id).zip(vectors).collect();
    let docs: Vec<(u64, &str)> = out.chunks.iter().map(|c| c.chunk_id).zip(texts).collect();

    ctx.tracer.next_request();
    let mut store = decode_store(&out.chunk_store().to_bytes()).expect("chunk store decodes");
    let ((), s) = ctx.tracer.time("index.upsert", |_| store.upsert(exec, &rows));
    ctx.report.set("index.flat.upsert_rows_per_s", rows.len() as f64 / s);
    ctx.report.check(store.tombstones() == rows.len(), "upsert left no tombstones behind");
    let ((), s) = ctx.tracer.time("index.compact", |_| store.compact(exec));
    ctx.report.set("index.flat.compact_s", s);
    ctx.report.check(
        store.tombstones() == 0 && store.len() == out.chunk_store().len(),
        "compaction changed the live row count",
    );

    let name = IndexRegistry::lexical_sibling(distllm::core::CHUNKS_STORE);
    let mut lex = LexicalIndex::from_bytes(&out.indexes.expect_lexical(&name).to_bytes())
        .expect("lexical sibling decodes");
    let ((), s) = ctx.tracer.time("lexical.upsert", |_| lex.upsert(exec, &docs));
    ctx.report.set("lexical.upsert_docs_per_s", docs.len() as f64 / s);
}
