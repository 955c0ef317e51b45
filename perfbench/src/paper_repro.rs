//! `paper-repro` — the paper's Figure-1 flow as `repro all` runs it.
//!
//! Closed, batch: each rep is a cold `Pipeline::run` (corpus, parse, chunk,
//! embed, lexical build, question generation, traces — zero serving) and
//! then `Evaluator::new` + `run()` on that fresh output (serving through
//! one huge `query_batch`, flat scans, model answering — zero parsing).
//! The output is dropped between reps and every rep builds a fresh model
//! hub, so the response cache cannot turn later reps into replays.
//!
//! * `primary_ms` — wall of `Pipeline::run`
//! * `secondary_ms` — wall of `Evaluator::new` + every `evaluate_card` (what
//!   `run()` does) per 10 000 graded answers (8 cards × 5 conditions × 2
//!   benchmarks)
//! * `throughput_per_s` — graded answers ÷ (build + eval) seconds of the rep
//!
//! (all three at reference speed, see `host::Reference`)

use distllm::corpus::CorpusLibrary;
use distllm::embed::{BioEncoder, Precision};
use distllm::index::{build_store_from_vectors, Metric};
use distllm::llm::answer::Condition;
use distllm::llm::MODEL_CARDS;
use distllm::ontology::Ontology;
use distllm::parse::{AdaptiveParser, ParserConfig};
use distllm::prelude::*;
use distllm::text::Chunker;
use distllm::util::fnv1a;

use crate::Ctx;

/// FNV-1a of the serialised question and trace artifacts, as pinned in
/// `tests/golden.rs`.
fn fingerprint(out: &PipelineOutput) -> (u64, u64) {
    let q = serde_json::to_string(&out.questions).expect("questions serialise");
    let t = serde_json::to_string(&out.traces).expect("traces serialise");
    (fnv1a(q.as_bytes()), fnv1a(t.as_bytes()))
}

/// Best reasoning-trace accuracy above baseline on the synthetic set, for
/// every card: the paper's headline.
fn headline_holds(models: &[distllm::eval::ModelEval]) -> bool {
    models.len() == MODEL_CARDS.len()
        && models.iter().all(|m| m.synth_best_rt() > m.synth_accuracy(Condition::Baseline))
}

pub fn run(ctx: &mut Ctx) {
    let config = PipelineConfig::at_scale(ctx.plan.scale, ctx.plan.seed);
    let eval_config = EvalConfig { seed: ctx.plan.seed, ..Default::default() };

    // Set-up: one warm-up build, whose fingerprints every rep must match.
    let reference = ctx.setup(|_| fingerprint(&Pipeline::run(&config)));

    // A traced run spends the back of its window on the layer replay.
    let deadline = ctx.deadline(if ctx.plan.traced { 0.6 } else { 1.0 });
    let (mut build, mut eval, mut graded_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut graded = 0usize;
    let (mut prep_s, mut card_s, mut answers_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_rep, mut plain_rep) = (Vec::new(), Vec::new());
    let mut rep = 0;
    while ctx.more(rep, 3, deadline) {
        let traced = ctx.trace_rep(rep);
        ctx.tracer.next_request();
        let (out, b) = ctx.paced("core.pipeline_run", |_| Pipeline::run(&config));
        // `Evaluator::run()` is `evaluate_card` over the roster; the cards
        // are called one by one so that each is timed against a host-speed
        // reading of its own (and, in a traced rep, gets a span).
        let (evaluator, prep) =
            ctx.paced("eval.new", |_| Evaluator::new(&out, eval_config.clone()));
        let mut e = prep;
        let models: Vec<_> = MODEL_CARDS
            .iter()
            .map(|card| {
                let (model, t) = ctx.paced("eval.card", |_| evaluator.evaluate_card(card));
                card_s.push(t.raw_s);
                e = e + t;
                model
            })
            .collect();
        let report = evaluator.report();
        let answers =
            report.stages().iter().find(|s| s.name == "eval-answer").map_or(0, |s| s.items);
        let serve = evaluator.serve_stats();
        drop(evaluator);
        build.push(b);
        eval.push(e);
        prep_s.push(prep.raw_s);
        graded = answers;
        graded_per_s.push(answers as f64 / (b.norm_s + e.norm_s));
        answers_per_s.push(answers as f64 / (e.raw_s - prep.raw_s).max(1e-9));
        if traced { &mut traced_rep } else { &mut plain_rep }.push(b.norm_s + e.norm_s);

        let panics: usize = out.report.stages().iter().map(|s| s.panics).sum();
        ctx.report.count(1, u64::from(panics > 0));
        ctx.report
            .check(fingerprint(&out) == reference, "artifact fingerprints differ across reps");
        ctx.report.check(headline_holds(&models), "best reasoning-trace accuracy <= baseline");
        ctx.report.check(!out.items.is_empty(), "no question survived the quality filter");

        // Ledger counts of the last rep (they repeat exactly across reps).
        let total = out.models.ledger().total();
        ctx.report.set("llm.calls", total.calls as f64);
        ctx.report.set("llm.backend_calls", total.backend_calls() as f64);
        ctx.report.set("llm.cache_hit_rate", total.hit_rate());
        ctx.report.set("serve.eval.mean_batch", serve.mean_batch());
        ctx.report.set("serve.eval.search_s", serve.search_secs);
        ctx.report.set("serve.eval.encode_s", serve.encode_secs);
        if ctx.plan.traced {
            ctx.report.set("registry_mb", out.indexes.to_bytes().len() as f64 / 1e6);
        }
        rep += 1;
    }

    // The driver compares runs of different seeds. Every seed's corpus holds
    // the same text to within 1 % and builds in the same time; the judge,
    // though, accepts 8–12 % of the candidates depending on the seed, and
    // evaluation time follows the accepted count: per 10 000 graded answers.
    ctx.report.set_timings("primary_ms", &build, 1e3);
    ctx.report.set_timings("secondary_ms", &eval, 1e3 * 1e4 / graded.max(1) as f64);
    ctx.report.set_gated("throughput_per_s", &graded_per_s);
    let build_s: Vec<f64> = build.iter().map(|t| t.raw_s).collect();
    ctx.report.set_samples("build_s", &build_s);
    ctx.report.set_samples("eval_s", &eval.iter().map(|t| t.raw_s).collect::<Vec<_>>());
    ctx.report.set_samples("eval.prep_s", &prep_s);
    ctx.report.set_samples("eval.card_s", &card_s);
    ctx.report.set_samples("eval.answers_per_s", &answers_per_s);
    ctx.set_trace_overhead(&traced_rep, &plain_rep);

    if ctx.plan.traced {
        let w1 = replay_layers(ctx, &config, reference);
        ctx.report.set("runtime.build_speedup_w1", w1 / crate::stats::median(&build_s));
    }
}

/// The build's layers one public call at a time, on artifacts made the way
/// `Pipeline::run` makes them, plus one `workers = 1` build. Returns the
/// wall seconds of that single-worker build.
fn replay_layers(ctx: &mut Ctx, config: &PipelineConfig, reference: (u64, u64)) -> f64 {
    ctx.tracer.set_enabled(true);
    ctx.tracer.next_request();
    let exec = Executor::new(config.effective_workers());
    let t = &mut ctx.tracer;

    let (ontology, s) = t.time("ontology.generate", |_| Ontology::generate(&config.ontology));
    ctx.report.set("ontology.generate_s", s);
    let (library, s) =
        t.time("corpus.build", |_| CorpusLibrary::build(&ontology, &config.acquisition, &exec));
    ctx.report.set("corpus.build_s", s);

    let blobs: Vec<&[u8]> =
        library.live_ids().into_iter().filter_map(|id| library.download(id)).collect();
    let parser = AdaptiveParser::new(ParserConfig::default());
    let ((outcomes, _), s) = t.time("parse.parse_batch", |_| parser.parse_batch(&exec, &blobs));
    let texts: Vec<String> =
        outcomes.iter().filter_map(|o| o.document()).map(|d| d.full_text()).collect();
    ctx.report.set("parse.docs_per_s", blobs.len() as f64 / s);
    ctx.report.set("parse.unparseable", (blobs.len() - texts.len()) as f64);

    // Chunking runs one task per document inside the pipeline; replayed on
    // the harness thread it is a single-thread rate.
    let encoder = BioEncoder::new(config.embed.clone());
    let (chunks, s) = t.time("text.chunk", |_| {
        let chunker = Chunker::new(&encoder, config.chunker.clone());
        texts.iter().flat_map(|text| chunker.chunk(text)).map(|c| c.text).collect::<Vec<String>>()
    });
    ctx.report.set("text.chunk_docs_per_s", texts.len() as f64 / s);
    ctx.report.set("text.chunks", chunks.len() as f64);

    let (vectors, s) = t.time("embed.encode_batch", |_| encoder.encode_batch(&exec, &chunks));
    ctx.report.set("embed.encode_texts_per_s", chunks.len() as f64 / s);

    let items: Vec<(u64, Vec<f32>)> = (0u64..).zip(vectors).collect();
    let (_, s) = t.time("index.build_flat", |_| {
        build_store_from_vectors(
            &IndexSpec::default(),
            config.embed.dim,
            Metric::Cosine,
            Precision::F16,
            &exec,
            &items,
        )
    });
    ctx.report.set("index.flat.build_vec_per_s", items.len() as f64 / s);

    let pairs: Vec<(u64, &str)> = (0u64..).zip(chunks.iter().map(String::as_str)).collect();
    let (_, s) = t.time("lexical.add_batch", |_| {
        let mut lex = LexicalIndex::new(Default::default());
        lex.add_batch(&exec, &pairs);
        lex
    });
    ctx.report.set("lexical.build_docs_per_s", pairs.len() as f64 / s);

    // One worker: the artifacts must hash the same as with all of them.
    let mut single = config.clone();
    single.workers = 1;
    let (out, w1) = t.time("core.pipeline_run_w1", |_| Pipeline::run(&single));
    ctx.report.check(fingerprint(&out) == reference, "workers=1 artifacts differ from workers=N");
    w1
}
