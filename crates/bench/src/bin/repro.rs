//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro all                         # everything, default scale 0.1
//! repro table2 --scale 0.2 --seed 7
//! repro fig1 | fig2 | fig3 | fig4 | fig5 | fig6
//! repro table1 | table3 | table4
//! repro rates                       # measured retrieval rates per model
//! repro residuals                   # calibration residual census
//! repro recall                      # ANN recall@k + throughput vs flat
//! repro models                      # per-role call ledger + cache hit rate
//! repro serve-bench                 # query-service load harness (p50/p95/p99)
//! repro ingest --edits 20           # incremental re-ingest vs cold rebuild
//! repro ablate-topk                 # accuracy vs retrieval depth
//! repro ablate-context              # accuracy vs context window
//! repro ablate-filter               # quality threshold sweep
//! ```
//!
//! Every subcommand shares **one** flag parser ([`RunArgs`]): `--scale`,
//! `--seed`, `--index flat|hnsw|ivf|pq` (vector-store backend; default
//! `flat`, the exact baseline), `--models sim` (model backend behind the
//! `ModelEndpoint` trait; only the behavioural simulator exists offline),
//! plus the `--serve-*` knobs `serve-bench` reads. An unknown command, an
//! unknown flag or a malformed or out-of-range value exits 2 with the usage
//! table — before any pipeline is built; `repro help` prints it and exits 0.

use mcqa_core::{Pipeline, PipelineConfig};
use mcqa_eval::results::{render_fig, render_table2, render_table3, render_table4, FigureSeries};
use mcqa_eval::{EvalConfig, Evaluator, RetrievalBundle, Source};
use mcqa_index::{IndexRegistry, IndexSpec};
use mcqa_llm::answer::Condition;
use mcqa_llm::{cards, ModelSpec, TraceMode, MODEL_CARDS};
use mcqa_serve::{QueryMode, QueryRequest, QueryService, ServeConfig};
use serde::{Deserialize, Serialize};

/// Every flag every subcommand accepts, parsed by one parser. Commands
/// read the subset they care about; there is no per-command flag dialect.
struct RunArgs {
    command: String,
    scale: f64,
    seed: u64,
    index: IndexSpec,
    models: ModelSpec,
    retrieval: QueryMode,
    /// Hybrid per-channel over-fetch multiplier (`--fuse-depth`; 0 =
    /// [`mcqa_lexical::DEFAULT_FUSE_DEPTH`]).
    fuse_depth: usize,
    /// `ingest`: synthetic edit-batch size (`--edits`; default ≈ 1% of
    /// the live corpus, minimum 1).
    edits: Option<usize>,
    serve: ServeArgs,
}

/// The `--serve-*` knobs (read by `serve-bench`; harmless elsewhere).
struct ServeArgs {
    /// Total requests to replay per run (`--serve-requests`).
    requests: usize,
    /// Client concurrency levels to sweep (`--serve-concurrency`, comma
    /// separated).
    concurrency: Vec<usize>,
    /// Micro-batch watermark for the batched runs (`--serve-batch`).
    batch: usize,
    /// Flush deadline in microseconds (`--serve-deadline-us`).
    deadline_us: u64,
    /// Admission queue capacity (`--serve-queue`).
    queue: usize,
    /// Per-client open-loop arrival rate in q/s (`--serve-rate`):
    /// exponential inter-arrival gaps drawn from the run seed, so load is
    /// offered on a schedule the service cannot slow down. 0 = closed
    /// loop (each client waits for its reply before submitting again).
    rate: f64,
    /// Saturation-knee sweep (`--sweep`, valueless): replace the fixed
    /// load phase with an open-loop rate walk per (retrieval mode,
    /// concurrency) that climbs offered load until the service sheds or
    /// lags, then reports `max_sustainable_qps`.
    sweep: bool,
    /// Panel-cache byte budget for the serving registry
    /// (`--cache-budget`; 0 disables the cache, unset keeps the
    /// size-of-store auto budget).
    cache_budget: Option<usize>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            requests: 512,
            concurrency: vec![1, 8, 32],
            batch: 64,
            deadline_us: 500,
            queue: 256,
            rate: 0.0,
            sweep: false,
            cache_budget: None,
        }
    }
}

/// Every subcommand. `parse_args` rejects anything else before a pipeline
/// is built.
const COMMANDS: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "rates",
    "residuals",
    "recall",
    "models",
    "serve-bench",
    "ingest",
    "ablate-topk",
    "ablate-context",
    "ablate-filter",
];

const FLAGS: &str =
    "valid flags: --scale <f64 in (0, 1]> --seed <u64> --index flat|hnsw|ivf|pq --models sim \
     --retrieval dense|lexical|hybrid|hybrid-rerank --fuse-depth <n> --edits <n> \
     --serve-requests <n> --serve-concurrency <n,n,...> --serve-batch <n> \
     --serve-deadline-us <us> --serve-queue <n> --serve-rate <q/s> --sweep \
     --cache-budget <bytes>";

fn usage() -> String {
    format!(
        "usage: repro [command] [flags]   (no command = all; `repro help` prints this table)\n\
         commands: {}\n{FLAGS}",
        COMMANDS.join(" ")
    )
}

fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}\n{}", usage());
    std::process::exit(2);
}

fn parse_args() -> RunArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().unwrap_or_else(|| "all".to_string());
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        std::process::exit(0);
    }
    if !COMMANDS.contains(&command.as_str()) {
        usage_exit(&format!("unknown command '{command}'"));
    }
    let mut args = RunArgs {
        command,
        scale: 0.1,
        seed: 42,
        index: IndexSpec::Flat,
        models: ModelSpec::Sim,
        retrieval: QueryMode::Dense,
        fuse_depth: 0,
        edits: None,
        serve: ServeArgs::default(),
    };
    // One shared scanner: every value flag takes exactly one value, and a
    // missing or malformed value is an error, never a silent default.
    // `--sweep` is the one boolean switch (it enables a phase, it has no
    // quantity to carry).
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--sweep" {
            args.serve.sweep = true;
            i += 1;
            continue;
        }
        let raw =
            argv.get(i + 1).unwrap_or_else(|| usage_exit(&format!("flag {flag} needs a value")));
        fn val<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
            raw.parse().unwrap_or_else(|_| usage_exit(&format!("bad value '{raw}' for {flag}")))
        }
        match flag {
            "--scale" => {
                args.scale = val(flag, raw);
                // `PipelineConfig::at_scale` asserts this range; NaN fails
                // both comparisons.
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    usage_exit(&format!("bad value '{raw}' for {flag} (expected 0 < scale <= 1)"));
                }
            }
            "--seed" => args.seed = val(flag, raw),
            "--index" => {
                args.index = IndexSpec::parse(raw).unwrap_or_else(|| {
                    usage_exit(&format!(
                        "unknown index backend '{raw}' (expected flat|hnsw|ivf|pq)"
                    ))
                });
            }
            "--models" => {
                args.models = ModelSpec::parse(raw).unwrap_or_else(|| {
                    usage_exit(&format!("unknown model backend '{raw}' (expected sim)"))
                });
            }
            "--retrieval" => {
                args.retrieval = match raw.as_str() {
                    "dense" => QueryMode::Dense,
                    "lexical" => QueryMode::Lexical,
                    "hybrid" => {
                        QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 }
                    }
                    "hybrid-rerank" => {
                        QueryMode::Hybrid { fusion: Default::default(), rerank: true, depth: 0 }
                    }
                    other => usage_exit(&format!(
                        "unknown retrieval mode '{other}' (expected \
                         dense|lexical|hybrid|hybrid-rerank)"
                    )),
                };
            }
            "--fuse-depth" => args.fuse_depth = val(flag, raw),
            "--edits" => args.edits = Some(val(flag, raw)),
            "--serve-requests" => args.serve.requests = val(flag, raw),
            "--serve-concurrency" => {
                args.serve.concurrency =
                    raw.split(',').map(|c| val(flag, c.trim())).filter(|c| *c > 0).collect();
                if args.serve.concurrency.is_empty() {
                    usage_exit(&format!("bad value '{raw}' for {flag}"));
                }
            }
            "--serve-batch" => args.serve.batch = val(flag, raw),
            "--serve-deadline-us" => args.serve.deadline_us = val(flag, raw),
            "--serve-queue" => args.serve.queue = val(flag, raw),
            "--serve-rate" => args.serve.rate = val(flag, raw),
            "--cache-budget" => args.serve.cache_budget = Some(val(flag, raw)),
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    // `--fuse-depth` rides the retrieval mode: flags are order-independent,
    // so thread it after the scan rather than during it.
    if let QueryMode::Hybrid { depth, .. } = &mut args.retrieval {
        *depth = args.fuse_depth;
    }
    args
}

fn main() {
    let args = parse_args();

    // Schema-only commands need no pipeline run.
    if args.command.as_str() == "table1" {
        println!("{}", cards::render_table1());
        return;
    }

    let mut config = PipelineConfig::at_scale(args.scale, args.seed);
    if args.command.as_str() == "ingest" {
        config.index = args.index.clone();
        config.models = args.models;
        ingest_bench(&config, args.edits, args.seed);
        return;
    }
    // `recall` rebuilds every backend itself over the pipeline's
    // embeddings and never consults the pipeline's own stores, so pin the
    // cheap exact backend there regardless of --index.
    config.index = if args.command == "recall" { IndexSpec::Flat } else { args.index.clone() };
    config.models = args.models;
    eprintln!(
        "[repro] building pipeline at scale {} (seed {}, index {}, models {}) ...",
        args.scale,
        args.seed,
        config.index.label(),
        config.models.label()
    );
    let output = Pipeline::run(&config);
    eprintln!(
        "[repro] {} docs → {} chunks → {} candidates → {} accepted ({:.1}%)",
        output.library.len(),
        output.chunks.len(),
        output.candidates,
        output.items.len(),
        100.0 * output.acceptance_rate()
    );

    match args.command.as_str() {
        "fig1" => {
            println!("Figure 1 — workflow overview (stage census)\n");
            print!("{}", output.report.render());
            println!(
                "\n{} store: chunk DB {} vectors ({} KiB); trace DBs: 3 × {} vectors",
                output.config.index.label(),
                output.chunk_store().len(),
                output.chunk_store().payload_bytes() / 1024,
                output.items.len()
            );
            // FNV-1a of the serialised artifacts: what `tests/golden.rs`
            // pins at the tiny config, greppable at any scale.
            let questions = serde_json::to_string(&output.questions).expect("serialises");
            let traces = serde_json::to_string(&output.traces).expect("serialises");
            println!(
                "[golden] q_hash={:#018x} t_hash={:#018x} registry_hash={:#018x}",
                mcqa_util::fnv1a(questions.as_bytes()),
                mcqa_util::fnv1a(traces.as_bytes()),
                mcqa_util::fnv1a(&output.indexes.to_bytes())
            );
            return;
        }
        "recall" => {
            print_recall(&output, 5);
            print_mode_recall(&output, 5);
            return;
        }
        "serve-bench" => {
            serve_bench(&output, &args.serve, args.seed);
            return;
        }
        "fig2" => {
            println!("Figure 2 — question record JSON schema (one generated record)\n");
            let q = output.questions.first().expect("at least one question");
            println!("{}", serde_json::to_string_pretty(q).expect("serialises"));
            return;
        }
        "fig3" => {
            println!("Figure 3 — reasoning-trace JSON schema (all three modes)\n");
            for mode in TraceMode::ALL {
                let t = output.traces.iter().find(|t| t.mode == mode).expect("trace exists");
                println!("{}\n", serde_json::to_string_pretty(t).expect("serialises"));
            }
            return;
        }
        _ => {}
    }

    eprintln!(
        "[repro] evaluating 8 models × 5 conditions × 2 benchmarks (retrieval {}) ...",
        args.retrieval.label()
    );
    let evaluator = Evaluator::new(
        &output,
        EvalConfig { seed: args.seed, retrieval: args.retrieval, ..Default::default() },
    );
    let run = evaluator.run();

    match args.command.as_str() {
        "all" => {
            println!("{}", cards::render_table1());
            println!("{}", render_table2(&run));
            println!("{}", render_table3(&run));
            println!("{}", render_table4(&run));
            println!("{}", render_fig(&run, FigureSeries::Fig4Synthetic));
            println!("{}", render_fig(&run, FigureSeries::Fig5AstroAll));
            println!("{}", render_fig(&run, FigureSeries::Fig6AstroNoMath));
            print_rates(&run);
            // Pipeline and evaluation run on one scheduler, so both stage
            // reports come from the same runtime metrics surface.
            println!("\nWorkflow stage report (pipeline):\n");
            print!("{}", output.report.render());
            println!("\nWorkflow stage report (evaluation, all cards):\n");
            print!("{}", run.report.render());
        }
        "models" => print_models(&output),
        "table2" => println!("{}", render_table2(&run)),
        "table3" => println!("{}", render_table3(&run)),
        "table4" => println!("{}", render_table4(&run)),
        "fig4" => println!("{}", render_fig(&run, FigureSeries::Fig4Synthetic)),
        "fig5" => println!("{}", render_fig(&run, FigureSeries::Fig5AstroAll)),
        "fig6" => println!("{}", render_fig(&run, FigureSeries::Fig6AstroNoMath)),
        "rates" => print_rates(&run),
        "residuals" => print_residuals(&run),
        "ablate-topk" => ablate_topk(&output, args.seed),
        "ablate-context" => ablate_context(&output, args.seed),
        "ablate-filter" => ablate_filter(args.scale, args.seed),
        other => unreachable!("parse_args admitted '{other}', which no arm handles"),
    }
}

/// The machine-readable benchmark ledger `repro serve-bench` and `repro
/// recall` maintain next to the human-readable lines: one JSON file,
/// read-merge-written so each subcommand refreshes only its own section
/// and a full bench pass accumulates every surface in one place.
const BENCH_JSON: &str = "BENCH_10.json";

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct BenchFile {
    /// `serve-bench` fixed-load rows: one per (dispatch mode, concurrency).
    serve: Vec<ServeRecord>,
    /// `serve-bench --sweep` rows: one knee per (retrieval mode, concurrency).
    sweep: Vec<ServeRecord>,
    /// `recall` rows: one per index backend.
    recall: Vec<RecallRecord>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeRecord {
    mode: String,
    concurrency: usize,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mem_bytes: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RecallRecord {
    backend: String,
    qps: f64,
    recall_at_k: f64,
    mem_bytes: usize,
}

/// Read `BENCH_10.json` if present (tolerating a missing or stale file),
/// apply one section update, and write the merged ledger back.
fn update_bench_json(update: impl FnOnce(&mut BenchFile)) {
    let mut file: BenchFile = std::fs::read_to_string(BENCH_JSON)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    update(&mut file);
    let json = serde_json::to_string_pretty(&file).expect("bench ledger serialises");
    std::fs::write(BENCH_JSON, json).unwrap_or_else(|e| {
        eprintln!("[bench] cannot write {BENCH_JSON}: {e}");
        std::process::exit(1);
    });
    eprintln!("[bench] wrote {BENCH_JSON}");
}

/// `repro recall` — build every backend over the *same* chunk
/// embeddings and report build/search throughput, recall@k against the
/// flat exact baseline, and the serialised footprint (`mem_bytes`, the
/// speed/recall/memory trade the ROADMAP perf table tracks). Lines are
/// `[recall] key=value ...` so CI can assert recall floors and the
/// memory column mechanically.
fn print_recall(output: &mcqa_core::PipelineOutput, k: usize) {
    use mcqa_util::ScopeTimer;

    let exec = &output.executor;
    let dim = output.config.embed.dim;
    let texts: Vec<&str> = output.chunks.iter().map(|c| c.text.as_str()).collect();
    let vectors = output.encoder.encode_batch(exec, &texts);
    let items: Vec<(u64, Vec<f32>)> =
        output.chunks.iter().map(|c| c.chunk_id).zip(vectors).collect();
    let stems: Vec<&str> = output.items.iter().map(|i| i.stem.as_str()).collect();
    let queries = output.encoder.encode_batch(exec, &stems);
    println!(
        "Recall vs flat baseline: {} vectors (dim {}), {} queries, k={k}\n",
        items.len(),
        dim,
        queries.len()
    );
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>11} {:>7}",
        "backend",
        "build-secs",
        "vec/s",
        "search-secs",
        "query/s",
        "recall@k",
        "mem-bytes",
        "B/vec"
    );

    if queries.is_empty() {
        // With no stem queries, recall would be 1.0 for every backend by
        // definition — a vacuously passing floor check. Fail loudly.
        eprintln!("[repro] recall needs at least one accepted question (got 0 stem queries)");
        std::process::exit(1);
    }

    let mut truth: Option<Vec<Vec<u64>>> = None;
    let mut records: Vec<RecallRecord> = Vec::new();
    for spec in IndexSpec::all_defaults() {
        let t = ScopeTimer::start("build");
        let store = mcqa_index::build_store_from_vectors(
            &spec,
            dim,
            mcqa_index::Metric::Cosine,
            mcqa_embed::Precision::F16,
            exec,
            &items,
        );
        let build_secs = t.elapsed_secs();

        let t = ScopeTimer::start("search");
        let results = store.search_batch(exec, &queries, k);
        let search_secs = t.elapsed_secs();

        let ids: Vec<Vec<u64>> =
            results.iter().map(|hits| hits.iter().map(|h| h.id).collect()).collect();
        // The first backend in `all_defaults` is flat: it becomes the
        // exact baseline, the ANN backends score against it.
        let recall = match &truth {
            None => {
                truth = Some(ids);
                1.0
            }
            Some(exact_all) => {
                let (mut hit, mut total) = (0usize, 0usize);
                for (approx, exact) in ids.iter().zip(exact_all) {
                    hit += approx.iter().filter(|id| exact.contains(id)).count();
                    total += exact.len();
                }
                if total == 0 {
                    1.0
                } else {
                    hit as f64 / total as f64
                }
            }
        };
        // Serialised footprint: the bytes a store costs at rest (and, for
        // the code-carrying backends, roughly in RAM) — the denominator of
        // the compression claim.
        let mem_bytes = store.to_bytes().len();
        let per_vec = mem_bytes as f64 / items.len().max(1) as f64;
        println!(
            "{:<8} {:>12.3} {:>12.0} {:>12.3} {:>12.0} {:>10.3} {:>11} {:>7.1}",
            spec.label(),
            build_secs,
            items.len() as f64 / build_secs.max(1e-9),
            search_secs,
            queries.len() as f64 / search_secs.max(1e-9),
            recall,
            mem_bytes,
            per_vec
        );
        println!(
            "[recall] backend={} build_secs={:.3} search_secs={:.3} search_qps={:.0} \
             recall_at_{k}={:.4} mem_bytes={mem_bytes} bytes_per_vec={per_vec:.1}",
            spec.label(),
            build_secs,
            search_secs,
            queries.len() as f64 / search_secs.max(1e-9),
            recall
        );
        records.push(RecallRecord {
            backend: spec.label().to_string(),
            qps: queries.len() as f64 / search_secs.max(1e-9),
            recall_at_k: recall,
            mem_bytes,
        });
    }
    update_bench_json(|f| f.recall = records);
}

/// The retrieval-mode comparison behind the README's hybrid table: dense
/// vs lexical vs hybrid (RRF) recall@k over the pipeline's own source
/// databases, with every query riding the `QueryService` envelope exactly
/// the way the evaluator's retrieval does. Recall here is the
/// oracle-labelled hit rate ([`RetrievalBundle::raw_hit_rate`]): the
/// fraction of questions whose top-k contains a supporting passage.
/// `mem_bytes` is the channel's resident footprint — the dense store's
/// serialised bytes, the BM25 sibling's postings + vocabulary
/// ([`mcqa_lexical::LexicalIndex::payload_bytes`]), or their sum for
/// hybrid — so the ROADMAP memory table stays uniform across channels.
/// Lines are `[recall] mode=...` so CI can assert the hybrid floor
/// mechanically.
fn print_mode_recall(output: &mcqa_core::PipelineOutput, k: usize) {
    use mcqa_util::ScopeTimer;

    let modes: [(&str, QueryMode); 3] = [
        ("dense", QueryMode::Dense),
        ("lexical", QueryMode::Lexical),
        ("hybrid", QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 }),
    ];
    println!(
        "\nRetrieval modes over the pipeline stores: {} questions × {} sources, k={k}\n",
        output.items.len(),
        Source::ALL.len()
    );
    println!(
        "{:<8} {:<18} {:>10} {:>12} {:>12} {:>9}",
        "mode", "source", "recall@k", "query/s", "mem-bytes", "B/doc"
    );
    for (label, mode) in modes {
        let t = ScopeTimer::start("mode-recall");
        let bundle = RetrievalBundle::build_mode(output, &output.items, k, mode);
        let secs = t.elapsed_secs();
        // Throughput spans the whole replay (encode + serve + label) over
        // every (question, source) pair — the end-to-end rate the
        // evaluator pays per mode, which is what the "hybrid within 2× of
        // dense" budget constrains.
        let qps = (Source::ALL.len() * output.items.len()) as f64 / secs.max(1e-9);
        let mut mean = 0.0;
        for source in Source::ALL {
            let recall = bundle.raw_hit_rate(source);
            mean += recall / Source::ALL.len() as f64;
            let store = source.store(&output.indexes);
            let dense_bytes = store.to_bytes().len();
            let lex =
                output.indexes.expect_lexical(&IndexRegistry::lexical_sibling(source.store_name()));
            let (mem_bytes, docs) = match mode {
                QueryMode::Dense => (dense_bytes, store.len()),
                QueryMode::Lexical => (lex.payload_bytes(), lex.len()),
                QueryMode::Hybrid { .. } => (dense_bytes + lex.payload_bytes(), store.len()),
            };
            let per_doc = mem_bytes as f64 / docs.max(1) as f64;
            println!(
                "{:<8} {:<18} {:>10.4} {:>12.0} {:>12} {:>9.1}",
                label,
                source.store_name(),
                recall,
                qps,
                mem_bytes,
                per_doc
            );
            println!(
                "[recall] mode={label} source={} recall_at_{k}={recall:.4} qps={qps:.0} \
                 mem_bytes={mem_bytes} bytes_per_vec={per_doc:.1}",
                source.store_name()
            );
        }
        println!("[recall] mode={label} source=all recall_at_{k}={mean:.4} qps={qps:.0}");
    }
}

/// `repro serve-bench` — load-test the in-process query service.
///
/// Three phases, all emitting greppable `[serve] key=value` lines:
///
/// 1. **Startup**: eager `IndexRegistry::from_bytes` vs lazy
///    `IndexRegistry::open_bytes` over the pipeline's serialised stores,
///    so the lazy path's bounded startup cost is measured, not asserted.
/// 2. **Verification**: a served sample must be bit-identical to direct
///    `VectorStore::search` calls — exit 1 on any mismatch.
/// 3. **Load**: replay eval queries (question stems, sources rotated over
///    every registered store, k=8) from `concurrency` client threads,
///    once with micro-batching disabled (`max_batch=1`, the
///    one-request-at-a-time baseline) and once with the configured
///    watermark, reporting p50/p95/p99 latency, throughput, saturation,
///    and the speedup. Clients are closed-loop by default (submit → wait
///    → repeat, so offered load self-throttles to service speed);
///    `--serve-rate R` switches them to open loop — each client offers a
///    Poisson stream at R q/s (exponential inter-arrival gaps drawn from
///    the run seed) on a fixed schedule, latency is measured from the
///    *scheduled* arrival (queueing delay included, no coordination
///    omission), and every sweep point prints an offered-vs-served
///    saturation line.
fn serve_bench(output: &mcqa_core::PipelineOutput, serve: &ServeArgs, seed: u64) {
    use mcqa_util::{percentile, ScopeTimer};

    if output.items.is_empty() {
        eprintln!("[repro] serve-bench needs at least one accepted question (got 0)");
        std::process::exit(1);
    }
    let sources: Vec<String> = output.indexes.names().iter().map(|s| s.to_string()).collect();
    let k = 8;

    // Phase 1: startup cost, eager vs lazy open of the same bytes.
    let bytes = output.indexes.to_bytes();
    let t = ScopeTimer::start("eager");
    let eager = IndexRegistry::from_bytes(&bytes).expect("pipeline registry re-opens");
    let eager_ms = t.elapsed_secs() * 1e3;
    let t = ScopeTimer::start("lazy");
    let lazy = IndexRegistry::open_bytes(&bytes).expect("pipeline registry opens lazily");
    let lazy_ms = t.elapsed_secs() * 1e3;
    assert_eq!(lazy.names(), output.indexes.names(), "lazy open sees the same stores");
    // First search on a lazy store pays its deferred decode — measure it
    // so the startup trade (open now vs decode on first touch) is visible.
    let t = ScopeTimer::start("first-touch");
    let probe = output.encoder.encode(&output.items[0].stem);
    let _ = lazy.expect_store(&sources[0]).search(&probe, k);
    let first_ms = t.elapsed_secs() * 1e3;
    println!(
        "[serve] startup stores={} bytes={} eager_ms={eager_ms:.2} lazy_ms={lazy_ms:.3} \
         first_search_ms={first_ms:.2}",
        eager.len(),
        bytes.len()
    );

    // The serving registry: the eagerly re-opened stores, re-budgeted when
    // `--cache-budget` bounds the resident panel cache (0 disables caching
    // entirely — the decode-every-search path the smoke compares against).
    let mut serving = eager;
    if let Some(budget) = serve.cache_budget {
        serving.set_panel_cache_budget(mcqa_embed::PanelBudget::Bytes(budget));
    }
    let serving = std::sync::Arc::new(serving);

    // Phase 2: served results must be bit-identical to direct searches.
    // Text queries exercise the full path (service-side encode included);
    // the direct baseline encodes by hand with the same encoder.
    let service = QueryService::start(
        serving.clone(),
        Some(output.encoder.clone()),
        output.executor.clone(),
        ServeConfig::default(),
    );
    let mut checked = 0usize;
    for (qi, item) in output.items.iter().take(8).enumerate() {
        for source in &sources {
            let served = service
                .submit(QueryRequest::text(source.clone(), item.stem.clone(), k))
                .expect("verification submit admitted")
                .wait()
                .unwrap_or_else(|e| {
                    eprintln!("[serve] verify=failed source={source} err={e}");
                    std::process::exit(1);
                });
            let direct =
                output.indexes.expect_store(source).search(&output.encoder.encode(&item.stem), k);
            if served.hits != direct {
                eprintln!("[serve] verify=mismatch source={source} query={qi}");
                std::process::exit(1);
            }
            checked += 1;
        }
    }
    println!("[serve] verify=ok checked={checked}");
    service.shutdown();

    // Phase 3: the load sweep. Requests replay the eval stems the way the
    // evaluator replays them: one contiguous block per source database
    // (eval queries every store with the full stem list in turn), so
    // concurrent in-flight requests mostly share a store and the
    // dispatcher's (source, k) groups stay wide.
    let stems: Vec<&str> = output.items.iter().map(|i| i.stem.as_str()).collect();
    let reqs: Vec<QueryRequest> = (0..serve.requests)
        .map(|i| {
            QueryRequest::text(
                sources[i * sources.len() / serve.requests.max(1)].clone(),
                stems[i % stems.len()],
                k,
            )
        })
        .collect();

    if serve.sweep {
        serve_sweep(&serving, output, serve, seed, &reqs, bytes.len());
        return;
    }

    let arrivals = if serve.rate > 0.0 { "open" } else { "closed" };
    let mut records: Vec<ServeRecord> = Vec::new();
    for &concurrency in &serve.concurrency {
        // qps[0] is the one-at-a-time baseline, qps[1] the batched run.
        let mut qps = [0.0f64; 2];
        // Closed-loop clients never have more than `concurrency` requests
        // outstanding, so a watermark above that would just burn the flush
        // deadline waiting for arrivals that cannot come.
        let watermark = if serve.rate > 0.0 { serve.batch } else { serve.batch.min(concurrency) };
        for (mode, max_batch) in [("baseline", 1), ("batched", watermark)] {
            let config = ServeConfig {
                queue_capacity: serve.queue,
                max_batch,
                flush_deadline: std::time::Duration::from_micros(serve.deadline_us),
                ..ServeConfig::default()
            };
            let service = QueryService::start(
                serving.clone(),
                Some(output.encoder.clone()),
                output.executor.clone(),
                config,
            );
            let t = ScopeTimer::start("load");
            let mut lat_ms: Vec<f64> = if serve.rate > 0.0 {
                open_loop(&service, &reqs, concurrency, serve.rate, seed, mode)
            } else {
                // Closed-loop clients: each owns a request stripe, submits
                // one, waits for its reply, moves on.
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..concurrency)
                        .map(|c| {
                            let service = &service;
                            let reqs = &reqs;
                            s.spawn(move || {
                                let mut lat = Vec::new();
                                for req in reqs.iter().skip(c).step_by(concurrency) {
                                    let t0 = std::time::Instant::now();
                                    match service.submit(req.clone()) {
                                        // Rejections count via the ledger; a
                                        // closed-loop client just moves on.
                                        Err(_) => continue,
                                        Ok(ticket) => {
                                            if ticket.wait().is_ok() {
                                                lat.push(t0.elapsed().as_secs_f64() * 1e3);
                                            }
                                        }
                                    }
                                }
                                lat
                            })
                        })
                        .collect();
                    handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
                })
            };
            let wall = t.elapsed_secs();
            let snap = service.shutdown();
            lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let rate = snap.served_ok as f64 / wall.max(1e-9);
            qps[usize::from(mode == "batched")] = rate;
            println!(
                "[serve] mode={mode} concurrency={concurrency} requests={} submitted={} \
                 served={} rejected={} qps={rate:.0} p50_ms={:.3} p95_ms={:.3} p99_ms={:.3} \
                 mean_batch={:.1} fast_path_hits={} saturation={:.3} seed={seed} \
                 arrivals={arrivals}",
                serve.requests,
                snap.admitted + snap.rejected,
                snap.served(),
                snap.rejected,
                percentile(&lat_ms, 50.0),
                percentile(&lat_ms, 95.0),
                percentile(&lat_ms, 99.0),
                snap.mean_batch(),
                snap.fast_path_hits,
                snap.saturation(),
            );
            records.push(ServeRecord {
                mode: mode.to_string(),
                concurrency,
                qps: rate,
                p50_ms: percentile(&lat_ms, 50.0),
                p95_ms: percentile(&lat_ms, 95.0),
                p99_ms: percentile(&lat_ms, 99.0),
                mem_bytes: bytes.len() + serving.panel_cache_resident_bytes(),
            });
            if serve.rate > 0.0 {
                // Open loop: offered load is fixed by the schedule, so
                // offered vs served is the saturation verdict — delivered
                // < 1 means the service sheds or lags this arrival rate.
                let offered = serve.rate * concurrency as f64;
                println!(
                    "[serve] arrivals=open mode={mode} concurrency={concurrency} \
                     offered_qps={offered:.0} served_qps={rate:.0} delivered={:.3} seed={seed}",
                    rate / offered.max(1e-9)
                );
            }
            for line in snap.lines() {
                println!("{line}");
            }
        }
        println!(
            "[serve] speedup concurrency={concurrency} baseline_qps={:.0} batched_qps={:.0} \
             ratio={:.2}",
            qps[0],
            qps[1],
            qps[1] / qps[0].max(1e-9)
        );
    }
    println!(
        "[serve] panel_cache resident_bytes={} budget={}",
        serving.panel_cache_resident_bytes(),
        match serve.cache_budget {
            Some(b) => b.to_string(),
            None => "auto".to_string(),
        }
    );
    update_bench_json(|f| f.serve = records);
}

/// Drive `reqs` through `service` from `concurrency` open-loop clients,
/// each offering a Poisson stream at `rate` q/s on a schedule fixed
/// before the run — the service being slow does not slow the arrivals
/// down, it just grows the queue (or trips admission control). A scoped
/// waiter thread per ticket records latency (ms) from the *scheduled*
/// arrival, so queueing delay is charged in full (no coordinated
/// omission). Arrival gaps are drawn from `(seed, client, index, tag)`,
/// so distinct runs get distinct schedules and reruns replay exactly.
fn open_loop(
    service: &QueryService,
    reqs: &[QueryRequest],
    concurrency: usize,
    rate: f64,
    seed: u64,
    tag: &str,
) -> Vec<f64> {
    use mcqa_util::KeyedStochastic;

    let rng = KeyedStochastic::new(seed);
    let lat = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..concurrency {
            let (rng, lat) = (&rng, &lat);
            s.spawn(move || {
                let t0 = std::time::Instant::now();
                let mut due = 0.0f64;
                for (i, req) in reqs.iter().skip(c).step_by(concurrency).enumerate() {
                    let u = rng.uniform(&["arrival", &c.to_string(), &i.to_string(), tag]);
                    due += -(1.0 - u).ln() / rate;
                    let at = t0 + std::time::Duration::from_secs_f64(due);
                    if let Some(gap) = at.checked_duration_since(std::time::Instant::now()) {
                        std::thread::sleep(gap);
                    }
                    // Rejections count via the ledger; the schedule
                    // marches on either way.
                    if let Ok(ticket) = service.submit(req.clone()) {
                        s.spawn(move || {
                            if ticket.wait().is_ok() {
                                let ms = at.elapsed().as_secs_f64() * 1e3;
                                lat.lock().expect("latency sink").push(ms);
                            }
                        });
                    }
                }
            });
        }
    });
    lat.into_inner().expect("latency sink")
}

/// The saturation-knee walk behind `repro serve-bench --sweep`: per
/// (retrieval mode, concurrency), climb the total offered open-loop rate
/// multiplicatively until the service sheds (admission saturation) or
/// lags (delivered < 0.95), then bisect between the last sustained and
/// first failed rates. Every point is one open-loop run printing a
/// latency-vs-load `[serve] sweep` line; the knee prints as
/// `max_sustainable_qps=` (the served rate at the highest sustained
/// offered rate).
fn serve_sweep(
    serving: &std::sync::Arc<IndexRegistry>,
    output: &mcqa_core::PipelineOutput,
    serve: &ServeArgs,
    seed: u64,
    reqs: &[QueryRequest],
    store_bytes: usize,
) {
    use mcqa_util::{percentile, ScopeTimer};

    /// Shed fraction above this is saturated: admission control is
    /// actively rejecting the offered schedule.
    const SATURATION_CEIL: f64 = 0.01;
    /// A point is lagging when its p50 (measured from the scheduled
    /// arrival) exceeds this multiple of the lowest-rate point's p50: the
    /// queue is growing faster than the service drains it, even if the
    /// bounded queue has not overflowed into rejections yet. Relative, so
    /// the knee verdict survives machines with different sleep jitter.
    const LATENCY_KNEE_MULT: f64 = 8.0;
    /// Floor for the knee latency threshold (ms), so a near-zero base p50
    /// on a fast machine cannot make legitimate queueing near the knee
    /// look like collapse.
    const LATENCY_KNEE_FLOOR_MS: f64 = 2.0;

    let modes: [(&str, QueryMode); 2] = [
        ("dense", QueryMode::Dense),
        ("hybrid", QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 }),
    ];
    let mut records: Vec<ServeRecord> = Vec::new();
    for (label, qmode) in modes {
        let reqs: Vec<QueryRequest> = reqs.iter().map(|r| r.clone().with_mode(qmode)).collect();
        for &concurrency in &serve.concurrency {
            // One measured point of the walk at `offered` total q/s,
            // printing its latency-vs-load line and returning
            // (served_qps, delivered, [p50, p95, p99], saturation).
            let point = |offered: f64| -> (f64, f64, [f64; 3], f64) {
                // Bound each point to ~2s of offered schedule (floor 64
                // requests) so the walk's wall clock stays flat as the
                // rate climbs instead of replaying the full request list
                // ever faster.
                let n = ((offered * 2.0) as usize).clamp(64, reqs.len().max(64)).min(reqs.len());
                let config = ServeConfig {
                    queue_capacity: serve.queue,
                    max_batch: serve.batch,
                    flush_deadline: std::time::Duration::from_micros(serve.deadline_us),
                    ..ServeConfig::default()
                };
                let service = QueryService::start(
                    serving.clone(),
                    Some(output.encoder.clone()),
                    output.executor.clone(),
                    config,
                );
                let t = ScopeTimer::start("sweep-point");
                let tag = format!("{label}-{offered:.0}");
                let mut lat_ms = open_loop(
                    &service,
                    &reqs[..n],
                    concurrency,
                    offered / concurrency as f64,
                    seed,
                    &tag,
                );
                let wall = t.elapsed_secs();
                let snap = service.shutdown();
                lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
                let served_qps = snap.served_ok as f64 / wall.max(1e-9);
                // Fraction of the offered schedule that was served at all
                // (every admitted request drains, so shortfall here is
                // exactly what admission shed).
                let delivered = snap.served_ok as f64 / n.max(1) as f64;
                let pcts = [
                    percentile(&lat_ms, 50.0),
                    percentile(&lat_ms, 95.0),
                    percentile(&lat_ms, 99.0),
                ];
                println!(
                    "[serve] sweep mode={label} concurrency={concurrency} \
                     offered_qps={offered:.0} served_qps={served_qps:.0} \
                     delivered={delivered:.3} p50_ms={:.3} p95_ms={:.3} p99_ms={:.3} \
                     fast_path_hits={} saturation={:.3} seed={seed} arrivals=open",
                    pcts[0],
                    pcts[1],
                    pcts[2],
                    snap.fast_path_hits,
                    snap.saturation(),
                );
                (served_qps, delivered, pcts, snap.saturation())
            };

            // The knee gate: saturated (admission sheds) or lagging (p50
            // blown out relative to the lowest-rate point's p50).
            let mut base_p50: Option<f64> = None;
            let mut sustained = |p50: f64, sat: f64| -> bool {
                let base = *base_p50.get_or_insert(p50);
                sat <= SATURATION_CEIL
                    && p50 <= (base * LATENCY_KNEE_MULT).max(LATENCY_KNEE_FLOOR_MS)
            };
            // Phase 1: multiplicative climb until the first failed rate.
            let (mut lo, mut best) = (0.0f64, (0.0f64, [0.0f64; 3]));
            let mut offered = 64.0;
            let mut hi = None;
            for _ in 0..14 {
                let (qps, _, pcts, sat) = point(offered);
                if sustained(pcts[0], sat) {
                    lo = offered;
                    best = (qps, pcts);
                    offered *= 2.0;
                } else {
                    hi = Some(offered);
                    break;
                }
            }
            // Phase 2: refine the knee between the last sustained and
            // first failed offered rates.
            if let Some(hi) = hi {
                let (mut lo_r, mut hi_r) = (lo, hi);
                for _ in 0..2 {
                    let mid = (lo_r + hi_r) / 2.0;
                    if mid <= lo_r {
                        break;
                    }
                    let (qps, _, pcts, sat) = point(mid);
                    if sustained(pcts[0], sat) {
                        lo_r = mid;
                        best = (qps, pcts);
                    } else {
                        hi_r = mid;
                    }
                }
                lo = lo_r;
            }
            println!(
                "[serve] sweep mode={label} concurrency={concurrency} knee_offered_qps={lo:.0} \
                 max_sustainable_qps={:.0} seed={seed} arrivals=open",
                best.0
            );
            records.push(ServeRecord {
                mode: format!("sweep-{label}"),
                concurrency,
                qps: best.0,
                p50_ms: best.1[0],
                p95_ms: best.1[1],
                p99_ms: best.1[2],
                mem_bytes: store_bytes + serving.panel_cache_resident_bytes(),
            });
        }
    }
    update_bench_json(|f| f.sweep = records);
}

/// `repro ingest` — the incremental-ingest benchmark: a cold full build,
/// a seeded synthetic edit batch (`--edits`, default ≈ 1% of the live
/// corpus), then the incremental re-run against a cold rebuild of the
/// edited corpus — wall clocks, the planner's skip/re-run census, and a
/// search-identity verdict, all as greppable `[ingest] key=value` lines.
///
/// Verification: every pipeline artifact (chunks, questions, traces,
/// the ingest manifest) must be equal between the incremental run and
/// the cold rebuild, on any backend — exit 1 otherwise. Search results
/// are additionally compared probe by probe: exact for the lexical
/// siblings always and for dense stores on the default `flat` backend;
/// ivf/pq retrain their coarse structure on a cold rebuild and hnsw
/// re-inserts in a different order, so those report top-k overlap
/// instead of asserting bitwise identity.
fn ingest_bench(config: &PipelineConfig, edits: Option<usize>, seed: u64) {
    use mcqa_corpus::EditBatch;
    use mcqa_index::IndexSpec;
    use mcqa_util::ScopeTimer;
    use std::sync::Arc;

    // Phase 1: the cold full build — the baseline the planner must beat.
    let t = ScopeTimer::start("full");
    let base = Pipeline::run(config);
    let full_secs = t.elapsed_secs();
    eprintln!(
        "[repro] base build: {} docs → {} chunks → {} questions ({:.2}s)",
        base.library.len(),
        base.chunks.len(),
        base.items.len(),
        full_secs
    );

    // Phase 2: a seeded synthetic edit batch against the live corpus.
    let n = edits.unwrap_or_else(|| (base.library.live_len() / 100).max(1));
    let mut library = (*base.library).clone();
    let batch = EditBatch::synthetic(&library, seed, n);
    let (add, modify, remove) = batch.profile();
    library.apply_edits(&base.ontology, &batch);
    println!("[ingest] edits={n} add={add} modify={modify} remove={remove}");
    let library = Arc::new(library);

    // Phase 3: the incremental re-run over the previous output.
    let t = ScopeTimer::start("incremental");
    let inc = Pipeline::run_incremental(config, &base, library.clone());
    let inc_secs = t.elapsed_secs();
    for (key, value) in inc.ingest.lines() {
        println!("[ingest] {key}={value}");
    }

    // Phase 4: the ground truth — a cold rebuild of the edited corpus.
    let t = ScopeTimer::start("verify");
    let cold = Pipeline::run_full(config, base.ontology.clone(), library);
    let cold_secs = t.elapsed_secs();

    // Artifact identity holds on every backend: the planner re-derives
    // chunks, questions, traces, and the manifest, not index internals.
    let mut failed = false;
    for (what, ok) in [
        ("chunks", inc.chunks == cold.chunks),
        ("questions", inc.questions == cold.questions),
        ("items", inc.items == cold.items),
        ("traces", inc.traces == cold.traces),
        ("manifest", inc.manifest == cold.manifest),
    ] {
        if !ok {
            eprintln!("[ingest] verify=mismatch artifact={what}");
            failed = true;
        }
    }

    // Search identity, probe by probe. Lexical siblings mutate
    // deterministically on every backend; dense stores are bit-identical
    // only on flat (ivf/pq retrain, hnsw re-inserts on a cold build).
    let probes = ["proton therapy dose", "gene expression pathway", "tumour margin imaging"];
    let k = 10;
    let exact_dense = config.index == IndexSpec::Flat;
    let (mut compared, mut hit, mut total) = (0usize, 0usize, 0usize);
    for name in inc.indexes.names() {
        let store = inc.indexes.expect_store(name);
        let other = cold.indexes.expect_store(name);
        for p in &probes {
            let q = inc.encoder.encode(p);
            let (a, b) = (store.search(&q, k), other.search(&q, k));
            if exact_dense {
                if a != b {
                    eprintln!("[ingest] verify=mismatch store={name} probe={p:?}");
                    failed = true;
                }
            } else {
                let ids: Vec<u64> = b.iter().map(|h| h.id).collect();
                hit += a.iter().filter(|h| ids.contains(&h.id)).count();
                total += b.len();
            }
        }
        compared += 1;
    }
    for name in inc.indexes.lexical_names() {
        let lex = inc.indexes.expect_lexical(name);
        let other = cold.indexes.expect_lexical(name);
        for p in &probes {
            if lex.search(p, k) != other.search(p, k) {
                eprintln!("[ingest] verify=mismatch store={name} probe={p:?}");
                failed = true;
            }
        }
        compared += 1;
    }
    if failed {
        std::process::exit(1);
    }
    if exact_dense {
        println!("[ingest] verify=identical stores={compared} probes={}", probes.len());
    } else {
        println!(
            "[ingest] verify=overlap stores={compared} probes={} dense_overlap={:.3}",
            probes.len(),
            hit as f64 / total.max(1) as f64
        );
    }
    println!(
        "[ingest] full_secs={full_secs:.3} incremental_secs={inc_secs:.3} \
         verify_secs={cold_secs:.3} speedup={:.2}",
        full_secs / inc_secs.max(1e-9)
    );
}

/// `repro models` — the per-role call ledger after a full pipeline + 8-model
/// evaluation: calls, batch sizes, token in/out estimates, and the response
/// cache's hit rate. Lines are `[models] key=value ...` so CI can assert the
/// cost-accounting census mechanically.
fn print_models(output: &mcqa_core::PipelineOutput) {
    use mcqa_llm::ModelEndpoint;

    // The default (dense) evaluation never calls the cross-encoder, so
    // replay a short hybrid+rerank retrieval bundle first: the census then
    // always carries a `role=reranker` row with real traffic, priced by
    // the same shared ledger + response cache as every other role.
    let probe = output.items.len().min(8);
    if probe > 0 {
        let _ = RetrievalBundle::build_mode(
            output,
            &output.items[..probe],
            5,
            QueryMode::Hybrid { fusion: Default::default(), rerank: true, depth: 0 },
        );
    }

    println!(
        "Model-layer call ledger (backend {}, {} distinct completions cached):\n",
        output.models.backend(),
        output.models.cache().len()
    );
    println!(
        "{:<12} {:>10} {:>8} {:>11} {:>11} {:>9} {:>12} {:>12} {:>10}",
        "role",
        "calls",
        "batches",
        "mean-batch",
        "cache-hits",
        "hit-rate",
        "tokens-in",
        "tokens-out",
        "busy-secs"
    );
    let mut rows = output.models.ledger().snapshot();
    rows.retain(|(_, s)| s.calls > 0);
    let total = output.models.ledger().total();
    for (role, s) in rows.iter().map(|(r, s)| (r.label(), s)).chain([("total", &total)]) {
        println!(
            "{:<12} {:>10} {:>8} {:>11.1} {:>11} {:>9.3} {:>12} {:>12} {:>10.3}",
            role,
            s.calls,
            s.batches,
            s.mean_batch_size(),
            s.cache_hits,
            s.hit_rate(),
            s.tokens_in,
            s.tokens_out,
            s.busy_secs
        );
    }
    println!();
    for line in output.models.ledger().summary_lines(output.models.backend()) {
        println!("{line}");
    }
}

fn print_rates(run: &mcqa_eval::EvalRun) {
    println!("Measured usable-hit rates (post truncation):");
    println!(
        "{:<26} {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8}",
        "model", "syn-chk", "syn-det", "syn-foc", "syn-eff", "ast-chk", "ast-rt"
    );
    for m in &run.models {
        println!(
            "{:<26} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3}",
            m.name,
            m.rates.synth_chunk,
            m.rates.synth_trace[0],
            m.rates.synth_trace[1],
            m.rates.synth_trace[2],
            m.rates.astro_chunk,
            m.rates.astro_trace[1],
        );
    }
}

fn print_residuals(run: &mcqa_eval::EvalRun) {
    println!("Calibration residuals (achieved − paper target at the clamped solve):");
    for m in &run.models {
        let worst: Vec<_> =
            m.calibration.solved.iter().filter(|s| s.residual.abs() > 0.005).collect();
        if worst.is_empty() {
            println!("{:<26} all targets reachable", m.name);
        } else {
            println!("{}:", m.name);
            for s in worst {
                println!("    {:<22} value {:.3}  residual {:+.3}", s.name, s.value, s.residual);
            }
        }
    }
}

/// Ablation: accuracy vs retrieval depth k (beyond the paper).
fn ablate_topk(output: &mcqa_core::PipelineOutput, seed: u64) {
    println!("Ablation — synthetic accuracy vs retrieval depth (SmolLM3-3B):");
    println!("{:>4} {:>12} {:>12}", "k", "rag-chunks", "rt-focused");
    let card = MODEL_CARDS.iter().find(|c| c.name == "SmolLM3-3B").unwrap();
    for k in [1usize, 2, 3, 5, 8, 10] {
        let evaluator =
            Evaluator::new(output, EvalConfig { seed, retrieval_k: k, ..Default::default() });
        let run = evaluator.run_cards(std::slice::from_ref(card));
        let m = &run.models[0];
        println!(
            "{:>4} {:>12.3} {:>12.3}",
            k,
            m.synth_accuracy(Condition::RagChunks),
            m.synth_accuracy(Condition::RagTraces(TraceMode::Focused)),
        );
    }
}

/// Ablation: accuracy vs context window — shows the truncation mechanism.
fn ablate_context(output: &mcqa_core::PipelineOutput, seed: u64) {
    println!("Ablation — synthetic accuracy vs context window (OLMo-7B behaviour card):");
    println!(
        "{:>8} {:>9} {:>9} {:>12} {:>12}",
        "window", "hit-chk", "hit-rt", "rag-chunks", "rt-focused"
    );
    let base = MODEL_CARDS.iter().find(|c| c.name == "OLMo-7B").unwrap();
    for window in [512usize, 1024, 2048, 4096, 8192, 32_768] {
        let mut card = base.clone();
        card.context_window = window;
        let evaluator = Evaluator::new(output, EvalConfig { seed, ..Default::default() });
        let run = evaluator.run_cards(std::slice::from_ref(&card));
        let m = &run.models[0];
        println!(
            "{:>8} {:>9.3} {:>9.3} {:>12.3} {:>12.3}",
            window,
            m.rates.synth_chunk,
            m.rates.synth_trace[1],
            m.synth_accuracy(Condition::RagChunks),
            m.synth_accuracy(Condition::RagTraces(TraceMode::Focused)),
        );
    }
}

/// Ablation: quality threshold sweep — benchmark size vs acceptance bar.
fn ablate_filter(scale: f64, seed: u64) {
    println!("Ablation — quality threshold vs benchmark size (paper uses 7):");
    println!("{:>10} {:>12} {:>12} {:>14}", "threshold", "candidates", "accepted", "acceptance");
    for threshold in [5u8, 6, 7, 8, 9] {
        let mut config = PipelineConfig::at_scale(scale, seed);
        config.quality_threshold = threshold;
        let output = Pipeline::run(&config);
        println!(
            "{:>10} {:>12} {:>12} {:>13.1}%",
            threshold,
            output.candidates,
            output.items.len(),
            100.0 * output.acceptance_rate()
        );
    }
}
