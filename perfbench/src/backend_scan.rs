//! `backend-scan` — the layer below: stores and kernels with nothing above.
//!
//! The pipeline's chunk vectors, re-encoded once, are loaded into every
//! backend of `IndexSpec::all_defaults()` (iterated, never named: a deleted
//! or added backend changes the metric set, not the build) and scanned with
//! 256 accepted question stems, k = 5. Serving, model calls and parsing are
//! bypassed entirely, so a serve-only change must show no change here.
//!
//! * `primary_ms` — one flat `search_batch` pass of 256 queries per 1 000
//!   stored vectors, panel cache resident (budget `Auto`)
//! * `secondary_ms` — the same pass with panel budget 0: the working set
//!   exceeds the cache, every panel is decoded on every pass
//! * `throughput_per_s` — stored vectors scanned per second by single flat
//!   `search` calls, one at a time (the part batching cannot buy)
//!
//! (all three at reference speed, see `host::Reference`)
//!
//! The traced pass also builds every backend once and checks recall@5
//! against flat (flat = 1.0, every other backend ≥ 0.90).

use distllm::embed::{EmbeddingMatrix, PanelBudget, PanelCache, Precision};
use distllm::index::{build_store_from_vectors, decode_store, Metric, SearchResult};
use distllm::prelude::*;
use distllm::util::kernel;

use crate::stats::median;
use crate::{Ctx, Timing};

const K: usize = 5;
/// Queries per `search_batch` pass.
const QUERIES: usize = 256;
/// Every non-flat backend must find this share of flat's top 5.
const RECALL_FLOOR: f64 = 0.90;
/// Single `search` calls per throughput sample.
const SINGLES: usize = 200;

struct Env {
    output: PipelineOutput,
    items: Vec<(u64, Vec<f32>)>,
    queries: Vec<Vec<f32>>,
    /// Flat, budget `Auto`, warmed.
    warm: Box<dyn VectorStore>,
    /// The same bytes decoded again, panel budget 0.
    cold: Box<dyn VectorStore>,
}

fn build(
    spec: &IndexSpec,
    env_dim: usize,
    exec: &Executor,
    items: &[(u64, Vec<f32>)],
) -> Box<dyn VectorStore> {
    build_store_from_vectors(spec, env_dim, Metric::Cosine, Precision::F16, exec, items)
}

fn build_env(plan: &crate::Plan) -> Env {
    let output = Pipeline::run(&PipelineConfig::at_scale(plan.scale, plan.seed));
    assert!(!output.items.is_empty(), "the pipeline accepted no question to use as a query");
    let exec = &output.executor;
    let texts: Vec<&str> = output.chunks.iter().map(|c| c.text.as_str()).collect();
    let vectors = output.encoder.encode_batch(exec, &texts);
    let items: Vec<(u64, Vec<f32>)> =
        output.chunks.iter().map(|c| c.chunk_id).zip(vectors).collect();
    // A fixed number of queries (stems cycled or cut), so a pass is the same
    // amount of work whatever share of questions the seed's judge accepted.
    let stems: Vec<&str> =
        output.items.iter().map(|i| i.stem.as_str()).cycle().take(QUERIES).collect();
    let queries = output.encoder.encode_batch(exec, &stems);

    // The default spec is the exact (flat) backend every recall is judged by.
    let warm = build(&IndexSpec::default(), output.config.embed.dim, exec, &items);
    let mut cold = decode_store(&warm.to_bytes()).expect("flat store decodes");
    cold.set_panel_cache_budget(PanelBudget::Bytes(0));
    // Fill the resident cache before anything is timed.
    std::hint::black_box(warm.search_batch(exec, &queries, K));
    Env { output, items, queries, warm, cold }
}

fn ids(results: &[Vec<SearchResult>]) -> Vec<Vec<u64>> {
    results.iter().map(|hits| hits.iter().map(|h| h.id).collect()).collect()
}

fn recall(approx: &[Vec<u64>], exact: &[Vec<u64>]) -> f64 {
    let hit: usize =
        approx.iter().zip(exact).map(|(a, e)| a.iter().filter(|id| e.contains(id)).count()).sum();
    let total: usize = exact.iter().map(Vec::len).sum();
    hit as f64 / total.max(1) as f64
}

pub fn run(ctx: &mut Ctx) {
    let plan = ctx.plan.clone();
    let env = ctx.setup(|_| build_env(&plan));
    let exec = &env.output.executor;
    let n_queries = env.queries.len() as f64;
    let truth = ids(&env.warm.search_batch(exec, &env.queries, K));

    if plan.traced {
        every_backend(ctx, &env, &truth);
    }

    // The flat scan, interleaved so host noise lands on all three alike.
    let deadline = ctx.deadline(if plan.traced { 0.7 } else { 1.0 });
    let (mut warm, mut cold, mut single_qps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut i = 0;
    while ctx.more(i, 10, deadline) {
        let traced = ctx.trace_rep(i);
        ctx.tracer.next_request();
        let (hits, w) =
            ctx.paced("index.scan_resident", |_| env.warm.search_batch(exec, &env.queries, K));
        if i == 0 {
            ctx.report.check(ids(&hits) == truth, "resident scan results changed between passes");
        }
        let (hits, c) =
            ctx.paced("index.scan_cold", |_| env.cold.search_batch(exec, &env.queries, K));
        if i == 0 {
            ctx.report.check(ids(&hits) == truth, "budget-0 scan differs from the resident scan");
        }
        let ((), s) = ctx.paced("index.search_single", |_| {
            for q in env.queries.iter().cycle().skip(i * SINGLES).take(SINGLES) {
                std::hint::black_box(env.warm.search(q, K));
            }
        });
        warm.push(w);
        cold.push(c);
        single_qps.push(SINGLES as f64 / s.norm_s);
        if traced { &mut traced_s } else { &mut plain_s }.push(w.norm_s);
        ctx.report.count(3, 0);
        i += 1;
    }
    let qps = |v: &[Timing]| v.iter().map(|t| n_queries / t.raw_s).collect::<Vec<f64>>();
    // The seed moves the chunk count by a few percent and a flat scan is
    // linear in it: per 1 000 stored vectors.
    let kilo_vectors = env.items.len() as f64 / 1e3;
    ctx.report.set_timings("primary_ms", &warm, 1e3 / kilo_vectors);
    ctx.report.set_timings("secondary_ms", &cold, 1e3 / kilo_vectors);
    let scanned: Vec<f64> = single_qps.iter().map(|q| q * kilo_vectors * 1e3).collect();
    ctx.report.set_gated("throughput_per_s", &scanned);
    ctx.report.set_samples("scan_qps", &qps(&warm));
    ctx.report.set_samples("scan_cold_qps", &qps(&cold));
    ctx.set_trace_overhead(&traced_s, &plain_s);

    if plan.traced {
        below_the_store(ctx, &env);
    }
}

/// Traced pass: every backend once — build, one batch pass, recall against
/// flat. (HNSW's build alone takes a third of a run, which is why the
/// untraced pass, whose window belongs to the flat scan, leaves this out.)
fn every_backend(ctx: &mut Ctx, env: &Env, truth: &[Vec<u64>]) {
    let exec = &env.output.executor;
    let dim = env.output.config.embed.dim;
    let flat = IndexSpec::default().label();
    let mut min_recall = f64::INFINITY;
    ctx.tracer.set_enabled(true);
    for spec in IndexSpec::all_defaults() {
        let label = spec.label();
        ctx.tracer.next_request();
        let (store, build_s) = ctx
            .tracer
            .time(&format!("index.build_{label}"), |_| build(&spec, dim, exec, &env.items));
        let (results, pass_s) = ctx.tracer.time(&format!("index.search_batch_{label}"), |_| {
            store.search_batch(exec, &env.queries, K)
        });
        let r = recall(&ids(&results), truth);
        ctx.report.count(1, 0);
        if label == flat {
            ctx.report.check(r == 1.0, "flat recall against itself is not 1.0");
        } else {
            ctx.report
                .check(r >= RECALL_FLOOR, &format!("{label} recall@5 {r:.3} below the floor"));
            min_recall = min_recall.min(r);
        }
        ctx.report.set(&format!("index.{label}.build_s"), build_s);
        ctx.report.set(&format!("index.{label}.batch_qps"), env.queries.len() as f64 / pass_s);
        ctx.report.set(&format!("index.{label}.recall_at_5"), r);
        backend_detail(ctx, env, label, store);
    }
    ctx.report.set("recall_at_5_min", min_recall);
}

/// Per backend: single-query latency, footprint, decode time,
/// and the batch rate with the panel cache off where the backend has one.
fn backend_detail(ctx: &mut Ctx, env: &Env, label: &str, mut store: Box<dyn VectorStore>) {
    let exec = &env.output.executor;
    let n = if ctx.plan.smoke { 50 } else { 300 };
    let ((), s) = ctx.tracer.time(&format!("index.search_single_{label}"), |_| {
        for q in env.queries.iter().cycle().take(n) {
            std::hint::black_box(store.search(q, K));
        }
    });
    ctx.report.set(&format!("index.{label}.single_ms"), s / n as f64 * 1e3);
    let bytes = store.to_bytes();
    ctx.report
        .set(&format!("index.{label}.bytes_per_vec"), bytes.len() as f64 / env.items.len() as f64);
    let (decoded, s) = ctx
        .tracer
        .time(&format!("index.decode_{label}"), |_| decode_store(&bytes).expect("store decodes"));
    ctx.report.set(&format!("index.{label}.decode_s"), s);
    ctx.report.check(decoded.len() == store.len(), &format!("{label} lost rows in a round trip"));
    if store.panel_cache_resident_bytes() > 0 {
        store.set_panel_cache_budget(PanelBudget::Bytes(0));
        let (_, s) = ctx.tracer.time(&format!("index.search_batch_cache0_{label}"), |_| {
            store.search_batch(exec, &env.queries, K)
        });
        ctx.report.set(&format!("index.{label}.batch_qps_cache0"), env.queries.len() as f64 / s);
    }
}

/// Median seconds of `f` over `reps` runs.
fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// What the layers under the store can deliver: the scoring kernels against
/// a measured copy ceiling, panel decode against panel hit, a starved
/// cache, one worker against all, and BM25 beside the dense scan.
fn below_the_store(ctx: &mut Ctx, env: &Env) {
    ctx.tracer.set_enabled(true);
    ctx.tracer.next_request();
    let exec = &env.output.executor;
    let dim = env.output.config.embed.dim;
    let reps = if ctx.plan.smoke { 2 } else { 15 };
    let n_queries = env.queries.len() as f64;

    // Kernels stream the decoded matrix the way a scan does.
    let rows: Vec<f32> = env.items.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    let query = &env.queries[0];
    let gb = (rows.len() * 4) as f64 / 1e9;
    ctx.tracer.time("util.kernels", |_| {
        let mut sink = 0.0f32;
        let dot_s = median_s(reps, || {
            for row in rows.chunks_exact(dim) {
                sink += kernel::dot(row, query);
            }
        });
        let l2_s = median_s(reps, || {
            for row in rows.chunks_exact(dim) {
                sink += kernel::l2_sq(row, query);
            }
        });
        let mut dst = vec![0.0f32; rows.len()];
        let copy_s = median_s(reps, || {
            dst.copy_from_slice(std::hint::black_box(&rows));
            std::hint::black_box(&mut dst);
        });
        std::hint::black_box(sink);
        ctx.report.set("util.dot_gbps", gb / dot_s);
        ctx.report.set("util.l2_gbps", gb / l2_s);
        ctx.report.set("util.copy_gbps", gb / copy_s);
        ctx.report.set("util.dot_share_of_copy", copy_s / dot_s);
    });

    // Panel decode (budget 0: every panel decoded) against panel hit.
    let vectors: Vec<Vec<f32>> = env.items.iter().map(|(_, v)| v.clone()).collect();
    let matrix = EmbeddingMatrix::from_rows(dim, Precision::F16, &vectors);
    let walk = |cache: &PanelCache| {
        let mut sink = 0.0f32;
        matrix.for_each_panel(cache, 0, 256, |_, panel| sink += kernel::sq_norm(panel));
        std::hint::black_box(sink);
    };
    ctx.tracer.time("embed.panels", |_| {
        let off = PanelCache::new(PanelBudget::Bytes(0));
        ctx.report.set("embed.panel_decode_gbps", gb / median_s(reps, || walk(&off)));
        let on = PanelCache::new(PanelBudget::Auto);
        walk(&on);
        ctx.report.set("embed.panel_hit_gbps", gb / median_s(reps, || walk(&on)));
    });

    // A cache a quarter the size of the decoded store.
    let mut starved = decode_store(&env.warm.to_bytes()).expect("flat store decodes");
    starved.set_panel_cache_budget(PanelBudget::Bytes(rows.len()));
    ctx.tracer.time("index.scan_quarter_cache", |_| {
        let s = median_s(reps.min(5), || {
            std::hint::black_box(starved.search_batch(exec, &env.queries, K));
        });
        ctx.report.set("index.flat.batch_qps_quarter_cache", n_queries / s);
    });

    // One worker against all of them, same resident store.
    let one = Executor::new(1);
    ctx.tracer.time("index.scan_one_worker", |_| {
        let w1 = median_s(reps.min(5), || {
            std::hint::black_box(env.warm.search_batch(&one, &env.queries, K));
        });
        let wn = median_s(reps.min(5), || {
            std::hint::black_box(env.warm.search_batch(exec, &env.queries, K));
        });
        ctx.report.set("runtime.search_batch_speedup_w1", w1 / wn);
    });

    // BM25 over the same chunks with the same stems.
    let name = IndexRegistry::lexical_sibling(distllm::core::CHUNKS_STORE);
    let lex = env.output.indexes.expect_lexical(&name);
    let stems: Vec<&str> =
        env.output.items.iter().map(|i| i.stem.as_str()).cycle().take(QUERIES).collect();
    ctx.tracer.time("lexical.search_batch", |_| {
        let s = median_s(reps.min(5), || {
            std::hint::black_box(lex.search_batch(exec, &stems, K));
        });
        ctx.report.set("lexical.batch_qps", n_queries / s);
    });
}
