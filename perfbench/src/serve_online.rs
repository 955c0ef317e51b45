//! `serve-online` — traces fetched at inference time, on the request path.
//!
//! The same serve + index + panel-cache layers `paper-repro`'s eval phase
//! uses, used the other way round: many tiny requests, where queue wait,
//! flush deadline, the single-request fast path and per-request allocation
//! dominate instead of amortised batches.
//!
//! The registry is round-tripped through `to_bytes` → `from_bytes` (what a
//! server loads at start), a `QueryService` runs on `Executor::new(nproc)`,
//! and requests are drawn from the seed: store ∈ the registry's names,
//! text ∈ accepted question stems, mode dense 50 % / lexical 20 % /
//! hybrid-RRF 30 %, k = 8.
//!
//! * **Open loop** (independent users): Poisson arrivals at a fixed rate in
//!   one-second segments, latency timed from the *due* time. One generator
//!   thread that sleeps between arrivals, one collector thread.
//!   `primary_ms` / `secondary_ms` are the medians over the mid-rate
//!   segments of the per-segment p50 / p99.
//! * **Closed loop** (a caller that waits): one client, a window of 8
//!   outstanding tickets; `throughput_per_s` is the median segment rate.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use distllm::lexical::fuse_depth;
use distllm::prelude::*;
use distllm::serve::QueryInput;

use crate::load::{closed_loop, open_loop, poisson_schedule, Rng, Served};
use crate::stats::{mean, median, percentile, sorted};
use crate::Ctx;

const K: usize = 8;
const POOL: usize = 4096;
const WINDOW: usize = 8;
/// Requests per closed-loop segment with the window full.
const CLOSED_SEGMENT: usize = 2000;
/// Requests per one-at-a-time segment.
const SINGLE_SEGMENT: usize = 500;
/// Seconds per open-loop segment.
const OPEN_SEGMENT_S: f64 = 1.0;
/// Offered rates, q/s: about 10 %, 35 % and 70 % of the closed-loop
/// capacity measured on the 2-vCPU reference box, so latency is seen
/// rising before throughput flattens. Fixed, so every commit is offered
/// the same load.
const RATE_LOW: f64 = 400.0;
const RATE_MID: f64 = 1400.0;
const RATE_HIGH: f64 = 2800.0;
/// The latency limit `serve.max_rate_within_limit` holds each rate to.
const LIMIT_MS: f64 = 10.0;
/// One response in this many is compared with a direct search.
const VERIFY_EVERY: usize = 50;

fn hybrid() -> QueryMode {
    QueryMode::Hybrid { fusion: Fusion::default(), rerank: false, depth: 0 }
}

fn mode_name(mode: &QueryMode) -> &'static str {
    match mode {
        QueryMode::Dense => "dense",
        QueryMode::Lexical => "lexical",
        QueryMode::Hybrid { .. } => "hybrid",
    }
}

struct Env {
    output: PipelineOutput,
    serving: Arc<IndexRegistry>,
    service: QueryService,
    pool: Vec<QueryRequest>,
    /// `to_bytes`, `from_bytes`, `open_bytes` wall seconds.
    codec_s: [f64; 3],
    /// Requests the harness has submitted to `service`, counted on the
    /// harness side; the service's ledger must agree at shutdown.
    submissions: Cell<u64>,
}

fn request_pool(output: &PipelineOutput, seed: u64) -> Vec<QueryRequest> {
    let mut rng = Rng::new(seed ^ 0x5E12_7E0A);
    let sources: Vec<String> = output.indexes.names().iter().map(|s| s.to_string()).collect();
    (0..POOL)
        .map(|_| {
            let source = sources[rng.below(sources.len())].clone();
            let stem = output.items[rng.below(output.items.len())].stem.clone();
            let mode = match rng.unit() {
                u if u < 0.5 => QueryMode::Dense,
                u if u < 0.7 => QueryMode::Lexical,
                _ => hybrid(),
            };
            QueryRequest::text(source, stem, K).with_mode(mode)
        })
        .collect()
}

fn build_env(plan: &crate::Plan) -> Env {
    let output = Pipeline::run(&PipelineConfig::at_scale(plan.scale, plan.seed));
    assert!(!output.items.is_empty(), "the pipeline accepted no question to use as a query");
    let t0 = Instant::now();
    let bytes = output.indexes.to_bytes();
    let t1 = Instant::now();
    let serving = Arc::new(IndexRegistry::from_bytes(&bytes).expect("registry re-opens"));
    let t2 = Instant::now();
    let lazy = IndexRegistry::open_bytes(&bytes).expect("registry opens lazily");
    let t3 = Instant::now();
    drop(lazy);
    let service = QueryService::start(
        serving.clone(),
        Some(output.encoder.clone()),
        Executor::new(crate::host::workers()),
        ServeConfig::default(),
    );
    let pool = request_pool(&output, plan.seed);
    // Let the panel caches and the service's query-encode cache fill.
    let warm = if plan.smoke { 256 } else { 1024 };
    closed_loop(&service, &pool, 0, warm, WINDOW);
    let codec_s = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64());
    Env { output, serving, service, pool, codec_s, submissions: Cell::new(warm as u64) }
}

/// Latency percentiles of one segment, unanswered requests counting as +inf.
fn pcts(served: &[Served]) -> (f64, f64) {
    let lat = sorted(&served.iter().map(Served::latency_ms).collect::<Vec<_>>());
    (percentile(&lat, 50.0), percentile(&lat, 99.0))
}

/// Whether latency kept growing through the segment: the last quarter's
/// median against the first quarter's.
fn backlog_grows(served: &[Served]) -> bool {
    let q = (served.len() / 4).max(1);
    let head = median(&served[..q].iter().map(Served::latency_ms).collect::<Vec<_>>());
    let tail =
        median(&served[served.len() - q..].iter().map(Served::latency_ms).collect::<Vec<_>>());
    tail > (2.0 * head).max(1.0)
}

/// The answer the program gives without the service in the way.
fn direct(env: &Env, req: &QueryRequest) -> Vec<distllm::index::SearchResult> {
    let QueryInput::Text(text) = &req.input else { unreachable!("the pool holds text queries") };
    let store = env.serving.expect_store(&req.source);
    let lex = env.serving.expect_lexical(&IndexRegistry::lexical_sibling(&req.source));
    match req.mode {
        QueryMode::Dense => store.search(&env.output.encoder.encode(text), req.k),
        QueryMode::Lexical => lex.search(text, req.k),
        QueryMode::Hybrid { fusion, depth, .. } => {
            let deep = fuse_depth(req.k, depth);
            let dense = store.search(&env.output.encoder.encode(text), deep);
            fusion.fuse(&dense, &lex.search(text, deep), req.k)
        }
    }
}

/// Compare one in [`VERIFY_EVERY`] responses with the program's direct
/// answer: dense and lexical bit for bit against `search`, hybrid against
/// a resubmission of the same request.
fn verify(ctx: &mut Ctx, env: &Env, pool: &[QueryRequest], served: &[Served]) {
    for s in served.iter().step_by(VERIFY_EVERY) {
        let Some(resp) = &s.response else { continue };
        let req = &pool[s.idx];
        let expected = match req.mode {
            QueryMode::Hybrid { .. } => {
                env.submissions.set(env.submissions.get() + 1);
                match env.service.submit(req.clone()).and_then(|t| t.wait()) {
                    Ok(again) => again.hits,
                    Err(_) => Vec::new(),
                }
            }
            _ => direct(env, req),
        };
        let what = format!("{} response differs from the direct answer", mode_name(&req.mode));
        ctx.report.check(resp.hits == expected, &what);
    }
}

/// Record one segment's requests as spans under `parent`.
fn record_spans(ctx: &mut Ctx, parent: Option<u32>, served: &[Served]) {
    for s in served {
        let req = ctx.tracer.next_request();
        ctx.tracer.record("harness.gen_late", req, parent, s.due, s.submitted);
        ctx.tracer.record("serve.request", req, parent, s.submitted, s.done);
    }
}

/// Open-loop segments at `rate` until `deadline`; returns every segment.
fn open_phase(
    ctx: &mut Ctx,
    env: &Env,
    rng: &mut Rng,
    cursor: &mut usize,
    rate: f64,
    min_segments: usize,
    deadline: Instant,
) -> Vec<Vec<Served>> {
    let seconds = if ctx.plan.smoke { 0.2 } else { OPEN_SEGMENT_S };
    let mut segments = Vec::new();
    while ctx.more(segments.len(), min_segments, deadline) {
        ctx.trace_rep(segments.len());
        let schedule = poisson_schedule(rng, rate, seconds);
        let parent = ctx.tracer.next_id();
        let (served, _) = ctx.tracer.time("harness.open_segment", |_| {
            open_loop(&env.service, &env.pool, *cursor, &schedule)
        });
        *cursor += schedule.len();
        env.submissions.set(env.submissions.get() + served.len() as u64);
        record_spans(ctx, parent, &served);
        let unanswered = served.iter().filter(|s| s.response.is_none()).count();
        ctx.report.count(served.len() as u64, unanswered as u64);
        verify(ctx, env, &env.pool, &served);
        segments.push(served);
    }
    segments
}

/// One closed-loop segment pair: [`CLOSED_SEGMENT`] requests with
/// [`WINDOW`] in flight (micro-batches form), then [`SINGLE_SEGMENT`]
/// requests one at a time (every request takes the fast path). All values
/// at reference speed (see `host::Reference`).
struct ClosedSegment {
    /// Answered requests per second with the window full.
    qps: f64,
    /// Percentiles of the latency a caller with the window full sees.
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    /// Mean round trip of a lone request: segment wall ÷ requests. (Three
    /// stores in four hold one row per accepted question, 331–487 of them
    /// depending on the seed, and the *median* lone request is a scan of one
    /// of those: it followed the seed, spread 0.12 against 0.07 with the
    /// seed fixed. The mean follows the mean store, which the seed moves by
    /// under 5 %.)
    single_ms: f64,
}

/// Closed-loop segment pairs until `deadline`.
fn closed_phase(
    ctx: &mut Ctx,
    env: &Env,
    pool: &[QueryRequest],
    cursor: &mut usize,
    min_segments: usize,
    deadline: Instant,
) -> Vec<ClosedSegment> {
    let (count, singles) =
        if ctx.plan.smoke { (200, 50) } else { (CLOSED_SEGMENT, SINGLE_SEGMENT) };
    let mut segments = Vec::new();
    while ctx.more(segments.len(), min_segments, deadline) {
        ctx.tracer.set_enabled(false);
        let (served, full) = ctx.paced("harness.closed_segment", |_| {
            closed_loop(&env.service, pool, *cursor, count, WINDOW)
        });
        let (lone, alone) = ctx.paced("harness.single_segment", |_| {
            closed_loop(&env.service, pool, *cursor + count, singles, 1)
        });
        *cursor += count + singles;
        env.submissions.set(env.submissions.get() + (served.len() + lone.len()) as u64);
        let answered = served.iter().filter(|s| s.response.is_some()).count();
        let unanswered =
            served.len() - answered + lone.iter().filter(|s| s.response.is_none()).count();
        ctx.report.count((served.len() + lone.len()) as u64, unanswered as u64);
        verify(ctx, env, pool, &served);
        verify(ctx, env, pool, &lone);
        let lat = sorted(&served.iter().map(Served::latency_ms).collect::<Vec<_>>());
        segments.push(ClosedSegment {
            qps: answered as f64 / full.norm_s,
            p50_ms: percentile(&lat, 50.0) / full.factor(),
            p90_ms: percentile(&lat, 90.0) / full.factor(),
            p99_ms: percentile(&lat, 99.0) / full.factor(),
            single_ms: alone.norm_s / lone.len().max(1) as f64 * 1e3,
        });
    }
    segments
}

pub fn run(ctx: &mut Ctx) {
    let plan = ctx.plan.clone();
    // Most of this workload's run-to-run variance on a shared 2-vCPU host
    // is cross-CPU wake-ups going through the hypervisor (interleaved runs:
    // closed-loop p50 spread 0.50 unpinned against 0.14 pinned, at half the
    // latency). It is a latency workload, so it measures the service on one
    // CPU; the batch workloads keep every CPU.
    let _pinned = crate::host::PinnedToOneCpu::pin();
    let env = ctx.setup(|_| build_env(&plan));
    let mut rng = Rng::new(plan.seed ^ 0xA221_7A15);
    let mut cursor = 0usize;

    if !plan.traced {
        let closed = closed_phase(ctx, &env, &env.pool, &mut cursor, 5, ctx.deadline(1.0));
        let col = |pick: fn(&ClosedSegment) -> f64| closed.iter().map(pick).collect::<Vec<f64>>();
        ctx.report.set_gated("primary_ms", &col(|s| s.p50_ms));
        ctx.report.set_gated("secondary_ms", &col(|s| s.single_ms));
        ctx.report.set_gated("throughput_per_s", &col(|s| s.qps));
        ctx.report.set_samples("serve.closed.p90_ms", &col(|s| s.p90_ms));
        ctx.report.set_samples("serve.closed.p99_ms", &col(|s| s.p99_ms));
    } else {
        traced_pass(ctx, &env, &mut rng, &mut cursor);
    }

    let snap = env.service.shutdown();
    ctx.report.check(
        snap.admitted + snap.rejected == env.submissions.get(),
        "admitted + rejected != submitted",
    );
    ctx.report.check(snap.served() == snap.admitted, "an admitted request was never answered");
    ctx.report.set("serve.admitted", snap.admitted as f64);
    ctx.report.set("serve.rejected", snap.rejected as f64);
    ctx.report.set("serve.mean_batch", snap.mean_batch());
    ctx.report
        .set("serve.fast_path_share", snap.fast_path_hits as f64 / snap.batches.max(1) as f64);
    ctx.report
        .set("embed.panel_resident_mb", env.serving.panel_cache_resident_bytes() as f64 / 1e6);
    ctx.report.set("index.registry_encode_s", env.codec_s[0]);
    ctx.report.set("index.registry_decode_s", env.codec_s[1]);
    ctx.report.set("index.registry_open_lazy_s", env.codec_s[2]);
}

fn traced_pass(ctx: &mut Ctx, env: &Env, rng: &mut Rng, cursor: &mut usize) {
    let low = open_phase(ctx, env, rng, cursor, RATE_LOW, 1, ctx.deadline(0.12));
    let mid = open_phase(ctx, env, rng, cursor, RATE_MID, 2, ctx.deadline(0.45));
    let high = open_phase(ctx, env, rng, cursor, RATE_HIGH, 1, ctx.deadline(0.57));

    let med = |segments: &[Vec<Served>], pick: fn((f64, f64)) -> f64| {
        median(&segments.iter().map(|s| pick(pcts(s))).collect::<Vec<_>>())
    };
    ctx.report.set("serve.low.p50_ms", med(&low, |p| p.0));
    ctx.report.set("serve.low.p99_ms", med(&low, |p| p.1));
    ctx.report.set("serve.high.p50_ms", med(&high, |p| p.0));
    ctx.report.set("serve.high.p99_ms", med(&high, |p| p.1));
    let p50: Vec<f64> = mid.iter().map(|s| pcts(s).0).collect();
    ctx.report.set_samples("serve_p50_ms", &p50);
    ctx.report.set_samples("serve_p99_ms", &mid.iter().map(|s| pcts(s).1).collect::<Vec<_>>());
    // Even segments were traced, odd ones not.
    let (even, odd): (Vec<_>, Vec<_>) = p50.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let vals = |v: Vec<(usize, &f64)>| v.into_iter().map(|(_, &x)| x).collect::<Vec<f64>>();
    ctx.set_trace_overhead(&vals(even), &vals(odd));

    // The highest offered rate that keeps 99 % of sent requests within the
    // limit without a growing backlog (0 when none does).
    let mut best = 0.0;
    for (rate, segments) in [(RATE_LOW, &low), (RATE_MID, &mid), (RATE_HIGH, &high)] {
        let all: Vec<&Served> = segments.iter().flatten().collect();
        let ok = all.iter().filter(|s| s.latency_ms() <= LIMIT_MS).count() as f64;
        let growing = segments.iter().any(|s| backlog_grows(s));
        if ok / all.len().max(1) as f64 >= 0.99 && !growing {
            best = rate;
        }
    }
    ctx.report.set("serve.max_rate_within_limit", best);
    let mid_all: Vec<&Served> = mid.iter().flatten().collect();
    let within = mid_all.iter().filter(|s| s.latency_ms() <= LIMIT_MS).count();
    ctx.report.set("serve.mid.within_limit_share", within as f64 / mid_all.len().max(1) as f64);
    let late = sorted(&mid_all.iter().map(|s| s.gen_late_ms()).collect::<Vec<_>>());
    ctx.report.set("serve.gen_late_p99_ms", percentile(&late, 99.0));

    // Where the service says the time went (`QueryResponse::timing`), and
    // latency by mode, at the mid rate.
    let timing = |pick: fn(&distllm::serve::QueryTiming) -> f64| {
        let ms: Vec<f64> = mid_all
            .iter()
            .filter_map(|s| s.response.as_ref())
            .map(|r| pick(&r.timing) * 1e3)
            .collect();
        mean(&ms)
    };
    ctx.report.set("serve.queue_ms_mean", timing(|t| t.queue_secs));
    ctx.report.set("serve.encode_ms_mean", timing(|t| t.encode_secs));
    ctx.report.set("serve.search_ms_mean", timing(|t| t.search_secs));
    let mut by_mode: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &mid_all {
        by_mode.entry(mode_name(&env.pool[s.idx].mode)).or_default().push(s.latency_ms());
    }
    for (mode, lat) in &by_mode {
        ctx.report.set(&format!("serve.{mode}.p50_ms"), percentile(&sorted(lat), 50.0));
    }

    // Closed loop: the mixed pool, then each mode on its own.
    let closed = closed_phase(ctx, env, &env.pool, cursor, 2, ctx.deadline(0.72));
    let col = |pick: fn(&ClosedSegment) -> f64| closed.iter().map(pick).collect::<Vec<f64>>();
    ctx.report.set_samples("serve_qps", &col(|s| s.qps));
    ctx.report.set_samples("serve.closed.p50_ms", &col(|s| s.p50_ms));
    ctx.report.set_samples("serve.closed.p90_ms", &col(|s| s.p90_ms));
    ctx.report.set_samples("serve.closed.p99_ms", &col(|s| s.p99_ms));
    ctx.report.set_samples("serve.single.mean_ms", &col(|s| s.single_ms));
    for (i, mode) in [QueryMode::Dense, QueryMode::Lexical, hybrid()].into_iter().enumerate() {
        let pool: Vec<QueryRequest> = env.pool.iter().map(|r| r.clone().with_mode(mode)).collect();
        let share = 0.72 + 0.08 * (i + 1) as f64;
        let closed = closed_phase(ctx, env, &pool, cursor, 1, ctx.deadline(share));
        let qps = median(&closed.iter().map(|s| s.qps).collect::<Vec<_>>());
        ctx.report.set(&format!("serve.{}.qps", mode_name(&mode)), qps);
    }
    let dense = ctx.report.get("serve.dense.qps");
    ctx.report.set("serve.hybrid_over_dense_qps", ctx.report.get("serve.hybrid.qps") / dense);

    // The floor: the same requests answered by direct calls, no service.
    ctx.tracer.set_enabled(true);
    let n = if ctx.plan.smoke { 100 } else { 1000 };
    let mut direct_ms = Vec::with_capacity(n);
    for req in env.pool.iter().take(n) {
        ctx.tracer.next_request();
        let (hits, s) = ctx.tracer.time("index.direct_answer", |_| direct(env, req));
        std::hint::black_box(hits);
        direct_ms.push(s * 1e3);
    }
    let floor = median(&direct_ms);
    ctx.report.set("serve.direct_p50_ms", floor);
    ctx.report.set("serve.overhead_ms", ctx.report.get("serve_p50_ms") - floor);

    // The floor's own parts: query encode, one BM25 search, one fusion.
    let texts: Vec<&str> = env.pool.iter().take(n).filter_map(|r| r.input.text()).collect();
    let encoder = &env.output.encoder;
    let (vectors, s) = ctx.tracer.time("embed.encode_query", |_| {
        texts.iter().map(|t| encoder.encode(t)).collect::<Vec<_>>()
    });
    ctx.report.set("embed.encode_query_us", s / n as f64 * 1e6);
    let source = &env.pool[0].source;
    let lex = env.serving.expect_lexical(&IndexRegistry::lexical_sibling(source));
    let deep = fuse_depth(K, 0);
    let (lexical, s) = ctx
        .tracer
        .time("lexical.search", |_| texts.iter().map(|t| lex.search(t, deep)).collect::<Vec<_>>());
    ctx.report.set("lexical.search_us", s / n as f64 * 1e6);
    let store = env.serving.expect_store(source);
    let dense: Vec<_> = vectors.iter().map(|v| store.search(v, deep)).collect();
    let (fused, s) = ctx.tracer.time("lexical.rrf", |_| {
        dense.iter().zip(&lexical).map(|(d, l)| Fusion::default().fuse(d, l, K)).collect::<Vec<_>>()
    });
    std::hint::black_box(fused);
    ctx.report.set("lexical.rrf_us", s / n as f64 * 1e6);
}
