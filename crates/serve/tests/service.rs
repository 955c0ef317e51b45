//! Property tests for the query service's core contracts:
//!
//! * **Bit-identity** — served hits equal direct `VectorStore::search`
//!   results regardless of arrival order, executor width, or batch
//!   watermark. Micro-batching changes the schedule, never the answer.
//! * **Bounded admission** — with a tiny queue, every submission is either
//!   admitted or rejected with `Saturated`; admitted + rejected equals
//!   submitted; every admitted request resolves (no hangs, no losses).
//! * **Graceful drain** — shutdown answers every already-admitted request
//!   exactly once, then refuses new work with `ShuttingDown`.

use std::sync::{Arc, Barrier, OnceLock};

use mcqa_embed::Precision;
use mcqa_index::{FlatIndex, IndexRegistry, Metric, SearchResult, VectorStore};
use mcqa_runtime::Executor;
use mcqa_serve::{QueryRequest, QueryService, ServeConfig, ServeError};
use proptest::prelude::*;

const DIM: usize = 8;
const SOURCES: [&str; 2] = ["chunks", "traces-focused"];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn vector(seed: u64) -> Vec<f32> {
    (0..DIM).map(|j| (splitmix(seed ^ (j as u64) << 17) % 1000) as f32 / 500.0 - 1.0).collect()
}

/// Two flat stores with distinct contents, one per source.
fn stores() -> IndexRegistry {
    let mut reg = IndexRegistry::new();
    for (s, name) in SOURCES.iter().enumerate() {
        let mut store = FlatIndex::new(DIM, Metric::Cosine, Precision::F32);
        for i in 0..60u64 {
            store.add(i, &vector(splitmix(1000 * (s as u64 + 1) + i)));
        }
        reg.insert(name, Box::new(store));
    }
    reg
}

/// One registry shared by every test, built once (the tests never mutate
/// it).
fn registry() -> &'static Arc<IndexRegistry> {
    static REG: OnceLock<Arc<IndexRegistry>> = OnceLock::new();
    REG.get_or_init(|| Arc::new(stores()))
}

/// A deterministic request stream: query vectors, sources, and depths all
/// derived from `seed`.
fn requests(n: usize, seed: u64, k: usize) -> Vec<QueryRequest> {
    (0..n)
        .map(|i| {
            let s = splitmix(seed.wrapping_add(i as u64));
            let source = SOURCES[(s % 2) as usize];
            QueryRequest::vector(source, vector(s), k)
        })
        .collect()
}

/// What a direct, unbatched call on the store itself returns.
fn direct_hits(req: &QueryRequest) -> Vec<SearchResult> {
    let q = match &req.input {
        mcqa_serve::QueryInput::Vector(v) => v.clone(),
        _ => unreachable!("fixture uses vector inputs"),
    };
    registry().expect_store(&req.source).search(&q, req.k)
}

proptest! {
    /// Served hits are bit-identical to direct `search` no matter the
    /// arrival order, worker count, or batch watermark — and regardless of
    /// how requests were coalesced (the reported batch size varies; the
    /// answer must not).
    #[test]
    fn served_hits_are_bit_identical_to_direct_search(
        n in 1usize..32,
        seed in 0u64..1000,
        k in 1usize..9,
        workers_pick in 0usize..2,
        batch_pick in 0usize..3,
        shuffle in 0u64..1000,
    ) {
        let workers = [1usize, 4][workers_pick];
        let max_batch = [1usize, 4, 64][batch_pick];
        let reqs = requests(n, seed, k);

        // A seed-derived permutation of submission order.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (splitmix(shuffle.wrapping_add(i as u64)) as usize) % (i + 1));
        }

        let service = QueryService::start(
            registry().clone(),
            None,
            Executor::new(workers),
            ServeConfig { queue_capacity: 64, max_batch },
        );
        let mut tickets: Vec<Option<mcqa_serve::QueryTicket>> =
            std::iter::repeat_with(|| None).take(n).collect();
        for &i in &order {
            // Queue capacity exceeds n: admission cannot saturate here.
            tickets[i] = Some(service.submit(reqs[i].clone()).expect("admitted"));
        }
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.expect("ticket").wait().expect("served");
            prop_assert_eq!(&resp.hits, &direct_hits(&reqs[i]), "request {}", i);
            prop_assert!(resp.batch >= 1 && resp.batch <= max_batch.max(1));
            prop_assert!(resp.timing.queue_secs >= 0.0);
        }
        let snap = service.shutdown();
        prop_assert_eq!(snap.admitted, n as u64);
        prop_assert_eq!(snap.served_ok, n as u64);
        prop_assert_eq!(snap.rejected, 0);
        prop_assert_eq!(snap.batch_hist.iter().copied().sum::<u64>(), snap.batches);
        // A singleton dispatch is still a dispatch: the counter can never
        // outrun the batch ledger.
        prop_assert!(snap.fast_path_hits <= snap.batches);
    }

    /// `query_batch` returns index-aligned results with per-request errors
    /// in place: unknown stores and dim mismatches fail exactly where they
    /// were submitted, valid requests around them still serve bit-identically.
    #[test]
    fn query_batch_is_index_aligned_with_inline_errors(
        n in 1usize..24,
        seed in 0u64..1000,
        k in 1usize..6,
    ) {
        let mut reqs = requests(n, seed, k);
        // Corrupt a deterministic subset: every 3rd an unknown store,
        // every 7th a wrong-dimensional vector.
        for (i, r) in reqs.iter_mut().enumerate() {
            if i % 3 == 1 {
                r.source = "no-such-store".into();
            } else if i % 7 == 2 {
                r.input = mcqa_serve::QueryInput::Vector(vec![0.5; DIM + 3]);
            }
        }
        let service = QueryService::start(
            registry().clone(),
            None,
            Executor::new(2),
            // Capacity and batch ceiling below n: the replay is one unit
            // all the same, so it is neither refused nor split.
            ServeConfig { queue_capacity: 4, max_batch: 4 },
        );
        let results = service.query_batch(reqs.clone());
        prop_assert_eq!(results.len(), n);
        for (i, (req, res)) in reqs.iter().zip(&results).enumerate() {
            if i % 3 == 1 {
                match res {
                    Err(ServeError::UnknownStore { name, known }) => {
                        prop_assert_eq!(name.as_str(), "no-such-store");
                        prop_assert_eq!(known.len(), SOURCES.len());
                    }
                    other => panic!("request {i}: expected UnknownStore, got {other:?}"),
                }
            } else if i % 7 == 2 {
                match res {
                    Err(ServeError::DimMismatch { expected, got, .. }) => {
                        prop_assert_eq!(*expected, DIM);
                        prop_assert_eq!(*got, DIM + 3);
                    }
                    other => panic!("request {i}: expected DimMismatch, got {other:?}"),
                }
            } else {
                let resp = res.as_ref().expect("valid request serves");
                prop_assert_eq!(&resp.hits, &direct_hits(req), "request {}", i);
            }
        }
        let snap = service.stats();
        prop_assert_eq!(snap.admitted, n as u64);
        prop_assert_eq!(snap.served(), snap.admitted, "the replay loses nothing");
        prop_assert_eq!(snap.batches, 1, "one replay, one dispatch");
    }

    /// Shutdown drains: every admitted request resolves exactly once even
    /// when shutdown races the dispatcher, and post-shutdown submissions
    /// are refused.
    #[test]
    fn shutdown_drains_every_admitted_request(
        n in 1usize..32,
        seed in 0u64..1000,
        batch_pick in 0usize..3,
    ) {
        let max_batch = [1usize, 4, 64][batch_pick];
        let reqs = requests(n, seed, 4);
        let service = QueryService::start(
            registry().clone(),
            None,
            Executor::new(2),
            ServeConfig { queue_capacity: 64, max_batch },
        );
        let tickets: Vec<_> =
            reqs.iter().map(|r| service.submit(r.clone()).expect("admitted")).collect();
        // Immediately drain — many requests are still queued.
        let snap = service.shutdown();
        prop_assert_eq!(snap.admitted, n as u64);
        prop_assert_eq!(snap.served(), n as u64, "drain answers everything");
        for (t, req) in tickets.into_iter().zip(&reqs) {
            let resp = t.wait().expect("drained requests still serve");
            prop_assert_eq!(&resp.hits, &direct_hits(req));
        }
        match service.submit(reqs[0].clone()) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        // Idempotent.
        let again = service.shutdown();
        prop_assert_eq!(again.served(), n as u64);
    }

    /// A sequential (queue-always-empty) workload has nothing to coalesce:
    /// every dispatch carries exactly one request, returns hits
    /// bit-identical to direct search, and the admission ledger still
    /// conserves (admitted + rejected == submitted).
    #[test]
    fn sequential_requests_dispatch_as_singletons(
        n in 1usize..16,
        seed in 0u64..1000,
        k in 1usize..9,
    ) {
        let reqs = requests(n, seed, k);
        let service = QueryService::start(
            registry().clone(),
            None,
            Executor::new(2),
            ServeConfig::default(),
        );
        // Wait out each ticket before the next submit: the queue is empty
        // at every arrival, so every dispatch must be a singleton.
        let hits: Vec<_> = reqs
            .iter()
            .map(|r| service.submit(r.clone()).expect("admitted").wait().expect("served").hits)
            .collect();
        let snap = service.shutdown();
        prop_assert_eq!(snap.admitted + snap.rejected, n as u64, "conservation");
        prop_assert_eq!(snap.served_ok, n as u64);
        prop_assert_eq!(snap.fast_path_hits, n as u64, "every dispatch was a singleton");
        prop_assert_eq!(snap.batches, n as u64);
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h, &direct_hits(&reqs[i]), "request {}", i);
        }
    }
}

/// A store whose batched search meets the test at a barrier on the way in
/// and again on the way out: the test decides how long the dispatcher
/// stays inside one dispatch, so a backlog of known size forms behind it.
struct GatedStore {
    inner: FlatIndex,
    gate: Arc<Barrier>,
}

impl VectorStore for GatedStore {
    fn add(&mut self, id: u64, vector: &[f32]) {
        self.inner.add(id, vector);
    }
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        self.inner.search(query, k)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn metric(&self) -> Metric {
        self.inner.metric()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn remove(&mut self, ids: &[u64]) -> usize {
        self.inner.remove(ids)
    }
    fn search_batch(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        self.gate.wait(); // the dispatcher is in service
        self.gate.wait(); // the test has queued its backlog
        self.inner.search_batch(exec, queries, k)
    }
    fn payload_bytes(&self) -> usize {
        self.inner.payload_bytes()
    }
    fn to_bytes(&self) -> Vec<u8> {
        self.inner.to_bytes()
    }
}

/// Batches form in the queue while a dispatch is in service: requests
/// that arrive behind a held dispatch leave together, `max_batch` at a
/// time, without any of them waiting for a timer or for company.
#[test]
fn backlog_rides_the_next_dispatch_together() {
    const MAX_BATCH: usize = 4;
    let gate = Arc::new(Barrier::new(2));
    let mut reg = stores();
    let mut held = FlatIndex::new(DIM, Metric::Cosine, Precision::F32);
    held.add(0, &vector(1));
    reg.insert("held", Box::new(GatedStore { inner: held, gate: gate.clone() }));
    let reg = Arc::new(reg);

    // Every backlog size whose last dispatch is not a lone leftover.
    for m in [2usize, 3, 4, 6, 7, 8, 11] {
        let service = QueryService::start(
            reg.clone(),
            None,
            Executor::new(2),
            ServeConfig { queue_capacity: 64, max_batch: MAX_BATCH },
        );
        let holder = service.submit(QueryRequest::vector("held", vector(2), 1)).expect("admitted");
        gate.wait(); // the dispatcher took the holder alone and is inside its search
        let reqs = requests(m, 77 + m as u64, 5);
        let tickets: Vec<_> =
            reqs.iter().map(|r| service.submit(r.clone()).expect("admitted")).collect();
        gate.wait(); // release it: all m are queued behind the dispatch

        assert_eq!(holder.wait().expect("served").batch, 1);
        for (req, t) in reqs.iter().zip(tickets) {
            let resp = t.wait().expect("served");
            assert!(
                (2..=MAX_BATCH).contains(&resp.batch),
                "m = {m}: a queued request left in a batch of {}",
                resp.batch
            );
            assert_eq!(resp.hits, direct_hits(req), "m = {m}");
        }
        let snap = service.shutdown();
        assert_eq!(snap.served_ok, 1 + m as u64);
        assert_eq!(snap.batches, 1 + m.div_ceil(MAX_BATCH) as u64, "m = {m}");
        assert_eq!(snap.fast_path_hits, 1, "only the holder travelled alone");
        assert_eq!(snap.batch_hist.iter().copied().sum::<u64>(), snap.batches);
    }
}

/// A replay is one admission unit and one dispatch, however many requests
/// it carries: more than the queue holds and three times the coalescing
/// ceiling still leave together, and each store is searched once.
#[test]
fn a_replay_on_an_idle_service_is_one_dispatch() {
    const MAX_BATCH: usize = 8;
    let n = 3 * MAX_BATCH;
    let service = QueryService::start(
        registry().clone(),
        None,
        Executor::new(2),
        ServeConfig { queue_capacity: 2, max_batch: MAX_BATCH },
    );
    let reqs = requests(n, 5, 4);
    let results = service.query_batch(reqs.clone());
    assert_eq!(results.len(), n);
    for (i, (req, res)) in reqs.iter().zip(results).enumerate() {
        let resp = res.expect("served");
        assert_eq!(resp.batch, n, "request {i}");
        assert_eq!(resp.hits, direct_hits(req), "request {i}");
    }
    let snap = service.shutdown();
    assert_eq!(snap.batches, 1);
    assert_eq!(snap.admitted, n as u64);
    assert_eq!(snap.served_ok, n as u64);
    assert_eq!(snap.rejected, 0);
}

/// A replay that meets a full queue is not shed: it waits behind the held
/// dispatch and the queued submission, then is served in full.
#[test]
fn a_replay_waits_out_a_full_queue() {
    let gate = Arc::new(Barrier::new(2));
    let mut reg = stores();
    let mut held = FlatIndex::new(DIM, Metric::Cosine, Precision::F32);
    held.add(0, &vector(1));
    reg.insert("held", Box::new(GatedStore { inner: held, gate: gate.clone() }));
    let service = QueryService::start(
        Arc::new(reg),
        None,
        Executor::new(2),
        ServeConfig { queue_capacity: 1, max_batch: 4 },
    );
    let holder = service.submit(QueryRequest::vector("held", vector(2), 1)).expect("admitted");
    gate.wait(); // the dispatcher is inside the holder's search
    let filler = service.submit(QueryRequest::vector("chunks", vector(3), 2)).expect("admitted");
    match service.submit(QueryRequest::vector("chunks", vector(4), 2)) {
        Err(ServeError::Saturated { capacity: 1 }) => {}
        other => panic!("the queue should be full, got {other:?}"),
    }
    let reqs = requests(10, 9, 3);
    let results = std::thread::scope(|s| {
        let replay = s.spawn(|| service.query_batch(reqs.clone()));
        // While the filler holds the queue and the holder the dispatcher,
        // the replay can be neither admitted nor served, however long it
        // has been trying; the pause only gives it time to try.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!replay.is_finished(), "a replay must wait for queue space");
        gate.wait(); // release the holder
        replay.join().expect("replay thread")
    });
    assert_eq!(holder.wait().expect("served").batch, 1);
    filler.wait().expect("served");
    for (i, (req, res)) in reqs.iter().zip(results).enumerate() {
        assert_eq!(res.expect("served").hits, direct_hits(req), "request {i}");
    }
    let snap = service.shutdown();
    assert_eq!(snap.admitted, 1 + 1 + reqs.len() as u64);
    assert_eq!(snap.served(), snap.admitted);
    assert_eq!(snap.rejected, 1, "only the online submission was shed");
}

/// With a capacity-1 queue and a busy dispatcher, a rapid burst must see
/// `Saturated` rejections, the admitted/rejected split must account for
/// every submission, and every admitted request must still resolve.
#[test]
fn bounded_queue_rejects_without_losing_admitted_work() {
    // A store big enough that one search takes much longer than a burst of
    // try_sends, keeping the dispatcher busy while the queue fills.
    let mut reg = IndexRegistry::new();
    let mut store = FlatIndex::new(64, Metric::Cosine, Precision::F32);
    for i in 0..20_000u64 {
        let v: Vec<f32> = (0..64).map(|j| (splitmix(i * 64 + j) % 1000) as f32 / 500.0).collect();
        store.add(i, &v);
    }
    reg.insert("big", Box::new(store));
    let reg = Arc::new(reg);

    let service = QueryService::start(
        reg.clone(),
        None,
        Executor::new(2),
        ServeConfig { queue_capacity: 1, max_batch: 1 },
    );
    let total = 64;
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for i in 0..total {
        let q: Vec<f32> = (0..64).map(|j| (splitmix(9_000 + i * 64 + j) % 1000) as f32).collect();
        match service.submit(QueryRequest::vector("big", q, 5)) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Saturated { capacity }) => {
                assert_eq!(capacity, 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "a capacity-1 queue under burst load must shed");
    assert_eq!(tickets.len() as u64 + rejected, total, "every submission accounted for");
    let admitted = tickets.len() as u64;
    for t in tickets {
        let resp = t.wait().expect("admitted requests serve");
        assert_eq!(resp.hits.len(), 5);
    }
    let snap = service.shutdown();
    assert_eq!(snap.admitted, admitted);
    assert_eq!(snap.rejected, rejected);
    assert_eq!(snap.served(), admitted, "no admitted request is lost");
    assert!(snap.saturation() > 0.0);
}

/// Text queries encode through the service-side cache and match
/// encode-then-search done by hand; a service without an encoder refuses
/// them with `NoEncoder`.
#[test]
fn text_queries_encode_service_side() {
    use mcqa_embed::{BioEncoder, EmbedConfig};

    let encoder = BioEncoder::new(EmbedConfig { dim: 32, ..EmbedConfig::default() });
    let texts = ["dose rate effects", "fractionation schedule", "proton therapy"];
    let mut reg = IndexRegistry::new();
    let mut store = FlatIndex::new(32, Metric::Cosine, Precision::F32);
    for (i, t) in texts.iter().enumerate() {
        store.add(i as u64, &encoder.encode(t));
    }
    reg.insert("chunks", Box::new(store));
    let reg = Arc::new(reg);

    let service = QueryService::start(
        reg.clone(),
        Some(encoder.clone()),
        Executor::new(2),
        ServeConfig::default(),
    );
    for t in texts {
        let resp = service
            .submit(QueryRequest::text("chunks", t, 2))
            .unwrap()
            .wait()
            .expect("text request serves");
        let direct = reg.expect_store("chunks").search(&encoder.encode(t), 2);
        assert_eq!(resp.hits, direct, "text query '{t}'");
        assert_eq!(resp.hits[0].id, texts.iter().position(|x| *x == t).unwrap() as u64);
    }
    service.shutdown();

    let vector_only = QueryService::start(reg, None, Executor::new(1), ServeConfig::default());
    match vector_only.submit(QueryRequest::text("chunks", "anything", 2)).unwrap().wait() {
        Err(ServeError::NoEncoder { source }) => assert_eq!(source, "chunks"),
        other => panic!("expected NoEncoder, got {other:?}"),
    }
}
