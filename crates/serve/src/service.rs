//! The query service: bounded admission → continuous-batching dispatcher
//! → per-request oneshot replies.
//!
//! ```text
//!  submit      ── 1 request ──┐
//!                             ├─try_send─▶ [bounded queue] ──▶ dispatcher thread
//!  query_batch ── n requests ─┘  (full: submit       │  block for one unit, then
//!     ▲            as one unit    rejects, a replay  │  take queued units while it
//!     │                           yields, retries)   │  holds < max_batch requests;
//!     └───────── oneshot ◀── reply per request ◀─────┘  group by (source, k, mode):
//!                                                       encode → search_batch
//! ```
//!
//! The dispatcher is one thread; parallelism comes from the [`Executor`]
//! it drives [`VectorStore::search_batch`] on, exactly like the batch
//! pipeline. It never waits for a batch to fill: batches form because
//! arrivals queue while the previous batch is in service, so batch size
//! tracks load by itself and a lone request is a batch of one. Coalescing
//! exists to feed that kernel — a group's queries share one pass over the
//! store's row panels instead of one pass each. For the same reason a
//! replay ([`QueryService::query_batch`]) is admitted and dispatched as
//! one unit, however long: its queries scan each store once, not once per
//! `max_batch` of them. Results are bit-identical to direct per-query
//! searches — batching changes the schedule, never the answer.
//!
//! [`VectorStore::search_batch`]: mcqa_index::VectorStore::search_batch

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use mcqa_embed::BioEncoder;
use mcqa_index::lexical::fuse_depth;
use mcqa_index::IndexRegistry;
use mcqa_llm::Reranker;
use mcqa_runtime::Executor;
use mcqa_util::sort_hits;

use crate::envelope::{
    QueryInput, QueryMode, QueryRequest, QueryResponse, QueryTiming, ServeError,
};
use crate::stats::{ServiceSnapshot, ServiceStats};

/// Passage texts keyed by (source, doc id): what the reranker reads when
/// rescoring fused hits. The pipeline fills one from the same chunk/trace
/// texts it indexed, so rerank scores see exactly the retrieved passages.
#[derive(Debug, Clone, Default)]
pub struct PassageStore {
    map: BTreeMap<String, HashMap<u64, String>>,
}

impl PassageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `text` as the passage behind `id` in `source`.
    pub fn insert(&mut self, source: &str, id: u64, text: impl Into<String>) {
        self.map.entry(source.to_string()).or_default().insert(id, text.into());
    }

    /// The passage behind `id` in `source`, if registered.
    pub fn get(&self, source: &str, id: u64) -> Option<&str> {
        self.map.get(source).and_then(|m| m.get(&id)).map(String::as_str)
    }

    /// Total registered passages across all sources.
    pub fn len(&self) -> usize {
        self.map.values().map(HashMap::len).sum()
    }

    /// True when no passages are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission queue capacity, in submissions (a replay is one); a
    /// [`QueryService::submit`] beyond it fails with
    /// [`ServeError::Saturated`] instead of blocking.
    pub queue_capacity: usize,
    /// Coalescing ceiling: a dispatch takes further queued submissions
    /// only while it holds fewer than this many requests. `1` disables
    /// coalescing (one submission at a time). A replay is one submission,
    /// so it is never split, and it may carry more requests than this.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { queue_capacity: 256, max_batch: 64 }
    }
}

/// One queued request: the envelope plus its submission timestamp (a
/// replay's wait for queue space counts as queueing) and the oneshot
/// reply channel. The queue carries `Vec<Pending>`: one request from
/// [`QueryService::submit`], a whole replay from
/// [`QueryService::query_batch`].
struct Pending {
    req: QueryRequest,
    admitted: Instant,
    reply: SyncSender<Result<QueryResponse, ServeError>>,
}

/// One admission unit over `reqs`, and a ticket per request, index-aligned.
fn pend(reqs: Vec<QueryRequest>) -> (Vec<Pending>, Vec<QueryTicket>) {
    let admitted = Instant::now();
    reqs.into_iter()
        .map(|req| {
            let (reply, rx) = sync_channel(1);
            (Pending { req, admitted, reply }, QueryTicket { rx })
        })
        .unzip()
}

/// A claim on a submitted request's eventual response.
pub struct QueryTicket {
    rx: Receiver<Result<QueryResponse, ServeError>>,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueryTicket")
    }
}

impl QueryTicket {
    /// Block until the dispatcher answers. If the service dies without
    /// replying (dispatcher panic), this resolves to
    /// [`ServeError::ShuttingDown`] rather than hanging.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// The in-process serving front door over an [`IndexRegistry`].
///
/// Construction spawns the dispatcher thread; [`QueryService::shutdown`]
/// (or drop) stops admitting, drains every already-admitted request, and
/// joins the thread — in-flight work is never abandoned.
pub struct QueryService {
    tx: RwLock<Option<SyncSender<Vec<Pending>>>>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    stats: Arc<ServiceStats>,
    config: ServeConfig,
}

impl QueryService {
    /// Start a service over `registry`, encoding text queries through
    /// `encoder` (pass `None` for a vector-only service), searching on
    /// `exec`'s pool. Dense and lexical modes work; hybrid rerank needs
    /// [`QueryService::start_full`].
    pub fn start(
        registry: Arc<IndexRegistry>,
        encoder: Option<BioEncoder>,
        exec: Executor,
        config: ServeConfig,
    ) -> Self {
        Self::start_full(registry, encoder, None, None, exec, config)
    }

    /// [`QueryService::start`] plus the rerank dependencies: the passage
    /// texts behind each source's doc ids and the cross-encoder adapter.
    /// Requests asking for `rerank` on a service missing either fail with
    /// [`ServeError::NoReranker`].
    pub fn start_full(
        registry: Arc<IndexRegistry>,
        encoder: Option<BioEncoder>,
        passages: Option<PassageStore>,
        reranker: Option<Reranker>,
        exec: Executor,
        config: ServeConfig,
    ) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be nonzero");
        assert!(config.max_batch > 0, "batch ceiling must be nonzero");
        let (tx, rx) = sync_channel::<Vec<Pending>>(config.queue_capacity);
        let stats = Arc::new(ServiceStats::new());
        let dispatcher = Dispatcher {
            registry,
            encoder,
            passages,
            reranker,
            exec,
            config: config.clone(),
            stats: stats.clone(),
        };
        let worker = std::thread::Builder::new()
            .name("mcqa-serve".into())
            .spawn(move || dispatcher.run(rx))
            .expect("spawn serve dispatcher");
        Self { tx: RwLock::new(Some(tx)), worker: Mutex::new(Some(worker)), stats, config }
    }

    /// The configuration this service runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Submit one request. Non-blocking: a full queue returns
    /// [`ServeError::Saturated`] immediately (the backpressure contract),
    /// a draining service returns [`ServeError::ShuttingDown`].
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, ServeError> {
        let (unit, mut tickets) = pend(vec![req]);
        match self.try_send(unit) {
            Ok(()) => Ok(tickets.pop().expect("one request, one ticket")),
            Err((err @ ServeError::Saturated { .. }, _)) => {
                self.stats.reject();
                Err(err)
            }
            Err((err, _)) => Err(err),
        }
    }

    /// Offer one admission unit to the queue, handing it back when the
    /// queue refuses it.
    #[allow(clippy::result_large_err)] // the Err carries the unit back
    fn try_send(&self, unit: Vec<Pending>) -> Result<(), (ServeError, Vec<Pending>)> {
        let guard = self.tx.read().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = guard.as_ref() else {
            return Err((ServeError::ShuttingDown, unit));
        };
        let n = unit.len() as u64;
        match tx.try_send(unit) {
            Ok(()) => {
                self.stats.admit(n);
                Ok(())
            }
            Err(TrySendError::Full(unit)) => {
                Err((ServeError::Saturated { capacity: self.config.queue_capacity }, unit))
            }
            Err(TrySendError::Disconnected(unit)) => Err((ServeError::ShuttingDown, unit)),
        }
    }

    /// Replay a whole request list through the service, returning
    /// responses index-aligned with `reqs`.
    ///
    /// This is the batch-eval path. The replay is one admission unit and
    /// one dispatch: its requests for one (source, k, mode) share a single
    /// [`VectorStore::search_batch`] however many there are, so each store
    /// is scanned once per replay. The unit is never shed: while the queue
    /// is full the caller yields and retries, so the replay waits behind
    /// other submissions rather than failing. A draining service answers
    /// every request with [`ServeError::ShuttingDown`].
    ///
    /// [`VectorStore::search_batch`]: mcqa_index::VectorStore::search_batch
    pub fn query_batch(&self, reqs: Vec<QueryRequest>) -> Vec<Result<QueryResponse, ServeError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let (mut unit, tickets) = pend(reqs);
        while let Err((ServeError::Saturated { .. }, back)) = self.try_send(unit) {
            unit = back;
            std::thread::yield_now();
        }
        // Admitted, or refused for good: a refused unit has dropped its
        // reply channels, so every ticket then reads `ShuttingDown`.
        tickets.into_iter().map(QueryTicket::wait).collect()
    }

    /// A point-in-time ledger snapshot.
    pub fn stats(&self) -> ServiceSnapshot {
        self.stats.snapshot()
    }

    /// Stop admitting, drain every admitted request, join the dispatcher,
    /// and return the final ledger. Idempotent; also runs on drop.
    ///
    /// The drain guarantee comes from the channel: dropping the sender
    /// disconnects it, but the dispatcher still receives every message
    /// that was queued before the disconnect, so each admitted request is
    /// answered exactly once before the thread exits.
    pub fn shutdown(&self) -> ServiceSnapshot {
        *self.tx.write().unwrap_or_else(PoisonError::into_inner) = None;
        if let Some(handle) = self.worker.lock().unwrap_or_else(PoisonError::into_inner).take() {
            let _ = handle.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Distinct query texts the dispatcher keeps encoded: above the
/// evaluator's distinct stems at every scale (2 308 synthetic questions at
/// scale 0.1, about ten times that at 1.0, plus the exam's 335), so a
/// replay still encodes each stem once. At 256 dimensions a full memo
/// holds ≈ 32 MB of vectors.
const ENCODE_MEMO_CAP: usize = 1 << 15;

/// The dispatcher's query-encode memo: repeated text queries (hot
/// questions, the evaluator's per-source replays of one stem) skip the
/// encoder. Keyed by the text itself, so two texts never share a vector,
/// and bounded: a text that finds the memo full starts it over. Encoding
/// is deterministic, so an eviction costs time, never an answer bit.
struct EncodeMemo {
    vectors: HashMap<String, Vec<f32>>,
    cap: usize,
}

impl EncodeMemo {
    fn new(cap: usize) -> Self {
        Self { vectors: HashMap::new(), cap }
    }

    /// `encoder`'s vector for `text`, encoded at most once while memoised.
    fn encode(&mut self, encoder: &BioEncoder, text: &str) -> Vec<f32> {
        if let Some(vector) = self.vectors.get(text) {
            return vector.clone();
        }
        let vector = encoder.encode(text);
        if self.vectors.len() >= self.cap {
            self.vectors.clear();
        }
        self.vectors.insert(text.to_string(), vector.clone());
        vector
    }
}

/// The dispatcher side: everything the service thread owns.
struct Dispatcher {
    registry: Arc<IndexRegistry>,
    encoder: Option<BioEncoder>,
    passages: Option<PassageStore>,
    reranker: Option<Reranker>,
    exec: Executor,
    config: ServeConfig,
    stats: Arc<ServiceStats>,
}

impl Dispatcher {
    fn run(self, rx: Receiver<Vec<Pending>>) {
        // Only this thread touches the memo, so it needs no lock.
        let mut encoded = EncodeMemo::new(ENCODE_MEMO_CAP);
        // Continuous batching: block for the batch's first unit (a
        // disconnected, empty queue is the drain-complete signal), take
        // further queued units while the batch holds fewer than
        // `max_batch` requests, dispatch. No timer — the next batch forms
        // in the queue while this one is in service.
        while let Ok(mut batch) = rx.recv() {
            while batch.len() < self.config.max_batch {
                let Ok(unit) = rx.try_recv() else { break };
                batch.extend(unit);
            }
            self.process(batch, &mut encoded);
        }
    }

    /// Serve one micro-batch: group by (source store, k, mode), run each
    /// group through its channel(s), and answer every envelope exactly
    /// once.
    fn process(&self, batch: Vec<Pending>, encoded: &mut EncodeMemo) {
        let dequeued = Instant::now();
        let size = batch.len();
        self.stats.record_batch(size);

        let queue_waits: Vec<f64> = batch
            .iter()
            .map(|p| dequeued.saturating_duration_since(p.admitted).as_secs_f64())
            .collect();
        for w in &queue_waits {
            self.stats.add_queue_secs(*w);
        }

        // Group member slots by (source, k, mode): one store search per
        // group keeps results bit-identical to per-query search (the
        // batched kernels guarantee it) while sharing one scan of the store.
        let mut groups: BTreeMap<(String, usize, QueryMode), Vec<usize>> = BTreeMap::new();
        for (i, p) in batch.iter().enumerate() {
            groups.entry((p.req.source.clone(), p.req.k, p.req.mode)).or_default().push(i);
        }
        let mut slots: Vec<Option<Pending>> = batch.into_iter().map(Some).collect();

        let mut ctx = GroupCtx { slots: &mut slots, queue_waits: &queue_waits, size };
        for ((source, k, mode), members) in groups {
            self.serve_group(&source, k, mode, &members, encoded, &mut ctx);
        }

        debug_assert!(slots.iter().all(Option::is_none), "every request answered");
    }

    /// Reply to one member slot (exactly once).
    fn answer(&self, slot: &mut Option<Pending>, result: Result<QueryResponse, ServeError>) {
        let p = slot.take().expect("each slot answered exactly once");
        self.stats.record_served(result.is_ok());
        // A dropped ticket is the caller's choice, not an error here.
        let _ = p.reply.send(result);
    }

    /// Serve one (source, k, mode) group through the channels its mode
    /// reads: the dense store for `Dense` / `Hybrid`, the `lex-` sibling
    /// for `Lexical` / `Hybrid`. One batched search per channel — at `k`
    /// with one channel, over-fetched to [`fuse_depth`] and fused per query
    /// with two — then an optional rescoring pass. Bit-identical to running
    /// the same direct searches (and the same fusion) offline.
    fn serve_group(
        &self,
        source: &str,
        k: usize,
        mode: QueryMode,
        members: &[usize],
        encoded: &mut EncodeMemo,
        ctx: &mut GroupCtx<'_>,
    ) {
        // Group-level defects — a channel the registry lacks, a rescoring
        // pass the service was not started for — fail every member alike.
        let owned = |names: Vec<&str>| names.into_iter().map(String::from).collect();
        let resolve = || {
            let store = match mode {
                QueryMode::Lexical => None,
                _ => Some(self.registry.get(source).ok_or_else(|| ServeError::UnknownStore {
                    name: source.into(),
                    known: owned(self.registry.names()),
                })?),
            };
            let lex = match mode {
                QueryMode::Dense => None,
                _ => {
                    let name = IndexRegistry::lexical_sibling(source);
                    match self.registry.lexical(&name) {
                        Some(lex) => Some(lex),
                        None => {
                            let known = owned(self.registry.lexical_names());
                            return Err(ServeError::UnknownStore { name, known });
                        }
                    }
                }
            };
            let rescore = match (mode, &self.reranker, &self.passages) {
                (QueryMode::Hybrid { rerank: true, .. }, Some(rr), Some(ps)) => Some((rr, ps)),
                (QueryMode::Hybrid { rerank: true, .. }, ..) => {
                    return Err(ServeError::NoReranker { source: source.into() })
                }
                _ => None,
            };
            Ok((store, lex, rescore))
        };
        let (store, lex, rescore) = match resolve() {
            Ok(channels) => channels,
            Err(err) => {
                for &i in members {
                    self.answer(&mut ctx.slots[i], Err(err.clone()));
                }
                return;
            }
        };

        // Validate + encode stage, timed per group when there is a dense
        // channel to encode for. Every member is checked in one order: the
        // words the lexical channel needs, an encoder for text bound for
        // the dense channel, the store's dimensionality.
        let t_encode = store.map(|_| Instant::now());
        let mut idxs: Vec<usize> = Vec::with_capacity(members.len());
        let mut vectors: Vec<Vec<f32>> = Vec::with_capacity(store.map_or(0, |_| members.len()));
        let mut texts: Vec<String> = Vec::with_capacity(lex.map_or(0, |_| members.len()));
        let mut failed: Vec<(usize, ServeError)> = Vec::new();
        for &i in members {
            let input = &ctx.slots[i].as_ref().expect("slot unanswered").req.input;
            let text = match (lex, input.text()) {
                (Some(_), None) => {
                    failed.push((i, ServeError::NeedsText { source: source.into() }));
                    continue;
                }
                (Some(_), text) => text,
                (None, _) => None,
            };
            if let Some(store) = store {
                let vector = match (input, &self.encoder) {
                    (QueryInput::Vector(v), _) => v.clone(),
                    (QueryInput::Text(t), Some(enc)) => encoded.encode(enc, t),
                    (QueryInput::Text(_), None) => {
                        failed.push((i, ServeError::NoEncoder { source: source.into() }));
                        continue;
                    }
                };
                if vector.len() != store.dim() {
                    let err = ServeError::DimMismatch {
                        store: source.into(),
                        expected: store.dim(),
                        got: vector.len(),
                    };
                    failed.push((i, err));
                    continue;
                }
                vectors.push(vector);
            }
            texts.extend(text.map(String::from));
            idxs.push(i);
        }
        let encode_secs = t_encode.map_or(0.0, |t| t.elapsed().as_secs_f64());
        self.stats.add_encode_secs(encode_secs);

        for (i, err) in failed {
            self.answer(&mut ctx.slots[i], Err(err));
        }
        if idxs.is_empty() {
            return;
        }

        // Search stage: one batched call per channel, fanned out on the
        // executor — the same kernel path as direct `search_batch`.
        let t_search = Instant::now();
        let mut hits = match (store, lex, mode) {
            (Some(store), Some(lex), QueryMode::Hybrid { fusion, depth, .. }) => {
                let depth = fuse_depth(k, depth);
                let dense = store.search_batch(&self.exec, &vectors, depth);
                let lexical = lex.search_batch(&self.exec, &texts, depth);
                dense.iter().zip(&lexical).map(|(d, l)| fusion.fuse(d, l, k)).collect()
            }
            (Some(store), ..) => store.search_batch(&self.exec, &vectors, k),
            (None, Some(lex), _) => lex.search_batch(&self.exec, &texts, k),
            (None, None, _) => unreachable!("every mode resolves a channel"),
        };
        if let Some((rr, ps)) = rescore {
            // Missing passages score as empty text (relevance 0) rather
            // than failing the whole request: ordering stays total.
            let prompts: Vec<(&str, Vec<&str>)> = texts
                .iter()
                .zip(&hits)
                .map(|(t, hits)| {
                    (t.as_str(), hits.iter().map(|h| ps.get(source, h.id).unwrap_or("")).collect())
                })
                .collect();
            let scores = rr.score_batch(&self.exec, &prompts);
            for (hits, ss) in hits.iter_mut().zip(scores) {
                for (h, s) in hits.iter_mut().zip(ss) {
                    h.score = s as f32;
                }
                sort_hits(hits);
            }
        }
        let search_secs = t_search.elapsed().as_secs_f64();
        self.stats.add_search_secs(search_secs);

        for (i, h) in idxs.into_iter().zip(hits) {
            let timing = QueryTiming { queue_secs: ctx.queue_waits[i], encode_secs, search_secs };
            self.answer(&mut ctx.slots[i], Ok(QueryResponse { hits: h, batch: ctx.size, timing }));
        }
    }
}

/// Per-micro-batch state shared by every group of the batch.
struct GroupCtx<'a> {
    slots: &'a mut Vec<Option<Pending>>,
    queue_waits: &'a [f64],
    size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_embed::EmbedConfig;

    #[test]
    fn encode_memo_keys_by_text_and_stays_bounded() {
        let encoder = BioEncoder::new(EmbedConfig { dim: 32, ..EmbedConfig::default() });
        let texts: Vec<String> = (0..11).map(|i| format!("tumour hypoxia dose {i}")).collect();
        let direct: Vec<Vec<u32>> =
            texts.iter().map(|t| encoder.encode(t).iter().map(|x| x.to_bits()).collect()).collect();
        let cap = 4;
        let mut memo = EncodeMemo::new(cap);
        // Three passes: the first fills and evicts, the later ones meet
        // texts both resident and evicted; every answer is the direct
        // encoding, so no two texts ever share a vector.
        for pass in 0..3 {
            for (text, want) in texts.iter().zip(&direct) {
                let got: Vec<u32> =
                    memo.encode(&encoder, text).iter().map(|x| x.to_bits()).collect();
                assert_eq!(&got, want, "pass {pass}, {text:?}");
                assert!(memo.vectors.len() <= cap, "pass {pass}: {} texts", memo.vectors.len());
                assert_eq!(memo.vectors.get(text.as_str()).map(Vec::len), Some(32));
            }
        }
        // A repeat within the cap is served from the memo.
        let mut memo = EncodeMemo::new(cap);
        memo.encode(&encoder, &texts[0]);
        memo.encode(&encoder, &texts[0]);
        assert_eq!(memo.vectors.len(), 1);
    }
}
