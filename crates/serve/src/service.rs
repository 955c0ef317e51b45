//! The query service: bounded admission → continuous-batching dispatcher
//! → one reply per admission unit.
//!
//! ```text
//!  submit      ── 1 request ──┐
//!                             ├─try_send─▶ [bounded queue] ──▶ dispatcher thread
//!  query_batch ── n requests ─┘  (full: submit       │  block for one unit, then
//!     ▲            as one unit    rejects, a replay  │  take queued units while it
//!     │                           yields, retries)   │  holds < max_batch requests;
//!     └──── oneshot ◀── one reply per unit, ◀────────┘  group by (source, k, mode):
//!                       once its last member is         encode misses → search_batch
//!                       answered
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
//! `max_batch` of them, and its bookkeeping (one reply channel, one queue
//! timestamp) is paid per unit, not per request. Results are bit-identical
//! to direct per-query searches — batching changes the schedule, never the
//! answer.
//!
//! [`VectorStore::search_batch`]: mcqa_index::VectorStore::search_batch

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use mcqa_index::embed::BioEncoder;
use mcqa_index::lexical::fuse_depth;
use mcqa_index::IndexRegistry;
use mcqa_runtime::Executor;

use crate::envelope::{
    QueryInput, QueryMode, QueryRequest, QueryResponse, QueryTiming, ServeError,
};
use crate::stats::{ServiceSnapshot, ServiceStats};

/// Service tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission queue capacity, in submissions (a replay is one); a
    /// [`QueryService::submit`] beyond it fails with
    /// [`ServeError::Saturated`] instead of blocking.
    pub queue_capacity: usize,
    /// Coalescing ceiling: a dispatch takes further queued submissions
    /// only while it holds fewer than this many requests. `1` disables
    /// coalescing (one submission at a time). A replay is one submission
    /// with one reply, so it is never split, and it may carry more
    /// requests than this.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { queue_capacity: 256, max_batch: 64 }
    }
}

/// Every member's result, index-aligned with the unit's requests.
type Replies = Vec<Result<QueryResponse, ServeError>>;

/// One admission unit: the requests of one [`QueryService::submit`] (a
/// unit of one) or of one [`QueryService::query_batch`] (the whole
/// replay), their shared submission timestamp (a replay's wait for queue
/// space counts as queueing), and the unit's one reply channel.
struct Unit {
    reqs: Vec<QueryRequest>,
    admitted: Instant,
    reply: SyncSender<Replies>,
}

impl Unit {
    /// A unit over `reqs`, and the receiver its reply arrives on.
    fn new(reqs: Vec<QueryRequest>) -> (Self, Receiver<Replies>) {
        let (reply, rx) = sync_channel(1);
        (Self { reqs, admitted: Instant::now(), reply }, rx)
    }
}

/// A claim on a submitted request's eventual response.
pub struct QueryTicket {
    rx: Receiver<Replies>,
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
        self.rx
            .recv()
            .ok()
            .and_then(|mut replies| replies.pop())
            .unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// The in-process serving front door over an [`IndexRegistry`].
///
/// Construction spawns the dispatcher thread; [`QueryService::shutdown`]
/// (or drop) stops admitting, drains every already-admitted request, and
/// joins the thread — in-flight work is never abandoned.
pub struct QueryService {
    tx: RwLock<Option<SyncSender<Unit>>>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    stats: Arc<ServiceStats>,
    config: ServeConfig,
}

impl QueryService {
    /// Start a service over `registry`, encoding text queries through
    /// `encoder` (pass `None` for a vector-only service), searching on
    /// `exec`'s pool. Dense, lexical and hybrid modes work; a hybrid
    /// request asking for `rerank` fails with [`ServeError::NoReranker`].
    pub fn start(
        registry: Arc<IndexRegistry>,
        encoder: Option<BioEncoder>,
        exec: Executor,
        config: ServeConfig,
    ) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be nonzero");
        assert!(config.max_batch > 0, "batch ceiling must be nonzero");
        let (tx, rx) = sync_channel::<Unit>(config.queue_capacity);
        let stats = Arc::new(ServiceStats::new());
        let dispatcher =
            Dispatcher { registry, encoder, exec, config: config.clone(), stats: stats.clone() };
        let worker = std::thread::Builder::new()
            .name("mcqa-serve".into())
            .spawn(move || dispatcher.run(rx))
            .expect("spawn serve dispatcher");
        Self { tx: RwLock::new(Some(tx)), worker: Mutex::new(Some(worker)), stats, config }
    }

    /// Submit one request. Non-blocking: a full queue returns
    /// [`ServeError::Saturated`] immediately (the backpressure contract),
    /// a draining service returns [`ServeError::ShuttingDown`].
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, ServeError> {
        let (unit, rx) = Unit::new(vec![req]);
        match self.try_send(unit) {
            Ok(()) => Ok(QueryTicket { rx }),
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
    fn try_send(&self, unit: Unit) -> Result<(), (ServeError, Unit)> {
        let guard = self.tx.read().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = guard.as_ref() else {
            return Err((ServeError::ShuttingDown, unit));
        };
        let n = unit.reqs.len() as u64;
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
    /// This is the batch-eval path. The replay is one admission unit, one
    /// dispatch and one reply, sent once its last request is answered: its
    /// requests for one (source, k, mode) share a single
    /// [`VectorStore::search_batch`] however many there are, so each store
    /// is scanned once per replay, and the distinct texts no earlier
    /// request encoded are encoded in one batch on the service's executor.
    /// A replay may mix sources, modes and depths. The unit is never shed:
    /// while the queue is full the caller yields and retries, so the replay
    /// waits behind other submissions rather than failing. A draining (or
    /// dead) service answers every request with
    /// [`ServeError::ShuttingDown`].
    ///
    /// [`VectorStore::search_batch`]: mcqa_index::VectorStore::search_batch
    pub fn query_batch(&self, reqs: Vec<QueryRequest>) -> Vec<Result<QueryResponse, ServeError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let n = reqs.len();
        let (mut unit, rx) = Unit::new(reqs);
        while let Err((ServeError::Saturated { .. }, back)) = self.try_send(unit) {
            unit = back;
            std::thread::yield_now();
        }
        // Admitted, or refused for good: a refused unit (or one a dead
        // dispatcher dropped) has dropped its reply channel, so every
        // request then reads `ShuttingDown`.
        rx.recv().unwrap_or_else(|_| vec![Err(ServeError::ShuttingDown); n])
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
/// questions, the evaluator's four sources per stem) skip the encoder.
/// Keyed by the text itself, so two texts never share a vector, and
/// bounded: a text that finds the memo full starts it over. Encoding is
/// deterministic, so an eviction costs time, never an answer bit.
struct EncodeMemo {
    vectors: HashMap<String, Vec<f32>>,
    cap: usize,
}

impl EncodeMemo {
    fn new(cap: usize) -> Self {
        Self { vectors: HashMap::new(), cap }
    }

    /// `encoder`'s vectors for `texts`, index-aligned. The distinct texts
    /// the memo lacks are encoded once each, as one `encode_batch` on
    /// `exec`. Every answer comes from this call's own
    /// encodings or from the memo as it stood before them, so the misses
    /// may overrun the cap without evicting a vector this call returns.
    fn encode_all(
        &mut self,
        encoder: &BioEncoder,
        exec: &Executor,
        texts: &[&str],
    ) -> Vec<Vec<f32>> {
        let mut fresh: HashMap<&str, usize> = HashMap::new();
        let mut misses: Vec<&str> = Vec::new();
        for &text in texts {
            if !self.vectors.contains_key(text) && !fresh.contains_key(text) {
                fresh.insert(text, misses.len());
                misses.push(text);
            }
        }
        let encoded = encoder.encode_batch(exec, &misses);
        let vectors = texts
            .iter()
            .map(|text| match fresh.get(text) {
                Some(&i) => encoded[i].clone(),
                None => self.vectors[*text].clone(),
            })
            .collect();
        for (text, vector) in misses.into_iter().zip(encoded) {
            if self.vectors.len() >= self.cap {
                self.vectors.clear();
            }
            self.vectors.insert(text.to_string(), vector);
        }
        vectors
    }
}

/// The dispatcher side: everything the service thread owns.
struct Dispatcher {
    registry: Arc<IndexRegistry>,
    encoder: Option<BioEncoder>,
    exec: Executor,
    config: ServeConfig,
    stats: Arc<ServiceStats>,
}

/// A request's address in its dispatch: (unit, position in the unit).
type Member = (usize, usize);

/// One unit's replies as they are answered; the unit's reply leaves when
/// its last member is answered.
struct Outbox {
    replies: Vec<Option<Result<QueryResponse, ServeError>>>,
    pending: usize,
    reply: SyncSender<Replies>,
    queue_secs: f64,
}

impl Outbox {
    fn answer(&mut self, at: usize, result: Result<QueryResponse, ServeError>) {
        let slot = &mut self.replies[at];
        assert!(slot.is_none(), "each request answered exactly once");
        *slot = Some(result);
        self.pending -= 1;
        if self.pending == 0 {
            let replies = std::mem::take(&mut self.replies);
            // A dropped ticket or replay is the caller's choice, not an
            // error here.
            let _ = self.reply.send(replies.into_iter().map(|r| r.expect("answered")).collect());
        }
    }
}

/// Per-dispatch state shared by every group of the dispatch: the units'
/// requests, read in place, and their outboxes.
struct Dispatch<'a> {
    reqs: &'a [Vec<QueryRequest>],
    outboxes: Vec<Outbox>,
    size: usize,
}

impl<'a> Dispatch<'a> {
    fn req(&self, (u, at): Member) -> &'a QueryRequest {
        &self.reqs[u][at]
    }
}

impl Dispatcher {
    fn run(self, rx: Receiver<Unit>) {
        // Only this thread touches the memo, so it needs no lock.
        let mut encoded = EncodeMemo::new(ENCODE_MEMO_CAP);
        // Continuous batching: block for the batch's first unit (a
        // disconnected, empty queue is the drain-complete signal), take
        // further queued units while the batch holds fewer than
        // `max_batch` requests, dispatch. No timer — the next batch forms
        // in the queue while this one is in service.
        while let Ok(first) = rx.recv() {
            let mut size = first.reqs.len();
            let mut batch = vec![first];
            while size < self.config.max_batch {
                let Ok(unit) = rx.try_recv() else { break };
                size += unit.reqs.len();
                batch.push(unit);
            }
            self.process(batch, size, &mut encoded);
        }
    }

    /// Serve one micro-batch: group by (source store, k, mode), run each
    /// group through its channel(s), and answer every request exactly
    /// once. If a group panics, the outboxes still waiting are dropped
    /// with the dispatcher, and every caller behind them reads
    /// [`ServeError::ShuttingDown`].
    fn process(&self, batch: Vec<Unit>, size: usize, encoded: &mut EncodeMemo) {
        let dequeued = Instant::now();
        self.stats.record_batch(size);

        let (reqs, outboxes): (Vec<_>, Vec<_>) = batch
            .into_iter()
            .map(|Unit { reqs, admitted, reply }| {
                let queue_secs = dequeued.saturating_duration_since(admitted).as_secs_f64();
                self.stats.add_queue_secs(queue_secs * reqs.len() as f64);
                let outbox = Outbox {
                    replies: (0..reqs.len()).map(|_| None).collect(),
                    pending: reqs.len(),
                    reply,
                    queue_secs,
                };
                (reqs, outbox)
            })
            .unzip();

        // Group members by (source, k, mode): one store search per group
        // keeps results bit-identical to per-query search (the batched
        // kernels guarantee it) while sharing one scan of the store.
        let mut groups: BTreeMap<(&str, usize, QueryMode), Vec<Member>> = BTreeMap::new();
        for (u, unit) in reqs.iter().enumerate() {
            for (at, req) in unit.iter().enumerate() {
                groups.entry((req.source.as_str(), req.k, req.mode)).or_default().push((u, at));
            }
        }

        let mut dispatch = Dispatch { reqs: &reqs, outboxes, size };
        for ((source, k, mode), members) in groups {
            self.serve_group(source, k, mode, &members, encoded, &mut dispatch);
        }

        debug_assert!(dispatch.outboxes.iter().all(|o| o.pending == 0), "every request answered");
    }

    /// Reply to one member (exactly once).
    fn answer(
        &self,
        dispatch: &mut Dispatch<'_>,
        (u, at): Member,
        result: Result<QueryResponse, ServeError>,
    ) {
        self.stats.record_served(result.is_ok());
        dispatch.outboxes[u].answer(at, result);
    }

    /// Serve one (source, k, mode) group through the channels its mode
    /// reads: the dense store for `Dense` / `Hybrid`, the `lex-` sibling
    /// for `Lexical` / `Hybrid`. One batched search per channel — at `k`
    /// with one channel, over-fetched to [`fuse_depth`] and fused per query
    /// with two. Bit-identical to running the same direct searches (and the
    /// same fusion) offline.
    fn serve_group(
        &self,
        source: &str,
        k: usize,
        mode: QueryMode,
        members: &[Member],
        encoded: &mut EncodeMemo,
        dispatch: &mut Dispatch<'_>,
    ) {
        // Group-level defects — a channel the registry lacks, a rescoring
        // pass no service runs — fail every member alike.
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
            if let QueryMode::Hybrid { rerank: true, .. } = mode {
                return Err(ServeError::NoReranker { source: source.into() });
            }
            Ok((store, lex))
        };
        let (store, lex) = match resolve() {
            Ok(channels) => channels,
            Err(err) => {
                for &m in members {
                    self.answer(dispatch, m, Err(err.clone()));
                }
                return;
            }
        };

        // Validate + encode stage, timed per group when there is a dense
        // channel to encode for. Every member is checked in one order: the
        // words the lexical channel needs, an encoder for text bound for
        // the dense channel, the store's dimensionality.
        let t_encode = store.map(|_| Instant::now());
        let mut failed: Vec<(Member, ServeError)> = Vec::new();
        let mut valid: Vec<Member> = Vec::with_capacity(members.len());
        for &m in members {
            let input = &dispatch.req(m).input;
            if lex.is_some() && input.text().is_none() {
                failed.push((m, ServeError::NeedsText { source: source.into() }));
            } else if store.is_some() && input.text().is_some() && self.encoder.is_none() {
                failed.push((m, ServeError::NoEncoder { source: source.into() }));
            } else {
                valid.push(m);
            }
        }
        // The group's text queries, encoded together: the distinct texts
        // the memo lacks in one batch, the rest from the memo.
        let mut encodings = match (store, &self.encoder) {
            (Some(_), Some(enc)) => {
                let texts: Vec<&str> =
                    valid.iter().filter_map(|&m| dispatch.req(m).input.text()).collect();
                encoded.encode_all(enc, &self.exec, &texts)
            }
            _ => Vec::new(),
        }
        .into_iter();
        let mut idxs: Vec<Member> = Vec::with_capacity(valid.len());
        let mut vectors: Vec<Vec<f32>> = Vec::with_capacity(store.map_or(0, |_| valid.len()));
        let mut texts: Vec<&str> = Vec::with_capacity(lex.map_or(0, |_| valid.len()));
        for m in valid {
            let input = &dispatch.req(m).input;
            if let Some(store) = store {
                let vector = match input {
                    QueryInput::Vector(v) => v.clone(),
                    QueryInput::Text(_) => encodings.next().expect("one encoding per text"),
                };
                if vector.len() != store.dim() {
                    let err = ServeError::DimMismatch {
                        store: source.into(),
                        expected: store.dim(),
                        got: vector.len(),
                    };
                    failed.push((m, err));
                    continue;
                }
                vectors.push(vector);
            }
            if lex.is_some() {
                texts.extend(input.text());
            }
            idxs.push(m);
        }
        let encode_secs = t_encode.map_or(0.0, |t| t.elapsed().as_secs_f64());
        self.stats.add_encode_secs(encode_secs);

        for (m, err) in failed {
            self.answer(dispatch, m, Err(err));
        }
        if idxs.is_empty() {
            return;
        }

        // Search stage: one batched call per channel, fanned out on the
        // executor — the same kernel path as direct `search_batch`.
        let t_search = Instant::now();
        let hits: Vec<_> = match (store, lex, mode) {
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
        let search_secs = t_search.elapsed().as_secs_f64();
        self.stats.add_search_secs(search_secs);

        for (m, h) in idxs.into_iter().zip(hits) {
            let queue_secs = dispatch.outboxes[m.0].queue_secs;
            let timing = QueryTiming { queue_secs, encode_secs, search_secs };
            let batch = dispatch.size;
            self.answer(dispatch, m, Ok(QueryResponse { hits: h, batch, timing }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_index::embed::EmbedConfig;

    #[test]
    fn encode_memo_keys_by_text_and_stays_bounded() {
        let encoder = BioEncoder::new(EmbedConfig { dim: 32, ..EmbedConfig::default() });
        let exec = Executor::new(2);
        let texts: Vec<String> = (0..11).map(|i| format!("tumour hypoxia dose {i}")).collect();
        let direct: Vec<Vec<u32>> =
            texts.iter().map(|t| encoder.encode(t).iter().map(|x| x.to_bits()).collect()).collect();
        let bits = |vectors: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            vectors.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let cap = 4;
        let mut memo = EncodeMemo::new(cap);
        // Three passes of one text at a time: the first fills and evicts,
        // the later ones meet texts both resident and evicted; every answer
        // is the direct encoding, so no two texts ever share a vector.
        for pass in 0..3 {
            for (text, want) in texts.iter().zip(&direct) {
                let got = bits(memo.encode_all(&encoder, &exec, &[text.as_str()]));
                assert_eq!(&got[0], want, "pass {pass}, {text:?}");
                assert!(memo.vectors.len() <= cap, "pass {pass}: {} texts", memo.vectors.len());
                assert_eq!(memo.vectors.get(text.as_str()).map(Vec::len), Some(32));
            }
        }
        // One group with more misses than the cap, each text twice and
        // some already resident: every answer is still the direct encoding,
        // and the memo stays within its cap.
        let group: Vec<&str> = texts.iter().chain(&texts).map(String::as_str).collect();
        let want: Vec<Vec<u32>> = direct.iter().chain(&direct).cloned().collect();
        for pass in 0..2 {
            assert_eq!(bits(memo.encode_all(&encoder, &exec, &group)), want, "pass {pass}");
            assert!(memo.vectors.len() <= cap, "pass {pass}: {} texts", memo.vectors.len());
        }
        // A repeat within the cap is served from the memo.
        let mut memo = EncodeMemo::new(cap);
        memo.encode_all(&encoder, &exec, &[texts[0].as_str(), texts[0].as_str()]);
        memo.encode_all(&encoder, &exec, &[texts[0].as_str()]);
        assert_eq!(memo.vectors.len(), 1);
    }
}
