//! `mcqa-serve` — the in-process serving layer.
//!
//! The batch pipeline builds the retrieval databases; this crate is the
//! query-time front door over them. No network, no serialisation — just a
//! bounded admission queue in front of a dispatcher thread that takes
//! whatever is queued each time it comes free (continuous batching: no
//! timer, batch size tracks load) and drives it through the same
//! [`VectorStore::search_batch`] kernels the evaluator uses, so a batch
//! shares one scan of each store like batch eval does while every
//! response stays **bit-identical** to a direct per-query search.
//!
//! Three pieces:
//!
//! * [`envelope`] — the one API surface: [`QueryRequest`] /
//!   [`QueryResponse`] (with per-stage [`QueryTiming`]) and the
//!   [`ServeError`] taxonomy, mirroring the model layer's
//!   `ModelRequest`/`ModelResponse` redesign.
//! * [`service`] — [`QueryService`]: non-blocking admission with defined
//!   backpressure ([`ServeError::Saturated`]), deadline-free dispatch that
//!   coalesces queued submissions up to [`ServeConfig::max_batch`]
//!   requests, a replay ([`QueryService::query_batch`]) admitted and
//!   dispatched as one unit, per-request oneshot replies
//!   ([`QueryTicket`]), and graceful shutdown that drains every admitted
//!   request exactly once.
//! * [`stats`] — the [`ServiceStats`] ledger: admitted/rejected/served
//!   counters, a batch-size histogram and per-stage (queue/encode/search)
//!   time accounting.
//!
//! [`VectorStore::search_batch`]: mcqa_index::VectorStore::search_batch

pub mod envelope;
pub mod service;
pub mod stats;

pub use envelope::{QueryInput, QueryMode, QueryRequest, QueryResponse, QueryTiming, ServeError};
pub use service::{PassageStore, QueryService, QueryTicket, ServeConfig};
pub use stats::{ServiceSnapshot, ServiceStats, BATCH_BUCKETS};
