//! The one serving API surface: a typed request/response envelope.
//!
//! One envelope type carries every retrieval call — batch eval replay and
//! online serving alike — so there is exactly one code path into the
//! vector stores. A request names its source database, carries the query
//! as text (encoded service-side through the dispatcher's encode memo)
//! or a pre-encoded vector, the retrieval depth `k`, and the retrieval
//! mode.

use mcqa_index::lexical::Fusion;
use mcqa_index::SearchResult;

/// The query payload: raw text (the service encodes it) or a pre-encoded
/// embedding (the contract of a service started without an encoder).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryInput {
    /// Encode server-side, memoised per text by the dispatcher.
    Text(String),
    /// Already encoded; must match the store's dimensionality. Dense-only:
    /// the lexical channel needs the query *text*, so [`QueryMode::Lexical`]
    /// and [`QueryMode::Hybrid`] requests fail with
    /// [`ServeError::NeedsText`] on this variant.
    Vector(Vec<f32>),
}

impl QueryInput {
    /// The query text, when this input carries one.
    pub fn text(&self) -> Option<&str> {
        match self {
            QueryInput::Text(t) => Some(t),
            QueryInput::Vector(_) => None,
        }
    }
}

/// Which retrieval channel(s) a request runs through. Totally ordered, so
/// the service groups a batch by it directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryMode {
    /// Vector search against the dense store (the default).
    #[default]
    Dense,
    /// BM25 search against the source's lexical sibling
    /// (`lex-<source>` in the registry).
    Lexical,
    /// Both channels over-fetched to [`mcqa_index::lexical::fuse_depth`] and
    /// fused to top-k.
    Hybrid {
        /// How the two candidate lists merge.
        fusion: Fusion,
        /// Ask for a rescoring pass over the fused top-k. No service has a
        /// reranker, so `true` is refused with [`ServeError::NoReranker`].
        rerank: bool,
        /// Per-channel over-fetch multiplier before fusion; `0` selects
        /// `mcqa_index::lexical::DEFAULT_FUSE_DEPTH`.
        depth: usize,
    },
}

impl QueryMode {
    /// A stable label for logs and bench output.
    pub fn label(&self) -> String {
        match self {
            QueryMode::Dense => "dense".into(),
            QueryMode::Lexical => "lexical".into(),
            QueryMode::Hybrid { fusion, rerank, .. } => {
                format!("hybrid-{}{}", fusion.label(), if *rerank { "+rr" } else { "" })
            }
        }
    }
}

/// One retrieval request against a named source database.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Registry name of the source database (`chunks`, `traces-<mode>`).
    /// Lexical and hybrid requests still name the *dense* source; the
    /// service routes to its `lex-` sibling itself — there is no separate
    /// lexical address space on the wire.
    pub source: String,
    /// The query itself.
    pub input: QueryInput,
    /// Retrieval depth: number of hits to return.
    pub k: usize,
    /// Which retrieval channel(s) to run.
    pub mode: QueryMode,
}

impl QueryRequest {
    /// A text query against `source`.
    pub fn text(source: impl Into<String>, text: impl Into<String>, k: usize) -> Self {
        Self {
            source: source.into(),
            input: QueryInput::Text(text.into()),
            k,
            mode: QueryMode::Dense,
        }
    }

    /// A pre-encoded query against `source`.
    pub fn vector(source: impl Into<String>, vector: Vec<f32>, k: usize) -> Self {
        Self { source: source.into(), input: QueryInput::Vector(vector), k, mode: QueryMode::Dense }
    }

    /// Set the retrieval mode (default [`QueryMode::Dense`]).
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Per-stage latency accounting for one served request.
///
/// `queue_secs` is this request's own wait between admission and the
/// dispatcher picking it up; `encode_secs` and `search_secs` are the wall
/// time of the micro-batch stages the request rode in (shared by every
/// request in its batch group — the amortisation is the point).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryTiming {
    /// Admission → dequeue wait (this request's own).
    pub queue_secs: f64,
    /// Text-encoding wall time of the request's batch group.
    pub encode_secs: f64,
    /// Store-search wall time of the request's batch group.
    pub search_secs: f64,
}

/// One served retrieval response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Top-k hits, best first — bit-identical to a direct
    /// [`mcqa_index::VectorStore::search`] on the same store.
    pub hits: Vec<SearchResult>,
    /// Size of the micro-batch this request was coalesced into.
    pub batch: usize,
    /// Per-stage latency accounting.
    pub timing: QueryTiming,
}

/// Everything that can go wrong between submission and response.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded admission queue is full: the defined backpressure
    /// signal. Callers shed load or retry; the service never blocks them.
    Saturated {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The service is draining and no longer admits requests.
    ShuttingDown,
    /// The named source database is not in the registry.
    UnknownStore {
        /// The requested name.
        name: String,
        /// The names that are registered.
        known: Vec<String>,
    },
    /// A pre-encoded vector's length does not match the store.
    DimMismatch {
        /// The store that rejected the query.
        store: String,
        /// The store's dimensionality.
        expected: usize,
        /// The query vector's length.
        got: usize,
    },
    /// A text query reached a service started without an encoder.
    NoEncoder {
        /// The source the query named.
        source: String,
    },
    /// A lexical or hybrid request arrived with a vector-only input: BM25
    /// scores words, so those modes need the query text on the envelope.
    NeedsText {
        /// The source the query named.
        source: String,
    },
    /// A hybrid request asked for `rerank`. No service has a reranker, so
    /// every such request is refused; the variant goes with
    /// [`QueryMode::Hybrid`]'s `rerank` field.
    NoReranker {
        /// The source the query named.
        source: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Saturated { capacity } => {
                write!(f, "admission queue saturated (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::UnknownStore { name, known } => {
                write!(f, "unknown source store '{name}' (have: {known:?})")
            }
            ServeError::DimMismatch { store, expected, got } => {
                write!(f, "query dim {got} != store '{store}' dim {expected}")
            }
            ServeError::NoEncoder { source } => {
                write!(f, "text query for '{source}' but the service has no encoder")
            }
            ServeError::NeedsText { source } => {
                write!(f, "lexical/hybrid query for '{source}' needs text, got a vector-only input")
            }
            ServeError::NoReranker { source } => {
                write!(f, "rerank requested for '{source}' but the service has no reranker")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = QueryRequest::text("chunks", "dose rate", 5);
        assert_eq!(r.source, "chunks");
        assert_eq!(r.input, QueryInput::Text("dose rate".into()));
        assert_eq!(r.k, 5);

        let r = QueryRequest::vector("traces-focused", vec![1.0, 0.0], 3);
        assert!(matches!(r.input, QueryInput::Vector(_)));
        assert_eq!(r.mode, QueryMode::Dense);
        assert_eq!(r.input.text(), None);

        let r = QueryRequest::text("chunks", "dose rate", 4).with_mode(QueryMode::Hybrid {
            fusion: Fusion,
            rerank: true,
            depth: 0,
        });
        assert_eq!(r.input.text(), Some("dose rate"));
        assert_eq!(r.mode.label(), "hybrid-rrf60+rr");
        assert_eq!(QueryMode::Lexical.label(), "lexical");
        assert_eq!(QueryMode::default().label(), "dense");
    }

    #[test]
    fn errors_render_actionably() {
        let e = ServeError::Saturated { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        let e = ServeError::UnknownStore { name: "x".into(), known: vec!["chunks".into()] };
        assert!(e.to_string().contains("chunks"));
        let e = ServeError::DimMismatch { store: "chunks".into(), expected: 384, got: 4 };
        assert!(e.to_string().contains("384"));
    }
}
