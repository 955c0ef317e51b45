//! `mcqa-core` — the paper's primary contribution: a scalable, modular
//! pipeline for automated MCQA benchmark generation from a scientific
//! corpus.
//!
//! End-to-end stages (paper Figure 1):
//!
//! ```text
//! acquire ─→ parse ─→ chunk ─→ embed+index ─→ generate ─→ judge/filter
//!                                      │                        │
//!                                      ▼                        ▼
//!                               chunk FAISS-like DB      accepted MCQs
//!                                                              │
//!                                              trace distillation (×3 modes)
//!                                                              │
//!                                               three trace vector DBs
//! ```
//!
//! * [`config`] — one config object for the whole pipeline with
//!   paper-scale defaults and a `--scale` knob.
//! * [`chunks`] — chunk records with provenance (chunk id → document →
//!   facts stated inside, via the corpus oracle).
//! * [`ingest`] — content-addressed change detection between two runs
//!   (document hash table, table diff, the ingest census).
//! * [`parse`] — the AdaParse-style adaptive parser the `parse` stage
//!   runs over every downloaded blob.
//! * [`schema`] — the Figure-2 question record and Figure-3 trace record
//!   JSON schemas, serialisable to JSONL artifacts.
//! * [`pipeline`] — the orchestrated workflow over `mcqa-runtime`, ending
//!   in a [`pipeline::PipelineOutput`] that the evaluation crate consumes.

pub mod chunks;
pub mod config;
pub mod ingest;
pub mod parse;
pub mod pipeline;
pub mod schema;

pub use chunks::ChunkRecord;
pub use config::PipelineConfig;
pub use ingest::{ChangeSet, ContentHash, IngestCensus, IngestManifest};
pub use pipeline::{Pipeline, PipelineOutput, CHUNKS_STORE};
pub use schema::{QuestionRecord, TraceRecord};
