//! An AdaParse-style adaptive, parallel document parsing
//! engine for SPDF blobs.
//!
//! The paper parses 22,548 PDFs with AdaParse, an engine that picks a
//! parser per document (cheap fast path, expensive thorough path) based on
//! predicted output quality, and recovers what it can from damaged files.
//! This module reproduces that architecture over the SPDF container:
//!
//! * `ParseStrategy` — three parse strategies: `Fast` (no checksum
//!   validation), `Thorough` (full structural validation with precise
//!   errors), and `Salvage` (best-effort recovery of readable objects).
//! * `quality` — a text-quality scorer that decides whether a fast-path
//!   result is acceptable or the document must be re-parsed thoroughly
//!   (AdaParse's quality predictor).
//! * [`AdaptiveParser`] — the adaptive driver: per-document strategy escalation,
//!   batch parsing fanned out on the caller's `mcqa_runtime::Executor`, an
//!   error taxonomy, and aggregate statistics (`BatchStats`: strategy
//!   mix, failure census).
//! * `ParsedDocument` — the parsed-output record (metadata + section texts).

mod engine;
mod quality;
mod record;
mod strategy;

pub(crate) use engine::ParseOutcome;
pub use engine::{AdaptiveParser, ParserConfig};
pub(crate) use record::ParsedDocument;
