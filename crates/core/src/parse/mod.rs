//! An AdaParse-style adaptive, parallel document parsing
//! engine for SPDF blobs.
//!
//! The paper parses 22,548 PDFs with AdaParse, an engine that picks a
//! parser per document based on predicted output quality, and recovers
//! what it can from damaged files. Over the SPDF container that choice is
//! one decision per document:
//!
//! * [`AdaptiveParser`] — a blob the strict reader accepts (its checksum
//!   vouches for every byte) is assembled as is; a blob it refuses falls
//!   back to the salvage walk, whose text is kept only if it scores well
//!   enough. Batches fan out on the caller's `mcqa_runtime::Executor`.
//! * `quality` — the text-quality scorer (AdaParse's quality predictor),
//!   run only on salvaged text.
//! * `ParsedDocument` — the parsed-output record (section titles and
//!   texts).

mod engine;
mod quality;
mod record;

pub(crate) use engine::ParseOutcome;
pub use engine::{AdaptiveParser, ParserConfig};
pub(crate) use record::ParsedDocument;
