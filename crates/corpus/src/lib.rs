//! Synthetic scientific corpus: document model, paper synthesis, the SPDF
//! binary container, and a Semantic-Scholar-style acquisition simulator.
//!
//! The paper ingests 14,115 full-text papers and 8,433 abstracts fetched
//! from the Semantic Scholar API, parses the PDFs with AdaParse, and chunks
//! the text. Offline, we replace that pile with a *generative* corpus whose
//! ground truth is known:
//!
//! * `doc` — the logical document model (sections, paragraphs, fact
//!   mentions with exact realised sentences — the provenance oracle).
//! * [`synth`] — deterministic synthesis of full papers and abstracts from
//!   an [`mcqa_ontology::Ontology`]: topic-coherent fact mentions woven
//!   into keyword filler prose, with per-document paraphrase variation.
//! * [`compress`] — `SPZ`, a small LZ77-family codec used for SPDF text
//!   streams (real decompression failures for the parser to recover from).
//! * [`spdf`] — the SPDF binary container: magic, versioned header, typed
//!   object table (JSON metadata + compressed text streams), checksummed
//!   trailer. A writer, a strict reader (the one checksum check), and a
//!   salvage reader that keeps every object that still decodes.
//! * `acquire` — the corpus library + download API
//!   simulating Semantic Scholar (some documents are open-access full
//!   texts, some only expose abstracts), plus corruption injection to give
//!   the parser realistic failure modes.

pub(crate) mod acquire;
pub mod compress;
pub(crate) mod doc;
pub(crate) mod edit;
pub mod spdf;
pub mod synth;

pub use acquire::{AcquisitionConfig, CorpusLibrary};
pub use doc::{DocId, DocKind};
pub use edit::{EditBatch, EditOp};
pub use spdf::{SpdfError, SpdfObject, SpdfReader, SpdfWriter};
pub use synth::SynthConfig;
