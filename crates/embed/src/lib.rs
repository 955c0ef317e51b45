//! `mcqa-embed` — a deterministic semantic text encoder standing in for
//! PubMedBERT, plus FP16 embedding storage.
//!
//! The paper encodes 173,318 chunks with PubMedBERT into FP16 embeddings
//! (747 MB) for FAISS retrieval. Offline we cannot run a 330M-parameter
//! transformer, but the pipeline only relies on one property of the
//! encoder: *lexical-semantic locality* — text about the same entities and
//! processes lands nearby, unrelated text lands near-orthogonal. A signed
//! feature-hashing projection of word unigrams, word bigrams, and character
//! trigrams has exactly that property (it is a Johnson–Lindenstrauss
//! sketch of a sparse n-gram vector), is deterministic, and needs no
//! weights.
//!
//! * [`encoder`] — [`BioEncoder`]: the projection encoder. Implements
//!   [`mcqa_text::Encoder`], so it plugs straight into the semantic
//!   chunker.
//! * [`matrix`] — [`EmbeddingMatrix`]: row-major embedding storage in
//!   `f32` or compressed FP16 (the paper's choice), with byte
//!   serialisation.
//! * [`panels`] — [`PanelCache`]: resident decoded-F32 panels under a
//!   bounded byte budget, so a batch-of-1 search skips the F16 decode.

pub mod encoder;
pub mod matrix;
pub mod panels;

pub use encoder::{BioEncoder, EmbedConfig};
pub use matrix::{EmbeddingMatrix, Precision};
pub use panels::{PanelBudget, PanelCache};
