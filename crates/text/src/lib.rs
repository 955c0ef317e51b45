//! Text processing substrate: tokenisation, sentence segmentation,
//! vocabulary statistics, similarity, and semantic chunking.
//!
//! The paper's pipeline performs "semantic chunking with PubMedBERT" to
//! address SLM context limits, yielding 173,318 chunks from 22,548
//! documents. This crate supplies the text machinery that stage needs:
//!
//! * [`token`] — a deterministic word tokeniser; all context-window
//!   accounting across the workspace is in these tokens.
//! * [`sentence`] — abbreviation-aware sentence segmentation.
//! * [`vocab`] — corpus vocabulary with document frequencies.
//! * [`similarity`] — dense cosine and token-set Jaccard measures.
//! * [`chunk`] — the semantic chunker: sentence-window embeddings are
//!   compared and a chunk boundary is placed where the embedding drifts
//!   (topic shift) or the token budget fills up. The embedding function is
//!   abstracted behind [`chunk::Encoder`] so the chunker works with the
//!   lexical [`chunk::TfEncoder`] (tests) or `mcqa-embed`'s `BioEncoder`
//!   (production, the PubMedBERT stand-in); an encoder whose feature sums
//!   are exact lets it embed every window as a difference of per-document
//!   prefix sums instead of encoding it again.

pub mod chunk;
pub mod sentence;
pub mod similarity;
pub mod stopwords;
pub mod token;
pub mod vocab;

pub use chunk::{
    compose_encode, Bridge, Chunk, Chunker, ChunkerConfig, Encoder, TfEncoder, EXACT_SUM_MASS,
    WEIGHT_QUANTUM,
};
pub use sentence::{sentences, split_sentences};
pub use token::{content_tokens, for_each_content_token, for_each_token, token_count, tokenize};
pub use vocab::{TermId, Vocabulary};
