//! Text processing substrate: tokenisation, sentence segmentation,
//! the term vocabulary, similarity, and semantic chunking.
//!
//! The paper's pipeline performs "semantic chunking with PubMedBERT" to
//! address SLM context limits, yielding 173,318 chunks from 22,548
//! documents. This crate supplies the text machinery that stage needs:
//!
//! * [`token`] — a deterministic word tokeniser; all context-window
//!   accounting across the workspace is in these tokens.
//! * `sentence` — abbreviation-aware sentence segmentation.
//! * `vocab` — the corpus term ↔ id vocabulary.
//! * [`similarity`] — dense cosine and token-set Jaccard measures.
//! * `chunk` — the semantic chunker: sentence-window embeddings are
//!   compared and a chunk boundary is placed where the embedding drifts
//!   (topic shift) or the token budget fills up. The embedding function is
//!   abstracted behind [`chunk::Encoder`] so the chunker works with the
//!   lexical [`chunk::TfEncoder`] (tests) or `mcqa-index`'s
//!   `embed::BioEncoder` (production, the PubMedBERT stand-in); an encoder
//!   whose feature sums are exact lets it embed every window as a
//!   difference of per-document prefix sums instead of encoding it again.

pub(crate) mod chunk;
pub(crate) mod sentence;
pub mod similarity;
pub mod stopwords;
pub mod token;
pub(crate) mod vocab;

pub use chunk::{
    compose_encode, Bridge, Chunk, Chunker, ChunkerConfig, Encoder, TfEncoder, EXACT_SUM_MASS,
};
pub use sentence::{sentences, split_sentences};
pub use token::{content_tokens, for_each_content_token, for_each_token, token_count, tokenize};
pub use vocab::{TermId, Vocabulary};
