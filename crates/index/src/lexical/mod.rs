//! The keyword retrieval channel.
//!
//! Every source database in the pipeline is dense (hash-embedding vectors
//! behind [`VectorStore`](crate::VectorStore)). This module adds the
//! lexical sibling each dense store pairs with, plus the layer that merges
//! the two channels:
//!
//! * [`LexicalIndex`] — an Okapi BM25 inverted index built on
//!   `mcqa-text`'s **shared** tokenisation
//!   ([`mcqa_text::for_each_content_token`] — there is exactly one
//!   tokeniser in this workspace) and
//!   [`mcqa_text::Vocabulary`] for the term ↔ id tables. Postings serialise with the delta-varint codec
//!   primitives of [`mcqa_util::codec`] under the `LEXI` magic tag;
//!   `add_batch` / `search_batch` fan out on the shared
//!   [`mcqa_runtime::Executor`] and are bit-identical to their serial
//!   counterparts at any worker count.
//! * [`fusion`] — reciprocal-rank fusion over dense + lexical candidate
//!   lists, ranked through the one shared
//!   [`mcqa_util::cmp_hits`] order so ties cannot break differently from
//!   the index families.
//!
//! Hits are [`mcqa_util::SearchResult`]s — the same type the vector
//! stores return — so fused lists are drop-in replacements anywhere a
//! dense result list flows today.

mod bm25;
pub mod fusion;

pub use bm25::{Bm25Params, LexicalIndex};
pub use fusion::{fuse_depth, Fusion};
