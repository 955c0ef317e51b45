//! Semantic chunking: embedding-drift boundary detection under a token
//! budget.
//!
//! This mirrors the paper's "semantic chunking with PubMedBERT": sentences
//! are grouped while consecutive sentence-window embeddings stay similar; a
//! boundary is emitted where similarity drops (topic shift) or where the
//! token budget would overflow. The encoder is pluggable via [`Encoder`].

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::sentence::split_sentences;
use crate::similarity::dense_cosine;
use crate::token::{for_each_content_token, token_count};

/// Pre-hashed accumulator postings for one sentence, composable into
/// multi-sentence window encodings without re-tokenising or re-hashing.
///
/// The contract (property-tested against `encode`): replaying every
/// sentence's postings in order into a zero accumulator — inserting the
/// encoder's [`Encoder::bridge_postings`] between each adjacent pair of
/// content-bearing sentences, right after the head postings of the later
/// sentence — then normalising, is **bit-identical** to encoding the
/// space-joined sentence text directly. Identity (not just approximation)
/// is what lets the chunker memoise per-sentence work without moving a
/// single chunk boundary.
#[derive(Debug, Clone)]
pub struct SentencePostings {
    /// `(accumulator index, signed weight)` pairs in emission order.
    pub postings: Vec<(u32, f32)>,
    /// How many leading postings belong to the first content token (its
    /// unigram + subword features). A cross-sentence bridge feature is
    /// replayed immediately after them — exactly where the joined encode
    /// would emit it.
    pub head_len: usize,
    /// The first non-stopword token, if any.
    pub first_content: Option<String>,
    /// The last non-stopword token, if any (carried across stopword-only
    /// sentences, as a running encode's bigram state would be).
    pub last_content: Option<String>,
}

/// Anything that can embed a piece of text into a dense vector.
///
/// `mcqa-embed`'s `BioEncoder` (the PubMedBERT stand-in) implements this;
/// tests use the lexical [`TfEncoder`].
///
/// Encoders may additionally implement the compositional API
/// ([`Encoder::sentence_postings`] / [`Encoder::bridge_postings`]): the
/// chunker then hashes each sentence once per document and replays cheap
/// `+=` postings per candidate boundary instead of re-encoding every
/// window. The default implementation opts out (`None`), which keeps the
/// trait trivially implementable.
pub trait Encoder {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// Encode one text into a dense `dim()`-length vector.
    fn encode(&self, text: &str) -> Vec<f32>;
    /// Pre-hash one sentence for compositional window encoding, or `None`
    /// when the encoder does not support it.
    fn sentence_postings(&self, text: &str) -> Option<SentencePostings> {
        let _ = text;
        None
    }
    /// Postings for features spanning a sentence boundary (e.g. the word
    /// bigram joining `prev`'s last content token to `next`'s first).
    fn bridge_postings(&self, prev: &str, next: &str) -> Vec<(u32, f32)> {
        let _ = (prev, next);
        Vec::new()
    }
}

/// A trivial lexical encoder: hashed bag-of-words into a small dense
/// vector. Adequate for exercising the chunker without `mcqa-embed`.
#[derive(Debug, Clone)]
pub struct TfEncoder {
    dim: usize,
}

impl TfEncoder {
    /// Create with the given dimensionality (≥ 8 recommended).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }

    /// The accumulator slot a token hashes to.
    fn slot(&self, tok: &str) -> u32 {
        (mcqa_util::fnv1a(tok.as_bytes()) % self.dim as u64) as u32
    }
}

impl Encoder for TfEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn encode(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        for_each_content_token(text, |tok| v[self.slot(tok) as usize] += 1.0);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    fn sentence_postings(&self, text: &str) -> Option<SentencePostings> {
        // Pure bag-of-words: no cross-sentence features, so no head/bridge
        // bookkeeping is needed — replaying all postings in order matches
        // the joined encode exactly.
        let mut postings = Vec::new();
        for_each_content_token(text, |tok| postings.push((self.slot(tok), 1.0)));
        Some(SentencePostings { postings, head_len: 0, first_content: None, last_content: None })
    }
}

/// Chunker configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkerConfig {
    /// Hard upper bound on tokens per chunk.
    pub max_tokens: usize,
    /// Minimum tokens before a drift boundary may fire (avoids confetti).
    pub min_tokens: usize,
    /// Cosine-similarity threshold: a boundary fires when the similarity of
    /// the running-chunk embedding and the next sentence drops below it.
    pub drift_threshold: f32,
    /// Number of trailing sentences in the comparison window.
    pub window_sentences: usize,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        Self { max_tokens: 256, min_tokens: 48, drift_threshold: 0.18, window_sentences: 3 }
    }
}

/// A chunk of a source document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chunk {
    /// Chunk text (sentences joined by a single space).
    pub text: String,
    /// Index of the first sentence (inclusive).
    pub first_sentence: usize,
    /// Index of the last sentence (inclusive).
    pub last_sentence: usize,
    /// Token count of `text`.
    pub tokens: usize,
}

/// Replay per-sentence postings into one window embedding, splicing the
/// encoder's bridge features at each join — the accumulation-order clone
/// of encoding the space-joined text directly.
fn replay_postings<'f, E: Encoder + ?Sized>(
    encoder: &E,
    feats: impl Iterator<Item = &'f SentencePostings>,
) -> Vec<f32> {
    let mut acc = vec![0.0f32; encoder.dim()];
    let mut prev: Option<&str> = None;
    for f in feats {
        let mut start = 0;
        if let (Some(p), Some(first)) = (prev, f.first_content.as_deref()) {
            for &(idx, w) in &f.postings[..f.head_len] {
                acc[idx as usize] += w;
            }
            for (idx, w) in encoder.bridge_postings(p, first) {
                acc[idx as usize] += w;
            }
            start = f.head_len;
        }
        for &(idx, w) in &f.postings[start..] {
            acc[idx as usize] += w;
        }
        if f.last_content.is_some() {
            prev = f.last_content.as_deref();
        }
    }
    let norm: f32 = acc.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut acc {
            *x /= norm;
        }
    }
    acc
}

/// Encode the space-join of `sentences` through the compositional API, or
/// `None` when the encoder opts out. Exposed so encoders can pin the
/// bit-identity contract (`compose_encode(e, s) == e.encode(s.join(" "))`)
/// in their own test suites.
pub fn compose_encode<E: Encoder + ?Sized>(encoder: &E, sentences: &[&str]) -> Option<Vec<f32>> {
    let feats: Option<Vec<SentencePostings>> =
        sentences.iter().map(|s| encoder.sentence_postings(s)).collect();
    Some(replay_postings(encoder, feats?.iter()))
}

/// Per-document memo of sentence postings. `compose` latches off for good
/// the first time the encoder declines (an encoder either supports
/// composition for every sentence or for none).
struct SentenceMemo {
    postings: Vec<Option<SentencePostings>>,
    compose: bool,
}

/// The semantic chunker.
pub struct Chunker<'e, E: Encoder> {
    config: ChunkerConfig,
    encoder: &'e E,
}

impl<'e, E: Encoder> Chunker<'e, E> {
    /// Create a chunker over `encoder` with `config`.
    pub fn new(encoder: &'e E, config: ChunkerConfig) -> Self {
        assert!(config.max_tokens >= config.min_tokens.max(1));
        assert!(config.window_sentences >= 1);
        Self { config, encoder }
    }

    /// Embed the space-join of `sentences[range]`: a replay of memoised
    /// per-sentence postings (each sentence tokenised and hashed at most
    /// once per document), or — once the encoder has declined composition
    /// — a plain `encode` of the joined text. Bit-identical either way.
    fn embed_range(
        &self,
        sentences: &[&str],
        memo: &mut SentenceMemo,
        range: Range<usize>,
    ) -> Vec<f32> {
        if memo.compose {
            memo.compose = range.clone().all(|i| {
                if memo.postings[i].is_none() {
                    memo.postings[i] = self.encoder.sentence_postings(sentences[i]);
                }
                memo.postings[i].is_some()
            });
            if memo.compose {
                return replay_postings(self.encoder, memo.postings[range].iter().flatten());
            }
        }
        self.encoder.encode(&sentences[range].join(" "))
    }

    /// The drift test at sentence `i`, a candidate boundary of the chunk
    /// running since sentence `first`: compare a trailing window of the
    /// running chunk with a look-ahead window starting at the candidate.
    /// Windowing on both sides smooths out single-sentence vocabulary
    /// noise, which a contextual encoder would absorb.
    fn drifts_at(
        &self,
        sentences: &[&str],
        memo: &mut SentenceMemo,
        first: usize,
        i: usize,
    ) -> bool {
        let w = self.config.window_sentences.min(i - first);
        let ahead_end = (i + self.config.window_sentences).min(sentences.len());
        let behind = self.embed_range(sentences, memo, i - w..i);
        let ahead = self.embed_range(sentences, memo, i..ahead_end);
        dense_cosine(&behind, &ahead) < self.config.drift_threshold
    }

    /// Chunk a document.
    ///
    /// Invariants (property-tested):
    /// * every sentence lands in exactly one chunk, in order;
    /// * every chunk except possibly one holding a single oversized
    ///   sentence respects `max_tokens`;
    /// * chunk sentence ranges are contiguous and non-overlapping.
    pub fn chunk(&self, text: &str) -> Vec<Chunk> {
        self.chunk_embedded(text).into_iter().map(|(chunk, _)| chunk).collect()
    }

    /// Chunk a document and embed every chunk in the same pass: each
    /// vector is bit-identical to `encoder.encode(&chunk.text)`.
    ///
    /// With a compositional encoder each sentence is tokenised and hashed
    /// at most once per document: the drift test's window embeddings and
    /// the chunk embeddings are all cheap replays of the same memoised
    /// postings. An encoder that declines composition is re-encoded from
    /// text instead — the boundaries and vectors are the same either way.
    pub fn chunk_embedded(&self, text: &str) -> Vec<(Chunk, Vec<f32>)> {
        let sentences = split_sentences(text);
        if sentences.is_empty() {
            return Vec::new();
        }
        let mut memo = SentenceMemo { postings: vec![None; sentences.len()], compose: true };

        // Sentence range and token count of every chunk.
        let mut spans: Vec<(Range<usize>, usize)> = Vec::new();
        let mut first = 0usize;
        let mut tokens = 0usize;
        for (i, sent) in sentences.iter().enumerate() {
            let stoks = token_count(sent);
            // A boundary goes where the token budget would overflow, else
            // (once the chunk is long enough) where the embedding drifts.
            let boundary = i > first
                && (tokens + stoks > self.config.max_tokens
                    || (tokens >= self.config.min_tokens
                        && self.drifts_at(&sentences, &mut memo, first, i)));
            if boundary {
                spans.push((first..i, tokens));
                first = i;
                tokens = 0;
            }
            tokens += stoks;
        }
        spans.push((first..sentences.len(), tokens));

        spans
            .into_iter()
            .map(|(range, tokens)| {
                let vector = self.embed_range(&sentences, &mut memo, range.clone());
                let chunk = Chunk {
                    text: sentences[range.clone()].join(" "),
                    first_sentence: range.start,
                    last_sentence: range.end - 1,
                    tokens,
                };
                (chunk, vector)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn themed_text() -> String {
        // Two lexically cohesive themes: sentences within a theme share
        // vocabulary (as real topical prose does), themes share none.
        let theme_a = "Radiation induces breaks in tumour DNA strands. \
                       Radiation damage triggers repair of DNA breaks. \
                       Repair kinases mark radiation breaks in DNA. \
                       Tumour DNA repair follows radiation damage signalling. ";
        let theme_b = "Billing budgets changed hospital revenue processing. \
                       Hospital billing departments processed budget claims. \
                       Budget revenue reports shaped hospital billing. \
                       Billing committees reviewed hospital budget revenue. ";
        format!("{theme_a}{theme_b}")
    }

    #[test]
    fn empty_input() {
        let enc = TfEncoder::new(64);
        let chunker = Chunker::new(&enc, ChunkerConfig::default());
        assert!(chunker.chunk("").is_empty());
        assert!(chunker.chunk("   ").is_empty());
    }

    #[test]
    fn single_sentence() {
        let enc = TfEncoder::new(64);
        let chunker = Chunker::new(&enc, ChunkerConfig::default());
        let chunks = chunker.chunk("A single short sentence.");
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].first_sentence, 0);
        assert_eq!(chunks[0].last_sentence, 0);
    }

    #[test]
    fn budget_boundary_respected() {
        let enc = TfEncoder::new(64);
        let cfg = ChunkerConfig {
            max_tokens: 20,
            min_tokens: 5,
            drift_threshold: -1.0, // never fires: isolate the budget rule
            window_sentences: 2,
        };
        let chunker = Chunker::new(&enc, cfg.clone());
        let text = "One two three four five six seven. \
                    Eight nine ten eleven twelve thirteen. \
                    Fourteen fifteen sixteen seventeen eighteen nineteen twenty twentyone.";
        let chunks = chunker.chunk(text);
        assert!(chunks.len() >= 2, "{chunks:?}");
        for c in &chunks {
            assert!(c.tokens <= cfg.max_tokens, "{c:?}");
        }
    }

    #[test]
    fn oversized_single_sentence_kept_whole() {
        let enc = TfEncoder::new(64);
        let cfg = ChunkerConfig {
            max_tokens: 5,
            min_tokens: 1,
            drift_threshold: -1.0,
            window_sentences: 1,
        };
        let chunker = Chunker::new(&enc, cfg);
        let text = "this single sentence has considerably more than five tokens in it.";
        let chunks = chunker.chunk(text);
        assert_eq!(chunks.len(), 1, "oversized sentence forms its own chunk");
    }

    #[test]
    fn drift_boundary_fires_on_topic_shift() {
        let enc = TfEncoder::new(256);
        let cfg = ChunkerConfig {
            max_tokens: 1000, // budget never fires: isolate the drift rule
            min_tokens: 10,
            drift_threshold: 0.12,
            window_sentences: 3,
        };
        let chunker = Chunker::new(&enc, cfg);
        let chunks = chunker.chunk(&themed_text());
        assert!(chunks.len() >= 2, "topic shift should split: {chunks:?}");
        // The split should be near the theme boundary (sentence 4).
        assert!(chunks[0].last_sentence >= 2 && chunks[0].last_sentence <= 5, "{chunks:?}");
    }

    #[test]
    fn sentences_partitioned_exactly() {
        let enc = TfEncoder::new(64);
        let chunker = Chunker::new(
            &enc,
            ChunkerConfig {
                max_tokens: 30,
                min_tokens: 8,
                drift_threshold: 0.15,
                window_sentences: 2,
            },
        );
        let text = themed_text();
        let n_sentences = split_sentences(&text).len();
        let chunks = chunker.chunk(&text);
        let mut next = 0usize;
        for c in &chunks {
            assert_eq!(c.first_sentence, next, "contiguous coverage");
            assert!(c.last_sentence >= c.first_sentence);
            next = c.last_sentence + 1;
        }
        assert_eq!(next, n_sentences, "all sentences covered");
    }

    #[test]
    fn token_counts_accurate() {
        let enc = TfEncoder::new(64);
        let chunker = Chunker::new(&enc, ChunkerConfig::default());
        for c in chunker.chunk(&themed_text()) {
            assert_eq!(c.tokens, token_count(&c.text), "{c:?}");
        }
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        let enc = TfEncoder::new(8);
        let _ = Chunker::new(
            &enc,
            ChunkerConfig {
                max_tokens: 4,
                min_tokens: 10,
                drift_threshold: 0.2,
                window_sentences: 1,
            },
        );
    }

    /// An encoder that hides its compositional API, forcing the chunker
    /// onto the re-encoding fallback.
    struct Opaque<'a, E: Encoder>(&'a E);

    impl<E: Encoder> Encoder for Opaque<'_, E> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn encode(&self, text: &str) -> Vec<f32> {
            self.0.encode(text)
        }
    }

    #[test]
    fn compose_encode_matches_joined_encode() {
        let enc = TfEncoder::new(64);
        let sentences = [
            "Radiation induces breaks in tumour DNA strands.",
            "the of and", // stopword-only: contributes nothing, breaks no state
            "Repair kinases mark radiation breaks in DNA.",
            "",
            "Billing budgets changed hospital revenue processing.",
        ];
        for n in 0..=sentences.len() {
            let slice = &sentences[..n];
            let composed = compose_encode(&enc, slice).expect("TfEncoder composes");
            assert_eq!(composed, enc.encode(&slice.join(" ")), "first {n} sentences");
        }
    }

    #[test]
    fn memoised_chunking_is_bit_identical_to_reencoding() {
        let enc = TfEncoder::new(128);
        let opaque = Opaque(&enc);
        let cfg = ChunkerConfig {
            max_tokens: 30,
            min_tokens: 8,
            drift_threshold: 0.15,
            window_sentences: 2,
        };
        let text = themed_text();
        let fast = Chunker::new(&enc, cfg.clone()).chunk(&text);
        let reference = Chunker::new(&opaque, cfg).chunk(&text);
        assert_eq!(fast, reference, "memoisation must not move a single boundary");
        assert!(fast.len() >= 2, "fixture must actually exercise boundaries");
    }

    #[test]
    fn tf_encoder_unit_norm() {
        let enc = TfEncoder::new(32);
        let v = enc.encode("radiation dose fractionation response");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(enc.encode(""), vec![0.0; 32], "empty text is the zero vector");
    }
}
