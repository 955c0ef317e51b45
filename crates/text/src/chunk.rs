//! Semantic chunking: embedding-drift boundary detection under a token
//! budget.
//!
//! This mirrors the paper's "semantic chunking with PubMedBERT": sentences
//! are grouped while consecutive sentence-window embeddings stay similar; a
//! boundary is emitted where similarity drops (topic shift) or where the
//! token budget would overflow. The encoder is pluggable via [`Encoder`].
//!
//! With an encoder that composes (see [`Encoder`]) every sentence is
//! tokenised and hashed once per document, into a table of per-document
//! prefix sums; a window or chunk embedding is the difference of two of
//! its rows. The sums are exact, so that difference has the bits of
//! encoding the window's text directly.

use std::ops::Range;

use crate::sentence::split_sentences;
use crate::similarity::{dense_cosine, normalise};
use crate::token::{for_each_content_token, token_count};

/// Every feature weight of a composing [`Encoder`] is a whole multiple of
/// this (2⁻²).
pub(crate) const WEIGHT_QUANTUM: f32 = 0.25;

/// The absolute weight up to which sums of such weights are exact: an
/// `f32` holds every multiple of 2⁻² up to 2²² (24 significand bits), so
/// below it every partial sum, in any order, and every difference of two
/// partial sums is exact — and exact addition is associative.
pub const EXACT_SUM_MASS: usize = 1 << 22;

/// `(accumulator slot, signed weight)` postings of the features that span
/// a sentence join — see [`Encoder::add_sentence`].
pub type Bridge = Vec<(u32, f32)>;

/// Anything that can embed a piece of text into a dense vector.
///
/// `mcqa-index`'s `embed::BioEncoder` (the PubMedBERT stand-in) implements this;
/// tests use the lexical [`TfEncoder`].
///
/// An encoder whose `encode` sums signed feature weights and normalises
/// the sum may also *compose* ([`Encoder::exact_sum_bytes`] and
/// [`Encoder::add_sentence`]): the chunker then hashes each sentence once
/// per document and embeds a window as a difference of prefix sums. The
/// defaults decline, and every window is encoded from its text.
pub trait Encoder {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// Encode one text into a dense `dim()`-length vector.
    fn encode(&self, text: &str) -> Vec<f32>;
    /// A composing encoder's promise: every weight it adds is a whole
    /// multiple of `WEIGHT_QUANTUM`, and a text of at most this many
    /// bytes carries at most [`EXACT_SUM_MASS`] of absolute weight — so
    /// its sums are exact, and a difference of two has the bits `encode`
    /// of the text between them accumulates. A longer document is encoded
    /// from text; 0 declines composition altogether.
    fn exact_sum_bytes(&self) -> usize {
        0
    }
    /// Add to `row` (`dim()` long) every un-normalised weight `encode`
    /// would accumulate for `sentence` as the continuation of a text whose
    /// last content token is `prev` (empty: none yet), and leave the
    /// sentence's own last content token in `prev`. `None` when the
    /// sentence has no content token (nothing added, `prev` untouched);
    /// otherwise its [`Bridge`]: the postings, among those added, of the
    /// features that read the incoming `prev`, which a window starting at
    /// this sentence must take back out (empty if there are none).
    fn add_sentence(&self, sentence: &str, prev: &mut String, row: &mut [f32]) -> Option<Bridge> {
        let _ = (sentence, prev, row);
        None
    }
}

/// A trivial lexical encoder: hashed bag-of-words into a small dense
/// vector. Adequate for exercising the chunker without the `mcqa-index` encoder.
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
}

impl Encoder for TfEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn encode(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        self.add_sentence(text, &mut String::new(), &mut v);
        normalise(&mut v);
        v
    }

    /// One unit of weight per content token, a token at least one byte.
    fn exact_sum_bytes(&self) -> usize {
        EXACT_SUM_MASS
    }

    /// Pure bag-of-words: no feature spans a sentence join, so no bridge
    /// and no use for `prev`.
    fn add_sentence(&self, sentence: &str, _: &mut String, row: &mut [f32]) -> Option<Bridge> {
        let mut any = false;
        for_each_content_token(sentence, |tok| {
            row[(mcqa_util::fnv1a(tok.as_bytes()) % self.dim as u64) as usize] += 1.0;
            any = true;
        });
        any.then(Bridge::new)
    }
}

/// Chunker configuration.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

/// One document's exact prefix sums: `row(i)` holds the un-normalised
/// feature weights of sentences `..i` as one running encode of their
/// space-join accumulates them, bridges included.
struct PrefixRows {
    dim: usize,
    /// `(sentences + 1) × dim`, row 0 all zero.
    rows: Vec<f32>,
    /// Per sentence, what [`Encoder::add_sentence`] returned: `None` for a
    /// sentence without content.
    bridges: Vec<Option<Bridge>>,
}

impl PrefixRows {
    /// Sum `sentences` through `encoder`, or `None` when it promises no
    /// exact sums for a text this long (the space-join, one byte over).
    fn build<E: Encoder + ?Sized>(encoder: &E, sentences: &[&str]) -> Option<Self> {
        let bytes: usize = sentences.iter().map(|s| s.len() + 1).sum();
        if bytes > encoder.exact_sum_bytes() {
            return None;
        }
        let dim = encoder.dim();
        let mut rows = Vec::with_capacity((sentences.len() + 1) * dim);
        rows.resize(dim, 0.0f32);
        let mut prev = String::new();
        let mut bridges = Vec::with_capacity(sentences.len());
        for (i, sentence) in sentences.iter().enumerate() {
            // The next row starts as a copy of the last.
            rows.extend_from_within(i * dim..);
            let row = &mut rows[(i + 1) * dim..];
            bridges.push(encoder.add_sentence(sentence, &mut prev, row));
            // The exactness the differences in `embed` rest on.
            debug_assert!(
                row.iter().all(
                    |x| (x / WEIGHT_QUANTUM).fract() == 0.0 && x.abs() <= EXACT_SUM_MASS as f32
                ),
                "sentence {i}: a prefix sum is not an exact multiple of the weight quantum"
            );
        }
        Some(Self { dim, rows, bridges })
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.rows[i * self.dim..(i + 1) * self.dim]
    }

    /// The embedding of the space-join of sentences `range`: the
    /// difference of its two boundary rows, minus the bridge of the
    /// range's first content-bearing sentence (it joins that sentence to a
    /// predecessor outside the range; every later bridge lies inside),
    /// normalised. Being exact, the difference is the accumulator `encode`
    /// reaches in order, +0.0 where weights cancel: rows never hold −0.0,
    /// and `x − x` is +0.0.
    fn embed(&self, range: Range<usize>) -> Vec<f32> {
        let mut acc: Vec<f32> =
            self.row(range.end).iter().zip(self.row(range.start)).map(|(hi, lo)| hi - lo).collect();
        if let Some(bridge) = self.bridges[range].iter().flatten().next() {
            for &(idx, w) in bridge {
                acc[idx as usize] -= w;
            }
        }
        normalise(&mut acc);
        acc
    }
}

/// Embed the space-join of `sentences[range]` the way the chunker does —
/// out of the prefix sums of all of `sentences` — or `None` when the
/// encoder declines composition for a text this long. Exposed so encoders
/// can pin the bit-identity contract
/// (`compose_encode(e, s, r) == e.encode(s[r].join(" "))`, bit for bit) in
/// their own test suites.
pub fn compose_encode<E: Encoder + ?Sized>(
    encoder: &E,
    sentences: &[&str],
    range: Range<usize>,
) -> Option<Vec<f32>> {
    Some(PrefixRows::build(encoder, sentences)?.embed(range))
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
    /// With a composing encoder each sentence is tokenised and hashed once
    /// per document: the drift test's window embeddings and the chunk
    /// embeddings are all differences of the same prefix rows. Past the
    /// encoder's exactness limit, or with an encoder that declines
    /// composition, they are encoded from text instead — the boundaries
    /// and vectors are the same either way.
    pub fn chunk_embedded(&self, text: &str) -> Vec<(Chunk, Vec<f32>)> {
        let sentences = split_sentences(text);
        if sentences.is_empty() {
            return Vec::new();
        }
        // The embedding of the space-join of `sentences[range]`: out of the
        // document's prefix rows, or — without them — by encoding the
        // joined text. Bit-identical either way.
        let rows = PrefixRows::build(self.encoder, &sentences);
        let embed_range = |range: Range<usize>| match &rows {
            Some(rows) => rows.embed(range),
            None => self.encoder.encode(&sentences[range].join(" ")),
        };
        // The drift test at sentence `i`, a candidate boundary of the chunk
        // running since sentence `first`: compare a trailing window of the
        // running chunk with a look-ahead window starting at the candidate.
        // Windowing on both sides smooths out single-sentence vocabulary
        // noise, which a contextual encoder would absorb.
        let drifts_at = |first: usize, i: usize| {
            let w = self.config.window_sentences.min(i - first);
            let ahead_end = (i + self.config.window_sentences).min(sentences.len());
            let (behind, ahead) = (embed_range(i - w..i), embed_range(i..ahead_end));
            dense_cosine(&behind, &ahead) < self.config.drift_threshold
        };

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
                    || (tokens >= self.config.min_tokens && drifts_at(first, i)));
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
                let vector = embed_range(range.clone());
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

    /// A composing encoder built to find the edges of the prefix-sum
    /// formulation: `antiX` lands in `X`'s slot with the opposite sign
    /// (weights that cancel to zero), and every pair of adjacent content
    /// tokens adds a signed quarter-weight bigram (a bridge, across
    /// sentences). `encode` is written as the plain in-order pass — the
    /// reference, not a user of `add_sentence` — and counts its calls.
    struct Signed {
        limit: usize,
        encodes: std::cell::Cell<usize>,
    }

    impl Signed {
        const DIM: usize = 16;

        fn new(limit: usize) -> Self {
            Self { limit, encodes: std::cell::Cell::new(0) }
        }

        fn unigram(tok: &str) -> (u32, f32) {
            let (stem, w) = match tok.strip_prefix("anti") {
                Some(stem) => (stem, -1.0),
                None => (tok, 1.0),
            };
            ((mcqa_util::fnv1a(stem.as_bytes()) % Self::DIM as u64) as u32, w)
        }

        fn bigram(prev: &str, tok: &str) -> (u32, f32) {
            let bits = mcqa_util::fnv1a(format!("{prev}_{tok}").as_bytes());
            ((bits % Self::DIM as u64) as u32, if bits & 16 == 0 { 0.25 } else { -0.25 })
        }
    }

    impl Encoder for Signed {
        fn dim(&self) -> usize {
            Self::DIM
        }

        fn encode(&self, text: &str) -> Vec<f32> {
            self.encodes.set(self.encodes.get() + 1);
            let mut acc = vec![0.0f32; Self::DIM];
            let mut prev = String::new();
            for_each_content_token(text, |tok| {
                let (idx, w) = Self::unigram(tok);
                acc[idx as usize] += w;
                if !prev.is_empty() {
                    let (idx, w) = Self::bigram(&prev, tok);
                    acc[idx as usize] += w;
                }
                prev = tok.to_string();
            });
            normalise(&mut acc);
            acc
        }

        fn exact_sum_bytes(&self) -> usize {
            self.limit
        }

        fn add_sentence(
            &self,
            sentence: &str,
            prev: &mut String,
            row: &mut [f32],
        ) -> Option<Vec<(u32, f32)>> {
            let mut bridge = None;
            for_each_content_token(sentence, |tok| {
                let (idx, w) = Self::unigram(tok);
                row[idx as usize] += w;
                let joined = (!prev.is_empty()).then(|| Self::bigram(prev, tok));
                if let Some((idx, w)) = joined {
                    row[idx as usize] += w;
                }
                bridge.get_or_insert_with(|| joined.into_iter().collect());
                *prev = tok.to_string();
            });
            bridge
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every window `start..end` of `sentences`, embedded out of the prefix
    /// rows of the whole list, has the bits of encoding its joined text —
    /// `==` on floats would let a −0.0 through.
    fn assert_every_window_composes<E: Encoder>(enc: &E, sentences: &[&str]) {
        for start in 0..=sentences.len() {
            for end in start..=sentences.len() {
                let composed = compose_encode(enc, sentences, start..end).expect("composes");
                let direct = enc.encode(&sentences[start..end].join(" "));
                assert_eq!(bits(&composed), bits(&direct), "window {start}..{end}");
            }
        }
    }

    #[test]
    fn compose_encode_matches_joined_encode() {
        let sentences = [
            "Radiation induces breaks in tumour DNA strands.",
            "the of and", // stopword-only: contributes nothing, breaks no state
            "Repair kinases mark radiation breaks in DNA.",
            "",
            "Billing budgets changed hospital revenue processing.",
        ];
        assert_every_window_composes(&TfEncoder::new(64), &sentences);
        assert_every_window_composes(&Signed::new(usize::MAX), &sentences);
        assert_eq!(compose_encode(&Opaque(&TfEncoder::new(64)), &sentences, 0..2), None);
    }

    #[test]
    fn cancelling_weights_compose_to_positive_zero() {
        let enc = Signed::new(usize::MAX);
        // Slot sums that return to zero inside a sentence, across a join,
        // from a negative prefix, and over a whole window.
        let sentences = [
            "antimatter antidose",
            "matter antimatter",
            "dose matter",
            "antirepair",
            "repair antidose dose",
        ];
        assert_every_window_composes(&enc, &sentences);
        // `matter antimatter`: the slot both unigrams share ends on zero,
        // and the window's only other feature, their bigram, is elsewhere.
        let slot = Signed::unigram("matter").0;
        assert_ne!(slot, Signed::bigram("matter", "antimatter").0, "fixture: slots collide");
        let cancelled = compose_encode(&enc, &sentences, 1..2).expect("composes");
        assert_eq!(cancelled[slot as usize].to_bits(), 0, "+0.0, not −0.0");
    }

    #[test]
    fn bridge_belongs_to_the_first_content_bearing_sentence_of_the_window() {
        let enc = Signed::new(usize::MAX);
        // Windows that start on stopword-only and empty sentences: the
        // bridge to take back out is two sentences further on.
        assert_every_window_composes(
            &enc,
            &["tumour repair", "the of and", "", "of the", "dose kinase", "and", "billing"],
        );
        // The only content sentence is the last one (it has no bridge), and
        // a document without any.
        assert_every_window_composes(&enc, &["the of", "", "and the", "radiation dose"]);
        assert_every_window_composes(&enc, &["the of", "", "and"]);
        assert_every_window_composes(&enc, &[]);
    }

    /// Same chunks, same vector bits.
    fn assert_same_embedded(fast: &[(Chunk, Vec<f32>)], reference: &[(Chunk, Vec<f32>)]) {
        assert_eq!(fast.len(), reference.len());
        for ((chunk, vector), (ref_chunk, ref_vector)) in fast.iter().zip(reference) {
            assert_eq!(chunk, ref_chunk, "composition must not move a single boundary");
            assert_eq!(bits(vector), bits(ref_vector), "chunk {chunk:?}");
        }
    }

    /// Chunk `text` through the prefix rows and through the re-encoding
    /// fallback, which encodes every chunk's text.
    fn assert_table_matches_fallback<E: Encoder>(enc: &E, cfg: &ChunkerConfig, text: &str) {
        let fast = Chunker::new(enc, cfg.clone()).chunk_embedded(text);
        let reference = Chunker::new(&Opaque(enc), cfg.clone()).chunk_embedded(text);
        assert_same_embedded(&fast, &reference);
    }

    #[test]
    fn memoised_chunking_is_bit_identical_to_reencoding() {
        // Leading and trailing sentences without content, and look-ahead
        // windows clipped at the end of the document, at every window width.
        let text = format!("Of the and. {} The of. And the.", themed_text());
        let mut boundaries = 0;
        for window_sentences in 1..=3 {
            let cfg = ChunkerConfig {
                max_tokens: 30,
                min_tokens: 8,
                drift_threshold: 0.15,
                window_sentences,
            };
            assert_table_matches_fallback(&TfEncoder::new(128), &cfg, &text);
            assert_table_matches_fallback(&Signed::new(usize::MAX), &cfg, &text);
            boundaries += Chunker::new(&TfEncoder::new(128), cfg).chunk(&text).len() - 1;
        }
        assert!(boundaries >= 3, "fixture must actually exercise boundaries");
    }

    #[test]
    fn past_the_exactness_limit_the_chunker_reencodes_to_the_same_bits() {
        let text = themed_text();
        // What `PrefixRows::build` measures: the joined text, one byte over.
        let bytes: usize = split_sentences(&text).iter().map(|s| s.len() + 1).sum();
        let cfg = ChunkerConfig {
            max_tokens: 30,
            min_tokens: 8,
            drift_threshold: 0.15,
            window_sentences: 2,
        };
        let (at, over) = (Signed::new(bytes), Signed::new(bytes - 1));
        let table = Chunker::new(&at, cfg.clone()).chunk_embedded(&text);
        assert_eq!(at.encodes.get(), 0, "at the limit every vector comes out of the table");
        let fallback = Chunker::new(&over, cfg).chunk_embedded(&text);
        assert!(over.encodes.get() > fallback.len(), "one byte over: windows and chunks encoded");
        assert!(table.len() >= 2, "fixture must actually exercise boundaries");
        assert_same_embedded(&table, &fallback);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "weight quantum")]
    fn a_weight_off_the_quantum_is_caught_in_debug_builds() {
        struct Thirds;
        impl Encoder for Thirds {
            fn dim(&self) -> usize {
                4
            }
            fn encode(&self, _: &str) -> Vec<f32> {
                vec![0.0; 4]
            }
            fn exact_sum_bytes(&self) -> usize {
                usize::MAX
            }
            fn add_sentence(
                &self,
                _: &str,
                _: &mut String,
                row: &mut [f32],
            ) -> Option<Vec<(u32, f32)>> {
                row[0] += 0.3;
                Some(Vec::new())
            }
        }
        let _ = compose_encode(&Thirds, &["anything"], 0..1);
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
