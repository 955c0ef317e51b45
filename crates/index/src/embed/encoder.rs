//! The `BioEncoder`: signed feature-hashing text encoder.

use mcqa_runtime::{run_stage, Executor};
use mcqa_text::{for_each_content_token, Bridge};
use mcqa_util::{LaneHasher, StableHasher};

/// Encoder configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbedConfig {
    /// Embedding dimensionality. The paper's PubMedBERT emits 768-d; the
    /// default here is 256 for speed, with the same retrieval behaviour
    /// (cosine geometry is preserved by the JL sketch).
    pub dim: usize,
    /// Seed for the hash family (a different seed is a different encoder).
    pub seed: u64,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self { dim: 256, seed: 42 }
    }
}

/// Deterministic semantic text encoder (PubMedBERT stand-in).
#[derive(Debug, Clone)]
pub struct BioEncoder {
    config: EmbedConfig,
    /// The two hash lanes every feature is scattered through, each already
    /// past its seed-and-lane-number prefix
    /// (`StableHasher::with_seed(seed)` then `write_u32(lane)`): a feature
    /// forks this state and only absorbs its own bytes.
    lanes: LaneHasher<2>,
    /// `lanes` already past the length and `#` every 3-byte trigram
    /// feature starts with (`write_len(4)`, then `b"#"`): FNV is a left
    /// fold, so an ASCII trigram only absorbs its own 3 bytes.
    trigram_lanes: LaneHasher<2>,
    /// `dim − 1` when `dim` is a power of two, where `bits % dim` is
    /// `bits & (dim − 1)`.
    dim_mask: Option<u64>,
}

impl BioEncoder {
    /// Create an encoder.
    pub fn new(config: EmbedConfig) -> Self {
        assert!(config.dim >= 8, "dim must be at least 8");
        let lane = |r: u32| {
            let mut h = StableHasher::with_seed(config.seed);
            h.write_u32(r);
            h
        };
        let lanes = LaneHasher::new([&lane(0), &lane(1)]);
        let mut trigram_lanes = lanes;
        trigram_lanes.write_len(4);
        trigram_lanes.write(b"#");
        let dim_mask = config.dim.is_power_of_two().then(|| config.dim as u64 - 1);
        Self { config, lanes, trigram_lanes, dim_mask }
    }

    /// Emit the two `(index, signed weight)` postings of one hashed
    /// feature, given as the pieces its string is the concatenation of.
    /// Each feature is scattered to two positions with independent signs,
    /// halving sketch variance vs a single position.
    #[inline]
    fn feature_postings(&self, pieces: &[&[u8]], weight: f32, emit: &mut impl FnMut(u32, f32)) {
        let mut h = self.lanes;
        h.write_len(pieces.iter().map(|p| p.len()).sum());
        for piece in pieces {
            h.write(piece);
        }
        self.emit_postings(h, weight, emit);
    }

    /// Emit the two postings of a feature whose bytes `h` has absorbed.
    #[inline]
    fn emit_postings(&self, h: LaneHasher<2>, weight: f32, emit: &mut impl FnMut(u32, f32)) {
        for bits in h.finish() {
            let idx = match self.dim_mask {
                Some(mask) => bits & mask,
                None => bits % self.config.dim as u64,
            } as u32;
            let sign = if bits & (1 << 63) != 0 { -1.0 } else { 1.0 };
            emit(idx, sign * weight);
        }
    }

    /// Emit one content token's own features (unigram and `#`-prefixed
    /// subword trigrams). `emit` receives each posting.
    ///
    /// Unigrams carry the bulk of the signal. Entity-like symbols
    /// (digit-bearing gene/cell-line names) are the discriminative keys of
    /// biomedical retrieval — a contextual encoder like PubMedBERT weights
    /// them heavily, so do we.
    #[inline]
    fn token_features(&self, tok: &str, emit: &mut impl FnMut(u32, f32)) {
        let bytes = tok.as_bytes();
        let entity_like = bytes.iter().any(u8::is_ascii_digit);
        self.feature_postings(&[bytes], if entity_like { 2.5 } else { 1.0 }, emit);
        if bytes.len() >= 5 {
            // Every window of three chars, cut at the token's own char
            // boundaries: `starts` holds where the two chars before the
            // current one begin. A 3-byte window is three ASCII chars and
            // starts from `trigram_lanes`; wider ones hash from scratch.
            let mut starts = [0usize; 2];
            for (n, (at, c)) in tok.char_indices().enumerate() {
                if n >= 2 {
                    let window = &bytes[starts[0]..at + c.len_utf8()];
                    if window.len() == 3 {
                        let mut h = self.trigram_lanes;
                        h.write(window);
                        self.emit_postings(h, 0.25, emit);
                    } else {
                        self.feature_postings(&[b"#", window], 0.25, emit);
                    }
                }
                starts = [starts[1], at];
            }
        }
    }

    /// Continue a running encode over `text`: add every feature of its
    /// content tokens to `acc` — each token's own, then the `prev_tok` word
    /// bigram joining it to the content token before it — with `prev`
    /// carrying that context in and out (empty: no content token yet).
    /// `None` for a text without content tokens, else the postings of the
    /// bigram that read the incoming `prev` (empty when there was none) —
    /// the only feature that spans a sentence boundary.
    fn accumulate(&self, text: &str, prev: &mut String, acc: &mut [f32]) -> Option<Bridge> {
        let mut bridge: Option<Bridge> = None;
        for_each_content_token(text, |tok| {
            self.token_features(tok, &mut |idx, w| acc[idx as usize] += w);
            // The bigram of the text's first content token is the bridge.
            let first = bridge.is_none();
            let bridge = bridge.get_or_insert_with(Bridge::new);
            if !prev.is_empty() {
                let pieces = [prev.as_bytes(), b"_", tok.as_bytes()];
                self.feature_postings(&pieces, 0.5, &mut |idx, w| {
                    acc[idx as usize] += w;
                    if first {
                        bridge.push((idx, w));
                    }
                });
            }
            // The tokeniser's `&str` dies with this visit; one reused
            // buffer keeps it for the next.
            prev.clear();
            prev.push_str(tok);
        });
        bridge
    }

    /// Encode one text into a unit-norm `dim`-vector (zero vector for
    /// featureless input). See `accumulate` for the feature family.
    pub fn encode(&self, text: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.config.dim];
        self.accumulate(text, &mut String::new(), &mut acc);
        mcqa_text::similarity::normalise(&mut acc);
        acc
    }

    /// Encode a batch on `exec`'s pool; rows are index-aligned with
    /// `texts`.
    pub fn encode_batch<S: AsRef<str> + Sync>(
        &self,
        exec: &Executor,
        texts: &[S],
    ) -> Vec<Vec<f32>> {
        run_stage(exec, "encode-batch", (0..texts.len()).collect(), |i| {
            self.encode(texts[i].as_ref())
        })
        .0
    }
}

/// Composes: the chunker sums each sentence of a document once and reads
/// every window and chunk embedding off differences of those sums.
impl mcqa_text::Encoder for BioEncoder {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn encode(&self, text: &str) -> Vec<f32> {
        BioEncoder::encode(self, text)
    }

    /// Every weight is ± 0.25, 0.5, 1 or 2.5, a multiple of
    /// `mcqa_text::WEIGHT_QUANTUM`, and a feature is two postings. A
    /// content token of `c` chars (never more than the bytes it was read
    /// from) emits a unigram (≤ 2 × 2.5), `c − 2` trigrams (2 × 0.25 each)
    /// and, behind another token and the ≥ 1 byte that separates them, a
    /// bigram (2 × 0.5): at most `5 c` alone and `5 (c + 1)` with its
    /// separator, so a text's weights total at most 5 × its bytes.
    fn exact_sum_bytes(&self) -> usize {
        mcqa_text::EXACT_SUM_MASS / 5
    }

    /// The accumulation [`BioEncoder::encode`] itself runs, resumed.
    fn add_sentence(&self, sentence: &str, prev: &mut String, row: &mut [f32]) -> Option<Bridge> {
        self.accumulate(sentence, prev, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_text::similarity::dense_cosine;

    fn enc() -> BioEncoder {
        BioEncoder::new(EmbedConfig::default())
    }

    #[test]
    fn deterministic() {
        let e = enc();
        let a = e.encode("radiation induces apoptosis in tumour cells");
        let b = e.encode("radiation induces apoptosis in tumour cells");
        assert_eq!(a, b);
    }

    #[test]
    fn unit_norm_or_zero() {
        let e = enc();
        let v = e.encode("fractionated dose schedules spare normal tissue");
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
        assert_eq!(e.encode(""), vec![0.0; 256]);
        assert_eq!(e.encode("the of and"), vec![0.0; 256], "stopwords only");
    }

    #[test]
    fn near_duplicates_are_close() {
        let e = enc();
        let a = e.encode("The TRK2 gene activates the repair pathway after irradiation.");
        let b = e.encode("After irradiation the TRK2 gene activates the repair pathway.");
        assert!(dense_cosine(&a, &b) > 0.8, "cos {}", dense_cosine(&a, &b));
    }

    #[test]
    fn related_texts_closer_than_unrelated() {
        let e = enc();
        let q = e.encode("Which pathway does TRK2 activate after radiation?");
        let rel = e.encode("TRK2 activates the VAXOR repair axis following radiation exposure.");
        let unrel = e.encode("Hospital billing codes changed in fiscal year 2019 budgets.");
        let cr = dense_cosine(&q, &rel);
        let cu = dense_cosine(&q, &unrel);
        assert!(cr > cu + 0.2, "related {cr} vs unrelated {cu}");
    }

    #[test]
    fn unrelated_near_orthogonal() {
        let e = enc();
        let a = e.encode("oxygen enhancement ratio under hypoxic conditions");
        let b = e.encode("quarterly insurance revenue administration staffing");
        assert!(dense_cosine(&a, &b).abs() < 0.25);
    }

    #[test]
    fn different_seeds_give_different_spaces() {
        let e1 = BioEncoder::new(EmbedConfig { seed: 1, ..Default::default() });
        let e2 = BioEncoder::new(EmbedConfig { seed: 2, ..Default::default() });
        let a = e1.encode("radiation biology");
        let b = e2.encode("radiation biology");
        assert!(dense_cosine(&a, &b) < 0.5, "independent hash families expected");
    }

    #[test]
    fn batch_matches_serial() {
        let e = enc();
        let texts = vec![
            "alpha beta gamma".to_string(),
            "".to_string(),
            "dose response modelling of late effects".to_string(),
        ];
        let batch = e.encode_batch(Executor::global(), &texts);
        for (t, row) in texts.iter().zip(&batch) {
            assert_eq!(row, &e.encode(t));
        }
    }

    #[test]
    fn dim_respected_and_validated() {
        let e = BioEncoder::new(EmbedConfig { dim: 64, ..Default::default() });
        assert_eq!(e.encode("text").len(), 64);
        assert_eq!(mcqa_text::Encoder::dim(&e), 64);
    }

    #[test]
    #[should_panic(expected = "dim must be at least 8")]
    fn tiny_dim_rejected() {
        BioEncoder::new(EmbedConfig { dim: 4, ..Default::default() });
    }

    /// The BioEncoder minus its compositional API: forces the chunker onto
    /// the re-encoding fallback for equivalence testing.
    struct Opaque<'a>(&'a BioEncoder);

    impl mcqa_text::Encoder for Opaque<'_> {
        fn dim(&self) -> usize {
            mcqa_text::Encoder::dim(self.0)
        }
        fn encode(&self, text: &str) -> Vec<f32> {
            self.0.encode(text)
        }
    }

    fn awkward_sentences() -> Vec<&'static str> {
        vec![
            "Radiation induces breaks in tumour DNA strands.",
            "The HX-29 cell line resists 2.0 Gy fractions.", // entity weights + digits
            "the of and",                                    // stopword-only: bigram state carries
            "",                                              // empty sentence
            "Clustered lesions resist non-homologous end-joining repair.", // trigram-length tokens
            "Budget revenue reports shaped hospital billing.",
            "Überleben in İstanbul fiel bei 5µm Straßenstaub.", // multi-byte trigram windows
        ]
    }

    #[test]
    fn compose_encode_matches_joined_encode_bitwise() {
        // The prefix-sum contract: a difference of the document's rows must
        // be *identity*, not approximation — across entity weighting, char
        // trigrams, word bigrams (including the cross-sentence bridge a
        // window leaves behind), and stopword-only sentences that carry
        // bigram state through. Bits, not `==`: −0.0 == 0.0.
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        for cfg in [EmbedConfig::default(), EmbedConfig { seed: 7, dim: 64 }] {
            let e = BioEncoder::new(cfg);
            let sentences = awkward_sentences();
            for start in 0..=sentences.len() {
                for end in start..=sentences.len() {
                    let composed = mcqa_text::compose_encode(&e, &sentences, start..end)
                        .expect("BioEncoder composes");
                    assert_eq!(
                        bits(composed),
                        bits(e.encode(&sentences[start..end].join(" "))),
                        "window {start}..{end} must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn memoised_chunking_matches_reencoding_chunking() {
        let e = enc();
        let opaque = Opaque(&e);
        let cfg = mcqa_text::ChunkerConfig {
            max_tokens: 48,
            min_tokens: 8,
            drift_threshold: 0.15,
            window_sentences: 3,
        };
        let text = awkward_sentences().join(" ")
            + " Radiation damage triggers repair of DNA breaks. \
               Hospital billing departments processed budget claims. \
               Billing committees reviewed hospital budget revenue.";
        let fast = mcqa_text::Chunker::new(&e, cfg.clone()).chunk(&text);
        let reference = mcqa_text::Chunker::new(&opaque, cfg).chunk(&text);
        assert_eq!(fast, reference, "memoisation must not move a single chunk boundary");
        assert!(fast.len() >= 2, "fixture must exercise boundaries");
    }

    #[test]
    fn works_as_chunker_encoder() {
        // Integration with the semantic chunker via the Encoder trait.
        let e = enc();
        let chunker = mcqa_text::Chunker::new(
            &e,
            mcqa_text::ChunkerConfig {
                max_tokens: 64,
                min_tokens: 8,
                drift_threshold: 0.1,
                window_sentences: 2,
            },
        );
        let chunks = chunker.chunk(
            "Radiation damages DNA in tumours. Radiation repair pathways respond to damage. \
             Billing budget revenue processed hospital claims. Hospital billing budget reports.",
        );
        assert!(!chunks.is_empty());
    }
}
