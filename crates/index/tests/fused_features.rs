//! Bit-identity of the single-pass featurisation and the fused
//! chunk→embed path.
//!
//! The oracle is the formulation the streaming encoder replaced: one
//! `String` per token, every feature `format!`ed, and each of a feature's
//! two hashes taken by a fresh `StableHasher::with_seed(seed)` →
//! `write_u32(lane)` → `write_str(feature)`. The encoder must reproduce it
//! feature for feature: the same postings make the same exact sums (every
//! weight is a multiple of 2⁻², far below the mass where an `f32` would
//! round), and nothing weaker keeps stored vectors byte-identical. Vectors
//! are compared as bits — `==` on floats cannot tell −0.0 from +0.0, the
//! F16 store and the golden registry hash can.

use mcqa_index::embed::{BioEncoder, EmbedConfig};
use mcqa_text::{content_tokens, Chunk, Chunker, ChunkerConfig, Encoder, TfEncoder};
use mcqa_util::StableHasher;
use proptest::prelude::*;

fn oracle_feature(cfg: &EmbedConfig, feature: &str, weight: f32, out: &mut Vec<(u32, f32)>) {
    for lane in 0..2u32 {
        let mut h = StableHasher::with_seed(cfg.seed);
        h.write_u32(lane);
        h.write_str(feature);
        let bits = h.finish();
        let sign = if bits & (1 << 63) != 0 { -1.0 } else { 1.0 };
        out.push(((bits % cfg.dim as u64) as u32, sign * weight));
    }
}

/// Every posting of `text`, in accumulation order.
fn oracle_postings(cfg: &EmbedConfig, text: &str) -> Vec<(u32, f32)> {
    let mut out = Vec::new();
    let mut prev: Option<String> = None;
    for tok in content_tokens(text) {
        let entity_like = tok.chars().any(|c| c.is_ascii_digit());
        oracle_feature(cfg, &tok, if entity_like { 2.5 } else { 1.0 }, &mut out);
        if tok.len() >= 5 {
            let chars: Vec<char> = tok.chars().collect();
            for win in chars.windows(3) {
                let tri: String = win.iter().collect();
                oracle_feature(cfg, &format!("#{tri}"), 0.25, &mut out);
            }
        }
        if let Some(p) = &prev {
            oracle_feature(cfg, &format!("{p}_{tok}"), 0.5, &mut out);
        }
        prev = Some(tok);
    }
    out
}

/// The oracle's postings accumulated in order, not yet normalised.
fn oracle_row(cfg: &EmbedConfig, text: &str) -> Vec<f32> {
    let mut acc = vec![0.0f32; cfg.dim];
    for (idx, w) in oracle_postings(cfg, text) {
        acc[idx as usize] += w;
    }
    acc
}

fn oracle_encode(cfg: &EmbedConfig, text: &str) -> Vec<f32> {
    let mut acc = oracle_row(cfg, text);
    let norm: f32 = acc.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut acc {
            *x /= norm;
        }
    }
    acc
}

/// Three seeds, and dimensionalities on both index paths: the
/// power-of-two mask (256, 64) and the `%` of one that is not (100).
fn configs() -> [EmbedConfig; 3] {
    [EmbedConfig::default(), EmbedConfig { seed: 7, dim: 100 }, EmbedConfig { seed: 3, dim: 64 }]
}

/// The BioEncoder minus its compositional API: the chunker must fall back
/// to encoding joined text.
struct Opaque<'a>(&'a BioEncoder);

impl Encoder for Opaque<'_> {
    fn dim(&self) -> usize {
        Encoder::dim(self.0)
    }
    fn encode(&self, text: &str) -> Vec<f32> {
        self.0.encode(text)
    }
}

/// A document of `n` sentences drawn from a pool that mixes topical
/// prose, entity names, multi-byte words, stopword-only sentences and a
/// token long enough to need more than one length byte.
fn document(n: usize, mut x: u64) -> String {
    let long = "poly".repeat(70);
    let words = [
        "radiation",
        "dose",
        "repair",
        "tumour",
        "HX-29",
        "TRK2",
        "p53-Mediator",
        "überleben",
        "α-kinase",
        "5µm",
        "the",
        "of",
        "and",
        "Straße",
        "İstanbul",
        "billing",
        "budget",
        "2.5",
        long.as_str(),
    ];
    let mut text = String::new();
    for _ in 0..n {
        x = mcqa_util::splitmix64(x);
        if x.is_multiple_of(7) {
            text.push_str("The of and. ");
            continue;
        }
        let len = 2 + (x % 11) as usize;
        text.push_str("The");
        for _ in 0..len {
            x = mcqa_util::splitmix64(x);
            text.push(' ');
            text.push_str(words[(x % words.len() as u64) as usize]);
        }
        text.push_str(". ");
    }
    text
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_fused<E: Encoder>(encoder: &E, cfg: &ChunkerConfig, text: &str) -> Vec<Chunk> {
    let chunker = Chunker::new(encoder, cfg.clone());
    let embedded = chunker.chunk_embedded(text);
    for (chunk, vector) in &embedded {
        assert_eq!(bits(vector), bits(&encoder.encode(&chunk.text)), "chunk {chunk:?}");
    }
    let chunks: Vec<Chunk> = embedded.into_iter().map(|(c, _)| c).collect();
    assert_eq!(chunks, chunker.chunk(text));
    chunks
}

proptest! {
    #[test]
    fn streamed_features_match_the_stable_hasher_oracle(
        text in "[a-cA-C0-2éßµİ樹 .,_#-]{0,160}",
        long_token in "[a-z樹0-9]{64,300}",
    ) {
        let text = format!("{text} {long_token} {text}");
        for cfg in configs() {
            let e = BioEncoder::new(cfg.clone());
            // The sentence row the chunker's prefix table is summed from.
            let mut row = vec![0.0f32; cfg.dim];
            let bridge = e.add_sentence(&text, &mut String::new(), &mut row);
            prop_assert_eq!(bridge, Some(Vec::new()), "content, and nothing before it to bridge");
            prop_assert_eq!(bits(&row), bits(&oracle_row(&cfg, &text)));
            prop_assert_eq!(bits(&e.encode(&text)), bits(&oracle_encode(&cfg, &text)));
            // The exactness limit's premise: at most 5 units of weight a byte.
            let mass: f32 = oracle_postings(&cfg, &text).iter().map(|(_, w)| w.abs()).sum();
            prop_assert!(mass <= 5.0 * text.len() as f32, "{mass} over {} bytes", text.len());
        }
    }

    #[test]
    fn chunk_vectors_are_the_encodings_of_the_chunk_texts(
        n_sentences in 0usize..40,
        max_tokens in 12usize..96,
        // Past `max_tokens` the drift test never runs: whole chunks are
        // then composed from sentences no window ever visited.
        min_tokens in 1usize..128,
        window_sentences in 1usize..4,
        word_seed in any::<u64>(),
    ) {
        let text = document(n_sentences, word_seed);
        let cfg = ChunkerConfig {
            max_tokens,
            min_tokens: min_tokens.min(max_tokens),
            drift_threshold: 0.15,
            window_sentences,
        };
        let bio = BioEncoder::new(EmbedConfig { seed: word_seed, ..Default::default() });
        let fused = assert_fused(&bio, &cfg, &text);
        let reencoded = assert_fused(&Opaque(&bio), &cfg, &text);
        prop_assert_eq!(fused, reencoded, "composition must not move a boundary");
        assert_fused(&TfEncoder::new(48), &cfg, &text);
    }
}

#[test]
fn degenerate_documents_embed_to_the_zero_vector_or_nothing() {
    let bio = BioEncoder::new(EmbedConfig::default());
    let chunker = Chunker::new(&bio, ChunkerConfig::default());
    assert!(chunker.chunk_embedded("").is_empty());
    assert!(chunker.chunk_embedded(" \n ").is_empty());
    let stopwords_only = chunker.chunk_embedded("The of and. Of the and the.");
    assert_eq!(stopwords_only.len(), 1);
    assert_eq!(bits(&stopwords_only[0].1), vec![0; 256], "+0.0 in every slot");
}

#[test]
fn the_exactness_limit_is_derived_and_enforced() {
    let bio = BioEncoder::new(EmbedConfig::default());
    let limit = bio.exact_sum_bytes();
    assert_eq!(limit, (1 << 22) / 5, "2²² quanta-safe mass at ≤ 5 per byte");
    // The chunker measures the joined text plus one byte; past the limit it
    // gets no table (and re-encodes from text) before anything is hashed.
    let word = "radiation ";
    let long = word.repeat(limit / word.len() + 1);
    assert!(long.len() > limit);
    assert_eq!(mcqa_text::compose_encode(&bio, &[long.as_str()], 0..1), None);
    let fits = &long[..limit - 1];
    let composed = mcqa_text::compose_encode(&bio, &[fits], 0..1).expect("within the limit");
    assert_eq!(bits(&composed), bits(&bio.encode(fits)));
}
