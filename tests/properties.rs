//! Property-based tests on core data structures and invariants.

use proptest::prelude::*;

use distllm::corpus::compress::{compress, decompress};
use distllm::index::{FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Metric, VectorStore};
use distllm::text::{split_sentences, token_count, tokenize};
use distllm::util::f16::{decode_f16_bytes, encode_f16_bytes};
use distllm::util::F16;

/// The tokeniser as it was before the single state machine: collect
/// lowercased chars into a `String` per token. Kept as the oracle the
/// streaming tokeniser is checked against.
fn reference_tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '-' {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            if cur.chars().any(|c| c.is_alphanumeric()) {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    out
}

/// `truncate_tokens` as it was before the single state machine.
fn reference_truncate(text: &str, max_tokens: usize) -> &str {
    if max_tokens == 0 {
        return "";
    }
    let (mut count, mut in_tok, mut has_alnum) = (0usize, false, false);
    for (i, c) in text.char_indices() {
        if c.is_alphanumeric() || c == '-' {
            if !in_tok && count == max_tokens {
                return &text[..i];
            }
            in_tok = true;
            has_alnum |= c.is_alphanumeric();
        } else {
            count += usize::from(in_tok && has_alnum);
            in_tok = false;
            has_alnum = false;
        }
    }
    text
}

fn streamed_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    distllm::text::for_each_token(text, |t| out.push(t.to_string()));
    out
}

#[test]
fn streaming_tokeniser_matches_reference_on_awkward_unicode() {
    // Lowercase expansions that change length (`İ` → `i̇`, two chars),
    // chars with no case (`ß`, `µ`, `樹`), final-sigma context, pure-dash
    // runs, dashes at token edges, and delimiters of every byte width.
    let samples = [
        "İstanbul DİYARBAKIR ıI",
        "Straße STRASSE ß µm 5µM ΜΈΓΑΣ ΟΔΟΣ",
        "- -- --- a-b -a- --x-- x---y",
        "HX-29—TRK2…樹木 non-Homologous/END-joining",
        "É\u{301}cole ǅ ǆ Ǆ \u{212A}elvin",
        "",
        "-",
        "—",
        "A",
    ];
    for s in samples {
        assert_eq!(streamed_tokens(s), reference_tokenize(s), "{s:?}");
        assert_eq!(tokenize(s), reference_tokenize(s), "{s:?}");
    }
}

proptest! {
    // ---- SPZ codec ------------------------------------------------------

    #[test]
    fn spz_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        let back = decompress(&c, data.len().max(1) * 2 + 64).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn spz_roundtrips_repetitive_bytes(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let c = compress(&data);
        let back = decompress(&c, data.len() + 64).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn spz_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Decoding arbitrary bytes must either succeed or return an error —
        // never panic, never allocate past the cap.
        if let Ok(out) = decompress(&data, 1 << 16) {
            prop_assert!(out.len() <= 1 << 16);
        }
    }

    // ---- f16 codec ------------------------------------------------------

    #[test]
    fn f16_roundtrip_is_idempotent(x in -1.0e5f32..1.0e5f32) {
        // One quantisation step, then fixed-point: f16(f32(f16(x))) == f16(x).
        let once = F16::from_f32(x);
        let twice = F16::from_f32(once.to_f32());
        prop_assert_eq!(once.0, twice.0);
    }

    #[test]
    fn f16_relative_error_bounded(x in 1.0e-3f32..6.0e4f32) {
        let rt = F16::from_f32(x).to_f32();
        let rel = ((x - rt) / x).abs();
        prop_assert!(rel <= 4.9e-4, "x={} rt={} rel={}", x, rt, rel);
    }

    #[test]
    fn f16_bytes_roundtrip(values in proptest::collection::vec(-1.0e4f32..1.0e4f32, 0..256)) {
        let bytes = encode_f16_bytes(&values);
        let back = decode_f16_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() <= a.abs() * 5e-4 + 1e-5);
        }
    }

    // ---- tokenisation ---------------------------------------------------

    #[test]
    fn token_count_matches_tokenize(text in ".{0,400}") {
        prop_assert_eq!(token_count(&text), tokenize(&text).len());
    }

    #[test]
    fn streaming_tokeniser_matches_reference(
        text in "[a-cX-Z0-2İßµΣσΜé樹 ,.;/—-]{0,120}",
        noise in ".{0,200}",
    ) {
        for t in [&text, &noise] {
            let reference = reference_tokenize(t);
            prop_assert_eq!(&streamed_tokens(t), &reference);
            prop_assert_eq!(&tokenize(t), &reference);
            let content: Vec<String> = reference
                .into_iter()
                .filter(|t| !distllm::text::stopwords::is_stopword(t))
                .collect();
            prop_assert_eq!(&distllm::text::content_tokens(t), &content);
            let mut streamed_content = Vec::new();
            distllm::text::for_each_content_token(t, |t| streamed_content.push(t.to_string()));
            prop_assert_eq!(&streamed_content, &content);
        }
    }

    #[test]
    fn truncate_is_prefix_and_respects_budget(text in ".{0,400}", k in 0usize..60) {
        let t = distllm::text::token::truncate_tokens(&text, k);
        prop_assert_eq!(t, reference_truncate(&text, k));
        prop_assert!(text.starts_with(t));
        prop_assert!(token_count(t) <= k);
    }

    #[test]
    fn sentences_are_substrings_in_order(text in "[A-Za-z0-9,;. ]{0,400}") {
        let parts = split_sentences(&text);
        let mut cursor = 0usize;
        for s in parts {
            let found = text[cursor..].find(s);
            prop_assert!(found.is_some(), "sentence {:?} not found in order", s);
            cursor += found.unwrap() + s.len();
        }
    }

    // ---- chunker invariants ---------------------------------------------

    #[test]
    fn chunker_partitions_sentences(
        n_sentences in 1usize..40,
        max_tokens in 16usize..128,
        word_seed in any::<u64>(),
    ) {
        let words = ["radiation", "dose", "repair", "tumour", "cell", "damage",
                     "response", "pathway", "fraction", "survival"];
        let mut text = String::new();
        let mut x = word_seed;
        for _ in 0..n_sentences {
            let len = 3 + (x % 9) as usize;
            let mut sentence: Vec<&str> = Vec::new();
            for _ in 0..len {
                x = distllm::util::splitmix64(x);
                sentence.push(words[(x % words.len() as u64) as usize]);
            }
            // Capitalise so the splitter sees a boundary.
            text.push_str("The ");
            text.push_str(&sentence.join(" "));
            text.push_str(". ");
        }
        let enc = distllm::text::TfEncoder::new(32);
        let chunker = distllm::text::Chunker::new(
            &enc,
            distllm::text::ChunkerConfig {
                max_tokens,
                min_tokens: (max_tokens / 4).max(1),
                drift_threshold: 0.1,
                window_sentences: 2,
            },
        );
        let n = split_sentences(&text).len();
        let chunks = chunker.chunk(&text);
        // Contiguous, complete coverage.
        let mut next = 0usize;
        for c in &chunks {
            prop_assert_eq!(c.first_sentence, next);
            next = c.last_sentence + 1;
            prop_assert_eq!(c.tokens, token_count(&c.text));
        }
        prop_assert_eq!(next, n);
    }
}

// ---- index recall properties (statistical, so plain tests with fixed
//      generators rather than proptest shrink targets) ----------------------

fn random_unit_vec(dim: usize, seed: u64) -> Vec<f32> {
    let ks = distllm::util::KeyedStochastic::new(seed);
    let mut v: Vec<f32> = (0..dim).map(|j| ks.gaussian(&["v", &j.to_string()]) as f32).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n);
    v
}

#[test]
fn ivf_and_hnsw_recall_against_flat() {
    let dim = 24;
    let n = 500u64;
    let mut flat = FlatIndex::new(dim, Metric::Cosine, distllm::embed::Precision::F32);
    let data: Vec<Vec<f32>> = (0..n).map(|i| random_unit_vec(dim, 40_000 + i)).collect();
    let mut ivf = IvfIndex::new(
        dim,
        Metric::Cosine,
        IvfConfig { nlist: 16, nprobe: 6, train_iters: 6, seed: 5 },
    );
    ivf.train(distllm::runtime::Executor::global(), &data);
    let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
    for (i, v) in data.iter().enumerate() {
        flat.add(i as u64, v);
        ivf.add(i as u64, v);
        hnsw.add(i as u64, v);
    }
    let mut ivf_hits = 0;
    let mut hnsw_hits = 0;
    let mut total = 0;
    for q in 0..40u64 {
        let query = random_unit_vec(dim, 90_000 + q);
        let truth: std::collections::HashSet<u64> =
            flat.search(&query, 10).into_iter().map(|h| h.id).collect();
        ivf_hits += ivf.search(&query, 10).iter().filter(|h| truth.contains(&h.id)).count();
        hnsw_hits += hnsw.search(&query, 10).iter().filter(|h| truth.contains(&h.id)).count();
        total += truth.len();
    }
    let ivf_recall = ivf_hits as f64 / total as f64;
    let hnsw_recall = hnsw_hits as f64 / total as f64;
    assert!(ivf_recall >= 0.6, "IVF recall {ivf_recall}");
    assert!(hnsw_recall >= 0.85, "HNSW recall {hnsw_recall}");
}

#[test]
fn approximate_results_are_subset_of_corpus() {
    // Every id an ANN index returns must be one it was given.
    let dim = 8;
    let data: Vec<Vec<f32>> = (0..100).map(|i| random_unit_vec(dim, i)).collect();
    let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
    for (i, v) in data.iter().enumerate() {
        hnsw.add(1000 + i as u64, v);
    }
    for q in 0..10u64 {
        for hit in hnsw.search(&random_unit_vec(dim, 777 + q), 7) {
            assert!((1000..1100).contains(&hit.id));
        }
    }
}
