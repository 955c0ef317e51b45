//! Property tests for the lexical and hybrid serving paths:
//!
//! * **Bit-identity** — a served `QueryMode::Lexical` response equals a
//!   direct `LexicalIndex::search`, and a served `QueryMode::Hybrid`
//!   response equals `Fusion.fuse(dense@depth, lexical@depth)` computed
//!   offline — at any worker count, arrival order, batch watermark, or
//!   over-fetch depth.
//! * **Error taxonomy** — one table over mode × defect: every error the
//!   dispatcher can produce, reached through `submit` / `query_batch`.

use std::sync::{Arc, OnceLock};

use mcqa_index::embed::{BioEncoder, EmbedConfig, Precision};
use mcqa_index::lexical::{fuse_depth, Fusion, LexicalIndex};
use mcqa_index::{FlatIndex, IndexRegistry, Metric, VectorStore};
use mcqa_runtime::Executor;
use mcqa_serve::{QueryInput, QueryMode, QueryRequest, QueryService, ServeConfig, ServeError};
use proptest::prelude::*;

const DIM: usize = 32;
const NDOCS: usize = 48;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const WORDS: [&str; 24] = [
    "dose",
    "rate",
    "fractionation",
    "proton",
    "carbon",
    "ion",
    "radiation",
    "shielding",
    "cosmic",
    "galactic",
    "nebula",
    "spectral",
    "flux",
    "redshift",
    "luminosity",
    "accretion",
    "plasma",
    "magnetosphere",
    "dosimetry",
    "linear",
    "energy",
    "transfer",
    "orbit",
    "telescope",
];

/// A deterministic pseudo-sentence: 5-9 vocabulary words drawn by seed.
fn passage(seed: u64) -> String {
    let n = 5 + (splitmix(seed) % 5) as usize;
    (0..n)
        .map(|j| WORDS[(splitmix(seed ^ ((j as u64 + 1) * 7919)) % WORDS.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

fn query_text(seed: u64) -> String {
    passage(seed ^ 0xdead_beef)
}

fn encoder() -> &'static BioEncoder {
    static ENC: OnceLock<BioEncoder> = OnceLock::new();
    ENC.get_or_init(|| BioEncoder::new(EmbedConfig { dim: DIM, ..EmbedConfig::default() }))
}

/// One corpus indexed both ways, shared by every test: a flat dense store
/// under `chunks` and its BM25 sibling under `lex-chunks` — and `bare`, a
/// dense store nobody built a sibling for.
fn registry() -> &'static Arc<IndexRegistry> {
    static REG: OnceLock<Arc<IndexRegistry>> = OnceLock::new();
    REG.get_or_init(|| {
        let enc = encoder();
        let mut store = FlatIndex::new(DIM, Metric::Cosine, Precision::F32);
        let mut lex = LexicalIndex::new(Default::default());
        for i in 0..NDOCS as u64 {
            let text = passage(100 + i);
            store.add(i, &enc.encode(&text));
            lex.add(i, &text);
        }
        let mut reg = IndexRegistry::new();
        reg.insert("chunks", Box::new(store));
        reg.insert_lexical(&IndexRegistry::lexical_sibling("chunks"), lex);
        let mut bare = FlatIndex::new(DIM, Metric::Cosine, Precision::F32);
        bare.add(0, &enc.encode("lone document"));
        reg.insert("bare", Box::new(bare));
        Arc::new(reg)
    })
}

fn start_service(workers: usize, max_batch: usize) -> QueryService {
    QueryService::start(
        registry().clone(),
        Some(encoder().clone()),
        Executor::new(workers),
        ServeConfig { queue_capacity: 64, max_batch },
    )
}

/// The offline reference: fuse direct dense + lexical searches at the
/// request's own over-fetch `depth`.
fn offline_hybrid(text: &str, depth: usize, k: usize) -> Vec<mcqa_index::SearchResult> {
    let registry = registry();
    let depth = fuse_depth(k, depth);
    let dense = registry.expect_store("chunks").search(&encoder().encode(text), depth);
    let lexical = registry.expect_lexical("lex-chunks").search(text, depth);
    Fusion.fuse(&dense, &lexical, k)
}

proptest! {
    /// The served hybrid path is bit-identical to the offline reference at
    /// any worker count, batch watermark, arrival order and over-fetch
    /// depth.
    #[test]
    fn served_hybrid_equals_offline_fusion(
        n in 1usize..16,
        seed in 0u64..500,
        k in 1usize..8,
        workers_pick in 0usize..2,
        batch_pick in 0usize..3,
        depth_pick in 0usize..3,
        shuffle in 0u64..1000,
    ) {
        let workers = [1usize, 4][workers_pick];
        let max_batch = [1usize, 4, 64][batch_pick];
        let depth = [0usize, 1, 4][depth_pick];
        let mode = QueryMode::Hybrid { fusion: Fusion, rerank: false, depth };

        let texts: Vec<String> = (0..n).map(|i| query_text(seed + i as u64)).collect();
        let reqs: Vec<QueryRequest> =
            texts.iter().map(|t| QueryRequest::text("chunks", t, k).with_mode(mode)).collect();

        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (splitmix(shuffle.wrapping_add(i as u64)) as usize) % (i + 1));
        }

        let service = start_service(workers, max_batch);
        let mut tickets: Vec<Option<mcqa_serve::QueryTicket>> =
            std::iter::repeat_with(|| None).take(n).collect();
        for &i in &order {
            tickets[i] = Some(service.submit(reqs[i].clone()).expect("admitted"));
        }
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.expect("ticket").wait().expect("served");
            let want = offline_hybrid(&texts[i], depth, k);
            prop_assert_eq!(&resp.hits, &want, "hybrid request {}", i);
        }
        service.shutdown();
    }

    /// Served lexical responses equal direct BM25 searches.
    #[test]
    fn served_lexical_equals_direct_bm25(
        n in 1usize..12,
        seed in 0u64..500,
        k in 1usize..8,
        batch_pick in 0usize..2,
    ) {
        let max_batch = [1usize, 8][batch_pick];
        let service = start_service(2, max_batch);
        let lex = registry().expect_lexical("lex-chunks");
        for i in 0..n {
            let t = query_text(seed + i as u64);
            let resp = service
                .submit(QueryRequest::text("chunks", &t, k).with_mode(QueryMode::Lexical))
                .expect("admitted")
                .wait()
                .expect("served");
            prop_assert_eq!(&resp.hits, &lex.search(&t, k), "lexical query {}", i);
            prop_assert_eq!(resp.timing.encode_secs, 0.0, "nothing to encode for BM25");
        }
        service.shutdown();
    }
}

/// Two hybrid requests that differ only in an over-fetch depth past 32
/// bits are two groups: each is fused at its own depth even when one
/// micro-batch carries both.
#[test]
fn hybrid_depths_beyond_32_bits_are_not_grouped_together() {
    const K: usize = 3;
    let depths = [1usize, (1 << 32) + 1];
    let texts: Vec<String> = (0..16).map(query_text).collect();
    // Consecutive requests alternate depth, and a replay is one dispatch,
    // so one micro-batch carries both depths.
    let service = start_service(1, 64);
    let reqs = texts
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mode = QueryMode::Hybrid { fusion: Fusion, rerank: false, depth: depths[i % 2] };
            QueryRequest::text("chunks", t, K).with_mode(mode)
        })
        .collect();
    for (i, res) in service.query_batch(reqs).into_iter().enumerate() {
        let resp = res.expect("served");
        assert_eq!(resp.batch, texts.len(), "request {i} rode the one dispatch");
        let want = offline_hybrid(&texts[i], depths[i % 2], K);
        assert_eq!(resp.hits, want, "request {i} at depth {}", depths[i % 2]);
    }
}

/// Mode × defect → error, every row through the front door. `None` means
/// the request is served.
#[test]
fn every_defect_maps_to_its_error_in_every_mode() {
    let registry = registry();
    let full = start_service(1, 4);
    let no_encoder =
        QueryService::start(registry.clone(), None, Executor::new(1), ServeConfig::default());

    let hybrid = QueryMode::Hybrid { fusion: Fusion, rerank: false, depth: 0 };
    let rerank = QueryMode::Hybrid { fusion: Fusion, rerank: true, depth: 0 };
    let owned = |names: Vec<&str>| names.into_iter().map(String::from).collect::<Vec<_>>();
    let no_dense = |name: &str| {
        Some(ServeError::UnknownStore { name: name.into(), known: owned(registry.names()) })
    };
    let no_sibling = |name: &str| {
        let known = owned(registry.lexical_names());
        Some(ServeError::UnknownStore { name: name.into(), known })
    };
    let needs_text = Some(ServeError::NeedsText { source: "chunks".into() });
    let needs_encoder = Some(ServeError::NoEncoder { source: "chunks".into() });
    let needs_reranker = Some(ServeError::NoReranker { source: "chunks".into() });
    let wrong_dim =
        Some(ServeError::DimMismatch { store: "chunks".into(), expected: DIM, got: DIM + 3 });

    let text = || QueryInput::Text("proton dose".into());
    let vector = || QueryInput::Vector(encoder().encode("proton dose"));
    let long_vector = || QueryInput::Vector(vec![0.5; DIM + 3]);

    // (defect, service, source, input, mode, expected error)
    type Row<'a> = (&'a str, &'a QueryService, &'a str, QueryInput, QueryMode, Option<ServeError>);
    #[rustfmt::skip]
    let table: Vec<Row<'_>> = vec![
        ("unknown source", &full, "nope", text(), QueryMode::Dense, no_dense("nope")),
        ("unknown source", &full, "nope", text(), QueryMode::Lexical, no_sibling("lex-nope")),
        ("unknown source, dense looked up first", &full, "nope", text(), hybrid, no_dense("nope")),
        ("missing sibling", &full, "bare", text(), QueryMode::Dense, None),
        ("missing sibling", &full, "bare", text(), QueryMode::Lexical, no_sibling("lex-bare")),
        ("missing sibling", &full, "bare", text(), hybrid, no_sibling("lex-bare")),
        ("vector-only input", &full, "chunks", vector(), QueryMode::Dense, None),
        ("vector-only input", &full, "chunks", vector(), QueryMode::Lexical, needs_text.clone()),
        ("vector-only input", &full, "chunks", vector(), hybrid, needs_text.clone()),
        ("text before dimension", &full, "chunks", long_vector(), hybrid, needs_text),
        ("no encoder", &no_encoder, "chunks", text(), QueryMode::Dense, needs_encoder.clone()),
        ("no encoder, none needed", &no_encoder, "chunks", text(), QueryMode::Lexical, None),
        ("no encoder", &no_encoder, "chunks", text(), hybrid, needs_encoder),
        ("no encoder, none needed", &no_encoder, "chunks", vector(), QueryMode::Dense, None),
        ("wrong-length vector", &no_encoder, "chunks", long_vector(), QueryMode::Dense, wrong_dim.clone()),
        ("wrong-length vector", &full, "chunks", long_vector(), QueryMode::Dense, wrong_dim.clone()),
        ("rerank requested", &full, "chunks", text(), rerank, needs_reranker.clone()),
        ("group defect before member defect", &no_encoder, "chunks", text(), rerank, needs_reranker),
    ];
    for (defect, service, source, input, mode, want) in table {
        let row = format!("{defect}, '{source}', {}", mode.label());
        let req = QueryRequest { source: source.into(), input, k: 3, mode };
        let got = service.submit(req).expect("admitted").wait();
        match want {
            Some(err) => assert_eq!(got.expect_err(&row), err, "{row}"),
            None => assert!(got.is_ok(), "{row}: {got:?}"),
        }
    }

    // One group, two members that fail on their own: the rest are served
    // as if the two had never been submitted.
    let q = encoder().encode("carbon ion dosimetry");
    let direct = registry.expect_store("chunks").search(&q, 3);
    let mixed = no_encoder.query_batch(vec![
        QueryRequest::vector("chunks", q.clone(), 3),
        QueryRequest::text("chunks", "carbon ion dosimetry", 3),
        QueryRequest::vector("chunks", vec![0.5; DIM + 3], 3),
        QueryRequest::vector("chunks", q, 3),
    ]);
    assert_eq!(mixed[0].as_ref().expect("served").hits, direct);
    assert_eq!(mixed[1], Err(ServeError::NoEncoder { source: "chunks".into() }));
    assert_eq!(mixed[2], wrong_dim.map(Err).expect("an error"));
    assert_eq!(mixed[3].as_ref().expect("served").hits, direct);

    for service in [full, no_encoder] {
        let snap = service.shutdown();
        assert!(snap.served_ok > 0 && snap.served_err > 0);
        assert_eq!(snap.admitted, snap.served_ok + snap.served_err, "every slot answered once");
    }
}
