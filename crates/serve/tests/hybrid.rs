//! Property tests for the lexical and hybrid serving paths:
//!
//! * **Bit-identity** — a served `QueryMode::Lexical` response equals a
//!   direct `LexicalIndex::search`, and a served `QueryMode::Hybrid`
//!   response equals `fusion.fuse(dense@depth, lexical@depth)` computed
//!   offline — at any worker count, arrival order, or batch watermark.
//! * **Rerank determinism** — rescoring through the cross-encoder is a
//!   pure function of (query, fused hits, passages): served rerank output
//!   equals the offline emulation exactly.
//! * **Error taxonomy** — vector-only inputs on text-hungry modes fail
//!   with `NeedsText`; rerank without a reranker fails with `NoReranker`;
//!   a missing `lex-` sibling names itself in `UnknownStore`.

use std::sync::{Arc, OnceLock};

use mcqa_embed::{BioEncoder, EmbedConfig, Precision};
use mcqa_index::{FlatIndex, IndexRegistry, Metric, VectorStore};
use mcqa_lexical::{fuse_depth, Fusion, LexicalIndex};
use mcqa_llm::{ModelEndpoint, Reranker, SimEndpoint};
use mcqa_ontology::{Ontology, OntologyConfig};
use mcqa_runtime::Executor;
use mcqa_serve::{PassageStore, QueryMode, QueryRequest, QueryService, ServeConfig, ServeError};
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

struct Fixture {
    registry: Arc<IndexRegistry>,
    passages: PassageStore,
    endpoint: Arc<dyn ModelEndpoint>,
}

/// One corpus indexed both ways, shared by every test: a flat dense store
/// under `chunks` and its BM25 sibling under `lex-chunks`, plus the
/// passage texts the reranker reads.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let enc = encoder();
        let mut store = FlatIndex::new(DIM, Metric::Cosine, Precision::F32);
        let mut lex = LexicalIndex::new(Default::default());
        let mut passages = PassageStore::new();
        for i in 0..NDOCS as u64 {
            let text = passage(100 + i);
            store.add(i, &enc.encode(&text));
            lex.add(i, &text);
            passages.insert("chunks", i, &text);
        }
        let mut reg = IndexRegistry::new();
        reg.insert("chunks", Box::new(store));
        reg.insert_lexical(&IndexRegistry::lexical_sibling("chunks"), lex);
        let ontology = Arc::new(Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 10,
            qualitative_facts: 50,
            quantitative_facts: 5,
        }));
        Fixture {
            registry: Arc::new(reg),
            passages,
            endpoint: Arc::new(SimEndpoint::new(42, ontology)),
        }
    })
}

fn start_service(workers: usize, max_batch: usize) -> QueryService {
    let fix = fixture();
    QueryService::start_full(
        fix.registry.clone(),
        Some(encoder().clone()),
        Some(fix.passages.clone()),
        Some(Reranker::new(fix.endpoint.clone(), 42)),
        Executor::new(workers),
        ServeConfig { queue_capacity: 64, max_batch },
    )
}

/// The offline reference: fuse direct dense + lexical searches, then
/// (optionally) rescore through the same reranker adapter.
fn offline_hybrid(
    text: &str,
    fusion: Fusion,
    rerank: bool,
    k: usize,
) -> Vec<mcqa_index::SearchResult> {
    let fix = fixture();
    let depth = fuse_depth(k, 0);
    let dense = fix.registry.expect_store("chunks").search(&encoder().encode(text), depth);
    let lexical = fix.registry.expect_lexical("lex-chunks").search(text, depth);
    let mut fused = fusion.fuse(&dense, &lexical, k);
    if rerank {
        let rr = Reranker::new(fix.endpoint.clone(), 42);
        let ps: Vec<String> = fused
            .iter()
            .map(|h| fix.passages.get("chunks", h.id).unwrap_or("").to_string())
            .collect();
        let scores = rr.score_batch(Executor::global(), &[(text, ps)]);
        for (h, &s) in fused.iter_mut().zip(&scores[0]) {
            h.score = s as f32;
        }
        mcqa_util::sort_hits(&mut fused);
    }
    fused
}

proptest! {
    /// The served hybrid (and lexical) paths are bit-identical to the
    /// offline reference at any worker count, batch watermark, arrival
    /// order, fusion config, and input form (text vs text+vector).
    #[test]
    fn served_hybrid_equals_offline_fusion(
        n in 1usize..16,
        seed in 0u64..500,
        k in 1usize..8,
        workers_pick in 0usize..2,
        batch_pick in 0usize..3,
        fusion_pick in 0usize..3,
        rerank_pick in 0usize..2,
        carry_pick in 0usize..2,
        shuffle in 0u64..1000,
    ) {
        let rerank = rerank_pick == 1;
        let carry_vector = carry_pick == 1;
        let workers = [1usize, 4][workers_pick];
        let max_batch = [1usize, 4, 64][batch_pick];
        let fusion = [
            Fusion::Rrf { k0: 60 },
            Fusion::Rrf { k0: 10 },
            Fusion::Weighted { dense: 0.7 },
        ][fusion_pick];
        let mode = QueryMode::Hybrid { fusion, rerank, depth: 0 };

        let texts: Vec<String> = (0..n).map(|i| query_text(seed + i as u64)).collect();
        let reqs: Vec<QueryRequest> = texts
            .iter()
            .map(|t| {
                let r = if carry_vector {
                    QueryRequest::text_and_vector("chunks", t, encoder().encode(t), k)
                } else {
                    QueryRequest::text("chunks", t, k)
                };
                r.with_mode(mode)
            })
            .collect();

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
            let want = offline_hybrid(&texts[i], fusion, rerank, k);
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
        let lex = fixture().registry.expect_lexical("lex-chunks");
        for i in 0..n {
            let t = query_text(seed + i as u64);
            let resp = service
                .submit(QueryRequest::text("chunks", &t, k).with_mode(QueryMode::Lexical))
                .expect("admitted")
                .wait()
                .expect("served");
            prop_assert_eq!(&resp.hits, &lex.search(&t, k), "lexical query {}", i);
        }
        service.shutdown();
    }
}

/// Vector-only inputs cannot feed BM25: lexical and hybrid requests fail
/// with `NeedsText` while the same vector serves fine under dense mode.
#[test]
fn vector_only_inputs_need_text_for_lexical_modes() {
    let service = start_service(1, 4);
    let vec = encoder().encode("dose rate");
    for mode in [
        QueryMode::Lexical,
        QueryMode::Hybrid { fusion: Fusion::default(), rerank: false, depth: 0 },
    ] {
        match service
            .submit(QueryRequest::vector("chunks", vec.clone(), 3).with_mode(mode))
            .unwrap()
            .wait()
        {
            Err(ServeError::NeedsText { source }) => assert_eq!(source, "chunks"),
            other => panic!("expected NeedsText, got {other:?}"),
        }
    }
    assert!(service.submit(QueryRequest::vector("chunks", vec, 3)).unwrap().wait().is_ok());
    service.shutdown();
}

/// Rerank against a service started without the reranker (or passages)
/// fails with `NoReranker`; the plain hybrid path still works there.
#[test]
fn rerank_requires_start_full() {
    let fix = fixture();
    let service = QueryService::start(
        fix.registry.clone(),
        Some(encoder().clone()),
        Executor::new(1),
        ServeConfig::default(),
    );
    let rerank = QueryMode::Hybrid { fusion: Fusion::default(), rerank: true, depth: 0 };
    match service
        .submit(QueryRequest::text("chunks", "proton dose", 3).with_mode(rerank))
        .unwrap()
        .wait()
    {
        Err(ServeError::NoReranker { source }) => assert_eq!(source, "chunks"),
        other => panic!("expected NoReranker, got {other:?}"),
    }
    let plain = QueryMode::Hybrid { fusion: Fusion::default(), rerank: false, depth: 0 };
    assert!(service
        .submit(QueryRequest::text("chunks", "proton dose", 3).with_mode(plain))
        .unwrap()
        .wait()
        .is_ok());
    service.shutdown();
}

/// A source without a lexical sibling reports the sibling's name, so the
/// caller sees exactly which registry entry is missing.
#[test]
fn missing_lexical_sibling_is_named() {
    let mut reg = IndexRegistry::new();
    let mut store = FlatIndex::new(DIM, Metric::Cosine, Precision::F32);
    store.add(0, &encoder().encode("lone document"));
    reg.insert("bare", Box::new(store));
    let service = QueryService::start(
        Arc::new(reg),
        Some(encoder().clone()),
        Executor::new(1),
        ServeConfig::default(),
    );
    match service
        .submit(QueryRequest::text("bare", "anything", 2).with_mode(QueryMode::Lexical))
        .unwrap()
        .wait()
    {
        Err(ServeError::UnknownStore { name, .. }) => assert_eq!(name, "lex-bare"),
        other => panic!("expected UnknownStore, got {other:?}"),
    }
    service.shutdown();
}
