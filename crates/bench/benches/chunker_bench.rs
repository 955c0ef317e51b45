//! Semantic-chunker throughput (the stage that turns 22,548 documents into
//! 173,318 chunks in the paper).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcqa_bench::sample_prose;
use mcqa_index::embed::{BioEncoder, EmbedConfig};
use mcqa_text::{Chunker, ChunkerConfig, TfEncoder};

fn bench_chunker(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunker");
    group.sample_size(20);
    let doc = sample_prose(40); // ~ a full paper's worth of prose
    let tokens = mcqa_text::token_count(&doc) as u64;
    group.throughput(Throughput::Elements(tokens));

    let tf = TfEncoder::new(64);
    group.bench_function("lexical_encoder", |b| {
        let chunker = Chunker::new(&tf, ChunkerConfig::default());
        b.iter(|| std::hint::black_box(chunker.chunk(&doc)).len());
    });

    let bio = BioEncoder::new(EmbedConfig::default());
    group.bench_function("bio_encoder", |b| {
        let chunker = Chunker::new(&bio, ChunkerConfig::default());
        b.iter(|| std::hint::black_box(chunker.chunk(&doc)).len());
    });

    for max_tokens in [128usize, 256, 512] {
        let chunker_cfg = ChunkerConfig { max_tokens, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("budget", max_tokens), &max_tokens, |b, _| {
            let chunker = Chunker::new(&tf, chunker_cfg.clone());
            b.iter(|| std::hint::black_box(chunker.chunk(&doc)).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chunker);
criterion_main!(benches);
