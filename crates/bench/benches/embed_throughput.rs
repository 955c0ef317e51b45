//! Embedding throughput: the PubMedBERT-stand-in encode path that the
//! paper runs over 173,318 chunks, plus the FP16-vs-F32 storage trade.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcqa_bench::sample_prose;
use mcqa_index::embed::{BioEncoder, EmbedConfig, EmbeddingMatrix, Precision};
use mcqa_runtime::Executor;

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("embed_throughput");
    group.sample_size(20);
    let text = sample_prose(4);
    for dim in [128usize, 256, 768] {
        let enc = BioEncoder::new(EmbedConfig { dim, ..Default::default() });
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("encode_one", dim), &dim, |b, _| {
            b.iter(|| std::hint::black_box(enc.encode(&text)));
        });
    }
    let enc = BioEncoder::new(EmbedConfig::default());
    let batch: Vec<String> = (0..256).map(|i| format!("{} variant {i}", sample_prose(1))).collect();
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("encode_batch_256_parallel", |b| {
        b.iter(|| std::hint::black_box(enc.encode_batch(Executor::global(), &batch)));
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("embed_storage");
    group.sample_size(20);
    let enc = BioEncoder::new(EmbedConfig::default());
    let rows: Vec<Vec<f32>> =
        (0..512).map(|i| enc.encode(&format!("chunk {i} about dna repair"))).collect();
    for precision in [Precision::F32, Precision::F16] {
        group.bench_with_input(
            BenchmarkId::new("matrix_build", format!("{precision:?}")),
            &precision,
            |b, &p| {
                b.iter(|| std::hint::black_box(EmbeddingMatrix::from_rows(256, p, &rows)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_storage);
criterion_main!(benches);
