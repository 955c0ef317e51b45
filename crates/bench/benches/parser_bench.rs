//! AdaParse-substitute benches: clean-batch throughput (one strict read
//! each) vs a batch where damaged documents fall back to salvage and a
//! quality score.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcqa_core::parse::AdaptiveParser;
use mcqa_corpus::{AcquisitionConfig, CorpusLibrary, DocId, SynthConfig};
use mcqa_ontology::{Ontology, OntologyConfig};
use mcqa_runtime::Executor;

fn libraries() -> (CorpusLibrary, CorpusLibrary) {
    let ont = Ontology::generate(&OntologyConfig {
        seed: 5,
        entities_per_kind: 60,
        qualitative_facts: 600,
        quantitative_facts: 150,
    });
    let clean = CorpusLibrary::build(
        &ont,
        &AcquisitionConfig {
            seed: 5,
            full_papers: 48,
            abstracts: 16,
            corruption_rate: 0.0,
            synth: SynthConfig::default(),
        },
        Executor::global(),
    );
    let dirty = CorpusLibrary::build(
        &ont,
        &AcquisitionConfig {
            seed: 5,
            full_papers: 48,
            abstracts: 16,
            corruption_rate: 0.4,
            synth: SynthConfig::default(),
        },
        Executor::global(),
    );
    (clean, dirty)
}

fn bench_parser(c: &mut Criterion) {
    let (clean, dirty) = libraries();
    let clean_blobs: Vec<&[u8]> =
        (0..clean.len() as u32).map(|i| clean.download(DocId(i)).unwrap()).collect();
    let dirty_blobs: Vec<&[u8]> =
        (0..dirty.len() as u32).map(|i| dirty.download(DocId(i)).unwrap()).collect();
    let parser = AdaptiveParser;

    let mut group = c.benchmark_group("parser");
    group.sample_size(10);
    group.throughput(Throughput::Elements(clean_blobs.len() as u64));
    group.bench_function("clean_batch_64", |b| {
        b.iter(|| {
            std::hint::black_box(parser.parse_batch(Executor::global(), &clean_blobs)).1.produced
        })
    });
    group.bench_function("corrupt40pct_batch_64", |b| {
        b.iter(|| {
            std::hint::black_box(parser.parse_batch(Executor::global(), &dirty_blobs)).1.produced
        })
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function("single_clean_doc", |b| {
        b.iter(|| std::hint::black_box(parser.parse(clean_blobs[0])).is_parsed())
    });
    group.finish();
}

criterion_group!(benches, bench_parser);
criterion_main!(benches);
