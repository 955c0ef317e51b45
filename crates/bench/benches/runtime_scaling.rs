//! Runtime scaling: stage throughput vs worker count (the node-scale
//! analogue of the paper's Parsl scaling on ALCF machines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcqa_runtime::{run_stage, run_stage_batched, Executor};

/// A CPU-bound task roughly the cost of judging one candidate question.
fn work_unit(x: u64) -> Result<u64, String> {
    let mut acc = x;
    for i in 0..4_000 {
        acc = mcqa_util::splitmix64(acc ^ i);
    }
    Ok(acc)
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_scaling");
    group.sample_size(10);
    let n_tasks = 2_000u64;
    group.throughput(Throughput::Elements(n_tasks));
    let max_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut worker_counts = vec![1usize, 2, 4, max_workers];
    worker_counts.dedup();
    worker_counts.sort_unstable();
    worker_counts.dedup();
    for workers in worker_counts {
        group.bench_with_input(BenchmarkId::new("stage_2k_tasks", workers), &workers, |b, &w| {
            let pool = Executor::new(w);
            b.iter(|| {
                let items: Vec<u64> = (0..n_tasks).collect();
                let (results, _) = run_stage(&pool, "bench", items, work_unit);
                std::hint::black_box(results.len())
            });
        });
    }
    group.finish();
}

/// Per-item vs batched submission on trivial tasks: this isolates the
/// scheduler's own overhead (boxing + channel send per pool task), which is
/// exactly what `run_stage_batched` amortises for high-item-count stages
/// like generate+judge.
fn bench_submission_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_overhead");
    group.sample_size(20);
    let pool = Executor::new(4);
    for n in [10_000u64, 100_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("per_item", n), &n, |b, &n| {
            b.iter(|| {
                let items: Vec<u64> = (0..n).collect();
                let (r, _) = run_stage(&pool, "trivial", items, Ok::<u64, String>);
                std::hint::black_box(r.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("batched_auto", n), &n, |b, &n| {
            b.iter(|| {
                let items: Vec<u64> = (0..n).collect();
                let (r, _) = run_stage_batched(&pool, "trivial", items, 0, Ok::<u64, String>);
                std::hint::black_box(r.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling, bench_submission_overhead);
criterion_main!(benches);
