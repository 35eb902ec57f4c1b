//! Extended-union benchmarks: relation size, key overlap, and
//! conflict bias. (Parallel ∪̃ is measured through the exchange
//! operator in `exchange.rs`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evirel_algebra::union::{union_with, UnionOptions};
use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
use std::hint::black_box;

fn pair(
    tuples: usize,
    overlap: f64,
    conflict: f64,
) -> (
    evirel_relation::ExtendedRelation,
    evirel_relation::ExtendedRelation,
) {
    generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples,
            ..Default::default()
        },
        key_overlap: overlap,
        conflict_bias: conflict,
    })
    .expect("generator config is valid")
}

fn bench_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("union/size");
    for tuples in [100usize, 1000, 5000] {
        let (a, b) = pair(tuples, 0.5, 0.0);
        group.throughput(Throughput::Elements(tuples as u64));
        group.bench_with_input(BenchmarkId::from_parameter(tuples), &tuples, |bench, _| {
            bench.iter(|| union_with(black_box(&a), black_box(&b), &UnionOptions::default()));
        });
    }
    group.finish();
}

fn bench_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("union/overlap");
    for overlap in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let (a, b) = pair(2000, overlap, 0.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{overlap:.2}")),
            &overlap,
            |bench, _| {
                bench.iter(|| union_with(black_box(&a), black_box(&b), &UnionOptions::default()));
            },
        );
    }
    group.finish();
}

fn bench_conflict_bias(c: &mut Criterion) {
    let mut group = c.benchmark_group("union/conflict-bias");
    for bias in [0.0f64, 0.5, 1.0] {
        let (a, b) = pair(2000, 1.0, bias);
        // High bias can produce total conflicts; resolve vacuously so
        // the bench measures the full path.
        let options = UnionOptions {
            on_total_conflict: evirel_algebra::ConflictPolicy::Vacuous,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{bias:.1}")),
            &bias,
            |bench, _| {
                bench.iter(|| union_with(black_box(&a), black_box(&b), &options));
            },
        );
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_size, bench_overlap, bench_conflict_bias
}
criterion_main!(benches);
