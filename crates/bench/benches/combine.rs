//! Dempster-combination microbenchmarks.
//!
//! The 1994 paper reports no wall-clock numbers; these benches
//! document the algorithmic cost profile of the combination engine:
//! scaling in focal-element count and domain size, and what one
//! scratch shared across a merge pass saves. Kept beside `benchmark/`
//! because `evidence.dempster_ns_per_pair` there is one operand shape
//! and this is the sweep (last recording: `crates/bench/BASELINES.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evirel_evidence::{combine, Frame, MassFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn frame(size: usize) -> Arc<Frame> {
    Arc::new(Frame::new("bench", (0..size).map(|i| format!("v{i}"))))
}

/// A random normalized mass function with `focal` focal elements over
/// a frame of `domain` values. `omega` reserves an ignorance floor,
/// which guarantees κ < 1 for any pair.
fn random_mass_with_omega(
    rng: &mut StdRng,
    frame: &Arc<Frame>,
    focal: usize,
    omega: f64,
) -> MassFunction<f64> {
    let n = frame.len();
    let mut sets = Vec::with_capacity(focal);
    while sets.len() < focal {
        let size = rng.gen_range(1..=3.min(n));
        let set = evirel_evidence::FocalSet::from_indices((0..size).map(|_| rng.gen_range(0..n)));
        if !sets.contains(&set) && set.len() < n {
            sets.push(set);
        }
    }
    let weights: Vec<f64> = (0..sets.len()).map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = weights.iter().sum::<f64>() / (1.0 - omega);
    let mut entries: Vec<(evirel_evidence::FocalSet, f64)> = sets
        .into_iter()
        .zip(weights.into_iter().map(|w| w / total))
        .collect();
    if omega > 0.0 {
        entries.push((evirel_evidence::FocalSet::full(n), omega));
    }
    MassFunction::from_entries(Arc::clone(frame), entries).expect("normalized by construction")
}

fn random_mass(rng: &mut StdRng, frame: &Arc<Frame>, focal: usize) -> MassFunction<f64> {
    random_mass_with_omega(rng, frame, focal, 0.0)
}

/// A random singleton-only (Bayesian) mass function with `focal`
/// distinct focal elements. Element 0 is always focal so two such
/// functions can never be in total conflict — the bench must measure
/// the singleton fast path, not the error path.
fn random_bayesian(rng: &mut StdRng, frame: &Arc<Frame>, focal: usize) -> MassFunction<f64> {
    let n = frame.len();
    assert!(focal <= n);
    let mut members = vec![0usize];
    while members.len() < focal {
        let i = rng.gen_range(0..n);
        if !members.contains(&i) {
            members.push(i);
        }
    }
    let weights: Vec<f64> = (0..focal).map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = weights.iter().sum();
    let entries = members
        .into_iter()
        .zip(weights.into_iter().map(|w| w / total))
        .map(|(i, w)| (evirel_evidence::FocalSet::singleton(i), w));
    MassFunction::from_entries(Arc::clone(frame), entries).expect("normalized by construction")
}

/// The focal-count sweep from ROADMAP's hot-path item: 2–64 focal
/// elements over a 64-value frame, mixed-cardinality vs
/// singleton-only operands. The mixed group keeps its historical name
/// so BASELINES.md before/after comparisons line up.
fn bench_focal_scaling(c: &mut Criterion) {
    let f = frame(64);
    type Operand = fn(&mut StdRng, &Arc<Frame>, usize) -> MassFunction<f64>;
    let shapes: [(&str, Operand); 2] = [
        ("dempster/focal-count", random_mass),
        ("dempster/focal-count-singleton", random_bayesian),
    ];
    for (name, operand) in shapes {
        let mut group = c.benchmark_group(name);
        for focal in [2usize, 4, 8, 16, 32, 64] {
            let mut rng = StdRng::seed_from_u64(1);
            let a = operand(&mut rng, &f, focal);
            let b = operand(&mut rng, &f, focal);
            group.throughput(Throughput::Elements((focal * focal) as u64));
            group.bench_with_input(BenchmarkId::from_parameter(focal), &focal, |bench, _| {
                bench.iter(|| combine::dempster(black_box(&a), black_box(&b)));
            });
        }
        group.finish();
    }
}

fn bench_domain_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dempster/domain-size");
    for size in [8usize, 64, 256, 1024] {
        let f = frame(size);
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_mass(&mut rng, &f, 8);
        let b = random_mass(&mut rng, &f, 8);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| combine::dempster(black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

/// Merge-pass allocation ablation: a batch of 256 combinations run
/// with a fresh memo table per call vs ONE shared `Scratch` for the
/// whole pass (the ROADMAP Dempster item's "reuse one BitsMemo across
/// a whole merge pass" headroom, now what `DempsterMerger` does).
/// Results are asserted bit-identical before timing.
fn bench_merge_pass_scratch(c: &mut Criterion) {
    let f = frame(64);
    let mut rng = StdRng::seed_from_u64(5);
    let pairs: Vec<(MassFunction<f64>, MassFunction<f64>)> = (0..256)
        .map(|_| {
            (
                random_mass_with_omega(&mut rng, &f, 8, 0.1),
                random_mass_with_omega(&mut rng, &f, 8, 0.1),
            )
        })
        .collect();
    let mut scratch = combine::Scratch::new();
    for (a, b) in &pairs {
        let fresh = combine::dempster(a, b).expect("omega floor");
        let reused = combine::dempster_with(a, b, &mut scratch).expect("omega floor");
        assert_eq!(fresh.mass, reused.mass, "scratch must be bit-invisible");
    }
    let mut group = c.benchmark_group("dempster/merge-pass");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_function("fresh-memo", |bench| {
        bench.iter(|| {
            for (a, b) in &pairs {
                black_box(combine::dempster(black_box(a), black_box(b)).unwrap());
            }
        });
    });
    group.bench_function("shared-scratch", |bench| {
        let mut scratch = combine::Scratch::new();
        bench.iter(|| {
            for (a, b) in &pairs {
                black_box(
                    combine::dempster_with(black_box(a), black_box(b), &mut scratch).unwrap(),
                );
            }
        });
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_focal_scaling, bench_domain_scaling, bench_merge_pass_scratch
}
criterion_main!(benches);
