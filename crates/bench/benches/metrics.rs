//! Observability-layer benchmark: what the instrumentation primitives
//! cost (`metrics/hot-path`) — a registry counter increment vs a raw
//! relaxed `AtomicU64` (the floor), a histogram observation, and a
//! full exposition render of a populated registry (the scrape cost,
//! paid by `METRICS` callers, not by queries).
//!
//! Kept because `BENCHMARK.json` sees instrumentation only end to end
//! (`trace.overhead_ratio`, and `read_warm` itself, which replaced the
//! retired `metrics/instrumented` round-trips): these rows are the
//! per-primitive side of the 2 % bar.
//!
//! Last recording: `crates/bench/BASELINES.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use evirel_obs::{Histogram, MetricsRegistry};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics/hot-path");

    let raw = AtomicU64::new(0);
    group.bench_function("raw-atomic-add", |b| {
        b.iter(|| black_box(raw.fetch_add(1, Ordering::Relaxed)))
    });

    let registry = MetricsRegistry::new();
    let counter = registry.counter("evirel_bench_total", "bench", &[]);
    group.bench_function("counter-inc", |b| b.iter(|| counter.inc()));

    let histogram = Histogram::default();
    let mut us = 0u64;
    group.bench_function("histogram-observe", |b| {
        b.iter(|| {
            us = (us + 997) % 2_000_000;
            histogram.observe_us(black_box(us));
        })
    });

    // Scrape cost over a registry shaped like a live server's: a few
    // dozen counter/gauge series plus latency histograms.
    let populated = MetricsRegistry::new();
    for verb in ["query", "merge", "ping", "stats", "explain", "metrics"] {
        populated
            .counter("evirel_serve_requests_total", "requests", &[("verb", verb)])
            .add(1234);
        let h = populated.histogram("evirel_serve_request_seconds", "latency", &[("verb", verb)]);
        for i in 0..64 {
            h.observe_us(i * 300);
        }
    }
    for name in [
        "evirel_serve_queue_depth",
        "evirel_serve_workers_busy",
        "evirel_store_pool_hits_total",
        "evirel_store_pool_misses_total",
        "evirel_query_cache_hits_total",
        "evirel_repl_generation_lag",
    ] {
        populated.gauge(name, "bench", &[]).set(42);
    }
    let text = populated.render();
    assert!(text.contains("# TYPE evirel_serve_requests_total counter"));
    group.bench_function("render", |b| b.iter(|| black_box(populated.render())));
    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
