//! Replication benchmark: the `serve/replication` group, all that is
//! left of the retired `serve.rs` harness (see `bench_replication`).
//!
//! Kept because no `BENCHMARK.json` workload attaches a follower yet:
//! this is the "standby row" ROADMAP's one-fsync item measures before
//! judging the hex `SEG` frames. It is deleted the day a `benchmark`
//! issue adds a follower workload. Every other serve round-trip is
//! `read_warm` / `read_cold` / `write_mixed` there.
//!
//! The smoke pass (`cargo test --benches`, CI) asserts before anything
//! is timed: the follower converges and refuses writes (`ERR
//! readonly`), records were applied, zero panics on both servers.
//!
//! Last recording: `crates/bench/BASELINES.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use evirel_query::DurableCatalog;
use evirel_serve::protocol::Response;
use evirel_serve::{start_with_durability, FollowConfig, ServeConfig, ServerHandle};
use evirel_testkit::{connect, ok_body, roundtrip, seeded, stat, TempDir};
use std::hint::black_box;

fn durable_server(dir: &std::path::Path, follow: Option<String>) -> ServerHandle {
    let (durable, catalog) = DurableCatalog::open_into(dir, seeded()).expect("durable dir opens");
    let config = ServeConfig {
        follow: follow.map(FollowConfig::new),
        ..ServeConfig::default()
    };
    start_with_durability(catalog, config, Some(durable)).expect("server starts")
}

/// Replication overhead: durable MERGE round-trip latency with no
/// follower vs with one attached `FOLLOW` subscriber (the asynchronous
/// sender must not sit on the write path), plus the end-to-end
/// replication lag — merge acknowledged on the primary until the same
/// generation is published on the standby.
fn bench_replication(c: &mut Criterion) {
    let base = TempDir::new("bench-repl");
    let primary = durable_server(&base.join("primary"), None);
    let mut conn = connect(primary.addr());
    conn.set_nodelay(true).expect("nodelay");
    let merge = "MERGE bm\nSELECT * FROM ra UNION rb";
    ok_body(roundtrip(&mut conn, merge));

    let mut group = c.benchmark_group("serve/replication");
    group.sample_size(10);
    group.bench_function("merge/no-follower", |b| {
        b.iter(|| black_box(roundtrip(&mut conn, merge)))
    });

    let follower = durable_server(&base.join("follower"), Some(primary.addr().to_string()));
    // Sanity before timing: the follower converges and enforces its
    // readonly gate.
    let target = primary.catalog().generation();
    while follower.catalog().generation() < target {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut fconn = connect(follower.addr());
    fconn.set_nodelay(true).expect("nodelay");
    let denied = roundtrip(&mut fconn, merge);
    assert!(
        matches!(&denied, Response::Err { kind, .. } if kind == "readonly"),
        "{denied:?}"
    );

    group.bench_function("merge/one-follower", |b| {
        b.iter(|| black_box(roundtrip(&mut conn, merge)))
    });
    group.bench_function("merge/visible-on-follower", |b| {
        b.iter(|| {
            let generation = stat(&ok_body(roundtrip(&mut conn, merge)), "generation");
            while follower.catalog().generation() < generation {
                std::thread::yield_now();
            }
        })
    });
    group.finish();

    // The replicated history matches before anything shuts down.
    let target = primary.catalog().generation();
    while follower.catalog().generation() < target {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let applied = follower
        .metrics()
        .value("evirel_repl_records_applied_total", &[]);
    assert!(applied > Some(0), "{applied:?}");
    drop(fconn);
    follower.shutdown();
    let fmetrics = follower.join();
    assert_eq!(fmetrics.value("evirel_serve_panics_total", &[]), Some(0));
    drop(conn);
    primary.shutdown();
    let metrics = primary.join();
    assert_eq!(metrics.value("evirel_serve_panics_total", &[]), Some(0));
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
