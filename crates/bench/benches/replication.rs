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
use evirel_serve::protocol::{read_frame, write_frame};
use evirel_serve::{start_with_durability, FollowConfig, ServeConfig, ServerHandle};
use evirel_workload::{restaurant_db_a, restaurant_db_b};
use std::hint::black_box;
use std::net::TcpStream;

fn roundtrip(conn: &mut TcpStream, payload: &str) -> String {
    write_frame(conn, payload).expect("request writes");
    read_frame(conn)
        .expect("response reads")
        .expect("server replied")
}

fn durable_server(dir: &std::path::Path, follow: Option<String>) -> ServerHandle {
    let (durable, mut catalog) = DurableCatalog::open(dir).expect("durable dir opens");
    catalog.register("ra", restaurant_db_a().restaurants);
    catalog.register("rb", restaurant_db_b().restaurants);
    let config = ServeConfig {
        follow: follow.map(|addr| FollowConfig {
            initial_backoff: std::time::Duration::from_millis(10),
            max_backoff: std::time::Duration::from_millis(100),
            ..FollowConfig::new(addr)
        }),
        ..ServeConfig::default()
    };
    start_with_durability(catalog, config, Some(durable)).expect("server starts")
}

fn merge_generation(resp: &str) -> u64 {
    resp.split_whitespace()
        .find_map(|t| t.strip_prefix("generation="))
        .and_then(|v| v.parse().ok())
        .expect("merge response carries its generation")
}

/// Replication overhead: durable MERGE round-trip latency with no
/// follower vs with one attached `FOLLOW` subscriber (the asynchronous
/// sender must not sit on the write path), plus the end-to-end
/// replication lag — merge acknowledged on the primary until the same
/// generation is published on the standby.
fn bench_replication(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("evirel-bench-repl-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let primary = durable_server(&base.join("primary"), None);
    let mut conn = TcpStream::connect(primary.addr()).expect("connects");
    conn.set_nodelay(true).expect("nodelay");
    let merge = "MERGE bm\nSELECT * FROM ra UNION rb";
    let first = roundtrip(&mut conn, merge);
    assert!(first.starts_with("OK"), "{first}");

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
    let mut fconn = TcpStream::connect(follower.addr()).expect("connects");
    fconn.set_nodelay(true).expect("nodelay");
    let denied = roundtrip(&mut fconn, merge);
    assert!(denied.starts_with("ERR readonly"), "{denied}");

    group.bench_function("merge/one-follower", |b| {
        b.iter(|| black_box(roundtrip(&mut conn, merge)))
    });
    group.bench_function("merge/visible-on-follower", |b| {
        b.iter(|| {
            let resp = roundtrip(&mut conn, merge);
            let generation = merge_generation(&resp);
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
    assert!(follower.replication().records_applied > 0);
    drop(fconn);
    follower.shutdown();
    let fstats = follower.join();
    assert_eq!(fstats.panics, 0, "{fstats:?}");
    drop(conn);
    primary.shutdown();
    let stats = primary.join();
    assert_eq!(stats.panics, 0, "{stats:?}");
    std::fs::remove_dir_all(&base).ok();
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
