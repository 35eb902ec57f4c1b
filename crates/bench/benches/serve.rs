//! Query-service benchmark: request round-trips through a live
//! in-process `evirel-serve` instance.
//!
//! Three measurements:
//!
//! * `serve/roundtrip` — single-connection QUERY latency, split by
//!   cold (first execution, full lowering/rewrite) vs warm (prepared
//!   plan served from the prepared-plan cache). The gap is the
//!   plan cache's observable win.
//! * `serve/load` — wall-clock for a full mixed read/merge load-driver
//!   run (barrier-synchronized concurrent sessions, ~10% MERGE
//!   writes), at increasing session counts.
//! * `serve/replication` — durable MERGE round-trip with zero vs one
//!   attached `FOLLOW` standby (the asynchronous sender must stay off
//!   the write path), and the merge-acknowledged-to-visible-on-standby
//!   replication lag.
//!
//! The smoke pass (`cargo test --benches`, CI) asserts the service
//! invariants before anything is timed: zero protocol errors, zero
//! server errors, zero panics, cache hits observed, merges applied.
//!
//! Reference numbers live in `crates/bench/BASELINES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evirel_query::{Catalog, DurableCatalog};
use evirel_serve::protocol::{read_frame, write_frame};
use evirel_serve::{start, start_with_durability, FollowConfig, ServeConfig, ServerHandle};
use evirel_workload::driver::{run_load, LoadConfig};
use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
use evirel_workload::{restaurant_db_a, restaurant_db_b};
use std::hint::black_box;
use std::net::TcpStream;

fn measured() -> bool {
    std::env::args().any(|a| a == "--bench")
}

fn server() -> ServerHandle {
    let mut catalog = Catalog::new();
    catalog.register("ra", restaurant_db_a().restaurants);
    catalog.register("rb", restaurant_db_b().restaurants);
    let (ga, gb) = generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples: 256,
            seed: 97,
            ..GeneratorConfig::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.25,
    })
    .expect("generator config is valid");
    catalog.register("ga", ga);
    catalog.register("gb", gb);
    start(catalog, ServeConfig::default()).expect("server starts")
}

fn roundtrip(conn: &mut TcpStream, payload: &str) -> String {
    write_frame(conn, payload).expect("request writes");
    read_frame(conn)
        .expect("response reads")
        .expect("server replied")
}

fn bench_roundtrip(c: &mut Criterion) {
    let handle = server();
    let mut conn = TcpStream::connect(handle.addr()).expect("connects");
    conn.set_nodelay(true).expect("nodelay");
    let query = "QUERY\nSELECT * FROM ra UNION rb WITH SN > 0.5";

    // Sanity before timing: the query succeeds, and the second
    // execution is served from the prepared-plan cache.
    let cold = roundtrip(&mut conn, query);
    assert!(cold.starts_with("OK"), "{cold}");
    assert!(cold.contains("cached=0"), "{cold}");
    let warm = roundtrip(&mut conn, query);
    assert!(warm.contains("cached=1"), "cache must engage: {warm}");

    let mut group = c.benchmark_group("serve/roundtrip");
    group.bench_function("warm-cached", |b| {
        b.iter(|| black_box(roundtrip(&mut conn, query)))
    });
    group.bench_function("ping", |b| {
        b.iter(|| black_box(roundtrip(&mut conn, "PING")))
    });
    group.finish();

    drop(conn);
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.errors, 0);
}

fn bench_load(c: &mut Criterion) {
    let sessions: &[usize] = if measured() { &[16, 64, 256] } else { &[16] };
    let mut group = c.benchmark_group("serve/load");
    group.sample_size(10);
    for &n in sessions {
        let handle = server();
        let config = LoadConfig {
            addr: handle.addr().to_string(),
            sessions: n,
            ops_per_session: 4,
            merge_every: 10,
            ..LoadConfig::default()
        };
        // Sanity before timing: one full run must be spotless.
        let report = run_load(&config);
        assert_eq!(report.protocol_errors, 0, "{report:?}");
        assert_eq!(report.server_errors, 0, "{report:?}");
        assert_eq!(report.sessions_completed, n as u64, "{report:?}");
        assert!(report.merges_ok > 0, "{report:?}");

        group.throughput(Throughput::Elements((n * 4) as u64));
        group.bench_with_input(BenchmarkId::new("sessions", n), &config, |b, config| {
            b.iter(|| black_box(run_load(config)))
        });

        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.panics, 0, "{stats:?}");
    }
    group.finish();
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

criterion_group!(benches, bench_roundtrip, bench_load, bench_replication);
criterion_main!(benches);
