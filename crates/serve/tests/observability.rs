//! Integration tests for the observability surface: the `METRICS`
//! scrape endpoint over a live server, and the satellite guarantee
//! that `STATS` and `METRICS` read the *same* registry — the two
//! renderings can never disagree on a number.

use evirel_query::Catalog;
use evirel_serve::protocol::{read_frame, write_frame, Response};
use evirel_serve::{start, ServeConfig};
use evirel_workload::{restaurant_db_a, restaurant_db_b};
use std::net::TcpStream;
use std::time::Duration;

fn seeded_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("ra", restaurant_db_a().restaurants);
    catalog.register("rb", restaurant_db_b().restaurants);
    catalog
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

fn roundtrip(stream: &mut TcpStream, payload: &str) -> Response {
    write_frame(stream, payload).expect("request frame writes");
    let reply = read_frame(stream)
        .expect("response frame reads")
        .expect("server replied");
    Response::parse(&reply).expect("response parses")
}

fn ok_body(response: Response) -> String {
    match response {
        Response::Ok { body } => body,
        other => panic!("expected OK, got {other:?}"),
    }
}

/// The value of an exact series (name including labels, if any) in a
/// Prometheus text exposition.
fn series(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (series_name, value) = line.split_once(' ')?;
            (series_name == name).then(|| {
                value
                    .parse()
                    .unwrap_or_else(|e| panic!("series {name} value {value:?}: {e}"))
            })
        })
        .unwrap_or_else(|| panic!("series {name} missing from exposition:\n{exposition}"))
}

/// The value of `key=` on the `STATS` line starting with `prefix`.
fn stat(body: &str, prefix: &str, key: &str) -> u64 {
    let line = body
        .lines()
        .find(|line| line.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starting with {prefix:?} in:\n{body}"));
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= on {line:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("{key} on {line:?}: {e}"))
}

#[test]
fn metrics_scrape_covers_every_subsystem() {
    let handle = start(seeded_catalog(), ServeConfig::default()).expect("server starts");
    let mut stream = connect(handle.addr());

    // Traffic across verbs: a cold query, the same query warm (cache
    // hit), and a write.
    let query = "QUERY\nSELECT * FROM ra WHERE speciality IS {si} WITH SN > 0;";
    for cached in ["cached=0", "cached=1"] {
        let reply = ok_body(roundtrip(&mut stream, query));
        let header = reply.lines().next().unwrap_or_default();
        assert!(header.contains(cached), "expected {cached}: {header}");
    }
    assert!(matches!(
        roundtrip(
            &mut stream,
            "MERGE merged\nSELECT * FROM ra UNION rb WITH SN > 0;"
        ),
        Response::Ok { .. }
    ));

    let exposition = ok_body(roundtrip(&mut stream, "METRICS"));

    // One family per subsystem, with `# TYPE` lines — the scrape is
    // self-describing.
    for family in [
        "# TYPE evirel_serve_requests_total counter",
        "# TYPE evirel_serve_request_seconds histogram",
        "# TYPE evirel_serve_queue_depth gauge",
        "# TYPE evirel_catalog_writer_wait_seconds histogram",
        "# TYPE evirel_query_cache_hits_total counter",
        "# TYPE evirel_query_seconds histogram",
        "# TYPE evirel_store_pool_hits_total counter",
        "# TYPE evirel_catalog_generation gauge",
        "# TYPE evirel_repl_generation_lag gauge",
    ] {
        assert!(
            exposition.contains(family),
            "missing {family:?} in:\n{exposition}"
        );
    }

    // Per-verb counters reflect exactly the traffic sent above (the
    // METRICS request itself is counted before it renders).
    assert_eq!(
        series(&exposition, "evirel_serve_requests_total{verb=\"query\"}"),
        2
    );
    assert_eq!(
        series(&exposition, "evirel_serve_requests_total{verb=\"merge\"}"),
        1
    );
    assert_eq!(
        series(&exposition, "evirel_serve_requests_total{verb=\"metrics\"}"),
        1
    );
    assert_eq!(series(&exposition, "evirel_query_cache_hits_total"), 1);
    // Two cold plans: the first SELECT and the MERGE body.
    assert_eq!(series(&exposition, "evirel_query_cache_misses_total"), 2);
    assert_eq!(series(&exposition, "evirel_serve_merges_total"), 1);
    // Recorded on the write path only: once per MERGE, never by a read.
    assert_eq!(
        series(&exposition, "evirel_catalog_writer_wait_seconds_count"),
        1
    );
    assert_eq!(series(&exposition, "evirel_serve_request_errors_total"), 0);
    assert_eq!(series(&exposition, "evirel_serve_panics_total"), 0);
    // The warm query's latency was observed into the per-verb
    // histogram: its _count matches the request counter.
    assert_eq!(
        series(
            &exposition,
            "evirel_serve_request_seconds_count{verb=\"query\"}"
        ),
        2
    );

    drop(stream);
    handle.shutdown();
    handle.join();
}

#[test]
fn stats_and_metrics_read_the_same_registry() {
    let handle = start(seeded_catalog(), ServeConfig::default()).expect("server starts");
    let mut stream = connect(handle.addr());

    let query = "QUERY\nSELECT * FROM rb WHERE rating >= 'gd' WITH SN > 0;";
    for _ in 0..3 {
        assert!(matches!(roundtrip(&mut stream, query), Response::Ok { .. }));
    }
    assert!(matches!(
        roundtrip(
            &mut stream,
            "MERGE both\nSELECT * FROM ra UNION rb WITH SN > 0;"
        ),
        Response::Ok { .. }
    ));

    let stats = ok_body(roundtrip(&mut stream, "STATS"));
    let exposition = ok_body(roundtrip(&mut stream, "METRICS"));

    // Every number STATS printed must come back identical from the
    // scrape — shared registry, one source of truth. Only the
    // request counter moved between the two calls: by exactly one,
    // for the METRICS request itself.
    assert_eq!(
        series(&exposition, "evirel_serve_requests_handled_total"),
        stat(&stats, "server ", "requests") + 1
    );
    for (series_name, prefix, key) in [
        (
            "evirel_serve_connections_accepted_total",
            "server ",
            "accepted",
        ),
        ("evirel_serve_busy_rejected_total", "server ", "busy"),
        ("evirel_serve_sessions_total", "server ", "sessions"),
        ("evirel_serve_request_errors_total", "server ", "errors"),
        ("evirel_serve_merges_total", "server ", "merges"),
        ("evirel_query_cache_entries", "cache ", "entries"),
        ("evirel_query_cache_hits_total", "cache ", "hits"),
        ("evirel_query_cache_misses_total", "cache ", "misses"),
        ("evirel_query_cache_stale_total", "cache ", "stale"),
        ("evirel_store_pool_hits_total", "pool ", "hits"),
        ("evirel_store_pool_misses_total", "pool ", "misses"),
        ("evirel_repl_records_sent_total", "replication ", "sent"),
        (
            "evirel_repl_records_applied_total",
            "replication ",
            "applied",
        ),
    ] {
        assert_eq!(
            series(&exposition, series_name),
            stat(&stats, prefix, key),
            "{series_name} disagrees with STATS {key}"
        );
    }

    drop(stream);
    handle.shutdown();
    handle.join();
}
