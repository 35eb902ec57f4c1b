//! Integration tests for the observability surface: the `METRICS`
//! scrape endpoint over a live server, and the satellite guarantee
//! that `STATS` and `METRICS` read the *same* registry — the two
//! renderings can never disagree on a number.

use evirel_serve::protocol::Response;
use evirel_serve::{start, ServeConfig};
use evirel_testkit::{connect, line, ok_body, roundtrip, seeded, series, stat};

#[test]
fn metrics_scrape_covers_every_subsystem() {
    let handle = start(seeded(), ServeConfig::default()).expect("server starts");
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
        "# TYPE evirel_store_fsyncs_total counter",
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

/// On a lone primary; `stats_and_metrics_agree_on_a_replicated_pair`
/// (the replication suite) is the same check where the `evirel_repl_*`
/// series are not all zero.
#[test]
fn stats_and_metrics_read_the_same_registry() {
    let handle = start(seeded(), ServeConfig::default()).expect("server starts");
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
        stat(line(&stats, "server "), "requests") + 1
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
            stat(line(&stats, prefix), key),
            "{series_name} disagrees with STATS {key}"
        );
    }

    drop(stream);
    handle.shutdown();
    handle.join();
}
