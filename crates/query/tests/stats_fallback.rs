//! Heuristic-fallback coverage: a pre-v3 segment carries no stats
//! section, so the catalog publishes no statistics for it and the
//! cost model declines to estimate — the planner must fall back to
//! its fixed heuristics and still produce correct results. (The other
//! half of the fallback matrix — statistics globally disabled — is
//! the CI `EVIREL_NO_STATS=1` re-run of the plan/query suites.)

use evirel_query::Catalog;
use std::path::PathBuf;

fn v2_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v2-restaurants.evb")
}

/// Attaching a v2 segment yields no stats entry; queries against it
/// still run, and they match the same query over the materialized
/// relation registered in memory (which *does* have stats) — the two
/// planning modes agree on results.
#[test]
fn v2_segment_plans_and_queries_via_heuristics() {
    let mut disk = Catalog::new();
    disk.attach_stored("ra", v2_fixture()).unwrap();
    assert!(
        disk.stats_for("ra").is_none(),
        "v2 attachment must publish no stats"
    );
    assert!(
        disk.stats_summary().contains("no statistics"),
        "\\stats must flag the fallback: {}",
        disk.stats_summary()
    );

    let mut mem = Catalog::new();
    mem.register("ra", disk.materialize("ra").unwrap());
    assert!(mem.stats_for("ra").is_some(), "register computes stats");

    for query in [
        "SELECT * FROM ra WITH SN > 0",
        "SELECT rname, spec FROM ra WHERE spec IS {siam} WITH SN >= 0.5",
        "SELECT rname FROM ra WHERE spec IS {hunan, canton} WITH SP >= 0.5",
    ] {
        let without_stats = match evirel_query::execute(&disk, query) {
            Ok(rel) => Ok(rel),
            Err(e) => Err(e.to_string()),
        };
        let with_stats = match evirel_query::execute(&mem, query) {
            Ok(rel) => Ok(rel),
            Err(e) => Err(e.to_string()),
        };
        match (without_stats, with_stats) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{query}");
                assert!(a.approx_eq(&b), "{query}");
                assert_eq!(
                    a.keys().collect::<Vec<_>>(),
                    b.keys().collect::<Vec<_>>(),
                    "{query}: insertion order"
                );
            }
            (a, b) => assert_eq!(a.map(|_| "ok"), b.map(|_| "ok"), "{query}"),
        }
    }

    // EXPLAIN-analyze renders `est=?` for the stats-less scan —
    // actuals still appear — while the in-memory catalog estimates.
    let explain = |c: &Catalog| {
        evirel_query::explain_with(c, "SELECT * FROM ra WITH SN > 0", c.exec_context(), true)
            .unwrap()
    };
    let text = explain(&disk);
    assert!(text.contains("act="), "{text}");
    if evirel_plan::stats_enabled() {
        assert!(text.contains("est=?"), "{text}");
        let text = explain(&mem);
        assert!(text.contains("est≈"), "{text}");
    }
}
