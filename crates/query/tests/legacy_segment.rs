//! A segment written before the stats section existed (the committed
//! v2 fixture) is planned like any other relation: its statistics are
//! computed when it is attached, so the catalog publishes them,
//! `EXPLAIN ANALYZE` estimates its scan, and `STATS` / `\stats` has
//! nothing special to say about it.

use evirel_query::Catalog;
use std::path::PathBuf;

fn v2_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v2-restaurants.evb")
}

#[test]
fn v2_segment_attaches_with_computed_statistics() {
    let mut disk = Catalog::new();
    disk.attach_stored("ra", v2_fixture()).unwrap();
    let mut mem = Catalog::new();
    mem.register("ra", disk.materialize("ra").unwrap());

    // The block computed at open is the one `register` computes for
    // the materialized copy, byte for byte.
    let encoded = |c: &Catalog| {
        let mut bytes = Vec::new();
        c.stats_for("ra")
            .expect("every binding has statistics")
            .encode(&mut bytes);
        bytes
    };
    assert_eq!(encoded(&disk), encoded(&mem));
    let summary = disk.stats_summary();
    assert!(summary.starts_with("ra (stored): 40 tuples"), "{summary}");
    assert!(!summary.contains("no statistics"), "{summary}");

    // Stored and in-memory copies answer alike, tuple order included.
    for query in [
        "SELECT * FROM ra WITH SN > 0",
        "SELECT rname, spec FROM ra WHERE spec IS {siam} WITH SN >= 0.5",
        "SELECT rname FROM ra WHERE spec IS {hunan, canton} WITH SP >= 0.5",
    ] {
        let stored = evirel_query::execute(&disk, query).map_err(|e| e.to_string());
        let memory = evirel_query::execute(&mem, query).map_err(|e| e.to_string());
        match (stored, memory) {
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

    // EXPLAIN ANALYZE estimates the legacy scan like any other.
    let text = evirel_query::explain_with(
        &disk,
        "SELECT * FROM ra WITH SN > 0",
        disk.exec_context(),
        true,
    )
    .unwrap();
    let scan = text
        .lines()
        .find(|l| l.contains("scan ra [stored"))
        .unwrap_or_else(|| panic!("no stored scan line in:\n{text}"));
    assert!(scan.contains("[est≈40 act=40]"), "{scan}");
}
