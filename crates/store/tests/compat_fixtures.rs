//! Format-compat suite: the committed v2 fixture segment (written by
//! the previous, checksum-free format) must keep loading forever, and
//! unknown versions must fail with a typed error naming the version —
//! the compatibility policy ARCHITECTURE.md documents.

use evirel_store::{Segment, StoreError};
use evirel_testkit::TempDir;
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-restaurants.evb")
}

/// The fixture was generated with the v2 writer before the format
/// moved to v3: 40 deterministic restaurant tuples over schema
/// `RA(rname key, bldg int, rating float, spec evidential over
/// {siam, hunan, canton})`, page size 512.
#[test]
fn v2_fixture_still_loads_and_decodes() {
    let seg = Segment::open(fixture()).unwrap();
    assert_eq!(seg.version(), 2);
    assert_eq!(seg.content_checksum(), None, "v2 carries no checksum");
    assert_eq!(seg.tuple_count(), 40);
    assert!(seg.page_count() > 1, "512-byte pages must paginate");
    assert_eq!(seg.schema().name(), "RA");
    assert_eq!(seg.schema().arity(), 4);

    let mut tuples = Vec::new();
    for p in 0..seg.page_count() {
        let bytes = seg.read_page(p).unwrap();
        tuples.extend(seg.decode_page(&bytes).unwrap());
    }
    assert_eq!(tuples.len(), 40);
    for (i, t) in tuples.iter().enumerate() {
        // Exact values the generator wrote — if decode drifts, this
        // catches it bit for bit.
        assert_eq!(
            t.value(0).as_definite().unwrap(),
            &evirel_relation::Value::str(format!("rest-{i:03}"))
        );
        assert_eq!(
            t.value(1).as_definite().unwrap(),
            &evirel_relation::Value::int(i as i64 * 7 - 3)
        );
        assert_eq!(
            t.value(2).as_definite().unwrap(),
            &evirel_relation::Value::float(i as f64 * 0.125 + 0.015625)
        );
        let m = t.value(3).as_evidential().unwrap();
        assert_eq!(m.focal_count(), 3);
        assert_eq!(t.membership().sn(), 0.5 + i as f64 / 128.0);
        assert_eq!(t.membership().sp(), 1.0);
    }
}

/// The v2 fixture streams through the buffer pool like any segment.
#[test]
fn v2_fixture_attaches_as_stored_relation() {
    let pool = std::sync::Arc::new(evirel_store::BufferPool::new(2048));
    let stored = evirel_store::StoredRelation::open(fixture(), pool).unwrap();
    let rel = stored.to_relation().unwrap();
    assert_eq!(rel.len(), 40);
}

/// An unknown (future or never-released) version is a typed
/// `Corrupt` error that names the version and what this build reads.
#[test]
fn unknown_versions_rejected_with_typed_error() {
    let mut bytes = std::fs::read(fixture()).unwrap();
    let dir = TempDir::new("compat-test");
    for bad_version in [0u16, 1, 4, 9, u16::MAX] {
        bytes[4..6].copy_from_slice(&bad_version.to_le_bytes());
        let path = dir.join(format!("v{bad_version}.evb"));
        std::fs::write(&path, &bytes).unwrap();
        match Segment::open(&path) {
            Err(StoreError::Corrupt { context }) => {
                assert!(
                    context.contains(&format!("unsupported segment version {bad_version}")),
                    "error must name the version: {context}"
                );
                assert!(
                    context.contains("versions 2 and 3"),
                    "error must say what IS readable: {context}"
                );
            }
            other => panic!("expected Corrupt for version {bad_version}, got {other:?}"),
        }
    }
}

/// Segments written today are v3 and carry a content checksum — and
/// a byte-identical rewrite carries the *same* checksum
/// (deterministic format, no timestamps).
#[test]
fn current_writer_produces_checksummed_v3() {
    let pool = std::sync::Arc::new(evirel_store::BufferPool::new(4096));
    let stored = evirel_store::StoredRelation::open(fixture(), pool).unwrap();
    let rel = stored.to_relation().unwrap();

    let dir = TempDir::new("compat-test");
    let (a, b) = (dir.join("rewrite-a.evb"), dir.join("rewrite-b.evb"));
    let meta_a = evirel_store::write_segment_meta(&rel, &a, 512).unwrap();
    let meta_b = evirel_store::write_segment_meta(&rel, &b, 512).unwrap();
    assert_eq!(meta_a.checksum, meta_b.checksum, "deterministic checksum");
    assert_eq!(meta_a.tuple_count, 40);

    let seg = Segment::open(&a).unwrap();
    assert_eq!(seg.version(), 3);
    assert_eq!(seg.content_checksum(), Some(meta_a.checksum));
}
