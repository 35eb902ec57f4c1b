//! Property suite for the segment stats section: the `RelStats`
//! block a `SegmentWriter` accumulates incrementally while appending
//! tuples must be **byte-identical** to the stats recomputed from the
//! decoded relation after a round-trip — across random shapes, page
//! sizes, and domains wider than 128 values (boxed focal words). The
//! cost model's determinism contract rests on this: planning from a
//! stored segment and planning from the same relation in memory see
//! the same numbers, so they build the same plan.

use evirel_store::{compute_stats, BufferPool, StoredRelation};
use evirel_testkit::TempDir;
use evirel_workload::generator::{generate, GeneratorConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Write `rel` to a segment, reopen it, and compare the persisted
/// stats block against stats recomputed from the decoded relation —
/// on the encoded bytes, so every sketch register, histogram bucket,
/// and f64 bit pattern must agree exactly.
fn assert_stats_roundtrip(
    rel: &evirel_relation::ExtendedRelation,
    page_size: usize,
) -> Result<(), String> {
    let dir = TempDir::new("statsrt");
    let path = dir.join("rt.evb");
    evirel_store::write_segment(rel, &path, page_size).map_err(|e| format!("write: {e}"))?;
    let pool = Arc::new(BufferPool::new(8192));
    let stored = StoredRelation::open(&path, pool).map_err(|e| format!("open: {e}"))?;
    let persisted = stored.stats();
    let decoded = stored.to_relation().map_err(|e| format!("decode: {e}"))?;
    let recomputed = compute_stats(&decoded);
    let mut a = Vec::new();
    let mut b = Vec::new();
    persisted.encode(&mut a);
    recomputed.encode(&mut b);
    if a != b {
        return Err(format!(
            "persisted stats diverge from recomputed:\n  persisted:  {persisted:?}\n  recomputed: {recomputed:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Write-time stats ≡ recomputed stats over random relations.
    #[test]
    fn write_time_stats_equal_recomputed(
        seed in 0u64..1_000_000,
        tuples in 1usize..200,
        domain_size in 2usize..20,
        attrs in 1usize..4,
        max_focal in 1usize..5,
        page_shift in 6u32..13, // page sizes 64..8192
    ) {
        let rel = generate("G", &GeneratorConfig {
            tuples,
            domain_size,
            evidential_attrs: attrs,
            max_focal,
            max_focal_size: 3,
            omega_mass: 0.1,
            uncertain_membership: 0.4,
            seed,
        }).expect("generator config is valid");
        let outcome = assert_stats_roundtrip(&rel, 1usize << page_shift);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Frames wider than 128 values exercise the boxed-word focal
    /// encoding in the per-attribute histograms too.
    #[test]
    fn wide_domain_stats_equal_recomputed(
        seed in 0u64..1_000_000,
        tuples in 1usize..40,
    ) {
        let rel = generate("W", &GeneratorConfig {
            tuples,
            domain_size: 200,
            evidential_attrs: 1,
            max_focal: 3,
            max_focal_size: 180, // sets reaching past bit 128
            omega_mass: 0.1,
            uncertain_membership: 0.2,
            seed,
        }).expect("generator config is valid");
        let outcome = assert_stats_roundtrip(&rel, 1024);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// The committed v2 fixture (written before the stats section
/// existed) has its block computed when it is opened — the same
/// bytes `compute_stats` gives for the decoded relation, so a legacy
/// segment plans exactly like a current one.
#[test]
fn v2_segment_stats_are_computed_at_open() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-restaurants.evb");
    let stored = StoredRelation::open(fixture, Arc::new(BufferPool::new(4096))).unwrap();
    assert_eq!(stored.len(), 40);
    let (mut at_open, mut recomputed) = (Vec::new(), Vec::new());
    stored.stats().encode(&mut at_open);
    compute_stats(&stored.to_relation().unwrap()).encode(&mut recomputed);
    assert_eq!(at_open, recomputed);
}

/// An empty relation still writes (and round-trips) a stats block.
#[test]
fn empty_relation_stats_roundtrip() {
    let rel = generate(
        "E",
        &GeneratorConfig {
            tuples: 0,
            ..Default::default()
        },
    )
    .unwrap();
    assert_stats_roundtrip(&rel, 512).unwrap();
}
