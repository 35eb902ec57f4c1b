//! Property suite: random extended relations → binary segment → read
//! back ≡ original. The binary format stores `f64` payloads as raw
//! IEEE-754 bits, so the round-trip is *exact* (bitwise value
//! equality), not merely within tolerance — and the suite asserts
//! exactly that, plus preserved insertion order, across random
//! shapes, page sizes, and domains wider than 128 values (boxed focal
//! words).

use evirel_store::{BufferPool, Segment, StoredRelation};
use evirel_testkit::{same_tuples, OrFail, TempDir};
use evirel_workload::generator::{generate, GeneratorConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Exact comparison: same schema, same insertion order, bitwise-equal
/// values and membership.
fn assert_exact(original: &evirel_relation::ExtendedRelation, stored: &StoredRelation) {
    original
        .schema()
        .check_union_compatible(stored.schema())
        .expect("schemas compatible after round-trip");
    let decoded: Vec<_> = stored.iter().collect::<Result<_, _>>().expect("decodes");
    same_tuples(original.iter(), &decoded).or_fail("after round-trip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn binary_segment_roundtrip_is_exact(
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
        let dir = TempDir::new("roundtrip");
        let path = dir.join("gen.evb");
        evirel_store::write_segment(&rel, &path, 1usize << page_shift)
            .expect("segment writes");
        let pool = Arc::new(BufferPool::new(4096));
        assert_exact(&rel, &StoredRelation::open(&path, pool).expect("segment opens"));
    }

    /// Frames wider than 128 values exercise the boxed-word focal
    /// encoding (word count > 2).
    #[test]
    fn wide_domain_roundtrip_is_exact(
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
        let dir = TempDir::new("roundtrip");
        let path = dir.join("wide.evb");
        evirel_store::write_segment(&rel, &path, 1024).expect("segment writes");
        let pool = Arc::new(BufferPool::new(8192));
        assert_exact(&rel, &StoredRelation::open(&path, pool).expect("segment opens"));
    }
}

/// The materialized bridge reproduces the original relation through
/// `ExtendedRelation` equality machinery too (key index rebuilt).
#[test]
fn to_relation_round_trips() {
    let rel = generate(
        "M",
        &GeneratorConfig {
            tuples: 500,
            ..Default::default()
        },
    )
    .unwrap();
    let dir = TempDir::new("roundtrip");
    let path = dir.join("mat.evb");
    evirel_store::write_segment(&rel, &path, 2048).unwrap();
    let stored = StoredRelation::open(&path, Arc::new(BufferPool::new(4096))).unwrap();
    let back = stored.to_relation().unwrap();
    assert!(rel.approx_eq(&back));
    assert_eq!(
        rel.keys().collect::<Vec<_>>(),
        back.keys().collect::<Vec<_>>()
    );
}

/// A segment reopened cold (fresh `Segment::open`, schema rebuilt
/// from the header) still decodes identically — no dependence on the
/// writing process's in-memory state.
#[test]
fn cold_reopen_is_identical() {
    let rel = generate(
        "C",
        &GeneratorConfig {
            tuples: 120,
            seed: 99,
            ..Default::default()
        },
    )
    .unwrap();
    let dir = TempDir::new("roundtrip");
    let path = dir.join("cold.evb");
    evirel_store::write_segment(&rel, &path, 512).unwrap();
    let a = Arc::new(Segment::open(&path).unwrap());
    let b = Arc::new(Segment::open(&path).unwrap());
    for page in 0..a.page_count() {
        let pa = a.read_page(page).unwrap();
        let pb = b.read_page(page).unwrap();
        assert_eq!(pa, pb);
        let ta = a.decode_page(&pa).unwrap();
        let tb = b.decode_page(&pb).unwrap();
        assert_eq!(ta.len(), tb.len());
        for (x, y) in ta.iter().zip(tb.iter()) {
            assert_eq!(x.values(), y.values());
        }
    }
}
