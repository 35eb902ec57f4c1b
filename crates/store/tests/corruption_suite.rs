//! Decoder-hardening suite: random byte flips and truncations over
//! encoded segments must always surface as typed [`StoreError`]s —
//! never a panic, never an abort-by-OOM from a corrupted count, and
//! (for v3 segments, where every byte is under some checksum) never
//! silently wrong data. Every property also runs the filtered scan's
//! access pattern — each record decoded under a narrow column mask,
//! a few decoded in full — the key index's, keys only, through the
//! buffer pool — and the fused merge's: its left side's keyed walk,
//! and its build side's records located once and then addressed by
//! slot — because a page is checksummed as it is read, whatever the
//! decoder then skips. And two corruptions no checksum can see,
//! because the checksums cover exactly what was written: a key stored
//! twice, and a rotted tag or length sealed into a page — which the
//! masked decode refuses in an attribute it skips, of a record it
//! would have dropped.

use evirel_store::codec::decode_record;
use evirel_store::segment::PageRecords;
use evirel_store::{BufferPool, Segment, SegmentWriter, StoreError, StoredRelation};
use evirel_testkit::{encode, reseal, TempDir};
use evirel_workload::generator::{generate, GeneratorConfig};
use proptest::prelude::*;
use std::path::Path;

/// Encode one deterministic segment, returning its bytes.
fn encoded_segment(seed: u64, tuples: usize) -> Vec<u8> {
    let rel = generate(
        "C",
        &GeneratorConfig {
            tuples,
            domain_size: 6,
            evidential_attrs: 2,
            max_focal: 3,
            max_focal_size: 3,
            omega_mass: 0.1,
            uncertain_membership: 0.3,
            seed,
        },
    )
    .expect("generator config is valid");
    encode(&rel, 256)
}

/// Open + full scan; any `Err` is fine (it is typed by construction),
/// a panic fails the property. Returns whether everything succeeded.
fn try_full_scan(path: &Path) -> Result<u64, StoreError> {
    let seg = Segment::open(path)?;
    let mut decoded = 0u64;
    for p in 0..seg.page_count() {
        let bytes = seg.read_page(p)?;
        decoded += seg.decode_page(&bytes)?.len() as u64;
    }
    Ok(decoded)
}

/// The filtered scan's pattern over one page: every record decoded
/// under a mask that reads the last attribute only (the rest is
/// skipped by length fields), every third record "kept" and decoded in
/// full. Returns how many were kept.
fn filtered_page(seg: &Segment, bytes: &[u8]) -> Result<u64, StoreError> {
    let arity = seg.schema().arity();
    let mut reads = vec![false; arity];
    reads[arity - 1] = true;
    let all = vec![true; arity];
    let mut kept = 0;
    for (slot, record) in PageRecords::new(bytes)?.enumerate() {
        let record = record?;
        decode_record(record, seg.domains(), &reads)?;
        if slot % 3 == 0 {
            decode_record(record, seg.domains(), &all)?.into_tuple(seg.schema())?;
            kept += 1;
        }
    }
    Ok(kept)
}

/// [`try_full_scan`] with [`filtered_page`] as the per-page decode.
fn try_filtered_scan(path: &Path) -> Result<u64, StoreError> {
    let seg = Segment::open(path)?;
    let mut kept = 0u64;
    for p in 0..seg.page_count() {
        kept += filtered_page(&seg, &seg.read_page(p)?)?;
    }
    Ok(kept)
}

/// The fused merge's pattern over one page. Its left side: every
/// record decoded under a mask that reads the key and the last
/// attribute, every third — a "matched" one — in full as well. Its
/// build side: the page's records located once
/// ([`PageRecords::ranges`]), then addressed by slot, last to first —
/// odd slots under the last-attribute mask (unmatched, decided), even
/// ones in full (matched, fetched). Returns the full decodes.
fn merged_page(seg: &Segment, bytes: &[u8]) -> Result<u64, StoreError> {
    let arity = seg.schema().arity();
    let mut reads = vec![false; arity];
    reads[arity - 1] = true;
    let mut keyed = reads.clone();
    for &pos in seg.schema().key_positions() {
        keyed[pos] = true;
    }
    let mut full = 0;
    for (slot, record) in PageRecords::new(bytes)?.enumerate() {
        let record = record?;
        decode_record(record, seg.domains(), &keyed)?;
        if slot % 3 == 0 {
            decode_record(record, seg.domains(), seg.all_columns())?.into_tuple(seg.schema())?;
            full += 1;
        }
    }
    for (slot, range) in PageRecords::ranges(bytes)?.into_iter().enumerate().rev() {
        let record = &bytes[range];
        if slot % 2 == 1 {
            decode_record(record, seg.domains(), &reads)?;
        } else {
            decode_record(record, seg.domains(), seg.all_columns())?.into_tuple(seg.schema())?;
            full += 1;
        }
    }
    Ok(full)
}

/// [`try_full_scan`] with [`merged_page`] as the per-page decode.
fn try_merged_scan(path: &Path) -> Result<u64, StoreError> {
    let seg = Segment::open(path)?;
    let mut full = 0u64;
    for p in 0..seg.page_count() {
        full += merged_page(&seg, &seg.read_page(p)?)?;
    }
    Ok(full)
}

/// Rot the checksums cannot see — sealed under recomputed CRCs, so the
/// open and every page read succeed — in the *first* evidential
/// attribute of one record: an unknown attribute tag, then a focal
/// count that runs past the record. Every masked pattern skips that
/// attribute (they read the last one, and the key), and every one of
/// them still refuses the page: the selection fused into a scan, the
/// key index, and both sides of the fused merge, for which that record
/// is an unmatched one it rejects and never decodes in full.
#[test]
fn sealed_rot_in_a_skipped_attribute_is_corrupt_under_every_mask() {
    let good = encoded_segment(21, 40);
    for (rot, at, value) in [("tag", 0, 7u8), ("length", 5, 0x7F)] {
        let mut bytes = good.clone();
        let key = b"k17";
        let key_at = bytes.windows(key.len()).position(|w| w == key);
        // After the key: attribute tag, weight tag, u32 focal count.
        bytes[key_at.expect("tuple 17 is stored") + key.len() + at] = value;
        reseal(&mut bytes);
        let dir = TempDir::new("corrupt");
        let path = dir.join("sealed.evb");
        std::fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path).expect("sealed: the open succeeds");
        for p in 0..seg.page_count() {
            seg.read_page(p).expect("sealed: every page passes its CRC");
        }
        let outcomes = [
            ("full scan", try_full_scan(&path).err()),
            ("filtered scan", try_filtered_scan(&path).err()),
            ("fused merge", try_merged_scan(&path).err()),
            ("key index", try_key_index(&path).err()),
        ];
        for (pattern, outcome) in outcomes {
            assert!(
                matches!(outcome, Some(StoreError::Corrupt { .. })),
                "rotted {rot}, {pattern}: {outcome:?}"
            );
        }
    }
}

/// Open + the key index's pass (every record decoded under the
/// key-positions mask, paged through a pool). Returns the keys indexed.
fn try_key_index(path: &Path) -> Result<usize, StoreError> {
    let stored = StoredRelation::open(path, std::sync::Arc::new(BufferPool::new(1024)))?;
    Ok(stored.key_index()?.0.len())
}

/// A segment that stores one key twice — hand-built through
/// `SegmentWriter::append`, since no relation holds one — is corrupt
/// where the parent's index silently shadowed the first record: the
/// index build names the key and both records, every time it is asked
/// (a failure is not remembered as an index), and never panics.
#[test]
fn duplicate_key_is_corrupt_at_index_build() {
    let rel = generate(
        "K",
        &GeneratorConfig {
            tuples: 40,
            seed: 9,
            ..GeneratorConfig::default()
        },
    )
    .expect("generator config is valid");
    let dir = TempDir::new("corrupt");
    let path = dir.join("dupkey.evb");
    let mut writer = SegmentWriter::create(&path, rel.schema(), 256).expect("segment creates");
    let repeated = rel.iter().nth(3).expect("40 tuples");
    let mut ids = Vec::new();
    for tuple in rel.iter().chain([repeated]) {
        ids.push(writer.append(tuple).expect("appends"));
    }
    writer.finish().expect("finishes");
    let (first, second) = (ids[3], ids[40]);
    assert!(second.page > first.page, "the repeat lands on a later page");

    // Every byte is what the writer wrote: scans succeed.
    assert_eq!(try_full_scan(&path).expect("scans"), 41);
    let stored =
        StoredRelation::open(&path, std::sync::Arc::new(BufferPool::new(1024))).expect("opens");
    let key = evirel_relation::Value::render_key(&repeated.key(rel.schema()));
    for _ in 0..2 {
        let err = stored.key_index().expect_err("never an index");
        assert_eq!(
            err,
            StoreError::corrupt(format!(
                "duplicate key {key}: page {} slot {} and page {} slot {}",
                first.page, first.slot, second.page, second.slot
            ))
        );
    }
    assert!(
        stored.to_relation().is_err(),
        "materializing rejects it too"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flip one bit anywhere in a v3 segment: the checksum chain
    /// (preamble → schema/table → pages) must catch it — a flipped
    /// segment never scans successfully, and never panics.
    #[test]
    fn single_bit_flip_is_always_detected(
        seed in 0u64..1000,
        tuples in 1usize..60,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut bytes = encoded_segment(seed, tuples);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1u8 << bit;
        let dir = TempDir::new("corrupt");
        let path = dir.join("flip.evb");
        std::fs::write(&path, &bytes).unwrap();
        let outcome = try_full_scan(&path);
        // Most flips land in an attribute the filtered scan skips, of
        // a record it drops: the page CRC catches those on the read.
        let filtered = try_filtered_scan(&path);
        let merged = try_merged_scan(&path);
        let indexed = try_key_index(&path);
        prop_assert!(
            outcome.is_err(),
            "bit flip at byte {pos} bit {bit} scanned {} tuples undetected",
            outcome.unwrap_or(0)
        );
        prop_assert!(
            merged.is_err(),
            "bit flip at byte {pos} bit {bit} passed the fused merge's reads"
        );
        prop_assert!(
            filtered.is_err(),
            "bit flip at byte {pos} bit {bit} passed the filtered scan"
        );
        prop_assert!(
            indexed.is_err(),
            "bit flip at byte {pos} bit {bit} passed the key index build"
        );
    }

    /// Truncate a segment at every kind of boundary: a typed error,
    /// never a panic or an attempt to allocate from a phantom count.
    #[test]
    fn truncation_is_a_typed_error(
        seed in 0u64..1000,
        tuples in 1usize..60,
        keep_frac in 0.0f64..1.0,
    ) {
        let bytes = encoded_segment(seed, tuples);
        let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
        let dir = TempDir::new("corrupt");
        let path = dir.join("trunc.evb");
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let outcome = try_full_scan(&path);
        let filtered = try_filtered_scan(&path);
        let merged = try_merged_scan(&path);
        let indexed = try_key_index(&path);
        prop_assert!(outcome.is_err(), "truncation to {keep} bytes undetected");
        prop_assert!(merged.is_err(), "truncation to {keep} bytes passed the fused merge's reads");
        prop_assert!(filtered.is_err(), "truncation to {keep} bytes passed the filtered scan");
        prop_assert!(indexed.is_err(), "truncation to {keep} bytes passed the key index build");
    }

    /// Heavier damage: corrupt a whole random window. Still typed.
    #[test]
    fn garbage_windows_are_typed_errors(
        seed in 0u64..1000,
        tuples in 1usize..40,
        start_frac in 0.0f64..1.0,
        len in 1usize..64,
        fill in 0u8..=255,
    ) {
        let mut bytes = encoded_segment(seed, tuples);
        let start = ((bytes.len() - 1) as f64 * start_frac) as usize;
        let end = (start + len).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b = fill;
        }
        let dir = TempDir::new("corrupt");
        let path = dir.join("window.evb");
        std::fs::write(&path, &bytes).unwrap();
        // Result may be Ok only if the window happened to rewrite
        // identical bytes; otherwise an error. Either way: no panic.
        let outcome = try_full_scan(&path);
        let filtered = try_filtered_scan(&path);
        let merged = try_merged_scan(&path);
        let indexed = try_key_index(&path);
        if outcome.is_ok() || filtered.is_ok() || merged.is_ok() || indexed.is_ok() {
            prop_assert!(
                bytes == encoded_segment(seed, tuples),
                "non-identical damage scanned successfully"
            );
        }
    }

    /// The decoder itself (below the checksum layer) must survive
    /// arbitrary page bytes: `decode_page`, a point lookup by slot, the
    /// masked decodes of the filtered scan and the fused merge's walk
    /// and slot addressing, on mutated pages, return
    /// `Result`, never panic — this is what protects v2 segments,
    /// which have no checksums.
    #[test]
    fn decode_page_survives_arbitrary_bytes(
        seed in 0u64..1000,
        tuples in 1usize..40,
        flips in proptest::collection::vec((0.0f64..1.0, 0u32..8), 1..6),
        slot in 0u32..64,
    ) {
        let rel = generate("D", &GeneratorConfig {
            tuples,
            domain_size: 5,
            evidential_attrs: 1,
            max_focal: 2,
            max_focal_size: 2,
            omega_mass: 0.2,
            uncertain_membership: 0.3,
            seed,
        }).expect("generator config is valid");
        let dir = TempDir::new("corrupt");
        let path = dir.join("decode.evb");
        evirel_store::write_segment(&rel, &path, 256).expect("segment writes");
        let seg = Segment::open(&path).expect("segment opens");
        let mut page = seg.read_page(0).expect("page reads");
        for (frac, bit) in flips {
            let pos = ((page.len() - 1) as f64 * frac) as usize;
            page[pos] ^= 1u8 << bit;
        }
        // Both full-page decode and point lookup: Result, no panic.
        let _ = seg.decode_page(&page);
        let _ = PageRecords::ranges(&page).map(|ranges| {
            let record = &page[ranges.get(slot as usize)?.clone()];
            Some(decode_record(record, seg.domains(), seg.all_columns()))
        });
        let _ = filtered_page(&seg, &page);
        let _ = merged_page(&seg, &page);
    }
}
