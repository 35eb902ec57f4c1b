//! Buffer-pool behaviour under pressure: pinned pages are never
//! evicted, the byte budget holds under concurrent exchange-style
//! workers, and deliberately tiny budgets (≈ 2 pages) still produce
//! correct scan results — the satellite coverage the storage-engine
//! issue calls out.

use evirel_store::{BufferPool, Segment, StoredRelation};
use evirel_testkit::{identical, OrFail, TempDir};
use evirel_workload::generator::{generate, GeneratorConfig};
use std::sync::Arc;

const PAGE: usize = 512;

fn make_stored(tuples: usize, budget: usize) -> StoredRelation {
    let rel = generate(
        "P",
        &GeneratorConfig {
            tuples,
            seed: 0xBEEF,
            ..Default::default()
        },
    )
    .unwrap();
    let dir = TempDir::new("evict");
    let path = dir.join("p.evb");
    evirel_store::write_segment(&rel, &path, PAGE).unwrap();
    StoredRelation::open(&path, Arc::new(BufferPool::new(budget))).unwrap()
}

#[test]
fn pinned_pages_never_evicted_under_flood() {
    let stored = make_stored(400, 2 * PAGE);
    let seg = Arc::clone(stored.segment());
    let pool = Arc::clone(stored.pool());
    assert!(seg.page_count() > 10);

    let pinned = pool.get(&seg, 3).unwrap();
    let pinned_bytes: Vec<u8> = pinned.to_vec();
    for round in 0..3 {
        for p in 0..seg.page_count() {
            if p == 3 {
                continue;
            }
            let _ = pool.get(&seg, p).unwrap();
        }
        // After each flood the pinned page re-get is a cache hit.
        let hits = pool.stats().hits;
        let again = pool.get(&seg, 3).unwrap();
        assert_eq!(
            pool.stats().hits,
            hits + 1,
            "pinned page evicted on round {round}"
        );
        assert_eq!(&*again, &pinned_bytes[..]);
    }
    let stats = pool.stats();
    assert!(stats.evictions > 0, "{stats:?}");
    // The guard still reads the original bytes.
    assert_eq!(&*pinned, &pinned_bytes[..]);
}

#[test]
fn budget_respected_under_concurrent_workers() {
    let stored = Arc::new(make_stored(1200, 4 * PAGE));
    let baseline = stored.to_relation().unwrap();

    // 8 exchange-style workers scan interleaved page ranges through
    // ONE shared pool, holding one pin each at a time.
    let worker_sums: Vec<usize> = std::thread::scope(|scope| {
        (0..8usize)
            .map(|w| {
                let stored = Arc::clone(&stored);
                scope.spawn(move || {
                    let mut decoded = 0usize;
                    for p in 0..stored.segment().page_count() {
                        if (p as usize) % 8 != w {
                            continue;
                        }
                        decoded += stored.page_tuples(p).unwrap().len();
                    }
                    decoded
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(worker_sums.iter().sum::<usize>(), baseline.len());

    let stats = stored.pool().stats();
    assert!(stats.evictions > 0, "{stats:?}");
    // One pin per worker at a time: the pool may overshoot its budget
    // by at most the workers' concurrently-pinned pages (oversized
    // jumbo pages aside, which this workload does not produce).
    let slack = 8 * (PAGE + 64);
    assert!(
        stats.bytes_cached <= stored.pool().budget_bytes() + slack,
        "{stats:?}"
    );
}

#[test]
fn two_page_budget_scan_is_still_correct() {
    // Budget ≈ 2 pages — nearly every page fill evicts another.
    let stored = make_stored(600, 2 * PAGE);
    let seg = stored.segment();
    assert!(seg.page_count() > 10);

    // Reference: a fresh big-budget read of the same segment.
    let reference =
        StoredRelation::from_segment(Arc::clone(seg), Arc::new(BufferPool::new(1 << 24)))
            .to_relation()
            .unwrap();
    let tiny = stored.to_relation().unwrap();
    identical(&reference, &tiny).or_fail("a two-page budget");
    let stats = stored.pool().stats();
    assert!(stats.evictions > 0, "tiny budget must evict: {stats:?}");
    assert!(
        stats.bytes_cached <= stored.pool().budget_bytes(),
        "{stats:?}"
    );
    // A second full scan under the tiny budget misses (pages were
    // evicted) but stays correct.
    let again = stored.to_relation().unwrap();
    assert!(again.approx_eq(&tiny));
}

#[test]
fn repeated_scans_with_ample_budget_hit_cache() {
    let stored = make_stored(300, 1 << 22);
    let first = stored.to_relation().unwrap();
    let misses_after_first = stored.pool().stats().misses;
    let second = stored.to_relation().unwrap();
    let stats = stored.pool().stats();
    assert_eq!(
        stats.misses, misses_after_first,
        "warm rescan must not touch disk: {stats:?}"
    );
    assert!(stats.hits >= stored.segment().page_count());
    assert_eq!(stats.evictions, 0);
    assert!(first.approx_eq(&second));
}

/// The same segment shared by two pools is independent: stats and
/// budgets do not interfere (regression guard for the cache key
/// namespace being per segment id, not per path).
#[test]
fn segment_identity_keys_the_cache() {
    let stored = make_stored(100, 1 << 20);
    let seg = Arc::clone(stored.segment());
    let other_pool = Arc::new(BufferPool::new(1 << 20));
    let _a = stored.pool().get(&seg, 0).unwrap();
    let _b = other_pool.get(&seg, 0).unwrap();
    assert_eq!(other_pool.stats().misses, 1);
    assert_eq!(other_pool.stats().hits, 0);

    // Re-opening the same bytes as a fresh Segment gets a fresh id —
    // no stale cross-talk even within one pool.
    let reopened = {
        let dir = TempDir::new("evict");
        let path = dir.join("ident2.evb");
        let rel = stored.to_relation().unwrap();
        evirel_store::write_segment(&rel, &path, PAGE).unwrap();
        Arc::new(Segment::open(&path).unwrap())
    };
    assert_ne!(reopened.id(), seg.id());
}
