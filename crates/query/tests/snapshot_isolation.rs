//! Concurrency properties of the epoch-snapshot catalog.
//!
//! 1. **No half-swapped reads** (proptest): writers republish a
//!    *pair* of bindings (`left`, `right`) derived from one version
//!    number in a single [`SharedCatalog::update`]; concurrent
//!    readers union both sides and must only ever observe tuples of
//!    a single version. Seeing version i on one side and j ≠ i on the
//!    other would mean a reader caught the catalog mid-swap — the
//!    exact anomaly the RCU-style generation publish forbids.
//! 2. **Pool sharing**: 8 sessions hammer one 4 KiB
//!    [`evirel_store::BufferPool`] through disk-backed bindings;
//!    every session's result must bit-match the sequential reference
//!    no matter how the (tiny) pool thrashes underneath them.

use evirel_query::{Catalog, PlanCache, Session, SessionBudget, SharedCatalog};
use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder, Schema};
use evirel_store::BufferPool;
use evirel_testkit::config;
use evirel_workload::generator::{generate, GeneratorConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One side of a versioned binding pair. Keys are `v<version>-<side>-<i>`
/// so a result's version set is readable straight off its keys.
fn versioned(version: u64, side: &str) -> ExtendedRelation {
    let domain = Arc::new(AttrDomain::categorical("d", ["a", "b", "c"]).expect("static domain"));
    let schema = Arc::new(
        Schema::builder(format!("V{side}"))
            .key_str("k")
            .evidential("e", domain)
            .build()
            .expect("static schema"),
    );
    let mut builder = RelationBuilder::new(schema);
    for i in 0..4 {
        builder = builder
            .tuple(|t| {
                t.set_str("k", format!("v{version}-{side}-{i}"))
                    .set_evidence("e", [(&["a"][..], 1.0)])
            })
            .expect("tuple is valid");
    }
    builder.build()
}

/// Every distinct version number appearing in the relation's keys.
fn observed_versions(rel: &ExtendedRelation) -> BTreeSet<u64> {
    let mut versions = BTreeSet::new();
    for key in rel.keys() {
        let rendered = format!("{key:?}");
        let start = rendered.find('v').expect("versioned key") + 1;
        let digits: String = rendered[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        versions.insert(digits.parse::<u64>().expect("versioned key"));
    }
    versions
}

proptest! {
    // Each case spins up real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn readers_never_observe_a_half_swapped_catalog(
        writers in 1usize..4,
        updates_per_writer in 2u64..6,
        readers in 2usize..6,
        reads_per_reader in 4usize..12,
    ) {
        let mut catalog = Catalog::with_config(&config());
        catalog.register("left", versioned(0, "l"));
        catalog.register("right", versioned(0, "r"));
        let shared = Arc::new(SharedCatalog::new(catalog));
        let cache = Arc::new(PlanCache::default());
        let next_version = AtomicU64::new(1);

        let observed: Vec<BTreeSet<u64>> = std::thread::scope(|scope| {
            for _ in 0..writers {
                let shared = Arc::clone(&shared);
                let next_version = &next_version;
                scope.spawn(move || {
                    for _ in 0..updates_per_writer {
                        let v = next_version.fetch_add(1, Ordering::Relaxed);
                        shared
                            .update(|c| {
                                // Both sides replaced in ONE publish:
                                // this is the atomicity the readers
                                // assert on.
                                c.register("left", versioned(v, "l"));
                                c.register("right", versioned(v, "r"));
                                Ok(())
                            })
                            .expect("writer publishes");
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..readers {
                let session =
                    Session::new(Arc::clone(&shared), Arc::clone(&cache));
                handles.push(scope.spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..reads_per_reader {
                        let out = session
                            .query("SELECT * FROM left UNION right")
                            .expect("reads never fail mid-swap");
                        seen.push(observed_versions(&out.outcome.relation));
                    }
                    seen
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread"))
                .collect()
        });

        for versions in &observed {
            prop_assert_eq!(
                versions.len(),
                1,
                "a read observed tuples from {} catalog versions at once: {:?}",
                versions.len(),
                versions
            );
        }
    }
}

proptest! {
    // Each case spins up real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two catalogs, one generation stream: a primary writer
    /// republishes the versioned pair with explicit stamps, a mirror
    /// thread subscribes via [`SharedCatalog::wait_newer`] and
    /// republishes every snapshot it observes into a **follower**
    /// `SharedCatalog` at the primary's generation — exactly the
    /// subscribe/apply shape of `evirel-serve`'s replication path.
    /// Readers pinned to the follower must (a) never observe a
    /// mixed-version pair (the stamped publish is as atomic as the
    /// auto-incremented one) and (b) never travel backwards in time
    /// across consecutive reads, even while the mirror is applying.
    #[test]
    fn follower_readers_never_observe_mixed_versions_or_time_travel(
        updates in 4u64..16,
        readers in 2usize..5,
        reads_per_reader in 6usize..16,
    ) {
        let mut primary_catalog = Catalog::with_config(&config());
        primary_catalog.register("left", versioned(0, "l"));
        primary_catalog.register("right", versioned(0, "r"));
        let primary = Arc::new(SharedCatalog::new(primary_catalog));
        let mut follower_catalog = Catalog::with_config(&config());
        follower_catalog.register("left", versioned(0, "l"));
        follower_catalog.register("right", versioned(0, "r"));
        let follower = Arc::new(SharedCatalog::new(follower_catalog));
        let cache = Arc::new(PlanCache::default());

        let observed: Vec<Vec<BTreeSet<u64>>> = std::thread::scope(|scope| {
            scope.spawn({
                let primary = Arc::clone(&primary);
                move || {
                    for v in 1..=updates {
                        primary
                            .update_stamped(v, |c| {
                                c.register("left", versioned(v, "l"));
                                c.register("right", versioned(v, "r"));
                                Ok(())
                            })
                            .expect("primary publishes");
                    }
                }
            });
            scope.spawn({
                let primary = Arc::clone(&primary);
                let follower = Arc::clone(&follower);
                move || {
                    // The mirror may observe only a subset of the
                    // primary's generations (wait_newer hands back the
                    // *latest* snapshot) — stamped publishes tolerate
                    // skips, just never regressions.
                    let mut seen = 0;
                    while seen < updates {
                        let snapshot = primary
                            .wait_newer(seen, std::time::Duration::from_secs(10))
                            .expect("publish signal arrives");
                        let g = snapshot.generation();
                        follower
                            .update_stamped(g, |c| {
                                c.register("left", versioned(g, "l"));
                                c.register("right", versioned(g, "r"));
                                Ok(())
                            })
                            .expect("mirror publishes");
                        seen = g;
                    }
                }
            });
            let mut handles = Vec::new();
            for _ in 0..readers {
                let session =
                    Session::new(Arc::clone(&follower), Arc::clone(&cache));
                handles.push(scope.spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..reads_per_reader {
                        let out = session
                            .query("SELECT * FROM left UNION right")
                            .expect("follower reads never fail mid-apply");
                        seen.push(observed_versions(&out.outcome.relation));
                    }
                    seen
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });

        for reader in &observed {
            let mut last = 0u64;
            for versions in reader {
                prop_assert_eq!(
                    versions.len(),
                    1,
                    "a follower read observed tuples from {} versions at once: {:?}",
                    versions.len(),
                    versions
                );
                let v = *versions.iter().next().expect("non-empty");
                prop_assert!(
                    v >= last,
                    "a follower reader travelled backwards in time: \
                     version {v} after {last}"
                );
                last = v;
            }
        }
        // The mirror drained the whole stream: both catalogs end on
        // the same generation.
        prop_assert_eq!(follower.generation(), primary.generation());
    }
}

#[test]
fn eight_sessions_share_one_4k_buffer_pool() {
    const SESSIONS: usize = 8;
    const POOL_BYTES: usize = 4096;

    // Disk-backed bindings over a deliberately starved pool: the
    // segments are far bigger than 4 KiB, so concurrent scans evict
    // each other's pages constantly.
    let mut catalog = Catalog::with_config(&config());
    catalog.pool = Arc::new(BufferPool::new(POOL_BYTES));
    let rel_a = generate(
        "SA",
        &GeneratorConfig {
            tuples: 256,
            seed: 11,
            ..GeneratorConfig::default()
        },
    )
    .expect("generator config is valid");
    let rel_b = generate(
        "SB",
        &GeneratorConfig {
            tuples: 256,
            seed: 12,
            ..GeneratorConfig::default()
        },
    )
    .expect("generator config is valid");
    let path_a = evirel_store::spill_path("snap-pool-a");
    let path_b = evirel_store::spill_path("snap-pool-b");
    evirel_store::write_segment(&rel_a, &path_a, 512).expect("segment writes");
    evirel_store::write_segment(&rel_b, &path_b, 512).expect("segment writes");
    catalog.attach_stored("sa", &path_a).expect("attach sa");
    catalog.attach_stored("sb", &path_b).expect("attach sb");

    let shared = Arc::new(SharedCatalog::new(catalog));
    let cache = Arc::new(PlanCache::default());
    let queries = [
        "SELECT * FROM sa WITH SN > 0",
        "SELECT * FROM sb WITH SN > 0",
        "SELECT * FROM sa UNION sb WITH SN > 0.3",
    ];

    // Sequential reference results, computed before the stampede.
    let reference_session = Session::new(Arc::clone(&shared), Arc::clone(&cache));
    let reference: Vec<ExtendedRelation> = queries
        .iter()
        .map(|q| {
            reference_session
                .query(q)
                .expect("reference run")
                .outcome
                .relation
        })
        .collect();

    std::thread::scope(|scope| {
        for sid in 0..SESSIONS {
            let shared = Arc::clone(&shared);
            let cache = Arc::clone(&cache);
            let reference = &reference;
            scope.spawn(move || {
                // Every session gets its carved share of the (tiny)
                // budgets — the serve worker-pool configuration.
                let session = Session::with_budget(
                    shared,
                    cache,
                    SessionBudget::share_of(SESSIONS, POOL_BYTES, SESSIONS),
                );
                for round in 0..6 {
                    let qi = (sid + round) % queries.len();
                    let out = session.query(queries[qi]).expect("pool-starved query");
                    assert!(
                        out.outcome.relation.approx_eq(&reference[qi]),
                        "session {sid} round {round}: result diverged under pool pressure"
                    );
                }
            });
        }
    });

    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}
