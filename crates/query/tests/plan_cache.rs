//! Regression: a cached plan must not execute after `\load` has
//! replaced the relation binding it was prepared against.
//!
//! The hazard (this is the failing-first scenario the cache's
//! validity check fixes): a plan prepared at catalog generation G
//! bakes in G's schemas — projection lists, rewrite decisions. If the cache
//! keyed on query text alone, a `\load` that rebinds the name to a
//! relation with a different schema would leave the old plan live,
//! and re-execution would fail deep inside the executor (or worse,
//! silently apply stale rewrite decisions). The cache validates every
//! entry against the bindings its plan scans, so the stale entry can
//! never be returned: the lookup records a stale invalidation and
//! re-prepares against the new binding. The other half of that rule
//! is pinned here too: a publish that touches none of the plan's
//! relations keeps the entry, and a kept entry pins no old extension.

use evirel_plan::{BoundRelation, RelationSource};
use evirel_query::{
    execute_with_report, Catalog, PlanCache, QueryError, QueryOutcome, Session, SharedCatalog,
};
use evirel_testkit::{config, pair};
use evirel_workload::generator::{generate, GeneratorConfig};
use evirel_workload::restaurant_db_a;
use std::sync::Arc;

const QUERY_OLD_SCHEMA: &str = "SELECT rname, speciality FROM t WITH SN > 0";
const QUERY_NEW_SCHEMA: &str = "SELECT k, e0 FROM t WITH SN > 0";
/// ∪̃ over inputs large enough to run through a 4-thread exchange,
/// with conflicts to report.
const QUERY_UNION: &str = "SELECT k, e0 FROM ga UNION gb WHERE e0 IS {v0, v1} WITH SN > 0";

/// A session whose catalog binds `t` to the restaurant relation
/// (schema: rname, speciality, …), plus the path of a binary segment
/// holding a *generated* relation (schema: k, e0, e1, e2) ready to be
/// `\load`-ed over the same name. `ga`/`gb` are a conflicting
/// generated pair for [`QUERY_UNION`].
fn session_and_segment() -> (Session, std::path::PathBuf) {
    let mut catalog = Catalog::with_config(&config());
    catalog.register("t", restaurant_db_a().restaurants);
    let (ga, gb) = pair(7, 600);
    catalog.register("ga", ga);
    catalog.register("gb", gb);
    catalog.union_options.on_total_conflict = evirel_algebra::ConflictPolicy::Vacuous;
    let generated = generate(
        "G",
        &GeneratorConfig {
            tuples: 64,
            seed: 7,
            ..GeneratorConfig::default()
        },
    )
    .expect("generator config is valid");
    let path = evirel_store::spill_path("plan-cache-regress");
    evirel_store::write_segment(&generated, &path, 512).expect("segment writes");
    let session = Session::new(
        Arc::new(SharedCatalog::new(catalog)),
        Arc::new(PlanCache::default()),
    );
    (session, path)
}

/// There is one read path: at 1 and 4 threads, a session (plan
/// cache, metering, budget) and the bare-catalog `execute_with_report`
/// agree on every corpus query against the session's current
/// generation — tuples bit for bit and in order, conflict-report
/// order, `ExecStats` — or fail with the same kind of error.
fn assert_session_matches_direct(session: &Session) {
    let digest = |result: Result<QueryOutcome, QueryError>| {
        result.map_err(|e| e.kind()).map(|outcome| {
            let tuples: Vec<_> = outcome
                .relation
                .iter()
                .map(|t| {
                    let m = t.membership();
                    (t.values().to_vec(), m.sn().to_bits(), m.sp().to_bits())
                })
                .collect();
            (tuples, outcome.report.conflicts().to_vec(), outcome.stats)
        })
    };
    for threads in [1, 4] {
        let mut catalog = session.pin().catalog().clone();
        catalog.parallelism = threads;
        let over_copy = Session::new(
            Arc::new(SharedCatalog::new(catalog.clone())),
            Arc::new(PlanCache::default()),
        );
        for query in [QUERY_OLD_SCHEMA, QUERY_NEW_SCHEMA, QUERY_UNION] {
            let direct = digest(execute_with_report(&catalog, query));
            if query == QUERY_UNION {
                let (_, conflicts, _) = direct.as_ref().expect("valid at every generation");
                assert!(!conflicts.is_empty(), "corpus must exercise conflicts");
            }
            // Twice: a cache miss, then the cached plan.
            for _ in 0..2 {
                let via_session = digest(over_copy.query(query).map(|s| s.outcome));
                assert_eq!(direct, via_session, "{query} @ {threads} threads");
            }
        }
    }
}

#[test]
fn load_replacing_a_binding_invalidates_the_cached_plan() {
    let (session, segment) = session_and_segment();
    assert_session_matches_direct(&session);

    // Warm the cache at generation 0 and prove it's being reused.
    let first = session.query(QUERY_OLD_SCHEMA).expect("valid at gen 0");
    assert!(!first.cached_plan);
    let second = session.query(QUERY_OLD_SCHEMA).expect("still valid");
    assert!(second.cached_plan, "second execution must hit the cache");
    assert_eq!(first.generation, second.generation);

    // Hold onto the stale plan the way a text-keyed cache would: this
    // is the plan prepared against the *restaurant* schema.
    let snapshot_old = session.pin();
    let (stale_plan, hit) = session
        .cache()
        .prepare_or_cached(&snapshot_old, QUERY_OLD_SCHEMA)
        .expect("cached");
    assert!(hit);

    // `\load`: rebind `t` to the on-disk generated segment — a
    // completely different schema. Publishes generation 1.
    session
        .update(|c| c.attach_stored("t", &segment))
        .expect("attach replaces the binding");

    // THE HAZARD: executing the stale plan against the new catalog is
    // exactly what an unkeyed cache would do. The projection
    // references `rname`, which the new binding does not have — this
    // fails at *execution* time, after the query was supposedly
    // planned. (Before the generation keying, this error — or a stale
    // rewrite decision — is what clients would see.)
    let snapshot_new = session.pin();
    let stale_exec = evirel_plan::execute_optimized_metered(
        stale_plan.optimized(),
        snapshot_new.catalog(),
        &mut snapshot_new.catalog().exec_context(),
    );
    assert!(
        stale_exec.is_err(),
        "executing the generation-0 plan against generation 1 must fail — \
         this is the bug an unkeyed cache ships to clients"
    );

    // THE FIX: the session's lookup keys on (text, generation), so it
    // refuses the stale entry, re-prepares against the new binding,
    // and surfaces a *plan-time* typed error instead.
    let err = session
        .query(QUERY_OLD_SCHEMA)
        .expect_err("rname is unknown in the new schema");
    assert_eq!(err.kind(), "unknown-attribute");
    assert!(
        session.cache().stats().stale >= 1,
        "the stale entry must be recorded as an invalidation"
    );

    // And queries phrased for the new schema both plan and execute —
    // the session genuinely sees the new binding, not a cached ghost
    // of the old one.
    let new_schema = session.query(QUERY_NEW_SCHEMA).expect("valid at gen 1");
    assert!(!new_schema.cached_plan);
    assert_eq!(new_schema.outcome.relation.len(), 64);
    // Same agreement with `t` now a stored binding.
    assert_session_matches_direct(&session);

    std::fs::remove_file(&segment).ok();
}

#[test]
fn rebinding_back_reprepares_rather_than_resurrecting() {
    let (session, segment) = session_and_segment();
    let gen0 = session.query(QUERY_OLD_SCHEMA).expect("valid at gen 0");

    // t → generated segment (gen 1), then back to the restaurant
    // relation (gen 2). Same text as gen 0, but generation 2 ≠ 0, so
    // the cache must re-prepare — old entries are never resurrected
    // across rebinds, even to "the same" relation.
    session
        .update(|c| c.attach_stored("t", &segment))
        .expect("attach");
    session
        .update(|c| {
            c.register("t", restaurant_db_a().restaurants);
            Ok(())
        })
        .expect("re-register");

    let gen2 = session
        .query(QUERY_OLD_SCHEMA)
        .expect("valid again at gen 2");
    assert!(!gen2.cached_plan, "generation 2 must prepare fresh");
    assert_eq!(gen2.generation, gen0.generation + 2);
    assert!(gen0.outcome.relation.approx_eq(&gen2.outcome.relation));

    // From here the gen-2 entry is reused normally.
    assert!(session.query(QUERY_OLD_SCHEMA).expect("cached").cached_plan);

    std::fs::remove_file(&segment).ok();
}

#[test]
fn rebinding_an_unrelated_relation_keeps_the_cached_plan() {
    let (session, segment) = session_and_segment();
    let first = session.query(QUERY_UNION).expect("valid");
    assert!(!first.cached_plan);

    // Two publishes that leave `ga` and `gb` alone: a `\load` over `t`
    // and a brand-new name.
    session
        .update(|c| c.attach_stored("t", &segment))
        .expect("attach");
    session
        .update(|c| {
            c.register("m3", restaurant_db_a().restaurants);
            Ok(())
        })
        .expect("register");
    let again = session.query(QUERY_UNION).expect("still valid");
    assert!(again.cached_plan, "no scanned relation changed");
    assert_eq!(again.generation, first.generation + 2);
    assert_eq!(session.cache().stats().stale, 0);
    // The kept plan is the right plan for the new generation.
    assert_session_matches_direct(&session);

    std::fs::remove_file(&segment).ok();
}

/// A cached plan holds its scanned relations' statistics, never the
/// relations: once `t` is rebound and no reader pins the old
/// generation, the old extension is freed even though the cache still
/// holds the plan that scanned it.
#[test]
fn a_cached_plan_does_not_keep_a_superseded_extension_alive() {
    let (session, segment) = session_and_segment();
    session.query(QUERY_OLD_SCHEMA).expect("valid at gen 0");
    let old_extension = {
        let pinned = session.pin();
        let binding = pinned.catalog().resolve("t").expect("t is bound");
        let BoundRelation::Memory(rel) = &binding.relation else {
            panic!("t starts in memory");
        };
        Arc::downgrade(rel)
    };
    assert!(old_extension.upgrade().is_some());

    session
        .update(|c| {
            c.register("t", restaurant_db_a().restaurants);
            Ok(())
        })
        .expect("rebind");
    assert_eq!(
        session.cache().stats().entries,
        1,
        "the plan is still cached"
    );
    assert!(
        old_extension.upgrade().is_none(),
        "the cached plan kept the superseded relation alive"
    );
    // And the entry it holds is stale, not resurrected.
    assert!(!session.query(QUERY_OLD_SCHEMA).expect("valid").cached_plan);
    assert_eq!(session.cache().stats().stale, 1);

    std::fs::remove_file(&segment).ok();
}
