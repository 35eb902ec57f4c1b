//! Differential property suite: for random generated relations and
//! random plans, optimized + streaming execution must produce a
//! relation identical to naive free-function composition — same
//! schema, same key set, attribute values approximately equal, and
//! `(sn, sp)` within 1e-12. The same plans then run over *stored*
//! bindings (σ̃ directly over a stored scan is evaluated inside the
//! scan, σ̃ directly over a ∪̃/∩̃ inside the merge — there reading both
//! segments record by record) and must reproduce the in-memory
//! streaming result bit for bit, in the same order — twice over the
//! same stored relations, so that a ∪̃'s second run probes the key
//! index its first run built.
//!
//! Total conflicts resolve vacuously here: the σ̃-under-∪̃
//! distribution rule deliberately merges only entities that survive a
//! key-crisp filter, so under `ConflictPolicy::Error` the naive path
//! can abort on an entity the optimized path never merges. The
//! *relation* outputs are identical whenever both paths succeed,
//! which is the property under test.

use evirel_algebra::{Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::reference::execute_reference;
use evirel_plan::{execute_plan, scan, Bindings, BufferPool, LogicalPlan, PlanBuilder};
use evirel_relation::Value;
use evirel_testkit::{
    equivalent, exec_context, identical, pair, same_report, store, vacuous, OrFail, PAGE,
};
use proptest::prelude::*;
use std::sync::Arc;

fn bindings(seed: u64, tuples: usize) -> Bindings {
    let (ga, gb) = pair(seed, tuples);
    let mut b = Bindings::new();
    b.bind("ga", ga).bind("gb", gb);
    b
}

/// The same pair as [`bindings`], each written to a 512-byte-page
/// segment and bound stored, paging through a three-page pool.
fn stored_bindings(seed: u64, tuples: usize) -> Bindings {
    let (ga, gb) = pair(seed, tuples);
    let pool = Arc::new(BufferPool::new(3 * PAGE));
    let mut b = Bindings::new();
    b.bind_stored("ga", store(&ga, &pool))
        .bind_stored("gb", store(&gb, &pool));
    b
}

/// Build one random plan from the drawn shape parameters. `qualified`
/// sources (×̃/⋈̃ of GA and GB, which share every attribute name) need
/// `GA.`-prefixed references.
fn random_plan(source: u8, pred_kind: u8, attr_i: u8, val: u8, th: u8, proj: u8) -> LogicalPlan {
    let qualified = matches!(source, 3 | 4);
    let q = |name: &str| {
        if qualified {
            format!("GA.{name}")
        } else {
            name.to_owned()
        }
    };
    let builder: PlanBuilder = match source {
        0 => scan("ga"),
        1 => scan("gb"),
        2 => scan("ga").union(scan("gb")),
        3 => scan("ga").product(scan("gb")),
        4 => scan("ga").join(
            scan("gb"),
            Predicate::theta(Operand::attr("GA.k"), ThetaOp::Eq, Operand::attr("GB.k")),
        ),
        _ => scan("ga").intersect(scan("gb")),
    };
    let evidential = q(&format!("e{}", attr_i % 3));
    let label = |i: u8| Value::str(format!("v{}", i % 8));
    let predicate = match pred_kind {
        0 => None,
        1 => Some(Predicate::is(
            evidential.clone(),
            [label(val), label(val + 1)],
        )),
        2 => Some(Predicate::theta(
            Operand::attr(evidential.clone()),
            ThetaOp::Ge,
            Operand::Value(label(val)),
        )),
        // Key-crisp — exercises σ̃-under-∪̃ distribution on source 2.
        3 => Some(Predicate::theta(
            Operand::attr(q("k")),
            ThetaOp::Eq,
            Operand::Value(Value::str("shared-1")),
        )),
        4 => Some(
            Predicate::is(evidential.clone(), [label(val)]).and(Predicate::theta(
                Operand::attr(q("k")),
                ThetaOp::Ne,
                Operand::Value(Value::str("shared-0")),
            )),
        ),
        5 => Some(
            Predicate::is(evidential.clone(), [label(val)])
                .or(Predicate::is(q("e0"), [label(val + 2), label(val + 3)])),
        ),
        _ => Some(Predicate::is(evidential.clone(), [label(val), label(val + 1)]).negate()),
    };
    let builder = match predicate {
        Some(p) => builder.select(p),
        None => builder,
    };
    let builder = match th {
        0 => builder,
        1 => builder.threshold(Threshold::SnAtLeast(0.3)),
        2 => builder.threshold(Threshold::SpAtLeastPositive(0.5)),
        3 => builder.threshold(Threshold::POSITIVE),
        _ => builder.threshold(Threshold::Definite),
    };
    match proj {
        0 => builder,
        1 if qualified => builder.project(["GA.k", "GB.k"]),
        1 => builder.project(["k", "e0"]),
        _ if qualified => builder.project(["GB.e1", "GA.k", "GB.k", "GA.e0"]),
        _ => builder.project(["e2", "k", "e0"]),
    }
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_matches_naive_composition(
        seed in 0u64..1_000_000,
        source in 0u8..6,
        pred_kind in 0u8..7,
        attr_val in 0u8..24, // attr index × predicate value, combined
        th in 0u8..5,
        proj in 0u8..3,
    ) {
        let bindings = bindings(seed, 24);
        let plan = random_plan(source, pred_kind, attr_val / 8, attr_val % 8, th, proj);
        let context = format!("plan:\n{}", plan.render());
        let options = vacuous();
        let naive = execute_reference(&plan, &bindings, &options);
        let mut ctx = exec_context(options);
        let streaming = execute_plan(&plan, &bindings, &mut ctx);
        // Stored bindings: same tuples, same order, same bits, same
        // conflict report — or the same error — on the run that builds
        // the ∪̃'s right-side key index and on the one that reuses it.
        let stored_bindings = stored_bindings(seed, 24);
        for run in 0..2 {
            let mut stored_ctx = exec_context(options);
            let stored = execute_plan(&plan, &stored_bindings, &mut stored_ctx);
            match (&streaming, &stored) {
                (Ok(s), Ok(d)) => {
                    identical(s, d).or_fail(format_args!("stored run\n{context}"));
                    same_report(&ctx.conflict_report(), &stored_ctx.conflict_report())
                        .or_fail(&context);
                    let builds = stored_ctx.stats.key_index_builds;
                    prop_assert!(builds <= usize::from(run == 0), "run {run} built {builds}");
                }
                (Err(se), Err(de)) => prop_assert_eq!(se, de),
                _ => prop_assert!(
                    false,
                    "memory {:?} vs stored {:?}\nplan:\n{}",
                    streaming.as_ref().map(|_| "ok"),
                    stored.as_ref().map(|_| "ok"),
                    plan.render()
                ),
            }
        }
        match (naive, streaming) {
            (Ok((n, _)), Ok(s)) => equivalent(&n, &s).or_fail(&context),
            (Err(ne), Err(se)) => {
                // Both paths reject the plan — must be the same error.
                prop_assert_eq!(ne, se);
            }
            (n, s) => {
                prop_assert!(
                    false,
                    "one path failed: naive={:?} streaming={:?}\nplan:\n{}",
                    n.as_ref().map(|_| "ok"),
                    s.as_ref().map(|_| "ok"),
                    plan.render()
                );
            }
        }
    }

    /// Parallel execution through the exchange operator must be
    /// identical to sequential streaming — relation, tuple insertion
    /// order, stats (κ included), and conflict-report observation
    /// order — and its relation/report must match the naive reference
    /// too. Sources 0–2 and 5 exercise the shardable (∪̃, ∩̃) exchange —
    /// with a σ̃ directly above the merge evaluated inside it, in every
    /// shard; sources 3–4 the ×̃/⋈̃ lowerings, where the equality join
    /// engages the join-attribute-partitioned exchange when statistics
    /// are on.
    #[test]
    fn parallel_exchange_matches_sequential_and_reference(
        seed in 0u64..1_000_000,
        source in 0u8..6,
        pred_threads in 0u8..21, // predicate kind × thread count, combined
        attr_val in 0u8..24,
        th in 0u8..5,
        proj in 0u8..3,
    ) {
        let pred_kind = pred_threads % 7;
        let threads = [2usize, 4, 8][usize::from(pred_threads / 7)];
        let bindings = bindings(seed, 280);
        let plan = random_plan(source, pred_kind, attr_val / 8, attr_val % 8, th, proj);
        let context = format!("{threads} threads\nplan:\n{}", plan.render());
        let options = vacuous();

        let mut seq_ctx = exec_context(options);
        seq_ctx.parallelism = 1;
        let seq = execute_plan(&plan, &bindings, &mut seq_ctx);
        let mut par_ctx = exec_context(options);
        par_ctx.parallelism = threads;
        let par = execute_plan(&plan, &bindings, &mut par_ctx);

        match (seq, par) {
            (Ok(s), Ok(p)) => {
                equivalent(&s, &p).or_fail(&context);
                for (st, pt) in s.iter().zip(p.iter()) {
                    prop_assert_eq!(
                        st.key(s.schema()), pt.key(p.schema()),
                        "insertion order diverged at {} threads\nplan:\n{}",
                        threads, plan.render()
                    );
                }
                prop_assert_eq!(seq_ctx.stats, par_ctx.stats);
                same_report(&seq_ctx.conflict_report(), &par_ctx.conflict_report())
                    .or_fail(&context);
                // And the relation agrees with the independent oracle
                // (reports are only comparable between the two
                // streaming paths: σ̃-under-∪̃ distribution means the
                // naive path merges — and so observes conflicts on —
                // entities the optimized plans never pair, as the
                // module comment explains).
                let (naive, _) =
                    execute_reference(&plan, &bindings, &options).expect("reference succeeds");
                equivalent(&naive, &p).or_fail(format_args!("vs reference\n{context}"));
            }
            (Err(se), Err(pe)) => prop_assert_eq!(se, pe),
            (s, p) => {
                prop_assert!(
                    false,
                    "one path failed: sequential={:?} parallel={:?}\nplan:\n{}",
                    s.as_ref().map(|_| "ok"),
                    p.as_ref().map(|_| "ok"),
                    plan.render()
                );
            }
        }
    }
}
