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

use evirel_algebra::union::UnionOptions;
use evirel_algebra::{ConflictPolicy, Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::reference::execute_reference;
use evirel_plan::Config;
use evirel_plan::{
    execute_plan, scan, Bindings, BufferPool, ExecContext, LogicalPlan, PlanBuilder, StoredRelation,
};
use evirel_relation::{ExtendedRelation, Value};
use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// What this suite runs under: CI's `EVIREL_*` modes reach it here.
fn config() -> Config {
    Config::from_env()
}

/// A context under [`config`] with `options`.
fn exec_context(options: UnionOptions) -> ExecContext {
    let mut ctx = ExecContext::new(&config());
    ctx.union_options = options;
    ctx
}

fn relations(seed: u64, tuples: usize) -> (ExtendedRelation, ExtendedRelation) {
    generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples,
            seed,
            ..Default::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.3,
    })
    .expect("generator config is valid")
}

fn bindings(seed: u64, tuples: usize) -> Bindings {
    let (ga, gb) = relations(seed, tuples);
    let mut b = Bindings::new();
    b.bind("ga", ga).bind("gb", gb);
    b
}

/// The same pair as [`bindings`], each written to a 512-byte-page
/// segment and bound stored, paging through a three-page pool.
fn stored_bindings(seed: u64, tuples: usize) -> Bindings {
    let (ga, gb) = relations(seed, tuples);
    let pool = Arc::new(BufferPool::new(3 * 512));
    let mut b = Bindings::new();
    for (name, rel) in [("ga", ga), ("gb", gb)] {
        let path = evirel_store::spill_path("plan-equiv");
        evirel_store::write_segment(&rel, &path, 512).expect("segment writes");
        let stored = StoredRelation::open(&path, Arc::clone(&pool)).expect("segment opens");
        std::fs::remove_file(&path).ok();
        b.bind_stored(name, Arc::new(stored));
    }
    b
}

/// `(sn, sp)` within 1e-12, attribute values within the model's
/// tolerance, same key sets and schema attribute names.
fn equivalent(naive: &ExtendedRelation, streaming: &ExtendedRelation) -> Result<(), String> {
    let nn: Vec<&str> = naive.schema().attrs().iter().map(|a| a.name()).collect();
    let sn: Vec<&str> = streaming
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name())
        .collect();
    if nn != sn {
        return Err(format!("schemas differ: {nn:?} vs {sn:?}"));
    }
    if naive.len() != streaming.len() {
        return Err(format!(
            "sizes differ: {} vs {}",
            naive.len(),
            streaming.len()
        ));
    }
    for (key, nt) in naive.iter_keyed() {
        let st = streaming.get_by_key(&key).ok_or_else(|| {
            format!(
                "key {} missing from streaming result",
                Value::render_key(&key)
            )
        })?;
        let (nm, sm) = (nt.membership(), st.membership());
        if (nm.sn() - sm.sn()).abs() > 1e-12 || (nm.sp() - sm.sp()).abs() > 1e-12 {
            return Err(format!(
                "membership differs at {}: ({}, {}) vs ({}, {})",
                Value::render_key(&key),
                nm.sn(),
                nm.sp(),
                sm.sn(),
                sm.sp()
            ));
        }
        for (pos, (nv, sv)) in nt.values().iter().zip(st.values().iter()).enumerate() {
            if !nv.approx_eq(sv) {
                return Err(format!(
                    "value differs at {} position {pos}",
                    Value::render_key(&key)
                ));
            }
        }
    }
    Ok(())
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
        let options = UnionOptions {
            on_total_conflict: ConflictPolicy::Vacuous,
            ..Default::default()
        };
        let naive = execute_reference(&plan, &bindings, &options);
        let mut ctx = exec_context(options.clone());
        let streaming = execute_plan(&plan, &bindings, &mut ctx);
        // Stored bindings: same tuples, same order, same bits, same
        // conflict report — or the same error — on the run that builds
        // the ∪̃'s right-side key index and on the one that reuses it.
        let stored_bindings = stored_bindings(seed, 24);
        for run in 0..2 {
            let mut stored_ctx = exec_context(options.clone());
            let stored = execute_plan(&plan, &stored_bindings, &mut stored_ctx);
            match (&streaming, &stored) {
                (Ok(s), Ok(d)) => {
                    prop_assert_eq!(s.len(), d.len(), "stored run\nplan:\n{}", plan.render());
                    for (st, dt) in s.iter().zip(d.iter()) {
                        prop_assert_eq!(st.values(), dt.values(), "plan:\n{}", plan.render());
                        prop_assert_eq!(st.membership().sn().to_bits(), dt.membership().sn().to_bits());
                        prop_assert_eq!(st.membership().sp().to_bits(), dt.membership().sp().to_bits());
                    }
                    prop_assert_eq!(
                        ctx.conflict_report().conflicts(),
                        stored_ctx.conflict_report().conflicts()
                    );
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
            (Ok((n, _)), Ok(s)) => {
                if let Err(reason) = equivalent(&n, &s) {
                    prop_assert!(false, "{reason}\nplan:\n{}", plan.render());
                }
            }
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
        let options = UnionOptions {
            on_total_conflict: ConflictPolicy::Vacuous,
            ..Default::default()
        };

        let mut seq_ctx = exec_context(options.clone());
        seq_ctx.parallelism = 1;
        let seq = execute_plan(&plan, &bindings, &mut seq_ctx);
        let mut par_ctx = exec_context(options.clone());
        par_ctx.parallelism = threads;
        let par = execute_plan(&plan, &bindings, &mut par_ctx);

        match (seq, par) {
            (Ok(s), Ok(p)) => {
                if let Err(reason) = equivalent(&s, &p) {
                    prop_assert!(false, "{reason}\nplan:\n{}", plan.render());
                }
                for (st, pt) in s.iter().zip(p.iter()) {
                    prop_assert_eq!(
                        st.key(s.schema()), pt.key(p.schema()),
                        "insertion order diverged at {} threads\nplan:\n{}",
                        threads, plan.render()
                    );
                }
                prop_assert_eq!(seq_ctx.stats, par_ctx.stats);
                prop_assert_eq!(
                    seq_ctx.conflict_report().conflicts(),
                    par_ctx.conflict_report().conflicts()
                );
                // And the relation agrees with the independent oracle
                // (reports are only comparable between the two
                // streaming paths: σ̃-under-∪̃ distribution means the
                // naive path merges — and so observes conflicts on —
                // entities the optimized plans never pair, as the
                // module comment explains).
                let (naive, _) =
                    execute_reference(&plan, &bindings, &options).expect("reference succeeds");
                if let Err(reason) = equivalent(&naive, &p) {
                    prop_assert!(false, "vs reference: {reason}\nplan:\n{}", plan.render());
                }
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
