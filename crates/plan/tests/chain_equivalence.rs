//! Differential properties for the cost-ordered chain operator: for
//! random three-way join chains, streaming execution (which lowers
//! them through `ChainOp`) must reproduce the naive free-function
//! composition **bit for bit** — same tuples, same insertion order
//! (the left-deep emission order), same `(sn, sp)` — at parallelism 1
//! and 4 alike.

use evirel_algebra::union::UnionOptions;
use evirel_algebra::{Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::reference::execute_reference;
use evirel_plan::{execute_plan, explain_plan, scan, Bindings, ExecContext, LogicalPlan};
use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder, Schema, ValueKind};
use evirel_testkit::{config, exec_context, identical, OrFail};
use proptest::prelude::*;
use std::sync::Arc;

/// A relation with a string key, an integer join attribute `j{name}`
/// drawn from `0..spread` (smaller spread ⇒ more matches, more skew),
/// and one evidential attribute so membership multiplication is
/// exercised through the chain.
fn relation(name: &str, tuples: usize, spread: u64, seed: u64) -> ExtendedRelation {
    let domain = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
    let join_attr = format!("j{name}");
    let schema = Arc::new(
        Schema::builder(name)
            .key_str(format!("k{name}"))
            .definite(&*join_attr, ValueKind::Int)
            .evidential("d", domain)
            .build()
            .unwrap(),
    );
    let mut builder = RelationBuilder::new(schema);
    for i in 0..tuples as u64 {
        let label = ["x", "y", "z"][((seed + i) % 3) as usize];
        let weight = 0.35 + 0.05 * ((seed + i) % 13) as f64;
        builder = builder
            .tuple(|t| {
                t.set_str(&format!("k{name}"), format!("{name}-{i}"))
                    .set_int(
                        &join_attr,
                        ((seed.wrapping_mul(31) + i * 7) % spread) as i64,
                    )
                    .set_evidence_with_omega("d", [(&[label][..], weight)], 1.0 - weight)
                    .membership_pair(0.4 + 0.1 * ((seed + i) % 7) as f64, 1.0)
            })
            .unwrap();
    }
    builder.build()
}

/// `a ⋈ b ⋈ c` on the integer join attributes — a left-deep spine of
/// three inputs joined by cross-input definite equality conjuncts,
/// the exact shape `ChainOp` targets.
fn chain_plan(th: u8) -> LogicalPlan {
    let threshold = match th {
        0 => Threshold::POSITIVE,
        1 => Threshold::SnAtLeast(0.2),
        _ => Threshold::SpAtLeastPositive(0.5),
    };
    scan("a")
        .join_where(
            scan("b"),
            Predicate::theta(Operand::attr("ja"), ThetaOp::Eq, Operand::attr("jb")),
            threshold,
        )
        .join_where(
            scan("c"),
            Predicate::theta(Operand::attr("jb"), ThetaOp::Eq, Operand::attr("jc")),
            threshold,
        )
        .build()
}

fn bind(seed: u64, sizes: (usize, usize, usize), spread: u64) -> Bindings {
    let mut b = Bindings::new();
    b.bind("a", relation("a", sizes.0, spread, seed))
        .bind("b", relation("b", sizes.1, spread, seed.wrapping_add(1)))
        .bind("c", relation("c", sizes.2, spread, seed.wrapping_add(2)));
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chain execution ≡ naive composition, including insertion
    /// order, at 1 and 4 threads; sequential and parallel contexts
    /// must also agree on stats.
    #[test]
    fn chain_matches_reference_bit_for_bit(
        seed in 0u64..1_000_000,
        na in 2usize..14,
        nb in 2usize..14,
        nc in 2usize..14,
        spread in 1u64..8,
        th in 0u8..3,
    ) {
        let bindings = bind(seed, (na, nb, nc), spread);
        let plan = chain_plan(th);
        let options = UnionOptions::default();
        let (naive, _) =
            execute_reference(&plan, &bindings, &options).expect("reference succeeds");

        let mut seq_ctx = exec_context(options);
        seq_ctx.parallelism = 1;
        let seq = execute_plan(&plan, &bindings, &mut seq_ctx).expect("sequential succeeds");
        let mut par_ctx = exec_context(options);
        par_ctx.parallelism = 4;
        let par = execute_plan(&plan, &bindings, &mut par_ctx).expect("parallel succeeds");

        // Bit-exact, in the naive (= left-deep) emission order.
        for (label, streamed) in [("sequential", &seq), ("parallel", &par)] {
            identical(&naive, streamed).or_fail(format_args!("{label}\nplan:\n{}", plan.render()));
        }
        prop_assert_eq!(seq_ctx.stats, par_ctx.stats);
    }
}

/// The planner actually engages the chain (and renders its chosen
/// order) for a three-way equality chain.
#[test]
fn explain_shows_chain() {
    let bindings = bind(7, (12, 8, 3), 4);
    let plan = chain_plan(0);
    let text = explain_plan(&plan, &bindings, &mut ExecContext::new(&config()), false).unwrap();
    assert!(text.contains("⋈̃ chain (3 inputs"), "{text}");
    assert!(text.contains("cost-ordered:"), "{text}");
}
