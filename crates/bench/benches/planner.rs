//! Planner benchmark: cost-based join ordering on a skewed 3-way ⋈̃
//! chain.
//!
//! The chain is `A ⋈ B ON A.x = B.x ⋈ C ON B.y = C.y` with the skew
//! arranged so the orders diverge hard: `x` is drawn from a 4-value
//! domain on both big relations (A⋈B is a near-quadratic blowup),
//! while `y` is unique per B tuple and C is a handful of tuples — so
//! exploring from C touches a few hundred combinations where the
//! left-deep order materializes hundreds of thousands of intermediate
//! pairs. The chain operator starts from C (cheapest, connected).
//! Before timing, results are asserted **bit-identical** (tuples,
//! insertion order, membership bits) at 1 and 4 threads and, at the
//! sizes where materializing A×B is affordable, against the left-deep
//! `plan::reference` oracle. (The timed left-deep row is retired with
//! the statistics-off switch that produced it.)
//!
//! Kept beside `benchmark/` because no workload text there joins, so
//! nothing else measures `ChainOp`. Last recording:
//! `crates/bench/BASELINES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evirel_algebra::{Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::reference::execute_reference;
use evirel_plan::{execute_plan, scan, Bindings, ExecContext, LogicalPlan};
use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder, Schema, ValueKind};
use std::hint::black_box;
use std::sync::Arc;

fn measured() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// One chain input. Attribute names carry the relation's prefix
/// (`ax`, `bx`, `by`, `cy`, …) so no qualification ambiguity arises
/// in the 3-way product schema; memberships stay uncertain so the
/// chain multiplies support pairs end to end.
fn relation(
    name: &str,
    tuples: usize,
    attrs: [&str; 2],
    first_of: impl Fn(u64) -> i64,
    second_of: impl Fn(u64) -> i64,
) -> ExtendedRelation {
    let domain = Arc::new(AttrDomain::categorical("d", ["p", "q", "r"]).unwrap());
    let schema = Arc::new(
        Schema::builder(name)
            .key_str(format!("k{name}"))
            .definite(attrs[0], ValueKind::Int)
            .definite(attrs[1], ValueKind::Int)
            .evidential("d", domain)
            .build()
            .unwrap(),
    );
    let mut builder = RelationBuilder::new(schema);
    for i in 0..tuples as u64 {
        let label = ["p", "q", "r"][(i % 3) as usize];
        let weight = 0.4 + 0.05 * (i % 11) as f64;
        builder = builder
            .tuple(|t| {
                t.set_str(&format!("k{name}"), format!("{name}-{i}"))
                    .set_int(attrs[0], first_of(i))
                    .set_int(attrs[1], second_of(i))
                    .set_evidence_with_omega("d", [(&[label][..], weight)], 1.0 - weight)
                    .membership_pair(0.5 + 0.05 * (i % 9) as f64, 1.0)
            })
            .unwrap();
    }
    builder.build()
}

/// The skewed inputs: A and B share a dense 4-value `ax`/`bx`; B's
/// `by` is unique per tuple; C is `c_tuples` rows whose `cy` hits
/// distinct B tuples.
fn bindings(big: usize, c_tuples: usize) -> Bindings {
    let a = relation("A", big, ["ax", "az"], |i| (i % 4) as i64, |i| i as i64);
    let b = relation("B", big, ["bx", "by"], |i| (i * 7 % 4) as i64, |i| i as i64);
    let c = relation(
        "C",
        c_tuples,
        ["cy", "cz"],
        // Spread C's matches across B so no single x-class dominates.
        |i| (i * 37 % 512) as i64,
        |_| 0,
    );
    let mut bindings = Bindings::new();
    bindings.bind("a", a).bind("b", b).bind("c", c);
    bindings
}

fn chain_plan() -> LogicalPlan {
    scan("a")
        .join_where(
            scan("b"),
            Predicate::theta(Operand::attr("ax"), ThetaOp::Eq, Operand::attr("bx")),
            Threshold::POSITIVE,
        )
        .join_where(
            scan("c"),
            Predicate::theta(Operand::attr("by"), ThetaOp::Eq, Operand::attr("cy")),
            Threshold::POSITIVE,
        )
        .build()
}

fn run(bindings: &Bindings, plan: &LogicalPlan, threads: usize) -> ExtendedRelation {
    let mut ctx = ExecContext::with_parallelism(threads);
    execute_plan(plan, bindings, &mut ctx).expect("plan executes")
}

fn assert_identical(a: &ExtendedRelation, b: &ExtendedRelation) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.values(), y.values());
        assert_eq!(x.membership().sn().to_bits(), y.membership().sn().to_bits());
        assert_eq!(x.membership().sp().to_bits(), y.membership().sp().to_bits());
    }
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/chain3");
    // Smoke runs (cargo test --benches, CI) use a small size; full
    // measurement sweeps the sizes BASELINES.md reports.
    let sizes: &[usize] = if measured() { &[500, 1_500] } else { &[160] };
    for &big in sizes {
        let bindings = bindings(big, 6);
        let plan = chain_plan();
        // Sanity before timing: 1 and 4 threads agree bit for bit,
        // the output is non-trivial, and it is the left-deep oracle's
        // (which materializes all of A×B, so only the small sizes).
        let cost_ordered = run(&bindings, &plan, 1);
        assert!(!cost_ordered.is_empty(), "skew produced an empty join");
        assert_identical(&cost_ordered, &run(&bindings, &plan, 4));
        if big <= 500 {
            let (left_deep, _) = execute_reference(&plan, &bindings, &Default::default())
                .expect("reference executes");
            assert_identical(&cost_ordered, &left_deep);
        }

        group.throughput(Throughput::Elements(2 * big as u64 + 6));
        group.bench_with_input(BenchmarkId::new("cost-ordered", big), &big, |bench, _| {
            bench.iter(|| run(black_box(&bindings), black_box(&plan), 1))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(3000))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_planner
}
criterion_main!(benches);
