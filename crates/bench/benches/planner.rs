//! Planner benchmark: cost-based join ordering on a skewed 3-way ⋈̃
//! chain.
//!
//! The chain is `A ⋈ B ON A.x = B.x ⋈ C ON B.y = C.y` with the skew
//! arranged so the orders diverge hard: `x` is drawn from a 4-value
//! domain on both big relations (A⋈B is a near-quadratic blowup),
//! while `y` is unique per B tuple and C is a handful of tuples — so
//! exploring from C touches a few hundred combinations where the
//! left-deep order streams hundreds of thousands of intermediate
//! pairs. The chain operator starts from C (cheapest, connected).
//!
//! Two rows: `cost-ordered` is the planner's `ChainOp`; `left-deep` is
//! the same chain as two `JoinOp`s built by hand from public operators
//! — each hash-probing its right input on its equality — which is what
//! the planner would run without `ChainOp`. Before timing, `ChainOp`
//! at 1 and 4 threads is asserted **bit-identical** (tuples, insertion
//! order, membership bits) to the left-deep join at every size, and
//! the left-deep join to the `plan::reference` oracle at the sizes
//! where the oracle's materialized A×B is affordable.
//!
//! Kept beside `benchmark/` because no workload text there joins, so
//! nothing else measures `ChainOp`.
//!
//! One more row, `stored-union-select`, is `union_stored`'s query in
//! process: `sa` and `sb` stored as that workload stores them, and its
//! 48 texts `SELECT k FROM sa UNION sb WHERE e<a> IS {v<i>} WITH SN >
//! 0.8` run one after another on one thread. The σ̃ runs inside the ∪̃,
//! where a matched pair of stored records is decided from its bytes;
//! before timing, each text's selection is asserted bit-identical to
//! `SelectOp` over the unfused `MergeOp` over the same stored scans. It
//! repeats the merge-kernel work `union_stored` measures through a
//! server, without the server's noise. Last recording:
//! `crates/bench/BASELINES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evirel_algebra::product::product_schema;
use evirel_algebra::union::UnionOptions;
use evirel_algebra::{Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::ops::{run, DempsterMerger, JoinOp, MergeOp, Operator, ScanOp, SelectOp};
use evirel_plan::reference::execute_reference;
use evirel_plan::spill::SpillScanOp;
use evirel_plan::{execute_plan, scan, Bindings, BufferPool, LogicalPlan, StoredRelation};
use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder, Schema, Value, ValueKind};
use evirel_testkit::{context_at, identical, OrFail, TempDir};
use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
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
) -> Arc<ExtendedRelation> {
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
    Arc::new(builder.build())
}

/// The skewed inputs `a`, `b`, `c`: A and B share a dense 4-value
/// `ax`/`bx`; B's `by` is unique per tuple; C is `c_tuples` rows whose
/// `cy` hits distinct B tuples.
fn inputs(big: usize, c_tuples: usize) -> [Arc<ExtendedRelation>; 3] {
    [
        relation("A", big, ["ax", "az"], |i| (i % 4) as i64, |i| i as i64),
        relation("B", big, ["bx", "by"], |i| (i * 7 % 4) as i64, |i| i as i64),
        relation(
            "C",
            c_tuples,
            ["cy", "cz"],
            // Spread C's matches across B so no single x-class dominates.
            |i| (i * 37 % 512) as i64,
            |_| 0,
        ),
    ]
}

fn bindings(inputs: &[Arc<ExtendedRelation>; 3]) -> Bindings {
    let mut bindings = Bindings::new();
    for (name, rel) in ["a", "b", "c"].into_iter().zip(inputs) {
        bindings.bind(name, ExtendedRelation::clone(rel));
    }
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

/// [`chain_plan`] as the planner runs it: `ChainOp`, cost-ordered.
fn cost_ordered(bindings: &Bindings, plan: &LogicalPlan, threads: usize) -> ExtendedRelation {
    execute_plan(plan, bindings, &mut context_at(threads)).expect("plan executes")
}

/// [`chain_plan`] left-deep, `(a ⋈ b) ⋈ c`, on one thread: two
/// `JoinOp`s over scans, each on the equality
/// [`JoinOp::indexable_conjunct`] finds.
fn left_deep(inputs: &[Arc<ExtendedRelation>; 3]) -> ExtendedRelation {
    let join = |left: Box<dyn Operator>, right: Box<dyn Operator>, on: [&str; 2]| {
        let predicate = Predicate::theta(Operand::attr(on[0]), ThetaOp::Eq, Operand::attr(on[1]));
        let (ls, rs) = (left.schema(), right.schema());
        let product = product_schema(ls, rs).expect("prefixed names never clash");
        let (lp, rp) = JoinOp::indexable_conjunct(&predicate, ls, rs, &product)
            .expect("a definite equality across the sides");
        let op = JoinOp::new(left, right, predicate, Threshold::POSITIVE, lp, rp);
        Box::new(op.expect("a positive threshold")) as Box<dyn Operator>
    };
    let leaf = |name: &str, rel: &Arc<ExtendedRelation>| {
        Box::new(ScanOp::new(name, Arc::clone(rel))) as Box<dyn Operator>
    };
    let [a, b, c] = inputs;
    let ab = join(leaf("a", a), leaf("b", b), ["ax", "bx"]);
    let mut abc = join(ab, leaf("c", c), ["by", "cy"]);
    run(abc.as_mut(), &mut context_at(1)).expect("joins")
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/chain3");
    // Smoke runs (cargo test --benches, CI) use a small size; full
    // measurement sweeps the sizes BASELINES.md reports.
    let sizes: &[usize] = if measured() { &[500, 1_500] } else { &[160] };
    for &big in sizes {
        let inputs = inputs(big, 6);
        let bindings = bindings(&inputs);
        let plan = chain_plan();
        // Sanity before timing: the output is non-trivial, the chain
        // at 1 and 4 threads is the left-deep join bit for bit, and so
        // is the reference (which materializes all of A×B, so only at
        // the small sizes).
        let expected = left_deep(&inputs);
        assert!(!expected.is_empty(), "skew produced an empty join");
        for threads in [1, 4] {
            identical(&expected, &cost_ordered(&bindings, &plan, threads)).or_fail(format_args!(
                "cost-ordered at {threads} threads, {big} tuples"
            ));
        }
        if big <= 500 {
            let (reference, _) = execute_reference(&plan, &bindings, &Default::default())
                .expect("reference executes");
            identical(&reference, &expected).or_fail("left-deep against the reference");
        }

        group.throughput(Throughput::Elements(2 * big as u64 + 6));
        group.bench_with_input(BenchmarkId::new("cost-ordered", big), &big, |bench, _| {
            bench.iter(|| cost_ordered(black_box(&bindings), black_box(&plan), 1))
        });
        group.bench_with_input(BenchmarkId::new("left-deep", big), &big, |bench, _| {
            bench.iter(|| left_deep(black_box(&inputs)))
        });
    }
    group.finish();
}

/// `union_stored`'s data: `sa` and `sb`, `tuples` generated tuples each
/// — half their keys shared, a quarter of the shared pairs drawn to
/// conflict — written with the default page size into `dir` and read
/// through one 64 MiB pool, as the server's set-up `MERGE`s store them.
fn stored_pair(tuples: usize, dir: &TempDir) -> [Arc<StoredRelation>; 2] {
    let (ga, gb) = generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples,
            ..Default::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.25,
    })
    .expect("generator config is valid");
    let pool = Arc::new(BufferPool::new(64 << 20));
    [("sa", ga), ("sb", gb)].map(|(name, rel)| {
        let stored = StoredRelation::store(&rel, dir.join(name), Arc::clone(&pool));
        Arc::new(stored.expect("segment writes"))
    })
}

/// The first `texts` of `union_stored`'s 48 selections, `e<a> IS {v<i>}`
/// with `SN > 0.8`.
fn union_selections(texts: usize) -> Vec<Predicate> {
    (0..3)
        .flat_map(|attr| (0..16).map(move |label| (attr, label)))
        .take(texts)
        .map(|(attr, label)| Predicate::is(format!("e{attr}"), [Value::str(format!("v{label}"))]))
        .collect()
}

const ABOVE_08: Threshold = Threshold::SnGreater(0.8);

/// σ̃ over ∪̃ as the planner ran it before the selection moved into the
/// merge: `SelectOp` over `MergeOp` over the two stored scans.
fn unfused_union(stored: &[Arc<StoredRelation>; 2], predicate: &Predicate) -> ExtendedRelation {
    let [sa, sb] = stored
        .clone()
        .map(|s| Box::new(SpillScanOp::new("s", s)) as Box<dyn Operator>);
    let merger = Box::new(DempsterMerger::new(UnionOptions::default()));
    let merge = MergeOp::union(sa, sb, merger).expect("union-compatible");
    let select = SelectOp::new(Box::new(merge), predicate.clone(), ABOVE_08);
    run(
        &mut select.expect("a positive threshold"),
        &mut context_at(1),
    )
    .expect("merges")
}

fn bench_stored_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/stored-union-select");
    let (tuples, texts) = if measured() { (10_000, 48) } else { (400, 3) };
    let dir = TempDir::new("planner-union");
    let stored = stored_pair(tuples, &dir);
    let mut bindings = Bindings::new();
    for (name, relation) in ["sa", "sb"].into_iter().zip(&stored) {
        bindings.bind_stored(name, Arc::clone(relation));
    }
    let selected = |predicate: &Predicate| {
        scan("sa")
            .union(scan("sb"))
            .select_where(predicate.clone(), ABOVE_08)
    };
    let plans: Vec<LogicalPlan> = union_selections(texts)
        .iter()
        .map(|predicate| {
            let fused = execute_plan(&selected(predicate).build(), &bindings, &mut context_at(1));
            identical(
                &unfused_union(&stored, predicate),
                &fused.expect("plan executes"),
            )
            .or_fail(format_args!("σ̃[{predicate}] over {tuples} tuples a side"));
            selected(predicate).project(["k"]).build()
        })
        .collect();
    group.throughput(Throughput::Elements(texts as u64));
    group.bench_with_input(BenchmarkId::new("fused", tuples), &tuples, |bench, _| {
        bench.iter(|| {
            for plan in &plans {
                let out = execute_plan(black_box(plan), &bindings, &mut context_at(1));
                black_box(out.expect("plan executes"));
            }
        })
    });
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
    targets = bench_planner, bench_stored_union
}
criterion_main!(benches);
