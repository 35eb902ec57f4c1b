// Regression: (A ∪ B) − σ(C) with the filter below the difference's
// RIGHT subtree. A right key dropped at runtime no longer subtracts
// its left partner, so the emitted key set GROWS past the static
// order map — emit_domain must decline the exchange at the −̃ (the
// planner still exchanges the ∪̃ below it), keeping parallel output
// order sequential-exact.
use evirel_algebra::predicate::Predicate;
use evirel_plan::{execute_plan, explain_plan, scan, Bindings};
use evirel_testkit::context_at;
use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};

#[test]
fn difference_with_filtered_right_order() {
    let (ga, gb) = generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples: 600,
            seed: 3,
            ..Default::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.0,
    })
    .unwrap();
    let (gc, _) = generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples: 600,
            seed: 3,
            ..Default::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.0,
    })
    .unwrap();
    let mut b = Bindings::new();
    b.bind("ga", ga).bind("gb", gb).bind("gc", gc);
    let plan = scan("ga")
        .union(scan("gb"))
        .difference(scan("gc").select(Predicate::is("e0", ["v0"])))
        .build();
    let text = explain_plan(&plan, &b, &mut context_at(4), false).unwrap();
    eprintln!("{text}");
    // The −̃ itself is not exchanged; its shardable ∪̃ subtree is.
    let diff_line = text.lines().position(|l| l.contains("physical:")).unwrap();
    let ex_line = text
        .lines()
        .position(|l| l.contains("⇄ exchange"))
        .expect("union subtree still exchanges");
    let minus_line = text
        .lines()
        .skip(diff_line)
        .position(|l| l.contains("−̃"))
        .unwrap()
        + diff_line;
    assert!(
        ex_line > minus_line,
        "exchange must sit below the −̃:\n{text}"
    );
    let mut seq_ctx = context_at(1);
    let seq = execute_plan(&plan, &b, &mut seq_ctx).unwrap();
    let mut par_ctx = context_at(4);
    let par = execute_plan(&plan, &b, &mut par_ctx).unwrap();
    assert_eq!(seq.len(), par.len(), "content diverged");
    for (i, (s, p)) in seq.iter().zip(par.iter()).enumerate() {
        assert_eq!(
            s.key(seq.schema()),
            p.key(par.schema()),
            "order diverged at tuple {i}"
        );
    }
}
