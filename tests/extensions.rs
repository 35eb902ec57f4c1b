//! The documented extensions, exercised end to end through the façade:
//! discounting, conditioning, uncertainty measures, multi-source
//! integration, and plan explanation.

use evirel::evidence::{combine, condition, measures, weight_of_conflict};
use evirel::prelude::*;
use evirel::workload::restaurant::rating_domain;
use evirel::workload::{restaurant_db_a, restaurant_db_b};
use std::sync::Arc;

fn garden_speciality(rel: &ExtendedRelation) -> evirel::evidence::MassFunction<f64> {
    let t = rel.get_by_key(&[Value::str("garden")]).unwrap();
    t.value(4).as_evidential().unwrap().clone()
}

#[test]
fn integration_reduces_nonspecificity_on_paper_data() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let before = measures::nonspecificity(&garden_speciality(&ra));
    let merged = union_extended(&ra, &rb).unwrap().relation;
    let after = measures::nonspecificity(&garden_speciality(&merged));
    // Ω mass shrinks 0.25 → 0.069, so nonspecificity must drop.
    assert!(after < before, "{after} !< {before}");
    // And specificity moves toward 1 (more definite).
    assert!(
        measures::specificity(&garden_speciality(&merged))
            < measures::specificity(&garden_speciality(&ra))
    );
}

#[test]
fn discounting_an_unreliable_source_softens_its_influence() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let schema = Arc::clone(ra.schema());
    // Trust DB_B only 50%.
    let rb_soft = evirel::integrate::Preprocessor::new()
        .with_reliability(0.5)
        .apply(&rb, Arc::clone(&schema))
        .unwrap();
    let full = union_extended(&ra, &rb).unwrap().relation;
    let soft = union_extended(&ra, &rb_soft).unwrap().relation;
    // With DB_B discounted, garden's combined rating stays closer to
    // DB_A's view (gd mass lower than in the fully-trusted merge).
    let gd = rating_domain()
        .subset_of_values([&Value::str("gd")])
        .unwrap();
    let full_gd = full
        .get_by_key(&[Value::str("garden")])
        .unwrap()
        .value(6)
        .as_evidential()
        .unwrap()
        .bel(&gd);
    let soft_gd = soft
        .get_by_key(&[Value::str("garden")])
        .unwrap()
        .value(6)
        .as_evidential()
        .unwrap()
        .bel(&gd);
    assert!(soft_gd < full_gd, "{soft_gd} !< {full_gd}");
}

#[test]
fn conditioning_answers_what_if_constraints() {
    // "Given that garden is definitely Chinese (hu/si/ca), what do we
    // believe about its speciality?"
    let ra = restaurant_db_a().restaurants;
    let m = garden_speciality(&ra);
    let domain = ra.schema().attr(4).ty().domain().unwrap().clone();
    let chinese = domain
        .subset_of_values([&Value::str("hu"), &Value::str("si"), &Value::str("ca")])
        .unwrap();
    let conditioned = condition(&m, &chinese).unwrap();
    assert!(conditioned.core().is_subset_of(&chinese));
    // si keeps its dominance after conditioning.
    let si = domain.subset_of_values([&Value::str("si")]).unwrap();
    assert!(conditioned.bel(&si) >= m.bel(&si));
}

#[test]
fn weight_of_conflict_matches_paper_union() {
    // κ = 0.534 for garden's rating — weight of conflict is finite and
    // positive; total conflict would be infinite.
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let out = union_extended(&ra, &rb).unwrap();
    let garden_rating = out
        .report
        .conflicts()
        .iter()
        .find(|c| &*c.attr == "rating" && *c.key == [Value::str("garden")])
        .unwrap();
    let w = weight_of_conflict(garden_rating.kappa);
    assert!(w > 0.0 && w.is_finite());
    assert!(weight_of_conflict(1.0).is_infinite());
}

#[test]
fn run_many_integrates_a_third_agency() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    // A third agency only knows about wok, and disagrees mildly.
    let rc = RelationBuilder::new(Arc::new(ra.schema().renamed("RC")))
        .tuple(|t| {
            t.set_str("rname", "wok")
                .set_str("street", "wash.ave.")
                .set_int("bldg-no", 600)
                .set_str("phone", "382-4165")
                .set_evidence_with_omega("speciality", [(&["si"][..], 0.6)], 0.4)
                .set_evidence_with_omega("best-dish", [(&["d6"][..], 0.5)], 0.5)
                .set_evidence("rating", [(&["gd"][..], 0.7), (&["ex"][..], 0.3)])
        })
        .unwrap()
        .build();
    let integrator = Integrator::new(Arc::clone(ra.schema()));
    let out = integrator.run_many(&[&ra, &rb, &rc]).unwrap();
    assert_eq!(out.relation.len(), 6);
    // wok's rating absorbed all three sources: ex conflicts away
    // against gd^1 from RB, so gd stays certain.
    let wok = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
    let gd = rating_domain()
        .subset_of_values([&Value::str("gd")])
        .unwrap();
    assert!((wok.value(6).as_evidential().unwrap().bel(&gd) - 1.0).abs() < 1e-9);
    // Accumulated trace covers both folds.
    assert_eq!(out.trace.right_in, 6); // 5 (RB) + 1 (RC)
}

#[test]
fn explain_matches_execution_shape() {
    let plan = evirel::query::explain(
        "SELECT rname, rating FROM ra UNION rb WHERE rating IS {ex} WITH SN >= 0.8",
    )
    .unwrap();
    assert!(plan.contains("π̃[rname, rating]"));
    assert!(plan.contains("∪̃"));
    // The same query executes to the known Table 4-derived answer.
    let mut catalog = Catalog::new();
    catalog.register("ra", restaurant_db_a().restaurants);
    catalog.register("rb", restaurant_db_b().restaurants);
    let out = execute(
        &catalog,
        "SELECT rname, rating FROM ra UNION rb WHERE rating IS {ex} WITH SN >= 0.8",
    )
    .unwrap();
    assert_eq!(out.len(), 3);
}

#[test]
fn summarization_cap_respects_paper_results() {
    // With a generous cap the union result is unchanged on paper data
    // (no attribute has more than 3 focal elements post-merge).
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let exact = union_extended(&ra, &rb).unwrap().relation;
    let capped = evirel::algebra::union::union_with(
        &ra,
        &rb,
        &evirel::algebra::union::UnionOptions {
            max_focal: Some(4),
            ..Default::default()
        },
    )
    .unwrap()
    .relation;
    assert!(capped.approx_eq(&exact));
}

#[test]
fn dempster_all_equals_pairwise_folds() {
    // dempster_all over the three garden rating sources equals manual
    // folding — associativity in practice.
    let frame = Arc::clone(rating_domain().frame());
    let mk = |entries: &[(&str, f64)]| {
        let mut b = evirel::evidence::MassFunction::<f64>::builder(Arc::clone(&frame));
        for (l, w) in entries {
            b = b.add([*l], *w).unwrap();
        }
        b.build().unwrap()
    };
    let m1 = mk(&[("ex", 0.33), ("gd", 0.5), ("avg", 0.17)]);
    let m2 = mk(&[("ex", 0.2), ("gd", 0.8)]);
    let m3 = mk(&[("gd", 0.6), ("avg", 0.4)]);
    let all = combine::dempster_all([&m1, &m2, &m3]).unwrap();
    let fold = combine::dempster(&combine::dempster(&m1, &m2).unwrap().mass, &m3).unwrap();
    assert!(all.mass.approx_eq(&fold.mass));
}
