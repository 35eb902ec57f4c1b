//! Query-language integration tests: EQL behaviour across the whole
//! stack, beyond the per-crate unit tests.

use evirel::prelude::*;
use evirel::query::QueryError;
use evirel::workload::{restaurant_db_a, restaurant_db_b};
use evirel_testkit::seeded;

#[test]
fn union_is_commutative_through_the_language() {
    let c = seeded();
    let ab = execute(&c, "SELECT * FROM ra UNION rb").unwrap();
    let ba = execute(&c, "SELECT * FROM rb UNION ra").unwrap();
    assert!(ab.approx_eq(&ba));
}

#[test]
fn where_after_union_equals_algebra_composition() {
    let c = seeded();
    let via_language = execute(
        &c,
        "SELECT * FROM ra UNION rb WHERE rating IS {ex} WITH SN >= 0.5",
    )
    .unwrap();
    let merged = union_extended(
        &restaurant_db_a().restaurants,
        &restaurant_db_b().restaurants,
    )
    .unwrap()
    .relation;
    let via_algebra = select(
        &merged,
        &Predicate::is("rating", ["ex"]),
        &Threshold::SnAtLeast(0.5),
    )
    .unwrap();
    assert!(via_language.approx_eq(&via_algebra));
}

#[test]
fn is_predicate_with_multiple_values() {
    let out = execute(
        &seeded(),
        "SELECT rname, speciality FROM ra WHERE speciality IS {mu, ta} WITH SN >= 0.9",
    )
    .unwrap();
    // mehl: Bel({mu,ta}) = 1.0 (mass mu .8 + ta .2), membership 0.5 → 0.5 ✗.
    // ashiana: Bel = 0.9 ✓.
    assert_eq!(out.len(), 1);
    assert!(out.contains_key(&[Value::str("ashiana")]));
}

#[test]
fn theta_with_evidence_literal() {
    // Restaurants whose rating dominates a 50/50 good-excellent
    // reference.
    let out = execute(
        &seeded(),
        "SELECT rname, rating FROM ra WHERE rating >= [gd^0.5, ex^0.5] WITH SN >= 0.4",
    )
    .unwrap();
    // country [ex^1]: definitely ≥ both gd and ex → sn = 1 ✓.
    // ashiana [ex^1] ✓. garden: ex .33 ≥ both (0.33); gd .5 ≥ gd half
    // (0.25) → 0.58 ✓. mehl: (ex .8 + gd .2*.5 = .9) × 0.5 membership → 0.45 ✓.
    assert!(out.contains_key(&[Value::str("country")]));
    assert!(out.contains_key(&[Value::str("ashiana")]));
    assert!(out.contains_key(&[Value::str("garden")]));
}

#[test]
fn not_and_or_extensions() {
    let out = execute(
        &seeded(),
        "SELECT rname, rating FROM ra WHERE NOT rating IS {avg} WITH SN >= 0.9",
    )
    .unwrap();
    // sn(NOT avg) = 1 − Pls(avg): country 1, ashiana 1, mehl 1 (×0.5 ✗),
    // garden 1−0.17 = 0.83 ✗, olive 0.5 ✗, wok 0.25 ✗.
    assert_eq!(out.len(), 2);
}

#[test]
fn numeric_theta_on_definite_attribute() {
    let out = execute(
        &seeded(),
        "SELECT rname, bldg-no FROM ra WHERE bldg-no <= 600 WITH SN = 1",
    )
    .unwrap();
    // wok 600, country 12, olive 514, ashiana 353.
    assert_eq!(out.len(), 4);
}

#[test]
fn parse_errors_carry_offsets() {
    match execute(&seeded(), "SELECT * FROM") {
        Err(QueryError::Parse { offset, .. }) => assert!(offset >= 13),
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn execution_errors_surface() {
    assert!(matches!(
        execute(&seeded(), "SELECT * FROM missing"),
        Err(QueryError::UnknownRelation { .. })
    ));
    // Unknown attribute in predicate.
    assert!(execute(&seeded(), "SELECT * FROM ra WHERE nope IS {x}").is_err());
    // Out-of-domain value in IS-set.
    assert!(execute(&seeded(), "SELECT * FROM ra WHERE speciality IS {thai}").is_err());
}

#[test]
fn chained_unions() {
    let mut c = seeded();
    // A third source with one more restaurant.
    let third = RelationBuilder::new(std::sync::Arc::new(
        restaurant_db_a().restaurants.schema().renamed("rc"),
    ))
    .tuple(|t| {
        t.set_str("rname", "nile")
            .set_str("street", "lake.st")
            .set_int("bldg-no", 77)
            .set_str("phone", "555-0000")
            .set_evidence("speciality", [(&["am"][..], 1.0)])
            .set_evidence("best-dish", [(&["d9"][..], 1.0)])
            .set_evidence("rating", [(&["gd"][..], 1.0)])
    })
    .unwrap()
    .build();
    c.register("rc", third);
    let out = execute(&c, "SELECT * FROM ra UNION rb UNION rc").unwrap();
    assert_eq!(out.len(), 7);
    assert!(out.contains_key(&[Value::str("nile")]));
}

#[test]
fn ranked_rendering_is_ordered() {
    let out = execute(
        &seeded(),
        "SELECT rname, rating FROM ra WHERE rating >= 'gd' WITH SN > 0",
    )
    .unwrap();
    let text = evirel::query::format::render_ranked(&out);
    // country (sn 1.0) must rank above wok (sn 0.25).
    let country = text.find("(country)").unwrap();
    let wok = text.find("(wok)").unwrap();
    assert!(country < wok, "{text}");
}
