//! End-to-end integration of the paper's two restaurant databases:
//! Figure 1 pipeline → integrated relation → query processing →
//! storage, all through the façade crate.

use evirel::prelude::*;
use evirel::workload::{restaurant_db_a, restaurant_db_b};
use evirel_testkit::{config, context_at};
use std::sync::Arc;

#[test]
fn figure1_pipeline_trace() {
    let db_a = restaurant_db_a();
    let db_b = restaurant_db_b();
    let integrator = Integrator::new(Arc::clone(db_a.restaurants.schema()));
    let out = integrator
        .run(&db_a.restaurants, &db_b.restaurants)
        .unwrap();
    assert_eq!(out.trace.left_in, 6);
    assert_eq!(out.trace.right_in, 5);
    assert_eq!(out.trace.matched, 5);
    assert_eq!(out.trace.left_only, 1); // ashiana
    assert_eq!(out.trace.right_only, 0);
    assert_eq!(out.trace.integrated, 6);
    assert!(out.trace.conflicts > 0);
    assert!(out.trace.max_kappa > 0.5); // garden rating κ = 0.534
                                        // The trace prints the Figure 1 stages.
    let text = out.trace.to_string();
    for stage in [
        "attribute preprocessing",
        "entity identification",
        "tuple merging",
    ] {
        assert!(text.contains(stage), "{text}");
    }
}

#[test]
fn pipeline_result_equals_extended_union() {
    // With identity preprocessing and key matching, the Figure 1
    // pipeline must coincide with the algebra's ∪̃ (Table 4).
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let via_pipeline = Integrator::new(Arc::clone(ra.schema()))
        .run(&ra, &rb)
        .unwrap()
        .relation;
    let via_union = union_extended(&ra, &rb).unwrap().relation;
    assert!(via_pipeline.approx_eq(&via_union));
}

#[test]
fn conflict_report_names_garden_rating() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let out = union_extended(&ra, &rb).unwrap();
    let garden_rating = out
        .report
        .conflicts()
        .iter()
        .find(|c| *c.key == [Value::str("garden")] && &*c.attr == "rating")
        .expect("garden/rating conflict reported");
    assert!((garden_rating.kappa - 0.534).abs() < 1e-9);
    assert!(!garden_rating.total);
    // No total conflicts anywhere in the paper's data.
    assert_eq!(out.report.total_conflicts().count(), 0);
}

/// The report reads as it always has — the text below is the parent
/// commit's, byte for byte — whether ∪̃ or the Figure 1 pipeline made
/// it, and the observations of one matched pair share one key handle
/// while different pairs do not.
#[test]
fn conflict_report_text_is_pinned_and_pairs_share_their_key() {
    const REPORT: &str = "\
13 attribute conflict(s), max κ = 0.750, mean κ = 0.401
  key (garden) attr \"speciality\": κ = 0.275
  key (garden) attr \"best-dish\": κ = 0.500
  key (garden) attr \"rating\": κ = 0.534
  key (wok) attr \"speciality\": κ = 0.200
  key (wok) attr \"best-dish\": κ = 0.667
  key (wok) attr \"rating\": κ = 0.750
  key (country) attr \"best-dish\": κ = 0.466
  key (country) attr \"rating\": κ = 0.300
  key (olive) attr \"best-dish\": κ = 0.200
  key (olive) attr \"rating\": κ = 0.500
  key (mehl) attr \"speciality\": κ = 0.200
  key (mehl) attr \"best-dish\": κ = 0.420
  key (mehl) attr \"rating\": κ = 0.200
";
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let via_union = union_extended(&ra, &rb).unwrap().report;
    let via_pipeline = Integrator::new(Arc::clone(ra.schema()))
        .run(&ra, &rb)
        .unwrap()
        .report;
    for report in [&via_union, &via_pipeline] {
        assert_eq!(report.to_string(), REPORT);
        for pair in report.conflicts().windows(2) {
            assert_eq!(
                Arc::ptr_eq(&pair[0].key, &pair[1].key),
                pair[0].key == pair[1].key,
                "one key handle per matched pair"
            );
        }
        // The attribute name is the schema's own handle.
        let rating = ra.schema().attr(ra.schema().position("rating").unwrap());
        let seen = report.conflicts().iter().find(|c| &*c.attr == "rating");
        assert!(Arc::ptr_eq(&seen.unwrap().attr, rating.shared_name()));
    }
}

#[test]
fn queries_over_integrated_relation() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let merged = union_extended(&ra, &rb).unwrap().relation;
    let mut catalog = Catalog::with_config(&config());
    catalog.register(
        "merged",
        evirel::algebra::rename_relation(&merged, "merged"),
    );

    // After integration, mehl is excellent with sn = 0.83.
    let out = execute(
        &catalog,
        "SELECT rname, rating FROM merged WHERE rating IS {ex} WITH SN >= 0.8;",
    )
    .unwrap();
    assert_eq!(out.len(), 3); // country, mehl, ashiana
    assert!(out.contains_key(&[Value::str("mehl")]));

    // Definite-threshold query returns only fully-certain answers.
    let out = execute(
        &catalog,
        "SELECT rname, rating FROM merged WHERE rating IS {ex} WITH SN = 1;",
    )
    .unwrap();
    assert_eq!(out.len(), 2); // country, ashiana
}

#[test]
fn integrated_relation_roundtrips_through_storage() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let merged = union_extended(&ra, &rb).unwrap().relation;
    let text = write_relation(&merged);
    let back = read_relation(&text).unwrap();
    assert!(back.approx_eq(&merged));
    // And the reloaded relation still answers queries identically.
    let mut catalog = Catalog::with_config(&config());
    catalog.register("m", back);
    catalog.register("orig", merged);
    let q = "SELECT rname, rating FROM m WHERE rating >= 'gd' WITH SN >= 0.5;";
    let q2 = "SELECT rname, rating FROM orig WHERE rating >= 'gd' WITH SN >= 0.5;";
    let a = execute(&catalog, q).unwrap();
    let b = execute(&catalog, q2).unwrap();
    assert!(a.approx_eq(&b));
}

#[test]
fn relationship_relations_integrate_too() {
    // Figure 2's Managed-by and Manager relations union across DBs.
    let db_a = restaurant_db_a();
    let db_b = restaurant_db_b();
    let rm = union_extended(&db_a.managed_by, &db_b.managed_by).unwrap();
    assert_eq!(rm.relation.len(), 4); // wok-chen (matched), mehl-rao, ashiana-rao, country-gruber
    let m = union_extended(&db_a.managers, &db_b.managers).unwrap();
    assert_eq!(m.relation.len(), 3); // chen (merged), rao, gruber
                                     // chen's speciality combined across DBs sharpens toward sichuan.
    let chen = m.relation.get_by_key(&[Value::str("chen")]).unwrap();
    let spec = chen.value(3).as_evidential().unwrap();
    let domain = m.relation.schema().attr(3).ty().domain().unwrap().clone();
    let si = domain.subset_of_values([&Value::str("si")]).unwrap();
    assert!(spec.bel(&si) > 0.7);
}

#[test]
fn parallel_union_agrees_on_paper_data() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let seq = union_extended(&ra, &rb).unwrap();
    let mut catalog = Bindings::new();
    catalog.bind("ra", ra).bind("rb", rb);
    let par = execute_plan(
        &scan("ra").union(scan("rb")).build(),
        &catalog,
        &mut context_at(4),
    )
    .unwrap();
    assert!(seq.relation.approx_eq(&par));
}

/// Table 4's merged `garden` tuple under `WHERE rating IS {ex}`: the
/// planner evaluates the σ̃ inside the ∪̃ — `rating` combined in full,
/// the other attributes observed until garden is known to be kept —
/// and the tuple it emits, bit for bit, and the report it leaves are
/// those of `union_extended` followed by `select`.
#[test]
fn garden_under_a_selection_is_the_same_through_the_fused_merge() {
    let ra = restaurant_db_a().restaurants;
    let rb = restaurant_db_b().restaurants;
    let predicate = Predicate::is("rating", ["ex"]);
    let merged = union_extended(&ra, &rb).unwrap();
    let selected = select(&merged.relation, &predicate, &Threshold::POSITIVE).unwrap();

    let mut catalog = Bindings::new();
    catalog.bind("ra", ra).bind("rb", rb);
    let plan = scan("ra").union(scan("rb")).select(predicate).build();
    let mut ctx = ExecContext::new(&config());
    let text = explain_plan(&plan, &catalog, &mut ctx, false).unwrap();
    assert!(
        text.contains("σ̃[rating is {ex}] with sn > 0 ⟵ ∪̃ ("),
        "{text}"
    );
    let mut ctx = ExecContext::new(&config());
    let fused = execute_plan(&plan, &catalog, &mut ctx).unwrap();

    assert_eq!(fused.len(), selected.len());
    let garden = |rel: &ExtendedRelation| rel.get_by_key(&[Value::str("garden")]).cloned();
    let (expected, got) = (garden(&selected).unwrap(), garden(&fused).unwrap());
    assert_eq!(expected.values(), got.values());
    // rating = [ex^0.143, gd^0.857], so sn = Bel({ex}) = 0.066 / 0.466.
    assert!((got.membership().sn() - 0.066 / 0.466).abs() < 1e-9);
    let bits = |t: &Tuple| (t.membership().sn().to_bits(), t.membership().sp().to_bits());
    assert_eq!(bits(&expected), bits(&got));
    assert_eq!(merged.report.conflicts(), ctx.conflict_report().conflicts());
}
