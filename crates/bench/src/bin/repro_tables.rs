//! Regenerate every table and worked example of the paper and check
//! the numbers.
//!
//! ```text
//! repro_tables              # everything
//! repro_tables --table 4    # one table
//! repro_tables --worked     # the §2.1 / §2.2 / §3.1.1 inline examples
//! ```
//!
//! Exit code 0 iff every check passes and at least one ran; 2 on an
//! argument it does not understand, a table number outside 1–5 included.

use evirel_algebra::support::theta_support_with_domain;
use evirel_algebra::ThetaOp;
use evirel_bench::{check_table, compute_table2, compute_table3, compute_table4, compute_table5};
use evirel_evidence::{combine, Frame, MassFunction, Ratio};
use evirel_relation::display::render_table;
use evirel_relation::{AttrDomain, Value};
use evirel_workload::{restaurant_db_a, restaurant_db_b};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Checks [`report`]ed so far, passed or failed.
static CHECKS: AtomicUsize = AtomicUsize::new(0);

fn usage(message: &str) -> ! {
    eprintln!("{message}\nusage: repro_tables [--table 1..5] [--worked]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failures = 0usize;
    let mut which_table: Option<u32> = None;
    let mut worked_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--table" => {
                let value = args.get(i + 1);
                match value.and_then(|s| s.parse().ok()) {
                    Some(n @ 1..=5) => which_table = Some(n),
                    _ => usage(&format!("--table takes a table number 1–5, got {value:?}")),
                }
                i += 2;
            }
            "--worked" => {
                worked_only = true;
                i += 1;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let run_table = |n: u32| which_table.is_none_or(|w| w == n) && !worked_only;

    if run_table(1) {
        failures += table1();
    }
    if run_table(2) {
        failures += table(
            2,
            "σ̃_{sn>0, speciality is {si}}(R_A)",
            compute_table2(),
            evirel_bench::TABLE2_CELLS,
            evirel_bench::TABLE2_MEMBERSHIP,
        );
    }
    if run_table(3) {
        failures += table(
            3,
            "σ̃_{sn>0, (speciality is {mu}) ∧ (rating is {ex})}(R_A)",
            compute_table3(),
            evirel_bench::TABLE3_CELLS,
            evirel_bench::TABLE3_MEMBERSHIP,
        );
    }
    if run_table(4) {
        failures += table(
            4,
            "R_A ∪̃_(rname) R_B",
            compute_table4(),
            evirel_bench::TABLE4_CELLS,
            evirel_bench::TABLE4_MEMBERSHIP,
        );
    }
    if run_table(5) {
        failures += table(
            5,
            "π̃_{rname, phone, speciality, rating, (sn,sp)}(R_A)",
            compute_table5(),
            evirel_bench::TABLE5_CELLS,
            evirel_bench::TABLE5_MEMBERSHIP,
        );
    }
    if worked_only || which_table.is_none() {
        failures += worked_examples();
    }

    let checks = CHECKS.load(Ordering::Relaxed);
    if checks == 0 {
        println!("\nNO CHECKS RAN");
        std::process::exit(1);
    } else if failures == 0 {
        println!("\nALL CHECKS PASSED");
    } else {
        println!("\n{failures} CHECK(S) FAILED");
        std::process::exit(1);
    }
}

fn table1() -> usize {
    println!("== Table 1: source tables R_A (DB_A) and R_B (DB_B) ==\n");
    let a = restaurant_db_a().restaurants;
    let b = restaurant_db_b().restaurants;
    println!("{}", render_table(&a));
    println!("{}", render_table(&b));
    let ok = a.len() == 6 && b.len() == 5;
    report("Table 1 shape (6 + 5 tuples)", ok);
    usize::from(!ok)
}

fn table(
    n: u32,
    title: &str,
    computed: evirel_relation::ExtendedRelation,
    cells: &[evirel_bench::ExpectedCell],
    memberships: &[evirel_bench::ExpectedMembership],
) -> usize {
    println!("== Table {n}: {title} ==\n");
    println!("{}", render_table(&computed));
    let mut failures = 0;
    for check in check_table(&computed, cells, memberships) {
        if !check.passes() {
            println!(
                "  FAIL {}: expected {:.6}, measured {:.6}",
                check.label, check.expected, check.measured
            );
            failures += 1;
        }
    }
    report(
        &format!(
            "Table {n}: {} cell/membership checks",
            cells.len() + 2 * memberships.len()
        ),
        failures == 0,
    );
    failures
}

fn worked_examples() -> usize {
    let mut failures = 0usize;

    println!("== §2.1 worked example (wok speciality, exact rationals) ==\n");
    let frame = Arc::new(Frame::new(
        "speciality",
        [
            "american",
            "hunan",
            "sichuan",
            "cantonese",
            "mughalai",
            "italian",
        ],
    ));
    let r = |n, d| Ratio::new(n, d).expect("nonzero denominator");
    let m1 = MassFunction::<Ratio>::builder(Arc::clone(&frame))
        .add(["cantonese"], r(1, 2))
        .and_then(|b| b.add(["hunan", "sichuan"], r(1, 3)))
        .map(|b| b.add_omega(r(1, 6)))
        .and_then(|b| b.build())
        .expect("ES1 is well-formed");
    println!("ES1 = {m1}");
    let chs = frame
        .subset(["cantonese", "hunan", "sichuan"])
        .expect("labels in frame");
    let bel = m1.bel(&chs);
    let pls = m1.pls(&chs);
    println!("Bel({{ca,hu,si}}) = {bel}   Pls({{ca,hu,si}}) = {pls}");
    let ok = bel == r(5, 6) && pls == Ratio::ONE;
    report("§2.1: Bel = 5/6, Pls = 1", ok);
    failures += usize::from(!ok);

    println!("\n== §2.2 worked example (m1 ⊕ m2, exact rationals) ==\n");
    let m2 = MassFunction::<Ratio>::builder(Arc::clone(&frame))
        .add(["cantonese", "hunan"], r(1, 2))
        .and_then(|b| b.add(["hunan"], r(1, 4)))
        .map(|b| b.add_omega(r(1, 4)))
        .and_then(|b| b.build())
        .expect("m2 is well-formed");
    let c = combine::dempster(&m1, &m2).expect("not totally conflicting");
    println!("m1 ⊕ m2 = {}", c.mass);
    println!("κ = {}", c.conflict);
    let f = |labels: &[&str]| frame.subset(labels.iter().copied()).expect("labels");
    let checks = [
        ("κ = 1/8", c.conflict == r(1, 8)),
        (
            "m({cantonese}) = 3/7",
            c.mass.mass_of(&f(&["cantonese"])) == r(3, 7),
        ),
        (
            "m({hunan}) = 1/3",
            c.mass.mass_of(&f(&["hunan"])) == r(1, 3),
        ),
        (
            "m({cantonese, hunan}) = 2/21",
            c.mass.mass_of(&f(&["cantonese", "hunan"])) == r(2, 21),
        ),
        (
            "m({hunan, sichuan}) = 2/21",
            c.mass.mass_of(&f(&["hunan", "sichuan"])) == r(2, 21),
        ),
        ("m(Ω) = 1/21", c.mass.mass_of(&frame.omega()) == r(1, 21)),
    ];
    for (label, ok) in checks {
        report(label, ok);
        failures += usize::from(!ok);
    }

    println!("\n== §3.1.1 θ-predicate example ==\n");
    let domain = Arc::new(AttrDomain::integers("n", 1, 8).expect("static domain"));
    let left = vec![
        (vec![Value::int(1), Value::int(4)], 0.6),
        (vec![Value::int(2), Value::int(6)], 0.4),
    ];
    let printed = vec![
        (vec![Value::int(2), Value::int(4)], 0.8),
        (vec![Value::int(5)], 0.2),
    ];
    let sp = theta_support_with_domain(&domain, &left, ThetaOp::Le, &printed)
        .expect("well-formed operands");
    println!(
        "printed operands  [{{1,4}}^0.6, {{2,6}}^0.4] ≤ [{{2,4}}^0.8, 5^0.2]: (sn, sp) = ({}, {})",
        sp.sn(),
        sp.sp()
    );
    let ok = (sp.sn() - 0.12).abs() < 1e-12 && (sp.sp() - 1.0).abs() < 1e-12;
    report(
        "§3.1.1 as printed → (0.12, 1.0) under the paper's own definition",
        ok,
    );
    failures += usize::from(!ok);
    let corrected = vec![
        (vec![Value::int(4), Value::int(7)], 0.8),
        (vec![Value::int(5)], 0.2),
    ];
    let sp = theta_support_with_domain(&domain, &left, ThetaOp::Le, &corrected)
        .expect("well-formed operands");
    println!(
        "corrected operand [{{1,4}}^0.6, {{2,6}}^0.4] ≤ [{{4,7}}^0.8, 5^0.2]: (sn, sp) = ({}, {})",
        sp.sn(),
        sp.sp()
    );
    let ok = (sp.sn() - 0.6).abs() < 1e-12 && (sp.sp() - 1.0).abs() < 1e-12;
    report("§3.1.1 corrected → the paper's printed (0.6, 1.0)", ok);
    failures += usize::from(!ok);

    failures
}

fn report(label: &str, ok: bool) {
    CHECKS.fetch_add(1, Ordering::Relaxed);
    println!("[{}] {label}", if ok { "PASS" } else { "FAIL" });
}
