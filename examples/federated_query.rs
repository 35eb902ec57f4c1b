//! A federated-query session over the integrated restaurant catalog,
//! driven through the two-layer plan API: logical plans built with
//! the fluent builder, optimized by the rewrite rules, and executed
//! by the streaming operators — with an `EXPLAIN` printout showing
//! the rules fire, and the ∪̃ conflict report that now survives
//! execution.
//!
//! ```sh
//! cargo run --example federated_query
//! ```

use evirel::prelude::*;
use evirel::query::format::render_ranked;
use evirel::workload::{restaurant_db_a, restaurant_db_b};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    catalog.register("ra", restaurant_db_a().restaurants);
    catalog.register("rb", restaurant_db_b().restaurants);
    catalog.register("rma", restaurant_db_a().managed_by);

    // ---- EQL surface language (lowered onto the plan layer) -------
    let queries = [
        // Table 2: definite-or-not Sichuan places.
        "SELECT * FROM ra WHERE speciality IS {si} WITH SN > 0;",
        // Table 3: Mughalai AND excellent (multiplicative compound).
        "SELECT * FROM ra WHERE speciality IS {mu} AND rating IS {ex} WITH SN > 0;",
        // Table 4 + a query on top: integrate both sources, then ask
        // for at-least-good restaurants we're quite sure of.
        "SELECT rname, speciality, rating FROM ra UNION rb WHERE rating >= 'gd' WITH SN >= 0.8;",
        // Table 5: projection keeps keys and membership.
        "SELECT rname, phone, speciality, rating FROM ra;",
        // Extensions: negation and disjunction.
        "SELECT rname, rating FROM ra WHERE NOT rating IS {avg} OR speciality IS {it} WITH SN >= 0.5;",
        // Plausibility screening: anything that *might* be excellent.
        "SELECT rname, rating FROM ra UNION rb WITH SP >= 0.1;",
        // θ against an evidence literal (the §3.1.1 form).
        "SELECT rname, rating FROM ra WHERE rating >= [gd^0.7, ex^0.3] WITH SN >= 0.5;",
    ];

    for q in queries {
        println!("eql> {q}");
        match execute_with_report(&catalog, q) {
            Ok(outcome) => {
                println!("{}", outcome.relation);
                println!("{}", render_ranked(&outcome.relation));
                if !outcome.report.is_empty() {
                    println!(
                        "∪̃ observed {} conflict(s), max κ = {:.3} — the report the",
                        outcome.report.len(),
                        outcome.report.max_kappa()
                    );
                    println!("data administrator gets instead of a silent drop.\n");
                }
            }
            Err(e) => println!("error: {e}\n"),
        }
    }

    // ---- EXPLAIN: watch the rewrite rules fire --------------------
    // The join expands to σ̃ ∘ ×̃, the WHERE fuses with the ON
    // condition, its left-side conjunct pushes below the product, and
    // the physical tree runs a hash ⋈̃ that indexes the right side
    // once and streams probes.
    let q =
        "SELECT * FROM ra JOIN rma ON RA.rname = RMA.rname WHERE speciality IS {si} WITH SN > 0";
    println!("eql> EXPLAIN {q}");
    println!(
        "{}",
        evirel::query::explain_with(&catalog, q, catalog.exec_context(), false)?
    );

    // ---- The same pipeline, built directly on the plan API --------
    let plan = scan("ra")
        .union(scan("rb"))
        .select(Predicate::is("rating", ["ex"]))
        .threshold(Threshold::SnAtLeast(0.8))
        .project(["rname", "rating"])
        .build();
    println!("plan builder → EXPLAIN:");
    let mut ctx = catalog.exec_context();
    println!("{}", explain_plan(&plan, &catalog, &mut ctx, false)?);
    let result = execute_plan(&plan, &catalog, &mut ctx)?;
    println!("{result}");
    println!(
        "stats: {} scanned, {} emitted, {} pair(s) merged, {} conflict(s), max κ = {:.3}",
        ctx.stats.tuples_scanned,
        ctx.stats.tuples_emitted,
        ctx.stats.pairs_merged,
        ctx.stats.conflicts,
        ctx.stats.max_kappa
    );

    // Round-trip the integrated relation through storage, re-register,
    // and query the reloaded copy — the persistence path end to end.
    let merged = execute(&catalog, "SELECT * FROM ra UNION rb;")?;
    let stored = write_relation(&merged);
    let reloaded = read_relation(&stored)?;
    catalog.register("merged", reloaded);
    let again = execute(
        &catalog,
        "SELECT rname, rating FROM merged WHERE rating IS {ex} WITH SN >= 0.8;",
    )?;
    println!("reloaded-from-storage query:\n{again}");
    Ok(())
}
