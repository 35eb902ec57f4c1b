//! Query execution against a bare catalog.
//!
//! Thin by design: [`PreparedPlan::prepare`] turns the text into an
//! optimized `evirel-plan` plan and [`PreparedPlan::run`] drives the
//! streaming operators under the catalog's own
//! [`Catalog::exec_context`] — the same two steps a [`crate::Session`]
//! takes (through its plan cache, under its budget), so the REPL, the
//! examples and the server execute identically. No intermediate
//! relation is materialized between σ̃/π̃/∪̃/⋈̃ stages, and ∪̃ conflict
//! reports surface on [`QueryOutcome`].

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::prepare::PreparedPlan;
use evirel_algebra::ConflictReport;
use evirel_plan::ExecStats;
use evirel_relation::ExtendedRelation;

/// The full result of one query: the relation plus the side outputs
/// the streaming executor collected.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result relation.
    pub relation: ExtendedRelation,
    /// Attribute/membership conflicts observed by ∪̃-family operators
    /// — the paper's report for the data administrator.
    pub report: ConflictReport,
    /// Execution counters (tuples scanned/emitted, merges, κ stats).
    pub stats: ExecStats,
}

/// Parse and execute a query text against `catalog`.
///
/// # Errors
/// Lex/parse errors, unknown relations/attributes (caught at plan
/// time), and algebra errors (including total-conflict aborts from
/// `UNION`, governed by [`Catalog::union_options`]).
pub fn execute(catalog: &Catalog, query: &str) -> Result<ExtendedRelation, QueryError> {
    Ok(execute_with_report(catalog, query)?.relation)
}

/// Parse and execute, returning the relation together with the
/// conflict report and execution statistics.
///
/// # Errors
/// As [`execute`].
pub fn execute_with_report(catalog: &Catalog, query: &str) -> Result<QueryOutcome, QueryError> {
    // A bare catalog has no generations; the stamp is unused here.
    let prepared = PreparedPlan::prepare(catalog, 0, query)?;
    Ok(prepared.run(catalog, catalog.exec_context())?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{SupportPair, Value};
    use evirel_workload::{restaurant_db_a, restaurant_db_b};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("ra", restaurant_db_a().restaurants);
        c.register("rb", restaurant_db_b().restaurants);
        c.register("rma", restaurant_db_a().managed_by);
        c
    }

    /// Table 2 via the query language.
    #[test]
    fn paper_table2_query() {
        let out = execute(
            &catalog(),
            "SELECT * FROM ra WHERE speciality IS {si} WITH SN > 0;",
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let garden = out.get_by_key(&[Value::str("garden")]).unwrap();
        assert!(garden
            .membership()
            .approx_eq(&SupportPair::new(0.5, 0.75).unwrap()));
    }

    /// Table 3 via the query language.
    #[test]
    fn paper_table3_query() {
        let out = execute(
            &catalog(),
            "SELECT * FROM ra WHERE speciality IS {mu} AND rating IS {ex} WITH SN > 0",
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let mehl = out.get_by_key(&[Value::str("mehl")]).unwrap();
        assert!(mehl
            .membership()
            .approx_eq(&SupportPair::new(0.32, 0.32).unwrap()));
        let ashiana = out.get_by_key(&[Value::str("ashiana")]).unwrap();
        assert!(ashiana
            .membership()
            .approx_eq(&SupportPair::new(0.9, 1.0).unwrap()));
    }

    /// Table 4 via the query language.
    #[test]
    fn paper_table4_query() {
        let out = execute(&catalog(), "SELECT * FROM ra UNION rb").unwrap();
        assert_eq!(out.len(), 6);
        let mehl = out.get_by_key(&[Value::str("mehl")]).unwrap();
        assert!((mehl.membership().sn() - 5.0 / 6.0).abs() < 1e-9);
    }

    /// Table 5 via the query language.
    #[test]
    fn paper_table5_query() {
        let out = execute(
            &catalog(),
            "SELECT rname, phone, speciality, rating FROM ra",
        )
        .unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(out.schema().arity(), 4);
    }

    #[test]
    fn join_query() {
        let out = execute(
            &catalog(),
            "SELECT * FROM ra JOIN rma ON RA.rname = RMA.rname WITH SN > 0",
        )
        .unwrap();
        // Both operands carry "rname", so the product qualifies the
        // clash with the schema names (RA.rname, RMA.rname). Matches:
        // wok-chen, mehl-rao, ashiana-rao.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn theta_query_on_ordered_domain() {
        let out = execute(
            &catalog(),
            "SELECT * FROM ra WHERE rating >= 'gd' WITH SN >= 0.8",
        )
        .unwrap();
        // garden 0.83, country 1.0, ashiana 1.0, mehl 1.0×(0.5)=0.5 no,
        // olive 0.5 no, wok 0.25 no.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn bare_with_clause_filters_membership() {
        let out = execute(&catalog(), "SELECT * FROM ra WITH SN >= 0.9").unwrap();
        // Only mehl has sn < 0.9 in R_A.
        assert_eq!(out.len(), 5);
        assert!(out.get_by_key(&[Value::str("mehl")]).is_none());
    }

    #[test]
    fn union_then_where_composes() {
        let out = execute(
            &catalog(),
            "SELECT rname, rating FROM ra UNION rb WHERE rating IS {ex} WITH SN >= 0.8",
        )
        .unwrap();
        // After union: country ex^1, ashiana ex^1, mehl ex^1 (0.83
        // membership → 0.83 ≥ 0.8 ✓), garden ex^0.143 ✗, wok gd ✗,
        // olive ✗.
        assert_eq!(out.len(), 3);
        assert!(out.contains_key(&[Value::str("mehl")]));
    }

    #[test]
    fn unknown_relation_reported() {
        assert!(matches!(
            execute(&catalog(), "SELECT * FROM nope"),
            Err(QueryError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn projection_must_keep_keys() {
        assert!(matches!(
            execute(&catalog(), "SELECT phone FROM ra"),
            Err(QueryError::Algebra(
                evirel_algebra::AlgebraError::ProjectionMissingKey { .. }
            ))
        ));
    }

    #[test]
    fn definite_threshold_query() {
        let out = execute(
            &catalog(),
            "SELECT * FROM ra WHERE speciality IS {si} WITH SN = 1",
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_key(&[Value::str("wok")]));
    }

    /// The ∪̃ conflict report the old executor dropped now rides on
    /// the outcome.
    #[test]
    fn union_conflicts_surface_on_outcome() {
        let outcome = execute_with_report(&catalog(), "SELECT * FROM ra UNION rb").unwrap();
        assert_eq!(outcome.relation.len(), 6);
        assert!(!outcome.report.is_empty());
        assert!(outcome.report.max_kappa() > 0.0);
        assert!(outcome.stats.pairs_merged > 0);
        assert!(outcome.stats.tuples_scanned >= outcome.relation.len());
        // Queries without a union report nothing.
        let outcome = execute_with_report(&catalog(), "SELECT * FROM ra").unwrap();
        assert!(outcome.report.is_empty());
    }

    /// Unknown attributes in WHERE or the projection error at plan
    /// time with the attribute name, not mid-execution.
    #[test]
    fn unknown_attribute_caught_at_plan_time() {
        match execute(&catalog(), "SELECT * FROM ra WHERE ghost IS {si}") {
            Err(QueryError::UnknownAttribute { attr, .. }) => assert_eq!(attr, "ghost"),
            other => panic!("{other:?}"),
        }
        match execute(&catalog(), "SELECT rname, ghost FROM ra") {
            Err(QueryError::UnknownAttribute { attr, .. }) => assert_eq!(attr, "ghost"),
            other => panic!("{other:?}"),
        }
        // Qualified join attributes resolve against the product schema.
        assert!(execute(
            &catalog(),
            "SELECT * FROM ra JOIN rma ON RA.rname = RMA.ghost",
        )
        .is_err());
    }

    /// Acceptance check: a pushdown-eligible query shows at least two
    /// rewrite rules firing in EXPLAIN.
    #[test]
    fn explain_shows_rewrites_firing() {
        let c = catalog();
        let text = crate::explain_with(
            &c,
            "SELECT * FROM ra JOIN rma ON RA.rname = RMA.rname WHERE speciality IS {si} WITH SN > 0",
            c.exec_context(),
            false,
        )
        .unwrap();
        for rule in [
            "join-expansion",
            "select-fusion",
            "predicate-pushdown-product",
        ] {
            assert!(text.contains(rule), "missing {rule} in:\n{text}");
        }
        // The physical plan is rendered, with the streaming hash ⋈̃.
        assert!(text.contains("physical:"), "{text}");
        assert!(text.contains("hash rname = rname"), "{text}");
        // Key-crisp selections distribute below ∪̃.
        let text = crate::explain_with(
            &c,
            "SELECT rname, rating FROM ra UNION rb WHERE rname = 'mehl'",
            c.exec_context(),
            false,
        )
        .unwrap();
        assert!(text.contains("select-under-union"), "{text}");
    }

    /// The distributed and non-distributed ∪̃ paths agree on results.
    #[test]
    fn key_filtered_union_matches_table4_row() {
        let out = execute(&catalog(), "SELECT * FROM ra UNION rb WHERE rname = 'mehl'").unwrap();
        assert_eq!(out.len(), 1);
        let mehl = out.get_by_key(&[Value::str("mehl")]).unwrap();
        assert!((mehl.membership().sn() - 5.0 / 6.0).abs() < 1e-9);
    }
}
