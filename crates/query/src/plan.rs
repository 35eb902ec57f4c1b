//! Plan-time validation of a parsed statement.
//!
//! The parser already built the statement's
//! [`evirel_plan::LogicalPlan`] (see [`SelectStmt`]); what is left
//! before the optimizer is the check against a catalog,
//! [`lower_validated`], and the catalog-free rendering, [`explain`].

use crate::ast::SelectStmt;
use crate::catalog::Catalog;
use crate::error::QueryError;

/// Validate `stmt` against `catalog` and return it: unknown
/// relations, and attributes in `WHERE`, `ON`, or the projection list
/// that do not exist in the (possibly derived) source schema, error
/// here — at plan time, with the attribute name — rather than at
/// execution.
///
/// # Errors
/// [`QueryError::UnknownRelation`], [`QueryError::UnknownAttribute`],
/// and incompatibility errors from schema derivation.
pub fn lower_validated<'s>(
    stmt: &'s SelectStmt,
    catalog: &Catalog,
) -> Result<&'s SelectStmt, QueryError> {
    evirel_plan::validate_plan(&stmt.plan, catalog)?;
    Ok(stmt)
}

/// Parse a query, returning the rendered logical plan tree without
/// executing it — the catalog-free `EXPLAIN`, line for line the
/// `logical:` section of [`crate::explain_with`] (no rewrites fire,
/// since schema-aware rules need the catalog):
///
/// ```text
/// π̃[rname, rating]
///   σ̃[membership] with sn >= 0.5
///     σ̃[rating is {ex}] with sn > 0
///       ∪̃
///         scan ra
///         scan rb
/// ```
///
/// # Errors
/// Lex/parse errors.
pub fn explain(query: &str) -> Result<String, QueryError> {
    Ok(crate::parser::parse(query)?.plan.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use evirel_algebra::{Operand, Predicate, ThetaOp, Threshold};
    use evirel_plan::LogicalPlan;
    use evirel_relation::Value;

    fn config() -> evirel_plan::Config {
        evirel_plan::Config::from_env()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::with_config(&config());
        c.register("ra", evirel_workload::restaurant_db_a().restaurants);
        c.register("rb", evirel_workload::restaurant_db_b().restaurants);
        c.register("rma", evirel_workload::restaurant_db_a().managed_by);
        c
    }

    /// The plan the optimizer receives for `query`: parsed, validated
    /// against the restaurant catalog, and taken as a `LogicalPlan`.
    fn lower(query: &str) -> LogicalPlan {
        lower_validated(&parse(query).unwrap(), &catalog())
            .unwrap()
            .to_logical()
    }

    fn scan(name: &str) -> Box<LogicalPlan> {
        Box::new(LogicalPlan::Scan { name: name.into() })
    }

    #[test]
    fn lowers_paper_query() {
        assert_eq!(
            lower("SELECT rname FROM ra WHERE speciality IS {si} WITH SN > 0"),
            LogicalPlan::Project {
                input: Box::new(LogicalPlan::Select {
                    input: scan("ra"),
                    predicate: Predicate::Is {
                        attr: "speciality".into(),
                        values: vec![Value::str("si")],
                    },
                    threshold: Threshold::SnGreater(0.0),
                }),
                attrs: vec!["rname".to_owned()],
            }
        );
        // Validation names the attribute it cannot find.
        match lower_validated(
            &parse("SELECT rname FROM ra WHERE ghost IS {si}").unwrap(),
            &catalog(),
        ) {
            Err(QueryError::UnknownAttribute { attr, .. }) => assert_eq!(attr, "ghost"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_threshold_is_positive() {
        // No predicate, projection or membership filter: the bare scan,
        // and `WITH SN > 0` spells the same default.
        assert_eq!(lower("SELECT * FROM ra"), *scan("ra"));
        assert_eq!(lower("SELECT * FROM ra WITH SN > 0"), *scan("ra"));
        assert_eq!(
            lower("SELECT * FROM ra WHERE rating IS {ex}"),
            LogicalPlan::Select {
                input: scan("ra"),
                predicate: Predicate::is("rating", ["ex"]),
                threshold: Threshold::POSITIVE,
            }
        );
    }

    #[test]
    fn lowers_union_and_join() {
        assert_eq!(
            lower("SELECT * FROM ra UNION rb"),
            LogicalPlan::Union {
                left: scan("ra"),
                right: scan("rb"),
            }
        );
        assert_eq!(
            lower("SELECT * FROM ra JOIN rma ON RA.rname = RMA.rname"),
            LogicalPlan::Join {
                left: scan("ra"),
                right: scan("rma"),
                on: Predicate::Theta {
                    left: Operand::Attr("RA.rname".into()),
                    op: ThetaOp::Eq,
                    right: Operand::Attr("RMA.rname".into()),
                },
                threshold: Threshold::POSITIVE,
            }
        );
    }

    #[test]
    fn explain_renders_plan_tree() {
        let query = "SELECT rname, rating FROM ra UNION rb WHERE rating IS {ex} WITH SN >= 0.5";
        let text = explain(query).unwrap();
        // WHERE and WITH are the two nodes the rewrite pass later
        // fuses, not one.
        assert_eq!(
            text,
            "π̃[rname, rating]\n\
             \x20 σ̃[membership] with sn >= 0.5\n\
             \x20   σ̃[rating is {ex}] with sn > 0\n\
             \x20     ∪̃\n\
             \x20       scan ra\n\
             \x20       scan rb\n"
        );
        // It is the `logical:` section of the full EXPLAIN, line for
        // line.
        let mut catalog = Catalog::with_config(&config());
        catalog.register("ra", evirel_workload::restaurant_db_a().restaurants);
        catalog.register("rb", evirel_workload::restaurant_db_b().restaurants);
        let full = crate::explain_with(&catalog, query, catalog.exec_context(), false).unwrap();
        let logical: Vec<&str> = full
            .lines()
            .skip_while(|l| *l != "logical:")
            .skip(1)
            .take_while(|l| *l != "rewrites:")
            .map(|l| l.strip_prefix("  ").expect("section lines are indented"))
            .collect();
        assert_eq!(logical, text.lines().collect::<Vec<_>>());
        // Bare WITH renders as a membership filter.
        let text = explain("SELECT * FROM r WITH SN >= 0.9").unwrap();
        assert!(text.contains("σ̃[membership]"), "{text}");
        // Join condition is shown.
        let text = explain("SELECT * FROM a JOIN b ON a.k = b.k").unwrap();
        assert!(text.contains("⋈̃[(a.k = b.k)]"), "{text}");
        // Parse errors propagate.
        assert!(explain("SELEC").is_err());
    }

    #[test]
    fn lowers_all_cmp_ops() {
        for (text, op) in [
            ("=", ThetaOp::Eq),
            ("!=", ThetaOp::Ne),
            ("<", ThetaOp::Lt),
            ("<=", ThetaOp::Le),
            (">", ThetaOp::Gt),
            (">=", ThetaOp::Ge),
        ] {
            assert_eq!(
                lower(&format!("SELECT * FROM ra WHERE bldg-no {text} 1")),
                LogicalPlan::Select {
                    input: scan("ra"),
                    predicate: Predicate::Theta {
                        left: Operand::Attr("bldg-no".into()),
                        op,
                        right: Operand::Value(Value::int(1)),
                    },
                    threshold: Threshold::POSITIVE,
                },
                "{text}"
            );
        }
    }
}
