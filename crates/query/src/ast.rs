//! The parsed form of an EQL statement.
//!
//! There is no separate syntax tree: the `WHERE`/`WITH` language is
//! the algebra's own selection-condition language, so the parser
//! builds [`evirel_algebra::Predicate`]s, [`evirel_algebra::Threshold`]s
//! and the statement's [`LogicalPlan`] directly, and that plan is what
//! validation, the optimizer and `EXPLAIN`'s `logical:` section see.

use evirel_plan::LogicalPlan;

/// A parsed `SELECT` statement: its logical plan, not yet validated
/// against a catalog. The plan is deliberately mechanical — `WHERE` is
/// a σ̃ with the default threshold `SN > 0` and a `WITH` other than
/// `SN > 0` a separate membership filter above it — so the optimizer's
/// rewrite rules (threshold fusion, pushdown, ∪̃ distribution) do the
/// composition and `EXPLAIN` can show them firing.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The statement's logical plan.
    pub plan: LogicalPlan,
}

impl SelectStmt {
    /// The statement's logical plan, cloned.
    pub fn to_logical(&self) -> LogicalPlan {
        self.plan.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_algebra::{Operand, Predicate, ThetaOp, Threshold};
    use evirel_relation::Value;

    #[test]
    fn literal_conversion() {
        // Each literal kind — a quoted string, an integer, a float —
        // is the algebra's `Value` in the statement's plan.
        for (literal, value) in [
            ("'si'", Value::str("si")),
            ("5", Value::int(5)),
            ("0.5", Value::float(0.5)),
        ] {
            let stmt =
                crate::parser::parse(&format!("SELECT * FROM r WHERE a = {literal}")).unwrap();
            let expected = LogicalPlan::Select {
                input: Box::new(LogicalPlan::Scan { name: "r".into() }),
                predicate: Predicate::Theta {
                    left: Operand::Attr("a".into()),
                    op: ThetaOp::Eq,
                    right: Operand::Value(value),
                },
                threshold: Threshold::POSITIVE,
            };
            assert_eq!(stmt.plan, expected, "{literal}");
            assert_eq!(stmt.to_logical(), expected, "{literal}");
        }
    }
}
