//! Lowering the AST into algebra operations.
//!
//! [`lower`] turns a parsed statement into a [`Plan`];
//! [`Plan::to_logical`] converts that into an `evirel-plan`
//! [`LogicalPlan`] for the streaming executor, and [`Plan::validate`]
//! performs the plan-time semantic checks (unknown attributes in
//! `WHERE`/`ON`/projection lists error here, not mid-execution).

use crate::ast::{CmpOp, Condition, ExprOperand, SelectStmt, Source, ThresholdClause};
use crate::catalog::Catalog;
use crate::error::QueryError;
use evirel_algebra::{Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::LogicalPlan;

/// A lowered query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The source-expression plan.
    pub source: SourcePlan,
    /// The selection predicate, if any.
    pub predicate: Option<Predicate>,
    /// The membership threshold (`SN > 0` when the query omits `WITH`).
    pub threshold: Threshold,
    /// Projection attribute list (`None` = all).
    pub projection: Option<Vec<String>>,
}

/// A lowered source expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SourcePlan {
    /// Scan a catalog relation.
    Scan(String),
    /// Extended union of two sources.
    Union(Box<SourcePlan>, Box<SourcePlan>),
    /// Extended join.
    Join {
        /// Left input.
        left: Box<SourcePlan>,
        /// Right input.
        right: Box<SourcePlan>,
        /// Join predicate.
        on: Predicate,
    },
}

/// Lower a parsed statement into a [`Plan`]. This is the pure
/// syntactic lowering; semantic checks against a catalog live in
/// [`Plan::validate`] (and [`lower_validated`] runs both).
///
/// # Errors
/// Infallible once parsed; the `Result` mirrors the executor's needs
/// and the validated entry points.
pub fn lower(stmt: &SelectStmt) -> Result<Plan, QueryError> {
    Ok(Plan {
        source: lower_source(&stmt.source)?,
        predicate: stmt.predicate.as_ref().map(lower_condition).transpose()?,
        threshold: stmt
            .threshold
            .map(lower_threshold)
            .unwrap_or(Threshold::POSITIVE),
        projection: stmt.projection.clone(),
    })
}

/// Lower and semantically validate against `catalog`: unknown
/// relations, and attributes in `WHERE`, `ON`, or the projection list
/// that do not exist in the (possibly derived) source schema, error
/// here — at plan time, with the attribute name — rather than at
/// execution.
///
/// # Errors
/// [`QueryError::UnknownRelation`], [`QueryError::UnknownAttribute`].
pub fn lower_validated(stmt: &SelectStmt, catalog: &Catalog) -> Result<Plan, QueryError> {
    let plan = lower(stmt)?;
    plan.validate(catalog)?;
    Ok(plan)
}

fn lower_source(source: &Source) -> Result<SourcePlan, QueryError> {
    Ok(match source {
        Source::Relation(name) => SourcePlan::Scan(name.clone()),
        Source::Union(l, r) => {
            SourcePlan::Union(Box::new(lower_source(l)?), Box::new(lower_source(r)?))
        }
        Source::Join { left, right, on } => SourcePlan::Join {
            left: Box::new(lower_source(left)?),
            right: Box::new(lower_source(right)?),
            on: lower_condition(on)?,
        },
    })
}

fn lower_condition(c: &Condition) -> Result<Predicate, QueryError> {
    Ok(match c {
        Condition::Is { attr, values } => Predicate::Is {
            attr: attr.clone(),
            values: values.iter().map(|l| l.to_value()).collect(),
        },
        Condition::Cmp { left, op, right } => Predicate::Theta {
            left: lower_operand(left),
            op: lower_cmp(*op),
            right: lower_operand(right),
        },
        Condition::And(a, b) => {
            Predicate::And(Box::new(lower_condition(a)?), Box::new(lower_condition(b)?))
        }
        Condition::Or(a, b) => {
            Predicate::Or(Box::new(lower_condition(a)?), Box::new(lower_condition(b)?))
        }
        Condition::Not(a) => Predicate::Not(Box::new(lower_condition(a)?)),
    })
}

fn lower_operand(o: &ExprOperand) -> Operand {
    match o {
        ExprOperand::Attr(name) => Operand::Attr(name.clone()),
        ExprOperand::Literal(l) => Operand::Value(l.to_value()),
        ExprOperand::Evidence(entries) => Operand::Evidence(
            entries
                .iter()
                .map(|(vals, w)| (vals.iter().map(|l| l.to_value()).collect(), *w))
                .collect(),
        ),
    }
}

fn lower_cmp(op: CmpOp) -> ThetaOp {
    match op {
        CmpOp::Eq => ThetaOp::Eq,
        CmpOp::Ne => ThetaOp::Ne,
        CmpOp::Lt => ThetaOp::Lt,
        CmpOp::Le => ThetaOp::Le,
        CmpOp::Gt => ThetaOp::Gt,
        CmpOp::Ge => ThetaOp::Ge,
    }
}

fn lower_threshold(t: ThresholdClause) -> Threshold {
    match t {
        ThresholdClause::SnGreater(c) => Threshold::SnGreater(c),
        ThresholdClause::SnAtLeast(c) => Threshold::SnAtLeast(c),
        ThresholdClause::Definite => Threshold::Definite,
        ThresholdClause::SpAtLeast(c) => Threshold::SpAtLeastPositive(c),
    }
}

impl Plan {
    /// Convert to an `evirel-plan` [`LogicalPlan`] for the streaming
    /// executor. The conversion is deliberately mechanical — `WHERE`
    /// becomes a default-threshold σ̃ and `WITH` a separate membership
    /// filter — so the optimizer's rewrite rules (threshold fusion,
    /// pushdown, ∪̃ distribution) do the composition and `EXPLAIN` can
    /// show them firing.
    pub fn to_logical(&self) -> LogicalPlan {
        let mut plan = source_logical(&self.source);
        if let Some(predicate) = &self.predicate {
            plan = LogicalPlan::Select {
                input: Box::new(plan),
                predicate: predicate.clone(),
                threshold: Threshold::POSITIVE,
            };
        }
        if self.threshold != Threshold::POSITIVE {
            plan = LogicalPlan::ThresholdFilter {
                input: Box::new(plan),
                threshold: self.threshold,
            };
        }
        if let Some(attrs) = &self.projection {
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                attrs: attrs.clone(),
            };
        }
        plan
    }

    /// Semantic validation against `catalog` — see [`lower_validated`].
    ///
    /// # Errors
    /// [`QueryError::UnknownRelation`], [`QueryError::UnknownAttribute`],
    /// and incompatibility errors from schema derivation.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), QueryError> {
        evirel_plan::validate_plan(&self.to_logical(), catalog)?;
        Ok(())
    }
}

fn source_logical(source: &SourcePlan) -> LogicalPlan {
    match source {
        SourcePlan::Scan(name) => LogicalPlan::Scan { name: name.clone() },
        SourcePlan::Union(l, r) => LogicalPlan::Union {
            left: Box::new(source_logical(l)),
            right: Box::new(source_logical(r)),
        },
        SourcePlan::Join { left, right, on } => LogicalPlan::Join {
            left: Box::new(source_logical(left)),
            right: Box::new(source_logical(right)),
            on: on.clone(),
            threshold: Threshold::POSITIVE,
        },
    }
}

/// Parse and lower a query, returning the rendered logical plan tree
/// without executing it — the catalog-free `EXPLAIN`, line for line
/// the `logical:` section of [`crate::explain_with`] (no rewrites
/// fire, since schema-aware rules need the catalog):
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
    Ok(lower(&crate::parser::parse(query)?)?.to_logical().render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn lowers_paper_query() {
        let plan =
            lower(&parse("SELECT rname FROM ra WHERE speciality IS {si} WITH SN > 0").unwrap())
                .unwrap();
        assert_eq!(plan.source, SourcePlan::Scan("ra".into()));
        assert_eq!(plan.threshold, Threshold::SnGreater(0.0));
        assert_eq!(plan.projection, Some(vec!["rname".to_owned()]));
        match plan.predicate.unwrap() {
            Predicate::Is { attr, values } => {
                assert_eq!(attr, "speciality");
                assert_eq!(values, vec![evirel_relation::Value::str("si")]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_threshold_is_positive() {
        let plan = lower(&parse("SELECT * FROM ra").unwrap()).unwrap();
        assert_eq!(plan.threshold, Threshold::POSITIVE);
        assert!(plan.predicate.is_none());
        assert!(plan.projection.is_none());
    }

    #[test]
    fn lowers_union_and_join() {
        let plan = lower(&parse("SELECT * FROM ra UNION rb").unwrap()).unwrap();
        assert!(matches!(plan.source, SourcePlan::Union(_, _)));
        let plan = lower(&parse("SELECT * FROM r JOIN rm ON R.k = RM.k").unwrap()).unwrap();
        assert!(matches!(plan.source, SourcePlan::Join { .. }));
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
        let mut catalog = Catalog::new();
        catalog.register("ra", evirel_workload::restaurant_db_a().restaurants);
        catalog.register("rb", evirel_workload::restaurant_db_b().restaurants);
        let full = crate::explain_with(&catalog, query, Default::default(), false).unwrap();
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
            let q = format!("SELECT * FROM r WHERE a {text} 1");
            let plan = lower(&parse(&q).unwrap()).unwrap();
            match plan.predicate.unwrap() {
                Predicate::Theta { op: got, .. } => assert_eq!(got, op),
                other => panic!("{other:?}"),
            }
        }
    }
}
