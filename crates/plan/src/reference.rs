//! Naive reference execution: interpret a [`LogicalPlan`] by direct
//! composition of the algebra free functions, fully materializing
//! every intermediate relation.
//!
//! This is deliberately *not* implemented in terms of the streaming
//! operators — it is the independent oracle the equivalence property
//! suite compares them against, and a readable spec of what each node
//! means. The only deviation from the bare free functions is cosmetic:
//! unary operators rename their result back to the input's relation
//! name, matching the plan layer's naming convention (see
//! [`crate::logical`]), so both paths qualify ×̃ name clashes
//! identically.

use crate::error::PlanError;
use crate::logical::{binding_of, BoundRelation, LogicalPlan, RelationSource};
use evirel_algebra::conflict::ConflictReport;
use evirel_algebra::rename::{rename_attribute, rename_relation};
use evirel_algebra::setops::{difference_extended, intersect_extended};
use evirel_algebra::union::{union_with, UnionOptions};
use evirel_algebra::{join, product, project, select, Operand, Predicate, ThetaOp};
use evirel_relation::ExtendedRelation;

/// Execute `plan` naively; returns the result and the accumulated
/// conflict reports of every ∪̃/∩̃ in the tree.
///
/// # Errors
/// Unknown relations plus whatever the free functions raise.
pub fn execute_reference(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    options: &UnionOptions,
) -> Result<(ExtendedRelation, ConflictReport), PlanError> {
    let mut report = ConflictReport::new();
    let rel = eval(plan, source, options, &mut report)?;
    Ok((rel, report))
}

fn eval(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    options: &UnionOptions,
    report: &mut ConflictReport,
) -> Result<ExtendedRelation, PlanError> {
    Ok(match plan {
        LogicalPlan::Scan { name } => match &binding_of(source, name)?.relation {
            BoundRelation::Memory(rel) => (**rel).clone(),
            // The oracle materializes stored bindings fully — it is
            // the naive spec, so memory-oblivious by design; the
            // streaming path under test pages instead.
            BoundRelation::Stored(stored) => stored.to_relation()?,
        },
        LogicalPlan::Select {
            input,
            predicate,
            threshold,
        } => {
            let rel = eval(input, source, options, report)?;
            let name = rel.schema().name().to_owned();
            rename_relation(&select(&rel, predicate, threshold)?, &name)
        }
        LogicalPlan::ThresholdFilter { input, threshold } => {
            let rel = eval(input, source, options, report)?;
            let name = rel.schema().name().to_owned();
            // A bare membership filter is a σ̃ whose predicate has
            // support (1, 1) on every tuple: compare a key attribute
            // with itself.
            let key = rel.schema().attr(rel.schema().key_positions()[0]).name();
            let trivially_true =
                Predicate::theta(Operand::attr(key), ThetaOp::Eq, Operand::attr(key));
            rename_relation(&select(&rel, &trivially_true, threshold)?, &name)
        }
        LogicalPlan::Project { input, attrs } => {
            let rel = eval(input, source, options, report)?;
            let name = rel.schema().name().to_owned();
            let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
            rename_relation(&project(&rel, &names)?, &name)
        }
        LogicalPlan::Product { left, right } => {
            let l = eval(left, source, options, report)?;
            let r = eval(right, source, options, report)?;
            product(&l, &r)?
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            threshold,
        } => {
            let l = eval(left, source, options, report)?;
            let r = eval(right, source, options, report)?;
            let name = format!("{}×{}", l.schema().name(), r.schema().name());
            rename_relation(&join(&l, &r, on, threshold)?, &name)
        }
        LogicalPlan::Union { left, right } => {
            let l = eval(left, source, options, report)?;
            let r = eval(right, source, options, report)?;
            let outcome = union_with(&l, &r, options)?;
            for c in outcome.report.conflicts() {
                report.record(c.clone());
            }
            outcome.relation
        }
        LogicalPlan::Intersect { left, right } => {
            let l = eval(left, source, options, report)?;
            let r = eval(right, source, options, report)?;
            let (rel, own) = intersect_extended(&l, &r, options)?;
            for c in own.conflicts() {
                report.record(c.clone());
            }
            rel
        }
        LogicalPlan::Difference { left, right } => {
            let l = eval(left, source, options, report)?;
            let r = eval(right, source, options, report)?;
            difference_extended(&l, &r)?
        }
        LogicalPlan::RenameRelation { input, name } => {
            let rel = eval(input, source, options, report)?;
            rename_relation(&rel, name)
        }
        LogicalPlan::RenameAttribute { input, from, to } => {
            let rel = eval(input, source, options, report)?;
            rename_attribute(&rel, from, to)?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_plan;
    use crate::logical::{scan, Bindings};
    use crate::ExecContext;
    use evirel_algebra::Threshold;
    use evirel_relation::{AttrDomain, RelationBuilder, Schema};
    use std::sync::Arc;

    #[test]
    fn reference_matches_streaming_on_a_pipeline() {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("A")
                .key_str("k")
                .evidential("d", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let a = RelationBuilder::new(Arc::clone(&schema))
            .tuple(|t| {
                t.set_str("k", "1")
                    .set_evidence_with_omega("d", [(&["x"][..], 0.6)], 0.4)
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("k", "2")
                    .set_evidence("d", [(&["y"][..], 1.0)])
                    .membership_pair(0.5, 1.0)
            })
            .unwrap()
            .build();
        let b_rel = RelationBuilder::new(Arc::new(schema.renamed("B")))
            .tuple(|t| {
                t.set_str("k", "1")
                    .set_evidence_with_omega("d", [(&["x"][..], 0.5)], 0.5)
            })
            .unwrap()
            .build();
        let mut bindings = Bindings::new();
        bindings.bind("a", a).bind("b", b_rel);
        let plan = scan("a")
            .union(scan("b"))
            .select(Predicate::is("d", ["x"]))
            .threshold(Threshold::SnAtLeast(0.2))
            .project(["k", "d"])
            .build();
        let options = UnionOptions::default();
        let (naive, naive_report) = execute_reference(&plan, &bindings, &options).unwrap();
        let mut ctx = ExecContext::with_options(options);
        let streaming = execute_plan(&plan, &bindings, &mut ctx).unwrap();
        assert!(naive.approx_eq(&streaming));
        // Both paths saw the same (non-total) conflict observations.
        assert_eq!(naive_report.len(), ctx.conflict_report().len());
    }
}
