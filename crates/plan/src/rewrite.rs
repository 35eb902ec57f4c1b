//! Logical rewrite rules.
//!
//! [`optimize`] normalizes a plan (⋈̃ expands to σ̃ ∘ ×̃, per the
//! paper's own definition) and then applies a fixpoint of
//! equivalence-preserving rules:
//!
//! * **select-fusion** — `σ̃_A(σ̃_B(R)) → σ̃_{B∧A}(R)`; sound because
//!   the multiplicative `F_TM` makes successive revisions commute.
//! * **threshold-into-select fusion** — a membership filter directly
//!   above a default-threshold σ̃ becomes that σ̃'s threshold `Q`; a
//!   `sn > 0` filter is the identity on CWA_ER relations and is
//!   pruned outright.
//! * **predicate pushdown through π̃** — σ̃ commutes with π̃ (selection
//!   retains attribute values, projection retains membership), so the
//!   filter runs before the reshape whenever the projection keeps
//!   every referenced attribute.
//! * **predicate pushdown through ×̃** — conjuncts that reference only
//!   one side move below the product (unqualifying attribute names as
//!   needed); sound because both tuple membership and conjunction
//!   support compose multiplicatively.
//! * **σ̃-under-∪̃ distribution** — fires only for default-threshold
//!   selections whose predicates are *crisp and union-invariant*
//!   (every referenced attribute is a key attribute, no evidence-set
//!   literals): key values are definite, equal on matched tuples, and
//!   untouched by the Dempster merge, so filtering before merging is
//!   exact. Predicates over merged evidential attributes must NOT be
//!   distributed — their support depends on the combined evidence.
//!   Note the distributed form merges (and therefore reports
//!   conflicts for) only the entities that survive the filter; the
//!   result relation is identical, but conflict reports cover fewer
//!   tuples and a total conflict on a filtered-out entity no longer
//!   aborts. (A σ̃ that stays *above* the ∪̃ is evaluated inside the
//!   merge by the physical layer — `MergeOp::selecting` — which is a
//!   different thing: every pair is still merged as far as its
//!   observations need, so the report and the aborts are unchanged.)
//! * **projection pruning** — nested π̃ collapse to the outermost
//!   list; an identity π̃ disappears.

use crate::logical::{schema_of, LogicalPlan, RelationSource};
use evirel_algebra::predicate::Predicate;
use evirel_algebra::threshold::Threshold;
use std::collections::HashMap;

/// One recorded rule application — surfaced by `EXPLAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rewrite {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable description of what moved.
    pub detail: String,
}

impl std::fmt::Display for Rewrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.rule, self.detail)
    }
}

/// Optimize a plan, returning the rewritten tree and every rule
/// application in firing order. Schema-dependent rules consult
/// `source`; when a schema cannot be resolved the rule simply does
/// not fire and execution surfaces the underlying error.
pub fn optimize(plan: &LogicalPlan, source: &dyn RelationSource) -> (LogicalPlan, Vec<Rewrite>) {
    let mut fired = Vec::new();
    let mut plan = expand_joins(plan.clone(), &mut fired);
    // Fixpoint: each pass rewrites bottom-up; the bound is a safety
    // net (every rule strictly shrinks or pushes nodes downward).
    for _ in 0..64 {
        let mut changed = false;
        plan = pass(&plan, source, &mut fired, &mut changed);
        if !changed {
            break;
        }
    }
    (plan, fired)
}

/// ⋈̃ ≡ σ̃ ∘ ×̃ (§3.5) — normalize so the pushdown rules see the
/// product; the physical layer re-fuses eligible σ̃(×̃) pairs into a
/// hash join.
fn expand_joins(plan: LogicalPlan, fired: &mut Vec<Rewrite>) -> LogicalPlan {
    let plan = map_inputs(plan, &mut |p| expand_joins(p, fired));
    if let LogicalPlan::Join {
        left,
        right,
        on,
        threshold,
    } = plan
    {
        fired.push(Rewrite {
            rule: "join-expansion",
            detail: format!("⋈̃[{on}] expanded to σ̃ ∘ ×̃"),
        });
        LogicalPlan::Select {
            input: Box::new(LogicalPlan::Product { left, right }),
            predicate: on,
            threshold,
        }
    } else {
        plan
    }
}

fn pass(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    fired: &mut Vec<Rewrite>,
    changed: &mut bool,
) -> LogicalPlan {
    let node = map_inputs(plan.clone(), &mut |p| pass(&p, source, fired, changed));
    match try_rules(&node, source) {
        Some((new, rewrite)) => {
            fired.push(rewrite);
            *changed = true;
            new
        }
        None => node,
    }
}

fn try_rules(plan: &LogicalPlan, source: &dyn RelationSource) -> Option<(LogicalPlan, Rewrite)> {
    pushdown_project(plan)
        .or_else(|| pushdown_product(plan, source))
        .or_else(|| distribute_union(plan, source))
        .or_else(|| fuse_select(plan))
        .or_else(|| fuse_threshold(plan))
        .or_else(|| prune_project(plan, source))
}

fn pushdown_project(plan: &LogicalPlan) -> Option<(LogicalPlan, Rewrite)> {
    let LogicalPlan::Select {
        input,
        predicate,
        threshold,
    } = plan
    else {
        return None;
    };
    let LogicalPlan::Project {
        input: inner,
        attrs,
    } = &**input
    else {
        return None;
    };
    if !predicate
        .referenced_attrs()
        .iter()
        .all(|a| attrs.iter().any(|x| x == a))
    {
        return None;
    }
    Some((
        LogicalPlan::Project {
            input: Box::new(LogicalPlan::Select {
                input: inner.clone(),
                predicate: predicate.clone(),
                threshold: *threshold,
            }),
            attrs: attrs.clone(),
        },
        Rewrite {
            rule: "predicate-pushdown-project",
            detail: format!("σ̃[{predicate}] pushed below π̃"),
        },
    ))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    Left,
    Right,
}

fn pushdown_product(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
) -> Option<(LogicalPlan, Rewrite)> {
    let LogicalPlan::Select {
        input,
        predicate,
        threshold,
    } = plan
    else {
        return None;
    };
    let LogicalPlan::Product { left, right } = &**input else {
        return None;
    };
    let ls = schema_of(left, source).ok()?;
    let rs = schema_of(right, source).ok()?;
    let prod = evirel_algebra::product::product_schema(&ls, &rs).ok()?;
    // Product-schema name → (side, pre-qualification name).
    let l_arity = ls.arity();
    let mut origin: HashMap<&str, (Side, &str)> = HashMap::new();
    for (i, attr) in prod.attrs().iter().enumerate() {
        let entry = if i < l_arity {
            (Side::Left, ls.attr(i).name())
        } else {
            (Side::Right, rs.attr(i - l_arity).name())
        };
        origin.insert(attr.name(), entry);
    }

    let mut pushed = [Vec::new(), Vec::new()]; // [left, right]
    let mut residual = Vec::new();
    for conjunct in predicate.conjuncts() {
        let attrs = conjunct.referenced_attrs();
        let sides: Option<Vec<Side>> = attrs
            .iter()
            .map(|a| origin.get(*a).map(|(side, _)| *side))
            .collect();
        match sides {
            Some(sides) if !sides.is_empty() && sides.iter().all(|s| *s == sides[0]) => {
                let unqualified = conjunct.map_attrs(&|a| origin[a].1.to_owned());
                pushed[if sides[0] == Side::Left { 0 } else { 1 }].push(unqualified);
            }
            _ => residual.push(conjunct.clone()),
        }
    }
    if pushed.iter().all(Vec::is_empty) {
        return None;
    }
    let detail = format!(
        "{} conjunct(s) pushed below ×̃ ({} residual)",
        pushed[0].len() + pushed[1].len(),
        residual.len()
    );
    let [lp, rp] = pushed;
    let side = |child: &LogicalPlan, push: Vec<Predicate>| -> Box<LogicalPlan> {
        Box::new(match Predicate::from_conjuncts(push) {
            Some(predicate) => LogicalPlan::Select {
                input: Box::new(child.clone()),
                predicate,
                threshold: Threshold::POSITIVE,
            },
            None => child.clone(),
        })
    };
    let product = LogicalPlan::Product {
        left: side(left, lp),
        right: side(right, rp),
    };
    let new = match Predicate::from_conjuncts(residual) {
        Some(predicate) => LogicalPlan::Select {
            input: Box::new(product),
            predicate,
            threshold: *threshold,
        },
        None if *threshold != Threshold::POSITIVE => LogicalPlan::ThresholdFilter {
            input: Box::new(product),
            threshold: *threshold,
        },
        None => product,
    };
    Some((
        new,
        Rewrite {
            rule: "predicate-pushdown-product",
            detail,
        },
    ))
}

fn distribute_union(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
) -> Option<(LogicalPlan, Rewrite)> {
    let LogicalPlan::Select {
        input,
        predicate,
        threshold,
    } = plan
    else {
        return None;
    };
    if *threshold != Threshold::POSITIVE {
        // A non-default Q on the combined membership cannot be applied
        // per side: F over Ψ is not monotone in each argument alone.
        return None;
    }
    let LogicalPlan::Union { left, right } = &**input else {
        return None;
    };
    if predicate.has_evidence_literal() {
        return None;
    }
    // Crisp and union-invariant: every referenced attribute is a key
    // attribute (definite, equal on matched tuples, untouched by ∪̃).
    let schema = schema_of(left, source).ok()?;
    for attr in predicate.referenced_attrs() {
        let pos = schema.position(attr).ok()?;
        if !schema.attr(pos).is_key() {
            return None;
        }
    }
    let side = |child: &LogicalPlan| {
        Box::new(LogicalPlan::Select {
            input: Box::new(child.clone()),
            predicate: predicate.clone(),
            threshold: Threshold::POSITIVE,
        })
    };
    Some((
        LogicalPlan::Union {
            left: side(left),
            right: side(right),
        },
        Rewrite {
            rule: "select-under-union",
            detail: format!("key-crisp σ̃[{predicate}] distributed over ∪̃"),
        },
    ))
}

fn fuse_select(plan: &LogicalPlan) -> Option<(LogicalPlan, Rewrite)> {
    let LogicalPlan::Select {
        input,
        predicate,
        threshold,
    } = plan
    else {
        return None;
    };
    let LogicalPlan::Select {
        input: inner,
        predicate: inner_pred,
        threshold: inner_threshold,
    } = &**input
    else {
        return None;
    };
    if *inner_threshold != Threshold::POSITIVE {
        return None;
    }
    Some((
        LogicalPlan::Select {
            input: inner.clone(),
            predicate: inner_pred.clone().and(predicate.clone()),
            threshold: *threshold,
        },
        Rewrite {
            rule: "select-fusion",
            detail: "adjacent σ̃ fused into one conjunction".to_owned(),
        },
    ))
}

fn fuse_threshold(plan: &LogicalPlan) -> Option<(LogicalPlan, Rewrite)> {
    let LogicalPlan::ThresholdFilter { input, threshold } = plan else {
        return None;
    };
    if *threshold == Threshold::POSITIVE {
        // CWA_ER: stored tuples already have sn > 0.
        return Some((
            input.as_ref().clone(),
            Rewrite {
                rule: "threshold-fusion",
                detail: "identity sn > 0 filter pruned".to_owned(),
            },
        ));
    }
    let LogicalPlan::Select {
        input: inner,
        predicate,
        threshold: inner_threshold,
    } = &**input
    else {
        return None;
    };
    if *inner_threshold != Threshold::POSITIVE {
        return None;
    }
    Some((
        LogicalPlan::Select {
            input: inner.clone(),
            predicate: predicate.clone(),
            threshold: *threshold,
        },
        Rewrite {
            rule: "threshold-fusion",
            detail: format!("membership filter fused into σ̃ as Q = {threshold}"),
        },
    ))
}

fn prune_project(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
) -> Option<(LogicalPlan, Rewrite)> {
    let LogicalPlan::Project { input, attrs } = plan else {
        return None;
    };
    if let LogicalPlan::Project {
        input: inner,
        attrs: inner_attrs,
    } = &**input
    {
        if attrs.iter().all(|a| inner_attrs.contains(a)) {
            return Some((
                LogicalPlan::Project {
                    input: inner.clone(),
                    attrs: attrs.clone(),
                },
                Rewrite {
                    rule: "projection-pruning",
                    detail: "nested π̃ collapsed to the outer list".to_owned(),
                },
            ));
        }
    }
    let schema = schema_of(input, source).ok()?;
    if schema.arity() == attrs.len()
        && schema
            .attrs()
            .iter()
            .zip(attrs.iter())
            .all(|(a, n)| a.name() == n)
    {
        return Some((
            input.as_ref().clone(),
            Rewrite {
                rule: "projection-pruning",
                detail: "identity π̃ removed".to_owned(),
            },
        ));
    }
    None
}

/// Rebuild a node with every direct input passed through `f`.
fn map_inputs(plan: LogicalPlan, f: &mut impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let map = |b: Box<LogicalPlan>, f: &mut dyn FnMut(LogicalPlan) -> LogicalPlan| Box::new(f(*b));
    match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Select {
            input,
            predicate,
            threshold,
        } => LogicalPlan::Select {
            input: map(input, f),
            predicate,
            threshold,
        },
        LogicalPlan::ThresholdFilter { input, threshold } => LogicalPlan::ThresholdFilter {
            input: map(input, f),
            threshold,
        },
        LogicalPlan::Project { input, attrs } => LogicalPlan::Project {
            input: map(input, f),
            attrs,
        },
        LogicalPlan::Product { left, right } => LogicalPlan::Product {
            left: map(left, f),
            right: map(right, f),
        },
        LogicalPlan::Join {
            left,
            right,
            on,
            threshold,
        } => LogicalPlan::Join {
            left: map(left, f),
            right: map(right, f),
            on,
            threshold,
        },
        LogicalPlan::Union { left, right } => LogicalPlan::Union {
            left: map(left, f),
            right: map(right, f),
        },
        LogicalPlan::Intersect { left, right } => LogicalPlan::Intersect {
            left: map(left, f),
            right: map(right, f),
        },
        LogicalPlan::Difference { left, right } => LogicalPlan::Difference {
            left: map(left, f),
            right: map(right, f),
        },
        LogicalPlan::RenameRelation { input, name } => LogicalPlan::RenameRelation {
            input: map(input, f),
            name,
        },
        LogicalPlan::RenameAttribute { input, from, to } => LogicalPlan::RenameAttribute {
            input: map(input, f),
            from,
            to,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{scan, Bindings};
    use evirel_algebra::{Operand, ThetaOp};
    use evirel_relation::{AttrDomain, RelationBuilder, Schema, ValueKind};
    use std::sync::Arc;

    fn bindings() -> Bindings {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("R")
                .key_str("k")
                .definite("phone", ValueKind::Str)
                .evidential("d", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let mk = |name: &str| {
            RelationBuilder::new(Arc::new(schema.renamed(name)))
                .tuple(|t| {
                    t.set_str("k", "a")
                        .set_str("phone", "1")
                        .set_evidence("d", [(&["x"][..], 1.0)])
                })
                .unwrap()
                .build()
        };
        let mut b = Bindings::new();
        b.bind("r", mk("R")).bind("s", mk("S"));
        b
    }

    fn rules(fired: &[Rewrite]) -> Vec<&'static str> {
        fired.iter().map(|r| r.rule).collect()
    }

    #[test]
    fn pushes_select_below_project() {
        let b = bindings();
        let plan = scan("r")
            .project(["k", "d"])
            .select(Predicate::is("d", ["x"]))
            .build();
        let (optimized, fired) = optimize(&plan, &b);
        assert!(rules(&fired).contains(&"predicate-pushdown-project"));
        // π̃ is now the root, σ̃ below it.
        assert!(matches!(optimized, LogicalPlan::Project { .. }));
        // A predicate over a projected-away attribute stays put.
        let plan = scan("r")
            .project(["k", "d"])
            .select(Predicate::is("phone", ["1"]))
            .build();
        let (_, fired) = optimize(&plan, &b);
        assert!(!rules(&fired).contains(&"predicate-pushdown-project"));
    }

    #[test]
    fn splits_conjuncts_through_product() {
        let b = bindings();
        // Every attribute clashes between R and S, so the product
        // qualifies them all; the left conjunct must be unqualified
        // when pushed.
        let pred = Predicate::is("R.d", ["x"]).and(Predicate::theta(
            Operand::attr("R.k"),
            ThetaOp::Eq,
            Operand::attr("S.k"),
        ));
        let plan = scan("r").product(scan("s")).select(pred).build();
        let (optimized, fired) = optimize(&plan, &b);
        assert!(rules(&fired).contains(&"predicate-pushdown-product"));
        // Residual mixed conjunct stays above the product; the left
        // conjunct now references the unqualified name below it.
        let LogicalPlan::Select { input, .. } = &optimized else {
            panic!("{optimized:?}")
        };
        let LogicalPlan::Product { left, .. } = &**input else {
            panic!("{optimized:?}")
        };
        let LogicalPlan::Select { predicate, .. } = &**left else {
            panic!("{optimized:?}")
        };
        assert_eq!(predicate.referenced_attrs(), vec!["d"]);
    }

    #[test]
    fn ambiguous_attr_pushdown_unqualifies() {
        let b = bindings();
        // "d" clashes between R and S, so the product qualifies both;
        // a conjunct on R.d must be unqualified when pushed left.
        let pred = Predicate::is("R.d", ["x"]);
        let plan = scan("r").product(scan("s")).select(pred).build();
        let (optimized, fired) = optimize(&plan, &b);
        assert!(rules(&fired).contains(&"predicate-pushdown-product"));
        let LogicalPlan::Product { left, .. } = &optimized else {
            panic!("{optimized:?}")
        };
        let LogicalPlan::Select { predicate, .. } = &**left else {
            panic!("{optimized:?}")
        };
        assert_eq!(predicate.referenced_attrs(), vec!["d"]);
    }

    #[test]
    fn distributes_key_crisp_select_over_union() {
        let b = bindings();
        let plan = scan("r")
            .union(scan("s"))
            .select(Predicate::theta(
                Operand::attr("k"),
                ThetaOp::Eq,
                Operand::value("a"),
            ))
            .build();
        let (optimized, fired) = optimize(&plan, &b);
        assert!(rules(&fired).contains(&"select-under-union"));
        assert!(matches!(optimized, LogicalPlan::Union { .. }));
        // Evidential predicates must not distribute.
        let plan = scan("r")
            .union(scan("s"))
            .select(Predicate::is("d", ["x"]))
            .build();
        let (_, fired) = optimize(&plan, &b);
        assert!(!rules(&fired).contains(&"select-under-union"));
        // Nor non-default thresholds.
        let plan = scan("r")
            .union(scan("s"))
            .select_where(
                Predicate::theta(Operand::attr("k"), ThetaOp::Eq, Operand::value("a")),
                Threshold::SnAtLeast(0.5),
            )
            .build();
        let (_, fired) = optimize(&plan, &b);
        assert!(!rules(&fired).contains(&"select-under-union"));
    }

    #[test]
    fn fuses_selects_and_thresholds() {
        let b = bindings();
        let plan = scan("r")
            .select(Predicate::is("d", ["x"]))
            .threshold(Threshold::SnAtLeast(0.5))
            .build();
        let (optimized, fired) = optimize(&plan, &b);
        assert!(rules(&fired).contains(&"threshold-fusion"));
        let LogicalPlan::Select { threshold, .. } = &optimized else {
            panic!("{optimized:?}")
        };
        assert_eq!(*threshold, Threshold::SnAtLeast(0.5));

        let plan = scan("r")
            .select(Predicate::is("d", ["x"]))
            .select(Predicate::is("phone", ["1"]))
            .build();
        let (optimized, fired) = optimize(&plan, &b);
        assert!(rules(&fired).contains(&"select-fusion"));
        assert!(matches!(
            optimized,
            LogicalPlan::Select { ref predicate, .. } if matches!(predicate, Predicate::And(_, _))
        ));

        // Identity sn > 0 filter is pruned.
        let plan = scan("r").threshold(Threshold::POSITIVE).build();
        let (optimized, _) = optimize(&plan, &b);
        assert!(matches!(optimized, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn prunes_projections() {
        let b = bindings();
        let plan = scan("r")
            .project(["k", "phone", "d"])
            .project(["k", "d"])
            .build();
        let (optimized, fired) = optimize(&plan, &b);
        assert!(rules(&fired).contains(&"projection-pruning"));
        let LogicalPlan::Project { input, attrs } = &optimized else {
            panic!("{optimized:?}")
        };
        assert_eq!(attrs, &["k", "d"]);
        assert!(matches!(&**input, LogicalPlan::Scan { .. }));
        // Identity projection disappears entirely.
        let plan = scan("r").project(["k", "phone", "d"]).build();
        let (optimized, _) = optimize(&plan, &b);
        assert!(matches!(optimized, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn join_expands_then_pushes() {
        let b = bindings();
        let plan = scan("r")
            .join(
                scan("s"),
                Predicate::theta(Operand::attr("R.k"), ThetaOp::Eq, Operand::attr("S.k")),
            )
            .select(Predicate::is("R.d", ["x"]))
            .build();
        let (_, fired) = optimize(&plan, &b);
        let fired = rules(&fired);
        assert!(fired.contains(&"join-expansion"), "{fired:?}");
        assert!(fired.contains(&"select-fusion"), "{fired:?}");
        assert!(fired.contains(&"predicate-pushdown-product"), "{fired:?}");
    }
}
