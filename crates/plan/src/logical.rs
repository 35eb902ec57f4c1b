//! The logical plan tree and its fluent builder.
//!
//! A [`LogicalPlan`] is a composable description of a §3 algebra
//! expression: every node is one extended operation (σ̃, ∪̃, π̃, ×̃,
//! ⋈̃, plus the documented setop/rename extensions). Plans are built
//! with the [`scan`] entry point and the [`PlanBuilder`] combinators,
//! optimized by [`crate::rewrite::optimize`], and executed by the
//! streaming operators in [`crate::ops`] via [`crate::exec`].
//!
//! Naming convention: unary operators (σ̃, π̃, threshold filters,
//! renames aside) preserve their input's relation name, so pushing a
//! selection below a ×̃ never changes how the product qualifies
//! clashing attribute names. Binary operators derive combined names
//! (`A∪B`, `A×B`), exactly like the algebra free functions.

use crate::error::PlanError;
use evirel_algebra::{predicate::Predicate, threshold::Threshold};
use evirel_relation::{ExtendedRelation, Schema};
use evirel_store::StoredRelation;
use std::collections::HashMap;
use std::sync::Arc;

/// Where scans resolve their relations. Implemented by [`Bindings`]
/// and, by forwarding to the one it holds, `evirel_query::Catalog`.
pub trait RelationSource {
    /// What `name` is bound to — the relation and its statistics in
    /// one lookup — or `None` for an unbound name.
    fn resolve(&self, name: &str) -> Option<&Binding>;
}

/// `name`'s binding, or the typed error every lowering step reports
/// for an unbound name.
pub(crate) fn binding_of<'s>(
    source: &'s dyn RelationSource,
    name: &str,
) -> Result<&'s Binding, PlanError> {
    source
        .resolve(name)
        .ok_or_else(|| PlanError::UnknownRelation {
            name: name.to_owned(),
        })
}

/// A bound relation's extension: in memory, or a disk-backed
/// [`StoredRelation`] scanned page-at-a-time through the buffer pool
/// by the plan layer's spill scan.
#[derive(Debug, Clone)]
pub enum BoundRelation {
    /// Held in memory.
    Memory(Arc<ExtendedRelation>),
    /// Held in an on-disk segment.
    Stored(Arc<StoredRelation>),
}

impl BoundRelation {
    /// The schema scans of this relation emit.
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            BoundRelation::Memory(rel) => rel.schema(),
            BoundRelation::Stored(stored) => stored.schema(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self {
            BoundRelation::Memory(rel) => rel.len(),
            BoundRelation::Stored(stored) => stored.len(),
        }
    }

    /// `true` when the extension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What one name is bound to: the relation and the statistics the
/// cost model reads. Every binding has statistics — [`Bindings::bind`]
/// computes them, a stored relation carries its segment's block — so
/// planning never meets a relation it cannot estimate.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The relation's extension.
    pub relation: BoundRelation,
    /// Its statistics. They change how a plan runs, never what it
    /// returns. The handle belongs to one relation object — minted by
    /// [`Bindings::bind`], or owned by the stored relation's segment —
    /// so `evirel-query`'s plan cache uses its pointer identity to tell
    /// whether a name is still bound to what a plan was prepared
    /// against; do not share one handle between relations.
    pub stats: Arc<evirel_store::RelStats>,
}

/// The name → relation map behind every [`RelationSource`] in the
/// workspace: plans run against it directly (examples, benches, the
/// integration pipeline) and `evirel_query::Catalog` wraps one.
/// Rebinding a name replaces whatever it was bound to, of either kind.
#[derive(Debug, Default, Clone)]
pub struct Bindings {
    map: HashMap<String, Binding>,
}

impl Bindings {
    /// An empty binding set.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Bind (or rebind) `name` to an in-memory relation. Statistics
    /// are computed in the same pass ([`evirel_store::compute_stats`]).
    pub fn bind(&mut self, name: impl Into<String>, rel: ExtendedRelation) -> &mut Self {
        let binding = Binding {
            stats: Arc::new(evirel_store::compute_stats(&rel)),
            relation: BoundRelation::Memory(Arc::new(rel)),
        };
        self.map.insert(name.into(), binding);
        self
    }

    /// Bind (or rebind) `name` to a disk-backed stored relation: scans
    /// stream its pages through the buffer pool instead of requiring a
    /// materialized [`ExtendedRelation`]. Statistics are the segment's.
    pub fn bind_stored(
        &mut self,
        name: impl Into<String>,
        stored: Arc<StoredRelation>,
    ) -> &mut Self {
        let binding = Binding {
            stats: stored.stats(),
            relation: BoundRelation::Stored(stored),
        };
        self.map.insert(name.into(), binding);
        self
    }

    /// Remove `name`'s binding; returns the relation when it was an
    /// in-memory one (stored extensions live on disk).
    pub fn unbind(&mut self, name: &str) -> Option<Arc<ExtendedRelation>> {
        match self.map.remove(name)?.relation {
            BoundRelation::Memory(rel) => Some(rel),
            BoundRelation::Stored(_) => None,
        }
    }

    /// Bound names (in-memory and stored), sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.map.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl RelationSource for Bindings {
    fn resolve(&self, name: &str) -> Option<&Binding> {
        self.map.get(name)
    }
}

/// One node of a logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a named relation from the [`RelationSource`].
    Scan {
        /// Binding name.
        name: String,
    },
    /// Extended selection σ̃ (§3.1): revise memberships by predicate
    /// support, keep tuples the threshold admits.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Selection condition `P`.
        predicate: Predicate,
        /// Membership threshold `Q`.
        threshold: Threshold,
    },
    /// A membership-only filter: `Q` applied to the *stored* `(sn, sp)`
    /// — the query language's bare `WITH` clause. The optimizer fuses
    /// it into an adjacent σ̃ where possible.
    ThresholdFilter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Membership threshold `Q`.
        threshold: Threshold,
    },
    /// Extended projection π̃ (§3.3).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Attribute list (must include the keys).
        attrs: Vec<String>,
    },
    /// Extended cartesian product ×̃ (§3.4).
    Product {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Extended join ⋈̃ (§3.5) ≡ σ̃ ∘ ×̃; kept as its own node for
    /// builder ergonomics and expanded by the optimizer.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate over the product's (qualified) names.
        on: Predicate,
        /// Membership threshold for the implied σ̃.
        threshold: Threshold,
    },
    /// Extended union ∪̃ (§3.2) — Dempster merge of key-matched tuples.
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Extended intersection (extension): key-matched merges only.
    Intersect {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Extended difference (extension): left tuples with no key match.
    Difference {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Rename the relation (ρ).
    RenameRelation {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// New relation name.
        name: String,
    },
    /// Rename one attribute (ρ).
    RenameAttribute {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Existing attribute name.
        from: String,
        /// New attribute name.
        to: String,
    },
}

/// Start a plan at a named relation: `scan("ra").select(p).project(a)`.
pub fn scan(name: impl Into<String>) -> PlanBuilder {
    PlanBuilder {
        plan: LogicalPlan::Scan { name: name.into() },
    }
}

/// Fluent builder over [`LogicalPlan`] — every combinator wraps the
/// current plan in one more node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBuilder {
    plan: LogicalPlan,
}

impl PlanBuilder {
    /// σ̃ with the paper's default threshold `sn > 0`.
    pub fn select(self, predicate: Predicate) -> Self {
        self.select_where(predicate, Threshold::POSITIVE)
    }

    /// σ̃ with an explicit membership threshold.
    pub fn select_where(self, predicate: Predicate, threshold: Threshold) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Select {
                input: Box::new(self.plan),
                predicate,
                threshold,
            },
        }
    }

    /// Membership-only filter on the stored `(sn, sp)`.
    pub fn threshold(self, threshold: Threshold) -> Self {
        PlanBuilder {
            plan: LogicalPlan::ThresholdFilter {
                input: Box::new(self.plan),
                threshold,
            },
        }
    }

    /// π̃ onto the named attributes.
    pub fn project<S: Into<String>>(self, attrs: impl IntoIterator<Item = S>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                attrs: attrs.into_iter().map(Into::into).collect(),
            },
        }
    }

    /// ×̃ with another plan.
    pub fn product(self, other: impl Into<LogicalPlan>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Product {
                left: Box::new(self.plan),
                right: Box::new(other.into()),
            },
        }
    }

    /// ⋈̃ with the paper's default threshold.
    pub fn join(self, other: impl Into<LogicalPlan>, on: Predicate) -> Self {
        self.join_where(other, on, Threshold::POSITIVE)
    }

    /// ⋈̃ with an explicit membership threshold.
    pub fn join_where(
        self,
        other: impl Into<LogicalPlan>,
        on: Predicate,
        threshold: Threshold,
    ) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(other.into()),
                on,
                threshold,
            },
        }
    }

    /// ∪̃ with another plan.
    pub fn union(self, other: impl Into<LogicalPlan>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Union {
                left: Box::new(self.plan),
                right: Box::new(other.into()),
            },
        }
    }

    /// Extended intersection with another plan.
    pub fn intersect(self, other: impl Into<LogicalPlan>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Intersect {
                left: Box::new(self.plan),
                right: Box::new(other.into()),
            },
        }
    }

    /// Extended difference with another plan.
    pub fn difference(self, other: impl Into<LogicalPlan>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Difference {
                left: Box::new(self.plan),
                right: Box::new(other.into()),
            },
        }
    }

    /// ρ: rename the relation.
    pub fn rename(self, name: impl Into<String>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::RenameRelation {
                input: Box::new(self.plan),
                name: name.into(),
            },
        }
    }

    /// ρ: rename one attribute.
    pub fn rename_attr(self, from: impl Into<String>, to: impl Into<String>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::RenameAttribute {
                input: Box::new(self.plan),
                from: from.into(),
                to: to.into(),
            },
        }
    }

    /// Finish building.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

impl From<PlanBuilder> for LogicalPlan {
    fn from(b: PlanBuilder) -> LogicalPlan {
        b.plan
    }
}

impl LogicalPlan {
    /// The node's direct inputs.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => Vec::new(),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::ThresholdFilter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::RenameRelation { input, .. }
            | LogicalPlan::RenameAttribute { input, .. } => vec![input],
            LogicalPlan::Product { left, right }
            | LogicalPlan::Join { left, right, .. }
            | LogicalPlan::Union { left, right }
            | LogicalPlan::Intersect { left, right }
            | LogicalPlan::Difference { left, right } => vec![left, right],
        }
    }

    /// Render the plan as an indented operator tree (the logical half
    /// of `EXPLAIN`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let line = match self {
            LogicalPlan::Scan { name } => format!("scan {name}"),
            LogicalPlan::Select {
                predicate,
                threshold,
                ..
            } => format!("σ̃[{predicate}] with {threshold}"),
            LogicalPlan::ThresholdFilter { threshold, .. } => {
                format!("σ̃[membership] with {threshold}")
            }
            LogicalPlan::Project { attrs, .. } => format!("π̃[{}]", attrs.join(", ")),
            LogicalPlan::Product { .. } => "×̃".to_owned(),
            LogicalPlan::Join { on, threshold, .. } => {
                if *threshold == Threshold::POSITIVE {
                    format!("⋈̃[{on}]")
                } else {
                    format!("⋈̃[{on}] with {threshold}")
                }
            }
            LogicalPlan::Union { .. } => "∪̃".to_owned(),
            LogicalPlan::Intersect { .. } => "∩̃".to_owned(),
            LogicalPlan::Difference { .. } => "−̃".to_owned(),
            LogicalPlan::RenameRelation { name, .. } => format!("ρ[{name}]"),
            LogicalPlan::RenameAttribute { from, to, .. } => format!("ρ[{from}→{to}]"),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        for input in self.inputs() {
            input.render_into(depth + 1, out);
        }
    }
}

/// The output schema a plan produces, resolved against `source` —
/// used by the optimizer's schema-aware rules and by plan-time
/// semantic validation. Mirrors the physical operators exactly.
///
/// # Errors
/// Unknown relations, union-incompatible inputs, invalid projections
/// or renames.
pub fn schema_of(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
) -> Result<Arc<Schema>, PlanError> {
    match plan {
        LogicalPlan::Scan { name } => Ok(Arc::clone(binding_of(source, name)?.relation.schema())),
        LogicalPlan::Select { input, .. } | LogicalPlan::ThresholdFilter { input, .. } => {
            schema_of(input, source)
        }
        LogicalPlan::Project { input, attrs } => {
            let s = schema_of(input, source)?;
            let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let positions = evirel_algebra::project::projection_positions(&s, &names)?;
            Ok(Arc::new(evirel_algebra::project::projected_schema(
                &s, &positions,
            )?))
        }
        LogicalPlan::Product { left, right } | LogicalPlan::Join { left, right, .. } => {
            let ls = schema_of(left, source)?;
            let rs = schema_of(right, source)?;
            Ok(Arc::new(evirel_algebra::product::product_schema(&ls, &rs)?))
        }
        LogicalPlan::Union { left, right } => binary_compatible_schema(left, right, source, "∪"),
        LogicalPlan::Intersect { left, right } => {
            binary_compatible_schema(left, right, source, "∩")
        }
        LogicalPlan::Difference { left, right } => {
            binary_compatible_schema(left, right, source, "−")
        }
        LogicalPlan::RenameRelation { input, name } => {
            let s = schema_of(input, source)?;
            Ok(Arc::new(s.renamed(name.clone())))
        }
        LogicalPlan::RenameAttribute { input, from, to } => {
            let s = schema_of(input, source)?;
            Ok(Arc::new(evirel_algebra::rename::attribute_renamed_schema(
                &s, from, to,
            )?))
        }
    }
}

fn binary_compatible_schema(
    left: &LogicalPlan,
    right: &LogicalPlan,
    source: &dyn RelationSource,
    symbol: &str,
) -> Result<Arc<Schema>, PlanError> {
    let ls = schema_of(left, source)?;
    let rs = schema_of(right, source)?;
    ls.check_union_compatible(&rs)
        .map_err(|e| PlanError::Algebra(evirel_algebra::AlgebraError::Relation(e)))?;
    Ok(Arc::new(ls.renamed(format!(
        "{}{symbol}{}",
        ls.name(),
        rs.name()
    ))))
}

/// Plan-time semantic validation: every attribute referenced by a
/// selection, join, or projection must exist in its input's schema.
/// Errors carry the attribute name and the schema it was resolved
/// against — the check EQL's `evirel_query::plan::lower_validated`
/// runs on every parsed statement.
///
/// # Errors
/// [`PlanError::UnknownAttribute`], plus schema-resolution failures.
pub fn validate_plan(plan: &LogicalPlan, source: &dyn RelationSource) -> Result<(), PlanError> {
    match plan {
        LogicalPlan::Select {
            input, predicate, ..
        } => {
            validate_plan(input, source)?;
            let s = schema_of(input, source)?;
            check_attrs(predicate, &s)
        }
        LogicalPlan::Join {
            left, right, on, ..
        } => {
            validate_plan(left, source)?;
            validate_plan(right, source)?;
            let ls = schema_of(left, source)?;
            let rs = schema_of(right, source)?;
            let s = evirel_algebra::product::product_schema(&ls, &rs)?;
            check_attrs(on, &s)
        }
        LogicalPlan::Project { input, attrs } => {
            validate_plan(input, source)?;
            let s = schema_of(input, source)?;
            for attr in attrs {
                if s.position(attr).is_err() {
                    return Err(PlanError::UnknownAttribute {
                        attr: attr.clone(),
                        schema: s.name().to_owned(),
                    });
                }
            }
            Ok(())
        }
        other => {
            for input in other.inputs() {
                validate_plan(input, source)?;
            }
            Ok(())
        }
    }
}

fn check_attrs(predicate: &Predicate, schema: &Schema) -> Result<(), PlanError> {
    for attr in predicate.referenced_attrs() {
        if schema.position(attr).is_err() {
            return Err(PlanError::UnknownAttribute {
                attr: attr.to_owned(),
                schema: schema.name().to_owned(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_algebra::{Operand, ThetaOp};
    use evirel_relation::{AttrDomain, RelationBuilder};

    fn bindings() -> Bindings {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("R")
                .key_str("k")
                .evidential("d", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let rel = RelationBuilder::new(Arc::clone(&schema))
            .tuple(|t| t.set_str("k", "a").set_evidence("d", [(&["x"][..], 1.0)]))
            .unwrap()
            .build();
        let other = RelationBuilder::new(Arc::new(schema.renamed("S")))
            .tuple(|t| t.set_str("k", "b").set_evidence("d", [(&["y"][..], 1.0)]))
            .unwrap()
            .build();
        let mut b = Bindings::new();
        b.bind("r", rel).bind("s", other);
        b
    }

    #[test]
    fn builder_composes_all_operators() {
        let plan = scan("r")
            .select(Predicate::is("d", ["x"]))
            .threshold(Threshold::SnAtLeast(0.5))
            .project(["k", "d"])
            .union(scan("s"))
            .build();
        assert!(matches!(plan, LogicalPlan::Union { .. }));
        let text = plan.render();
        assert!(text.contains("∪̃"), "{text}");
        assert!(text.contains("π̃[k, d]"), "{text}");
        assert!(text.contains("σ̃[d is {x}]"), "{text}");
        assert!(text.contains("scan r") && text.contains("scan s"), "{text}");

        let joined = scan("r")
            .join(
                scan("s"),
                Predicate::theta(Operand::attr("R.k"), ThetaOp::Eq, Operand::attr("S.k")),
            )
            .build();
        assert!(joined.render().contains("⋈̃"));
        let setops = scan("r")
            .intersect(scan("s"))
            .difference(scan("s"))
            .rename("t")
            .rename_attr("d", "e")
            .build();
        let text = setops.render();
        assert!(text.contains("∩̃") && text.contains("−̃"), "{text}");
        assert!(text.contains("ρ[t]") && text.contains("ρ[d→e]"), "{text}");
        let prod = scan("r").product(scan("s")).build();
        assert!(prod.render().contains("×̃"));
    }

    #[test]
    fn schema_resolution() {
        let b = bindings();
        let s = schema_of(&scan("r").build(), &b).unwrap();
        assert_eq!(s.name(), "R");
        // Unary operators preserve the input name.
        let s = schema_of(&scan("r").select(Predicate::is("d", ["x"])).build(), &b).unwrap();
        assert_eq!(s.name(), "R");
        let s = schema_of(&scan("r").project(["k"]).build(), &b).unwrap();
        assert_eq!(s.name(), "R");
        assert_eq!(s.arity(), 1);
        // Binary operators combine names; products qualify clashes.
        let s = schema_of(&scan("r").union(scan("s")).build(), &b).unwrap();
        assert_eq!(s.name(), "R∪S");
        let s = schema_of(&scan("r").product(scan("s")).build(), &b).unwrap();
        assert_eq!(s.name(), "R×S");
        assert!(s.position("R.k").is_ok() && s.position("S.k").is_ok());
        assert!(matches!(
            schema_of(&scan("zz").build(), &b),
            Err(PlanError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn validation_catches_unknown_attrs() {
        let b = bindings();
        let bad = scan("r").select(Predicate::is("nope", ["x"])).build();
        match validate_plan(&bad, &b) {
            Err(PlanError::UnknownAttribute { attr, schema }) => {
                assert_eq!(attr, "nope");
                assert_eq!(schema, "R");
            }
            other => panic!("{other:?}"),
        }
        let bad = scan("r").project(["k", "ghost"]).build();
        assert!(matches!(
            validate_plan(&bad, &b),
            Err(PlanError::UnknownAttribute { .. })
        ));
        // Join predicates validate against the qualified product schema.
        let good = scan("r")
            .join(
                scan("s"),
                Predicate::theta(Operand::attr("R.k"), ThetaOp::Eq, Operand::attr("S.k")),
            )
            .build();
        assert!(validate_plan(&good, &b).is_ok());
        let bad = scan("r")
            .join(
                scan("s"),
                Predicate::theta(Operand::attr("R.zz"), ThetaOp::Eq, Operand::attr("S.k")),
            )
            .build();
        assert!(matches!(
            validate_plan(&bad, &b),
            Err(PlanError::UnknownAttribute { .. })
        ));
        let ok = scan("r").select(Predicate::is("d", ["x"])).build();
        assert!(validate_plan(&ok, &b).is_ok());
    }
}
