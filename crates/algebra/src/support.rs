//! The selection support function `F_SS` (§3.1.1).
//!
//! `F_SS(r, P)` assigns a support pair `(sn, sp)` quantifying the
//! degree to which tuple `r` satisfies selection condition `P`:
//!
//! * **is-predicate** `A is C`: `sn = Bel(C)`, `sp = Pls(C)` of the
//!   attribute's evidence set;
//! * **θ-predicate** `A θ B`:
//!   `sn = Σ_{aᵢ θ bⱼ is TRUE} m_A(aᵢ)·m_B(bⱼ)` where `aᵢ θ bⱼ` *is
//!   TRUE* iff the comparison holds for **all** pairs of members
//!   (∀s∀t), and `sp` sums pairs where it *may be TRUE* (∃s∃t);
//! * **conjunction**: the multiplicative rule
//!   `(sn_S·sn_T, sp_S·sp_T)` for independent predicates
//!   (Baldwin 1987; Hau & Kashyap 1990).
//!
//! θ comparisons are evaluated in *domain order* — the declared order
//! of the attribute domain's values (numeric order for integer
//! domains).
//!
//! Evaluation is split in two. [`BoundPredicate::bind`] resolves a
//! predicate against a schema once — attribute names to positions,
//! each `is` target to a focal set of its attribute's domain — and
//! [`BoundPredicate::support`] evaluates the bound form per [`Row`].
//! A row is anything that yields the attribute value at a position: a
//! [`Tuple`], or a stored scan's partially decoded record, which holds
//! only the positions the predicate reads. What binding cannot resolve
//! (an unknown attribute, an out-of-domain target) is kept as the
//! error it raised and returned when a row is evaluated, so a
//! selection over an empty input still succeeds.

use crate::error::AlgebraError;
use crate::predicate::{Operand, Predicate, ThetaOp};
use evirel_evidence::{FocalSet, MassFunction};
use evirel_relation::{AttrDomain, AttrValue, RelationError, Schema, SupportPair, Tuple, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// What `F_SS` reads of a tuple: the attribute value at a schema
/// position.
pub trait Row {
    /// The value at position `pos` of the schema the predicate was
    /// bound against.
    fn value(&self, pos: usize) -> &AttrValue;
}

impl Row for Tuple {
    fn value(&self, pos: usize) -> &AttrValue {
        Tuple::value(self, pos)
    }
}

/// A predicate resolved against one schema — see the module docs.
#[derive(Debug, Clone)]
pub struct BoundPredicate(Node);

#[derive(Debug, Clone)]
enum Node {
    /// `A is C`, `A` evidential: `C` as a focal set of `A`'s domain.
    IsEvidence {
        pos: usize,
        domain: Arc<AttrDomain>,
        target: FocalSet,
    },
    /// `A is C`, `A` definite: crisp membership in `C`.
    IsDefinite {
        pos: usize,
        attr: String,
        values: Vec<Value>,
    },
    Theta {
        left: BoundOperand,
        op: ThetaOp,
        right: BoundOperand,
    },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    /// Binding failed; evaluating a row returns the error.
    Invalid(AlgebraError),
}

/// One side of a bound θ-predicate.
#[derive(Debug, Clone)]
enum BoundOperand {
    /// The attribute at `pos`; `domain` when it is evidential.
    Attr {
        pos: usize,
        name: String,
        domain: Option<Arc<AttrDomain>>,
    },
    Value(Value),
    Evidence(Vec<(Vec<Value>, f64)>),
}

/// A θ operand resolved against a row.
enum Resolved<'a> {
    /// A definite value (from a definite attribute or a literal).
    Definite(&'a Value),
    /// An evidence set together with the typed domain that orders it.
    Evidence(Cow<'a, MassFunction<f64>>, &'a Arc<AttrDomain>),
    /// An evidence literal awaiting a domain from the opposite operand.
    PendingLiteral(&'a [(Vec<Value>, f64)]),
}

fn holds_evidence(attr: &str) -> AlgebraError {
    AlgebraError::PredicateType {
        reason: format!("attribute {attr:?} is declared definite but holds evidence"),
    }
}

impl BoundPredicate {
    /// Resolve `pred` against `schema`.
    pub fn bind(schema: &Schema, pred: &Predicate) -> BoundPredicate {
        BoundPredicate(Node::bind(schema, pred))
    }

    /// `F_SS(row, P)`.
    ///
    /// # Errors
    /// * [`AlgebraError::Relation`] for unknown attributes or
    ///   out-of-domain values;
    /// * [`AlgebraError::PredicateType`] for incomparable operands.
    pub fn support(&self, row: &impl Row) -> Result<SupportPair, AlgebraError> {
        self.0.support(row)
    }
}

impl Node {
    fn bind(schema: &Schema, pred: &Predicate) -> Node {
        Node::try_bind(schema, pred).unwrap_or_else(|e| Node::Invalid(AlgebraError::Relation(e)))
    }

    fn try_bind(schema: &Schema, pred: &Predicate) -> Result<Node, RelationError> {
        let bind = |p: &Predicate| Box::new(Node::bind(schema, p));
        Ok(match pred {
            Predicate::Is { attr, values } => {
                let pos = schema.position(attr)?;
                match schema.attr(pos).ty().domain() {
                    Some(domain) => Node::IsEvidence {
                        pos,
                        target: domain.subset_of_values(values.iter())?,
                        domain: Arc::clone(domain),
                    },
                    None => Node::IsDefinite {
                        pos,
                        attr: attr.clone(),
                        values: values.clone(),
                    },
                }
            }
            Predicate::Theta { left, op, right } => Node::Theta {
                left: BoundOperand::bind(schema, left)?,
                op: *op,
                right: BoundOperand::bind(schema, right)?,
            },
            Predicate::And(a, b) => Node::And(bind(a), bind(b)),
            Predicate::Or(a, b) => Node::Or(bind(a), bind(b)),
            Predicate::Not(a) => Node::Not(bind(a)),
        })
    }

    fn support(&self, row: &impl Row) -> Result<SupportPair, AlgebraError> {
        match self {
            // §3.1.1: `(Bel(C), Pls(C))` of the attribute's evidence.
            Node::IsEvidence {
                pos,
                domain,
                target,
            } => {
                let m = row.value(*pos).to_evidence(domain)?;
                Ok(SupportPair::new(m.bel(target), m.pls(target))?)
            }
            Node::IsDefinite { pos, attr, values } => match row.value(*pos) {
                AttrValue::Definite(v) if values.contains(v) => Ok(SupportPair::certain()),
                AttrValue::Definite(_) => Ok(SupportPair::impossible()),
                AttrValue::Evidential(_) => Err(holds_evidence(attr)),
            },
            Node::Theta { left, op, right } => theta_support(row, left, *op, right),
            Node::And(a, b) => {
                let sa = a.support(row)?;
                let sb = b.support(row)?;
                // §3.1.1: multiplicative rule for independent predicates.
                Ok(sa.and_independent(&sb))
            }
            Node::Or(a, b) => {
                let sa = a.support(row)?;
                let sb = b.support(row)?;
                // Extension: independent-event disjunction.
                let sn = 1.0 - (1.0 - sa.sn()) * (1.0 - sb.sn());
                let sp = 1.0 - (1.0 - sa.sp()) * (1.0 - sb.sp());
                Ok(SupportPair::new(sn, sp)?)
            }
            Node::Not(a) => {
                let sa = a.support(row)?;
                // Extension: belief/plausibility duality.
                Ok(SupportPair::new(1.0 - sa.sp(), 1.0 - sa.sn())?)
            }
            Node::Invalid(e) => Err(e.clone()),
        }
    }
}

impl BoundOperand {
    fn bind(schema: &Schema, operand: &Operand) -> Result<BoundOperand, RelationError> {
        Ok(match operand {
            Operand::Attr(name) => {
                let pos = schema.position(name)?;
                BoundOperand::Attr {
                    pos,
                    name: name.clone(),
                    domain: schema.attr(pos).ty().domain().cloned(),
                }
            }
            Operand::Value(v) => BoundOperand::Value(v.clone()),
            Operand::Evidence(entries) => BoundOperand::Evidence(entries.clone()),
        })
    }

    fn resolve<'a>(&'a self, row: &'a impl Row) -> Result<Resolved<'a>, AlgebraError> {
        match self {
            BoundOperand::Attr { pos, name, domain } => match (domain, row.value(*pos)) {
                (Some(domain), value) => Ok(Resolved::Evidence(value.to_evidence(domain)?, domain)),
                (None, AttrValue::Definite(v)) => Ok(Resolved::Definite(v)),
                (None, AttrValue::Evidential(_)) => Err(holds_evidence(name)),
            },
            BoundOperand::Value(v) => Ok(Resolved::Definite(v)),
            BoundOperand::Evidence(entries) => Ok(Resolved::PendingLiteral(entries)),
        }
    }
}

/// Compute `F_SS(r, P)` for tuple `tuple` of `schema` — one-shot
/// binding plus evaluation; anything that evaluates `P` over many
/// tuples binds once ([`BoundPredicate::bind`]) instead.
///
/// # Errors
/// As [`BoundPredicate::support`].
pub fn predicate_support(
    schema: &Schema,
    tuple: &Tuple,
    pred: &Predicate,
) -> Result<SupportPair, AlgebraError> {
    BoundPredicate::bind(schema, pred).support(tuple)
}

/// `aᵢ θ bⱼ` *is TRUE*: the comparison holds for all member pairs
/// (∀s∀t). Order operators reduce to extreme-member comparisons.
fn definitely(op: ThetaOp, x: &FocalSet, y: &FocalSet) -> bool {
    let (xmin, xmax) = (
        x.min_index().expect("focal nonempty"),
        x.max_index().expect("focal nonempty"),
    );
    let (ymin, ymax) = (
        y.min_index().expect("focal nonempty"),
        y.max_index().expect("focal nonempty"),
    );
    match op {
        ThetaOp::Le => xmax <= ymin,
        ThetaOp::Lt => xmax < ymin,
        ThetaOp::Ge => xmin >= ymax,
        ThetaOp::Gt => xmin > ymax,
        ThetaOp::Eq => x.len() == 1 && y.len() == 1 && xmin == ymin,
        ThetaOp::Ne => !x.intersects(y),
    }
}

/// `aᵢ θ bⱼ` *may be TRUE*: the comparison holds for some member pair
/// (∃s∃t).
fn maybe(op: ThetaOp, x: &FocalSet, y: &FocalSet) -> bool {
    let (xmin, xmax) = (
        x.min_index().expect("focal nonempty"),
        x.max_index().expect("focal nonempty"),
    );
    let (ymin, ymax) = (
        y.min_index().expect("focal nonempty"),
        y.max_index().expect("focal nonempty"),
    );
    match op {
        ThetaOp::Le => xmin <= ymax,
        ThetaOp::Lt => xmin < ymax,
        ThetaOp::Ge => xmax >= ymin,
        ThetaOp::Gt => xmax > ymin,
        ThetaOp::Eq => x.intersects(y),
        ThetaOp::Ne => !(x.len() == 1 && y.len() == 1 && x == y),
    }
}

/// θ-support between two evidence sets over the same frame (the
/// paper's double sum).
///
/// # Errors
/// [`AlgebraError::PredicateType`] if the frames differ.
pub fn theta_evidence_support(
    a: &MassFunction<f64>,
    op: ThetaOp,
    b: &MassFunction<f64>,
) -> Result<SupportPair, AlgebraError> {
    if a.frame() != b.frame() {
        return Err(AlgebraError::PredicateType {
            reason: format!(
                "θ-predicate operands are over different domains ({} vs {})",
                a.frame().name(),
                b.frame().name()
            ),
        });
    }
    let mut sn = 0.0;
    let mut sp = 0.0;
    for (x, wx) in a.iter() {
        for (y, wy) in b.iter() {
            let product = wx * wy;
            if definitely(op, x, y) {
                sn += product;
            }
            if maybe(op, x, y) {
                sp += product;
            }
        }
    }
    Ok(SupportPair::new(sn, sp)?)
}

/// θ-support between two evidence-set *literals* over an explicit
/// domain — used to reproduce the paper's inline §3.1.1 example, where
/// neither operand is an attribute.
///
/// # Errors
/// As [`theta_evidence_support`], plus domain lookup failures.
pub fn theta_support_with_domain(
    domain: &Arc<AttrDomain>,
    left: &[(Vec<Value>, f64)],
    op: ThetaOp,
    right: &[(Vec<Value>, f64)],
) -> Result<SupportPair, AlgebraError> {
    let l = literal_to_mass(domain, left)?;
    let r = literal_to_mass(domain, right)?;
    theta_evidence_support(&l, op, &r)
}

fn literal_to_mass(
    domain: &Arc<AttrDomain>,
    entries: &[(Vec<Value>, f64)],
) -> Result<MassFunction<f64>, AlgebraError> {
    let mut b = MassFunction::<f64>::builder(Arc::clone(domain.frame()));
    for (vals, w) in entries {
        let set = domain.subset_of_values(vals.iter())?;
        b = b.add_set(set, *w).map_err(RelationError::from)?;
    }
    Ok(b.build().map_err(RelationError::from)?)
}

fn theta_support(
    row: &impl Row,
    left: &BoundOperand,
    op: ThetaOp,
    right: &BoundOperand,
) -> Result<SupportPair, AlgebraError> {
    let l = left.resolve(row)?;
    let r = right.resolve(row)?;
    match (l, r) {
        (Resolved::Definite(a), Resolved::Definite(b)) => Ok(if op.test_values(a, b) {
            SupportPair::certain()
        } else {
            SupportPair::impossible()
        }),
        (Resolved::Evidence(a, _), Resolved::Evidence(b, _)) => theta_evidence_support(&a, op, &b),
        (Resolved::Evidence(a, dom), Resolved::Definite(v)) => {
            let b = promote(dom, v)?;
            theta_evidence_support(&a, op, &b)
        }
        (Resolved::Definite(v), Resolved::Evidence(b, dom)) => {
            let a = promote(dom, v)?;
            theta_evidence_support(&a, op, &b)
        }
        (Resolved::Evidence(a, dom), Resolved::PendingLiteral(entries)) => {
            let b = literal_to_mass(dom, entries)?;
            theta_evidence_support(&a, op, &b)
        }
        (Resolved::PendingLiteral(entries), Resolved::Evidence(b, dom)) => {
            let a = literal_to_mass(dom, entries)?;
            theta_evidence_support(&a, op, &b)
        }
        _ => Err(AlgebraError::PredicateType {
            reason: "θ-predicate needs at least one attribute operand to anchor literal \
                     evidence to a domain"
                .to_owned(),
        }),
    }
}

fn promote(domain: &Arc<AttrDomain>, v: &Value) -> Result<MassFunction<f64>, AlgebraError> {
    let idx = domain.index_of(v)?;
    Ok(MassFunction::from_entries(
        Arc::clone(domain.frame()),
        [(FocalSet::singleton(idx), 1.0)],
    )
    .map_err(RelationError::from)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{RelationBuilder, Schema, ValueKind};

    fn speciality_domain() -> Arc<AttrDomain> {
        Arc::new(
            AttrDomain::categorical("speciality", ["am", "hu", "si", "ca", "mu", "it", "ta"])
                .unwrap(),
        )
    }

    fn rating_domain() -> Arc<AttrDomain> {
        // Declared order avg < gd < ex is the θ order.
        Arc::new(AttrDomain::categorical("rating", ["avg", "gd", "ex"]).unwrap())
    }

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder("ra")
                .key_str("rname")
                .definite("bldg", ValueKind::Int)
                .evidential("speciality", speciality_domain())
                .evidential("rating", rating_domain())
                .build()
                .unwrap(),
        )
    }

    fn garden() -> (Arc<Schema>, Tuple) {
        let s = schema();
        let rel = RelationBuilder::new(Arc::clone(&s))
            .tuple(|t| {
                t.set_str("rname", "garden")
                    .set_int("bldg", 2011)
                    .set_evidence_with_omega(
                        "speciality",
                        [(&["si"][..], 0.5), (&["hu"][..], 0.25)],
                        0.25,
                    )
                    .set_evidence(
                        "rating",
                        [
                            (&["ex"][..], 0.33),
                            (&["gd"][..], 0.5),
                            (&["avg"][..], 0.17),
                        ],
                    )
            })
            .unwrap()
            .build();
        let t = rel.get_by_key(&[Value::str("garden")]).unwrap().clone();
        (s, t)
    }

    /// Table 2's garden row: speciality is {si} → (Bel, Pls) = (0.5, 0.75).
    #[test]
    fn paper_is_predicate_garden() {
        let (s, t) = garden();
        let p = Predicate::is("speciality", ["si"]);
        let sp = predicate_support(&s, &t, &p).unwrap();
        assert!((sp.sn() - 0.5).abs() < 1e-12);
        assert!((sp.sp() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn is_predicate_multi_value_target() {
        let (s, t) = garden();
        // Bel({si, hu}) = 0.75, Pls = 1.0.
        let p = Predicate::is("speciality", ["si", "hu"]);
        let sp = predicate_support(&s, &t, &p).unwrap();
        assert!((sp.sn() - 0.75).abs() < 1e-12);
        assert!((sp.sp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn is_predicate_on_definite_attr() {
        let (s, t) = garden();
        let hit = Predicate::is("bldg", [2011i64]);
        assert!(predicate_support(&s, &t, &hit).unwrap().is_certain());
        let miss = Predicate::is("bldg", [1i64]);
        assert!(!predicate_support(&s, &t, &miss).unwrap().is_positive());
    }

    /// Compound predicate via the multiplicative rule — Table 3
    /// semantics: (speciality is {mu}) ∧ (rating is {ex}) on a tuple
    /// with supports (0.8, 0.8) and (0.8, 0.8) gives (0.64, 0.64).
    #[test]
    fn paper_compound_predicate_multiplicative() {
        let s = schema();
        let rel = RelationBuilder::new(Arc::clone(&s))
            .tuple(|t| {
                t.set_str("rname", "mehl")
                    .set_int("bldg", 820)
                    .set_evidence("speciality", [(&["mu"][..], 0.8), (&["ta"][..], 0.2)])
                    .set_evidence("rating", [(&["ex"][..], 0.8), (&["gd"][..], 0.2)])
                    .membership_pair(0.5, 0.5)
            })
            .unwrap()
            .build();
        let t = rel.get_by_key(&[Value::str("mehl")]).unwrap();
        let p = Predicate::is("speciality", ["mu"]).and(Predicate::is("rating", ["ex"]));
        let sp = predicate_support(&s, t, &p).unwrap();
        assert!((sp.sn() - 0.64).abs() < 1e-12);
        assert!((sp.sp() - 0.64).abs() < 1e-12);
    }

    /// The paper's printed §3.1.1 θ example operands evaluate to
    /// (0.12, 1.0) under the paper's own ∀∀/∃∃ definition; see
    /// DESIGN.md for the typo analysis. The corrected right-hand
    /// operand `[{4,7}^0.8, 5^0.2]` yields the printed (0.6, 1.0).
    #[test]
    fn paper_theta_example_as_printed_and_corrected() {
        let domain = Arc::new(AttrDomain::integers("n", 1, 8).unwrap());
        let left = vec![
            (vec![Value::int(1), Value::int(4)], 0.6),
            (vec![Value::int(2), Value::int(6)], 0.4),
        ];
        let printed_right = vec![
            (vec![Value::int(2), Value::int(4)], 0.8),
            (vec![Value::int(5)], 0.2),
        ];
        let sp = theta_support_with_domain(&domain, &left, ThetaOp::Le, &printed_right).unwrap();
        assert!((sp.sn() - 0.12).abs() < 1e-12);
        assert!((sp.sp() - 1.0).abs() < 1e-12);

        let corrected_right = vec![
            (vec![Value::int(4), Value::int(7)], 0.8),
            (vec![Value::int(5)], 0.2),
        ];
        let sp = theta_support_with_domain(&domain, &left, ThetaOp::Le, &corrected_right).unwrap();
        assert!((sp.sn() - 0.6).abs() < 1e-12);
        assert!((sp.sp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn theta_attr_vs_value() {
        let (s, t) = garden();
        // rating >= gd: focal {ex}(0.33) definitely, {gd}(0.5) definitely,
        // {avg}(0.17) not. sn = 0.83, sp = 0.83.
        let p = Predicate::theta(Operand::attr("rating"), ThetaOp::Ge, Operand::value("gd"));
        let sp = predicate_support(&s, &t, &p).unwrap();
        assert!((sp.sn() - 0.83).abs() < 1e-12);
        assert!((sp.sp() - 0.83).abs() < 1e-12);
    }

    #[test]
    fn theta_definite_vs_definite() {
        let (s, t) = garden();
        let p = Predicate::theta(Operand::attr("bldg"), ThetaOp::Le, Operand::value(3000i64));
        assert!(predicate_support(&s, &t, &p).unwrap().is_certain());
        let p = Predicate::theta(Operand::attr("bldg"), ThetaOp::Gt, Operand::value(3000i64));
        assert!(!predicate_support(&s, &t, &p).unwrap().is_positive());
    }

    #[test]
    fn theta_attr_vs_attr_same_domain() {
        // speciality = speciality is reflexive only in the definite
        // case; with evidence it yields Bel-style support.
        let (s, t) = garden();
        let p = Predicate::theta(
            Operand::attr("speciality"),
            ThetaOp::Eq,
            Operand::attr("speciality"),
        );
        let sp = predicate_support(&s, &t, &p).unwrap();
        // Definitely-equal pairs: ({si},{si}) 0.25, ({hu},{hu}) 0.0625.
        assert!((sp.sn() - 0.3125).abs() < 1e-12);
        assert!(sp.sp() <= 1.0);
    }

    #[test]
    fn theta_mismatched_domains_rejected() {
        let (s, t) = garden();
        let p = Predicate::theta(
            Operand::attr("speciality"),
            ThetaOp::Eq,
            Operand::attr("rating"),
        );
        assert!(matches!(
            predicate_support(&s, &t, &p),
            Err(AlgebraError::PredicateType { .. })
        ));
    }

    #[test]
    fn theta_two_literals_rejected_without_anchor() {
        let (s, t) = garden();
        let p = Predicate::theta(
            Operand::Evidence(vec![(vec![Value::str("si")], 1.0)]),
            ThetaOp::Eq,
            Operand::Evidence(vec![(vec![Value::str("si")], 1.0)]),
        );
        assert!(matches!(
            predicate_support(&s, &t, &p),
            Err(AlgebraError::PredicateType { .. })
        ));
    }

    #[test]
    fn theta_literal_anchored_by_attr() {
        let (s, t) = garden();
        let p = Predicate::theta(
            Operand::attr("speciality"),
            ThetaOp::Eq,
            Operand::Evidence(vec![(vec![Value::str("si")], 1.0)]),
        );
        let sp = predicate_support(&s, &t, &p).unwrap();
        // Equal-definite pairs: {si}·1.0·0.5; maybe adds {si,...}∩ via Ω.
        assert!((sp.sn() - 0.5).abs() < 1e-12);
        assert!((sp.sp() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn or_and_not_extensions() {
        let (s, t) = garden();
        let si = Predicate::is("speciality", ["si"]); // (0.5, 0.75)
        let not_si = si.clone().negate();
        let sp = predicate_support(&s, &t, &not_si).unwrap();
        assert!((sp.sn() - 0.25).abs() < 1e-12);
        assert!((sp.sp() - 0.5).abs() < 1e-12);

        let hu = Predicate::is("speciality", ["hu"]); // (0.25, 0.5)
        let either = si.or(hu);
        let sp = predicate_support(&s, &t, &either).unwrap();
        // 1 - 0.5*0.75 = 0.625 ; 1 - 0.25*0.5 = 0.875
        assert!((sp.sn() - 0.625).abs() < 1e-12);
        assert!((sp.sp() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn unknown_attr_is_error() {
        let (s, t) = garden();
        let p = Predicate::is("nope", ["x"]);
        assert!(matches!(
            predicate_support(&s, &t, &p),
            Err(AlgebraError::Relation(_))
        ));
    }

    #[test]
    fn out_of_domain_target_is_error() {
        let (s, t) = garden();
        let p = Predicate::is("speciality", ["french"]);
        assert!(predicate_support(&s, &t, &p).is_err());
    }
}
