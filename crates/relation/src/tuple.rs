//! Tuples of an extended relation.

use crate::domain::AttrDomain;
use crate::error::RelationError;
use crate::membership::SupportPair;
use crate::schema::{AttrType, Schema};
use crate::value::Value;
use evirel_evidence::MassFunction;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// The value stored in one attribute of a tuple: either a definite
/// [`Value`] or an evidence set (a mass function over the attribute's
/// domain).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A definite value.
    Definite(Value),
    /// An evidence set (the paper's uncertain attribute values).
    Evidential(MassFunction<f64>),
}

impl AttrValue {
    /// The definite value, if this is one.
    pub fn as_definite(&self) -> Option<&Value> {
        match self {
            AttrValue::Definite(v) => Some(v),
            AttrValue::Evidential(_) => None,
        }
    }

    /// The evidence set, if this is one.
    pub fn as_evidential(&self) -> Option<&MassFunction<f64>> {
        match self {
            AttrValue::Evidential(m) => Some(m),
            AttrValue::Definite(_) => None,
        }
    }

    /// View as an evidence set over `domain`: an evidence set is
    /// borrowed as it stands; a definite value `v` becomes the certain
    /// mass `m({v}) = 1` (the paper's observation that definite values
    /// are evidence sets with one singleton focal element).
    ///
    /// # Errors
    /// [`RelationError::ValueNotInDomain`] if a definite value is not
    /// in `domain`.
    pub fn to_evidence(
        &self,
        domain: &AttrDomain,
    ) -> Result<Cow<'_, MassFunction<f64>>, RelationError> {
        match self {
            AttrValue::Evidential(m) => Ok(Cow::Borrowed(m)),
            AttrValue::Definite(v) => {
                let idx = domain.index_of(v)?;
                Ok(Cow::Owned(MassFunction::from_entries(
                    Arc::clone(domain.frame()),
                    [(evirel_evidence::FocalSet::singleton(idx), 1.0)],
                )?))
            }
        }
    }

    /// Structural comparison with `f64` tolerance on evidence masses.
    pub fn approx_eq(&self, other: &AttrValue) -> bool {
        match (self, other) {
            (AttrValue::Definite(a), AttrValue::Definite(b)) => a == b,
            (AttrValue::Evidential(a), AttrValue::Evidential(b)) => a.approx_eq(b),
            _ => false,
        }
    }
}

impl From<Value> for AttrValue {
    fn from(v: Value) -> AttrValue {
        AttrValue::Definite(v)
    }
}

impl From<MassFunction<f64>> for AttrValue {
    fn from(m: MassFunction<f64>) -> AttrValue {
        AttrValue::Evidential(m)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Definite(v) => write!(f, "{v}"),
            AttrValue::Evidential(m) => write!(f, "{m}"),
        }
    }
}

/// One tuple: attribute values in schema order, plus the membership
/// support pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Vec<AttrValue>,
    membership: SupportPair,
}

impl Tuple {
    /// Construct and validate against `schema`.
    ///
    /// Checks arity, that key attributes hold definite values of the
    /// right kind, that definite attributes hold matching kinds, and
    /// that evidential attribute values are built over the attribute's
    /// declared domain frame.
    ///
    /// # Errors
    /// The respective [`RelationError`] variant for each violated rule.
    pub fn new(
        schema: &Schema,
        values: Vec<AttrValue>,
        membership: SupportPair,
    ) -> Result<Tuple, RelationError> {
        if values.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                got: values.len(),
                expected: schema.arity(),
            });
        }
        for (attr, value) in schema.attrs().iter().zip(values.iter()) {
            match (attr.ty(), value) {
                (AttrType::Definite(kind), AttrValue::Definite(v)) => {
                    if v.kind() != *kind {
                        return Err(RelationError::TypeMismatch {
                            attr: attr.name().to_owned(),
                            expected: kind.to_string(),
                            got: v.kind().to_string(),
                        });
                    }
                }
                (AttrType::Definite(_), AttrValue::Evidential(_)) => {
                    // Keys must be definite (§2.3); so must declared
                    // definite attributes.
                    if attr.is_key() {
                        return Err(RelationError::UncertainKey {
                            attr: attr.name().to_owned(),
                        });
                    }
                    return Err(RelationError::TypeMismatch {
                        attr: attr.name().to_owned(),
                        expected: "definite value".to_owned(),
                        got: "evidence set".to_owned(),
                    });
                }
                (AttrType::Evidential(domain), AttrValue::Evidential(m)) => {
                    if m.frame() != domain.frame() {
                        return Err(RelationError::DomainMismatch {
                            attr: attr.name().to_owned(),
                            got: m.frame().name().to_owned(),
                        });
                    }
                }
                (AttrType::Evidential(domain), AttrValue::Definite(v)) => {
                    // Definite values in evidential attributes are
                    // legal (special-case evidence sets) but must lie
                    // in the domain.
                    domain.index_of(v)?;
                }
            }
        }
        Ok(Tuple { values, membership })
    }

    /// Attribute values in schema order.
    pub fn values(&self) -> &[AttrValue] {
        &self.values
    }

    /// The value at position `pos`.
    pub fn value(&self, pos: usize) -> &AttrValue {
        &self.values[pos]
    }

    /// The membership support pair.
    pub fn membership(&self) -> SupportPair {
        self.membership
    }

    /// Replace the membership pair (used by the algebra when deriving
    /// result tuples).
    pub fn with_membership(&self, membership: SupportPair) -> Tuple {
        Tuple {
            values: self.values.clone(),
            membership,
        }
    }

    /// Consuming variant of [`Tuple::with_membership`] — streaming
    /// operators own their tuples, so revising the membership need not
    /// clone the attribute values.
    pub fn with_membership_owned(mut self, membership: SupportPair) -> Tuple {
        self.membership = membership;
        self
    }

    /// Extract the key values (definite by construction) given the
    /// schema that validated this tuple.
    pub fn key(&self, schema: &Schema) -> Vec<Value> {
        schema
            .key_positions()
            .iter()
            .map(|&i| {
                self.values[i]
                    .as_definite()
                    .expect("validated tuples have definite keys")
                    .clone()
            })
            .collect()
    }

    /// Project onto the given positions, keeping membership (§3.3).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple {
            values: positions.iter().map(|&i| self.values[i].clone()).collect(),
            membership: self.membership,
        }
    }

    /// Structural comparison with `f64` tolerance.
    pub fn approx_eq(&self, other: &Tuple) -> bool {
        self.values.len() == other.values.len()
            && self.membership.approx_eq(&other.membership)
            && self
                .values
                .iter()
                .zip(other.values.iter())
                .all(|(a, b)| a.approx_eq(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::ValueKind;

    fn domain() -> Arc<AttrDomain> {
        Arc::new(AttrDomain::categorical("spec", ["am", "hu", "si"]).unwrap())
    }

    fn schema() -> Schema {
        Schema::builder("r")
            .key_str("name")
            .definite("bldg", ValueKind::Int)
            .evidential("spec", domain())
            .build()
            .unwrap()
    }

    fn evidence(entries: &[(&[&str], f64)]) -> MassFunction<f64> {
        let mut b = MassFunction::<f64>::builder(Arc::clone(domain().frame()));
        for (labels, w) in entries {
            b = b.add(labels.iter().copied(), *w).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn valid_tuple() {
        let t = Tuple::new(
            &schema(),
            vec![
                Value::str("wok").into(),
                Value::int(600).into(),
                evidence(&[(&["si"], 1.0)]).into(),
            ],
            SupportPair::certain(),
        )
        .unwrap();
        assert_eq!(t.key(&schema()), vec![Value::str("wok")]);
        assert_eq!(t.values().len(), 3);
        assert!(t.membership().is_certain());
    }

    #[test]
    fn arity_checked() {
        let err = Tuple::new(
            &schema(),
            vec![Value::str("wok").into()],
            SupportPair::certain(),
        );
        assert!(matches!(err, Err(RelationError::ArityMismatch { .. })));
    }

    #[test]
    fn key_kind_checked() {
        let err = Tuple::new(
            &schema(),
            vec![
                Value::int(1).into(),
                Value::int(600).into(),
                evidence(&[(&["si"], 1.0)]).into(),
            ],
            SupportPair::certain(),
        );
        assert!(matches!(err, Err(RelationError::TypeMismatch { .. })));
    }

    #[test]
    fn uncertain_key_rejected() {
        let err = Tuple::new(
            &schema(),
            vec![
                evidence(&[(&["si"], 1.0)]).into(),
                Value::int(600).into(),
                evidence(&[(&["si"], 1.0)]).into(),
            ],
            SupportPair::certain(),
        );
        assert!(matches!(err, Err(RelationError::UncertainKey { .. })));
    }

    #[test]
    fn evidence_in_definite_attr_rejected() {
        let err = Tuple::new(
            &schema(),
            vec![
                Value::str("wok").into(),
                evidence(&[(&["si"], 1.0)]).into(),
                evidence(&[(&["si"], 1.0)]).into(),
            ],
            SupportPair::certain(),
        );
        assert!(matches!(err, Err(RelationError::TypeMismatch { .. })));
    }

    #[test]
    fn wrong_frame_rejected() {
        let other = Arc::new(AttrDomain::categorical("other", ["x", "y"]).unwrap());
        let m = MassFunction::<f64>::vacuous(Arc::clone(other.frame())).unwrap();
        let err = Tuple::new(
            &schema(),
            vec![Value::str("wok").into(), Value::int(600).into(), m.into()],
            SupportPair::certain(),
        );
        assert!(matches!(err, Err(RelationError::DomainMismatch { .. })));
    }

    #[test]
    fn definite_value_in_evidential_attr() {
        // Allowed when in-domain…
        let t = Tuple::new(
            &schema(),
            vec![
                Value::str("wok").into(),
                Value::int(600).into(),
                Value::str("si").into(),
            ],
            SupportPair::certain(),
        )
        .unwrap();
        // …and promotable to the certain evidence set.
        let ev = t.value(2).to_evidence(&domain()).unwrap();
        assert_eq!(ev.as_definite(), Some(2));
        // Out-of-domain definite rejected.
        let err = Tuple::new(
            &schema(),
            vec![
                Value::str("wok").into(),
                Value::int(600).into(),
                Value::str("french").into(),
            ],
            SupportPair::certain(),
        );
        assert!(matches!(err, Err(RelationError::ValueNotInDomain { .. })));
    }

    #[test]
    fn projection_keeps_membership() {
        let t = Tuple::new(
            &schema(),
            vec![
                Value::str("wok").into(),
                Value::int(600).into(),
                evidence(&[(&["si"], 1.0)]).into(),
            ],
            SupportPair::new(0.5, 0.75).unwrap(),
        )
        .unwrap();
        let p = t.project(&[0, 2]);
        assert_eq!(p.values().len(), 2);
        assert!(p
            .membership()
            .approx_eq(&SupportPair::new(0.5, 0.75).unwrap()));
    }

    #[test]
    fn with_membership_replaces() {
        let t = Tuple::new(
            &schema(),
            vec![
                Value::str("wok").into(),
                Value::int(600).into(),
                evidence(&[(&["si"], 1.0)]).into(),
            ],
            SupportPair::certain(),
        )
        .unwrap();
        let t2 = t.with_membership(SupportPair::new(0.2, 0.4).unwrap());
        assert!(t2
            .membership()
            .approx_eq(&SupportPair::new(0.2, 0.4).unwrap()));
        assert_eq!(t2.values(), t.values());
    }

    #[test]
    fn attr_value_display() {
        let v: AttrValue = Value::str("wok").into();
        assert_eq!(v.to_string(), "wok");
        let e: AttrValue = evidence(&[(&["si"], 0.5), (&["hu"], 0.5)]).into();
        assert!(e.to_string().contains("si^0.5"));
    }
}
