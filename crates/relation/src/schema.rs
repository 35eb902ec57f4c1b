//! Relation schemas: attribute definitions and key declarations.

use crate::domain::AttrDomain;
use crate::error::RelationError;
use crate::value::ValueKind;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The declared type of an attribute.
#[derive(Debug, Clone)]
pub enum AttrType {
    /// A definite attribute over an open domain of one value kind
    /// (keys, streets, phone numbers, …).
    Definite(ValueKind),
    /// An uncertain attribute whose values are evidence sets over a
    /// finite typed domain (the paper's `†`-prefixed attributes).
    Evidential(Arc<AttrDomain>),
}

impl AttrType {
    /// `true` for evidential attributes.
    pub fn is_evidential(&self) -> bool {
        matches!(self, AttrType::Evidential(_))
    }

    /// The evidential domain, if any.
    pub fn domain(&self) -> Option<&Arc<AttrDomain>> {
        match self {
            AttrType::Evidential(d) => Some(d),
            AttrType::Definite(_) => None,
        }
    }

    /// Structural equality (definite kinds match, evidential domains
    /// identical).
    pub fn same_as(&self, other: &AttrType) -> bool {
        match (self, other) {
            (AttrType::Definite(a), AttrType::Definite(b)) => a == b,
            (AttrType::Evidential(a), AttrType::Evidential(b)) => a.same_as(b),
            _ => false,
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::Definite(k) => write!(f, "{k}"),
            AttrType::Evidential(d) => write!(f, "evidence<{}>", d.name()),
        }
    }
}

/// One attribute in a schema.
#[derive(Debug, Clone)]
pub struct AttrDef {
    name: Arc<str>,
    ty: AttrType,
    is_key: bool,
}

impl AttrDef {
    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name as the shared handle the schema stores — for callers
    /// that keep it (a conflict observation) without copying the text.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Attribute type.
    pub fn ty(&self) -> &AttrType {
        &self.ty
    }

    /// `true` if the attribute is part of the relation key.
    pub fn is_key(&self) -> bool {
        self.is_key
    }
}

/// A relation schema: a named, ordered list of attributes, at least
/// one of which is a (definite) key attribute. The tuple-membership
/// attribute `(sn, sp)` is implicit on every extended relation and is
/// not part of the schema's attribute list.
#[derive(Debug, Clone)]
pub struct Schema {
    name: Arc<str>,
    attrs: Vec<AttrDef>,
    by_name: HashMap<Arc<str>, usize>,
    key_positions: Vec<usize>,
}

impl Schema {
    /// Start building a schema for a relation called `name`.
    pub fn builder(name: impl Into<Arc<str>>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            attrs: Vec::new(),
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes (excluding the implicit membership
    /// attribute).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute definitions in declaration order.
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// Positions of the key attributes.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// Position of attribute `name`.
    ///
    /// # Errors
    /// [`RelationError::UnknownAttribute`] if absent.
    pub fn position(&self, name: &str) -> Result<usize, RelationError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| RelationError::UnknownAttribute {
                name: name.to_owned(),
                schema: self.name.to_string(),
            })
    }

    /// The attribute definition at `pos`.
    pub fn attr(&self, pos: usize) -> &AttrDef {
        &self.attrs[pos]
    }

    /// The attribute definition named `name`.
    ///
    /// # Errors
    /// [`RelationError::UnknownAttribute`] if absent.
    pub fn attr_by_name(&self, name: &str) -> Result<&AttrDef, RelationError> {
        Ok(self.attr(self.position(name)?))
    }

    /// Positions of the non-key attributes.
    pub fn non_key_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.attrs.len()).filter(|i| !self.attrs[*i].is_key)
    }

    /// Union-compatibility (§3.2 footnote): two extended relations are
    /// union-compatible iff they share the same attributes — names,
    /// types, order — including the key attributes.
    ///
    /// # Errors
    /// [`RelationError::NotUnionCompatible`] with a human-readable
    /// reason.
    pub fn check_union_compatible(&self, other: &Schema) -> Result<(), RelationError> {
        if self.attrs.len() != other.attrs.len() {
            return Err(RelationError::NotUnionCompatible {
                reason: format!("arity {} vs {}", self.attrs.len(), other.attrs.len()),
            });
        }
        for (a, b) in self.attrs.iter().zip(other.attrs.iter()) {
            if a.name != b.name {
                return Err(RelationError::NotUnionCompatible {
                    reason: format!("attribute {:?} vs {:?}", a.name, b.name),
                });
            }
            if !a.ty.same_as(&b.ty) {
                return Err(RelationError::NotUnionCompatible {
                    reason: format!("attribute {:?} differs in type", a.name),
                });
            }
            if a.is_key != b.is_key {
                return Err(RelationError::NotUnionCompatible {
                    reason: format!("attribute {:?} differs in key-ness", a.name),
                });
            }
        }
        Ok(())
    }

    /// A copy of this schema under a new relation name (used by the
    /// algebra to name derived relations).
    pub fn renamed(&self, name: impl Into<Arc<str>>) -> Schema {
        let mut s = self.clone();
        s.name = name.into();
        s
    }
}

/// Builder for [`Schema`].
#[derive(Debug)]
pub struct SchemaBuilder {
    name: Arc<str>,
    attrs: Vec<AttrDef>,
}

impl SchemaBuilder {
    /// Add a key attribute of the given definite kind.
    pub fn key(mut self, name: impl Into<Arc<str>>, kind: ValueKind) -> Self {
        self.attrs.push(AttrDef {
            name: name.into(),
            ty: AttrType::Definite(kind),
            is_key: true,
        });
        self
    }

    /// Add a string key attribute.
    pub fn key_str(self, name: impl Into<Arc<str>>) -> Self {
        self.key(name, ValueKind::Str)
    }

    /// Add an integer key attribute.
    pub fn key_int(self, name: impl Into<Arc<str>>) -> Self {
        self.key(name, ValueKind::Int)
    }

    /// Add a definite non-key attribute.
    pub fn definite(mut self, name: impl Into<Arc<str>>, kind: ValueKind) -> Self {
        self.attrs.push(AttrDef {
            name: name.into(),
            ty: AttrType::Definite(kind),
            is_key: false,
        });
        self
    }

    /// Add an evidential attribute over `domain` (the paper's
    /// `†attribute`).
    pub fn evidential(mut self, name: impl Into<Arc<str>>, domain: Arc<AttrDomain>) -> Self {
        self.attrs.push(AttrDef {
            name: name.into(),
            ty: AttrType::Evidential(domain),
            is_key: false,
        });
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    /// * [`RelationError::DuplicateAttribute`] on name collisions;
    /// * [`RelationError::NoKey`] if no key attribute was declared.
    pub fn build(self) -> Result<Schema, RelationError> {
        let mut by_name = HashMap::with_capacity(self.attrs.len());
        let mut key_positions = Vec::new();
        for (i, attr) in self.attrs.iter().enumerate() {
            if by_name.insert(Arc::clone(&attr.name), i).is_some() {
                return Err(RelationError::DuplicateAttribute {
                    name: attr.name.to_string(),
                });
            }
            if attr.is_key {
                key_positions.push(i);
            }
        }
        if key_positions.is_empty() {
            return Err(RelationError::NoKey);
        }
        Ok(Schema {
            name: self.name,
            attrs: self.attrs,
            by_name,
            key_positions,
        })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if a.is_key {
                write!(f, "*")?;
            }
            if a.ty.is_evidential() {
                write!(f, "†")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ", †(sn,sp))")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speciality_domain() -> Arc<AttrDomain> {
        Arc::new(
            AttrDomain::categorical("speciality", ["am", "hu", "si", "ca", "mu", "it"]).unwrap(),
        )
    }

    fn schema() -> Schema {
        Schema::builder("ra")
            .key_str("rname")
            .definite("street", ValueKind::Str)
            .definite("bldg-no", ValueKind::Int)
            .evidential("speciality", speciality_domain())
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let s = schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.name(), "ra");
        assert_eq!(s.position("speciality").unwrap(), 3);
        assert_eq!(s.key_positions(), &[0]);
        assert!(s.attr(0).is_key());
        assert!(s.attr(3).ty().is_evidential());
        assert!(s.position("nope").is_err());
        assert_eq!(s.non_key_positions().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::builder("r")
            .key_str("a")
            .definite("a", ValueKind::Int)
            .build();
        assert!(matches!(err, Err(RelationError::DuplicateAttribute { .. })));
    }

    #[test]
    fn key_required() {
        let err = Schema::builder("r").definite("a", ValueKind::Int).build();
        assert!(matches!(err, Err(RelationError::NoKey)));
    }

    #[test]
    fn union_compatibility() {
        let a = schema();
        let b = schema().renamed("rb");
        assert!(a.check_union_compatible(&b).is_ok());

        let c = Schema::builder("rc")
            .key_str("rname")
            .definite("street", ValueKind::Str)
            .definite("bldg-no", ValueKind::Str) // differing kind
            .evidential("speciality", speciality_domain())
            .build()
            .unwrap();
        assert!(a.check_union_compatible(&c).is_err());

        let d = Schema::builder("rd").key_str("rname").build().unwrap();
        assert!(a.check_union_compatible(&d).is_err());

        let e = Schema::builder("re")
            .key_str("other")
            .definite("street", ValueKind::Str)
            .definite("bldg-no", ValueKind::Int)
            .evidential("speciality", speciality_domain())
            .build()
            .unwrap();
        assert!(a.check_union_compatible(&e).is_err());
    }

    #[test]
    fn key_ness_checked_for_compatibility() {
        let a = Schema::builder("x")
            .key_str("k")
            .definite("v", ValueKind::Int)
            .build()
            .unwrap();
        let b = Schema::builder("x").key_str("k").key_int("v").build();
        // b's "v" is a key of a different kind — both type and key-ness differ.
        let b = match b {
            Ok(s) => s,
            Err(e) => panic!("unexpected: {e}"),
        };
        assert!(a.check_union_compatible(&b).is_err());
    }

    #[test]
    fn display_marks_keys_and_evidence() {
        let s = schema();
        let text = s.to_string();
        assert!(text.contains("*rname"));
        assert!(text.contains("†speciality"));
        assert!(text.contains("†(sn,sp)"));
    }

    #[test]
    fn attr_type_helpers() {
        let ev = AttrType::Evidential(speciality_domain());
        let df = AttrType::Definite(ValueKind::Int);
        assert!(ev.is_evidential() && !df.is_evidential());
        assert!(ev.domain().is_some() && df.domain().is_none());
        assert!(ev.same_as(&AttrType::Evidential(speciality_domain())));
        assert!(!ev.same_as(&df));
        assert_eq!(df.to_string(), "int");
        assert_eq!(ev.to_string(), "evidence<speciality>");
    }
}
