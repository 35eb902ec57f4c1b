//! Renaming of relations and attributes (the classical ρ operator).
//!
//! Not described explicitly in the paper, but required by any usable
//! algebra — e.g. to align attribute names before a union, or to
//! disambiguate before a self-product.

use crate::error::AlgebraError;
use evirel_relation::cwa::CwaPolicy;
use evirel_relation::{AttrType, ExtendedRelation, Schema};
use std::sync::Arc;

/// Rename the relation itself.
pub fn rename_relation(rel: &ExtendedRelation, name: &str) -> ExtendedRelation {
    let schema = Arc::new(rel.schema().renamed(name.to_owned()));
    rebuild(rel, schema)
}

/// Rename one attribute, preserving its type and key-ness.
///
/// # Errors
/// * [`AlgebraError::Relation`] if `from` does not exist or `to`
///   already exists.
pub fn rename_attribute(
    rel: &ExtendedRelation,
    from: &str,
    to: &str,
) -> Result<ExtendedRelation, AlgebraError> {
    let out_schema = Arc::new(attribute_renamed_schema(rel.schema(), from, to)?);
    Ok(rebuild(rel, out_schema))
}

/// The schema of [`rename_attribute`]'s result — exposed for the plan
/// layer's streaming rename operator.
///
/// # Errors
/// As [`rename_attribute`].
pub fn attribute_renamed_schema(
    schema: &Schema,
    from: &str,
    to: &str,
) -> Result<Schema, AlgebraError> {
    let pos = schema.position(from)?;
    if schema.position(to).is_ok() {
        return Err(AlgebraError::Relation(
            evirel_relation::RelationError::DuplicateAttribute {
                name: to.to_owned(),
            },
        ));
    }
    let mut builder = Schema::builder(schema.name().to_owned());
    for (i, attr) in schema.attrs().iter().enumerate() {
        let name = if i == pos { to } else { attr.name() };
        builder = match (attr.is_key(), attr.ty()) {
            (true, AttrType::Definite(kind)) => builder.key(name, *kind),
            (false, AttrType::Definite(kind)) => builder.definite(name, *kind),
            (_, AttrType::Evidential(domain)) => builder.evidential(name, Arc::clone(domain)),
        };
    }
    Ok(builder.build()?)
}

fn rebuild(rel: &ExtendedRelation, schema: Arc<Schema>) -> ExtendedRelation {
    let mut out = ExtendedRelation::new(Arc::clone(&schema));
    for t in rel.iter() {
        // Tuple values are positionally identical; only names changed.
        let rebuilt = evirel_relation::Tuple::new(&schema, t.values().to_vec(), t.membership())
            .expect("renaming preserves tuple validity");
        // Renaming keeps every tuple the input holds, a zero-support
        // one included.
        out.insert_with_policy(rebuilt, CwaPolicy::AllowZero)
            .expect("renaming preserves keys");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, RelationBuilder, Value};

    fn rel() -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("R")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        RelationBuilder::new(schema)
            .tuple(|t| t.set_str("k", "a").set_evidence("d", [(&["x"][..], 1.0)]))
            .unwrap()
            .build()
    }

    #[test]
    fn rename_relation_keeps_tuples() {
        let r = rename_relation(&rel(), "S");
        assert_eq!(r.schema().name(), "S");
        assert_eq!(r.len(), 1);
        assert!(r.contains_key(&[Value::str("a")]));
    }

    #[test]
    fn rename_attribute_works() {
        let r = rename_attribute(&rel(), "d", "evidence").unwrap();
        assert!(r.schema().position("evidence").is_ok());
        assert!(r.schema().position("d").is_err());
        // Key attribute renaming keeps key-ness.
        let r = rename_attribute(&rel(), "k", "key").unwrap();
        assert!(r.schema().attr_by_name("key").unwrap().is_key());
    }

    #[test]
    fn rename_attribute_errors() {
        assert!(rename_attribute(&rel(), "zz", "y").is_err());
        assert!(rename_attribute(&rel(), "d", "k").is_err());
    }
}
