//! Attribute preprocessing (Figure 1): actual source relations →
//! virtual relations over the global schema.
//!
//! Combines a [`SchemaMapping`] (attribute renames) with per-attribute
//! [`DomainMapping`]s (value translation, possibly uncertainty-
//! introducing) and re-types attributes against a target global
//! schema. The output relations are union-compatible and ready for
//! entity identification and tuple merging.

use crate::domain_map::DomainMapping;
use crate::error::IntegrateError;
use crate::schema_map::SchemaMapping;
use evirel_relation::cwa::CwaPolicy;
use evirel_relation::{AttrValue, ExtendedRelation, Schema, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// A preprocessing specification for one source relation.
#[derive(Debug, Clone, Default)]
pub struct Preprocessor {
    schema_mapping: SchemaMapping,
    domain_mappings: HashMap<String, DomainMapping>,
    reliability: Option<f64>,
}

impl Preprocessor {
    /// An empty (identity) preprocessor.
    pub fn new() -> Preprocessor {
        Preprocessor::default()
    }

    /// Set the schema mapping.
    pub fn with_schema_mapping(mut self, m: SchemaMapping) -> Self {
        self.schema_mapping = m;
        self
    }

    /// Attach a domain mapping to a *global* attribute name.
    pub fn with_domain_mapping(mut self, attr: impl Into<String>, m: DomainMapping) -> Self {
        self.domain_mappings.insert(attr.into(), m);
        self
    }

    /// Treat this source as reliable only with probability `alpha`:
    /// every evidential attribute value is Shafer-discounted before
    /// combination (extension — see
    /// [`evirel_evidence::discount::discount`]). `alpha = 1` is the
    /// default (fully trusted source).
    pub fn with_reliability(mut self, alpha: f64) -> Self {
        self.reliability = Some(alpha);
        self
    }

    /// Preprocess `rel` into the global schema `target`.
    ///
    /// Steps: rename attributes per the schema mapping; translate each
    /// tuple's values per the domain mappings (identity for unmapped
    /// attributes); re-validate against `target`. A tuple with no
    /// support (`sn = 0`) is kept as it is: ∪̃ merges it into a matched
    /// tuple and drops it when unmatched, so the merge decides, not
    /// preprocessing.
    ///
    /// # Errors
    /// Mapping errors, plus tuple validation errors against the target
    /// schema (e.g. an attribute the mapping left definite where the
    /// global schema wants evidence over a different frame).
    pub fn apply(
        &self,
        rel: &ExtendedRelation,
        target: Arc<Schema>,
    ) -> Result<ExtendedRelation, IntegrateError> {
        let renamed = self.schema_mapping.apply(rel)?;
        let mut out = ExtendedRelation::new(Arc::clone(&target));
        for tuple in renamed.iter() {
            let mut values = Vec::with_capacity(target.arity());
            for target_attr in target.attrs() {
                let src_pos = renamed.schema().position(target_attr.name()).map_err(|_| {
                    IntegrateError::UnmappedAttribute {
                        attr: target_attr.name().to_owned(),
                    }
                })?;
                let raw = tuple.value(src_pos);
                let mut mapped = match self.domain_mappings.get(target_attr.name()) {
                    Some(dm) => dm.map_value(target_attr.name(), raw)?,
                    None => raw.clone(),
                };
                if let (Some(alpha), Some(domain)) = (self.reliability, target_attr.ty().domain()) {
                    // Discount evidential values by source reliability.
                    let ev = mapped.to_evidence(domain)?;
                    mapped = AttrValue::Evidential(
                        evirel_evidence::discount(&ev, &alpha)
                            .map_err(evirel_relation::RelationError::from)?,
                    );
                }
                values.push(mapped);
            }
            let rebuilt = Tuple::new(&target, values, tuple.membership())?;
            out.insert_with_policy(rebuilt, CwaPolicy::AllowZero)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain_map::DomainMapping;
    use evirel_relation::{AttrDomain, RelationBuilder, Value, ValueKind};

    /// Source DB stores ratings as letter grades in an attribute
    /// called `grade`; the global schema wants `rating` over
    /// {avg, gd, ex}.
    #[test]
    fn end_to_end_preprocessing() {
        let source_schema = Arc::new(
            Schema::builder("src")
                .key_str("name")
                .definite("grade", ValueKind::Str)
                .build()
                .unwrap(),
        );
        let source = RelationBuilder::new(source_schema)
            .tuple(|t| t.set_str("name", "wok").set_str("grade", "A"))
            .unwrap()
            .tuple(|t| t.set_str("name", "olive").set_str("grade", "B+"))
            .unwrap()
            .build();

        let rating = Arc::new(AttrDomain::categorical("rating", ["avg", "gd", "ex"]).unwrap());
        let global = Arc::new(
            Schema::builder("global")
                .key_str("name")
                .evidential("rating", Arc::clone(&rating))
                .build()
                .unwrap(),
        );

        let pre = Preprocessor::new()
            .with_schema_mapping(SchemaMapping::identity().map("grade", "rating"))
            .with_domain_mapping(
                "rating",
                DomainMapping::new(Arc::clone(&rating))
                    .to_definite("A", "ex")
                    .to_uncertain(
                        "B+",
                        vec![
                            (vec![Value::str("gd")], 0.7),
                            (vec![Value::str("gd"), Value::str("ex")], 0.3),
                        ],
                    ),
            );

        let out = pre.apply(&source, Arc::clone(&global)).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().name(), "global");
        // "A" became the definite value ex (stored as definite, legal
        // in an evidential attribute).
        let wok = out.get_by_key(&[Value::str("wok")]).unwrap();
        assert_eq!(wok.value(1).as_definite(), Some(&Value::str("ex")));
        // "B+" became a genuine evidence set.
        let olive = out.get_by_key(&[Value::str("olive")]).unwrap();
        let ev = olive.value(1).as_evidential().unwrap();
        assert_eq!(ev.focal_count(), 2);
    }

    #[test]
    fn missing_target_attribute_reported() {
        let source_schema = Arc::new(Schema::builder("src").key_str("name").build().unwrap());
        let source = RelationBuilder::new(source_schema)
            .tuple(|t| t.set_str("name", "x"))
            .unwrap()
            .build();
        let rating = Arc::new(AttrDomain::categorical("rating", ["gd"]).unwrap());
        let global = Arc::new(
            Schema::builder("g")
                .key_str("name")
                .evidential("rating", rating)
                .build()
                .unwrap(),
        );
        let pre = Preprocessor::new();
        assert!(matches!(
            pre.apply(&source, global),
            Err(IntegrateError::UnmappedAttribute { .. })
        ));
    }

    #[test]
    fn reliability_discounts_evidential_values() {
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
        let out = Preprocessor::new()
            .with_reliability(0.8)
            .apply(&rel, Arc::clone(&schema))
            .unwrap();
        let t = out.get_by_key(&[Value::str("a")]).unwrap();
        let m = t.value(1).as_evidential().unwrap();
        let x = d.subset_of_values([&Value::str("x")]).unwrap();
        assert!((m.mass_of(&x) - 0.8).abs() < 1e-12);
        assert!((m.mass_of(&m.frame().omega()) - 0.2).abs() < 1e-12);
        // An untrusted source (alpha = 0) becomes vacuous but keeps
        // its tuples.
        let out = Preprocessor::new()
            .with_reliability(0.0)
            .apply(&rel, Arc::clone(&schema))
            .unwrap();
        let t = out.get_by_key(&[Value::str("a")]).unwrap();
        assert!(t.value(1).as_evidential().unwrap().is_vacuous());
    }

    /// A zero-support input tuple passes preprocessing, through a
    /// rename and a reliability discount, with its membership
    /// unchanged.
    #[test]
    fn zero_support_tuple_passes_preprocessing() {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let source = Arc::new(
            Schema::builder("src")
                .key_str("k")
                .evidential("e", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let mut rel = RelationBuilder::new(Arc::clone(&source))
            .tuple(|t| t.set_str("k", "a").set_evidence("e", [(&["x"][..], 1.0)]))
            .unwrap()
            .build();
        let ghost = Tuple::new(
            &source,
            vec![
                AttrValue::Definite(Value::str("b")),
                rel.iter().next().unwrap().value(1).clone(),
            ],
            evirel_relation::SupportPair::new(0.0, 1.0).unwrap(),
        )
        .unwrap();
        rel.insert_with_policy(ghost, CwaPolicy::AllowZero).unwrap();
        let global = Arc::new(
            Schema::builder("g")
                .key_str("k")
                .evidential("d", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let out = Preprocessor::new()
            .with_schema_mapping(SchemaMapping::identity().map("e", "d"))
            .with_reliability(0.9)
            .apply(&rel, global)
            .unwrap();
        assert_eq!(out.len(), 2);
        let b = out.get_by_key(&[Value::str("b")]).unwrap();
        assert_eq!(b.membership().sn(), 0.0);
        assert_eq!(b.membership().sp(), 1.0);
    }

    #[test]
    fn identity_preprocessing_keeps_relation() {
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
        let out = Preprocessor::new()
            .apply(&rel, Arc::clone(&schema))
            .unwrap();
        assert!(out.approx_eq(&rel));
    }
}
