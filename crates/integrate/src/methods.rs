//! Attribute integration methods (Figure 1's "Attribute Integration
//! Methods").
//!
//! §1.3: the evidential approach and Dayal's aggregate approach are
//! *"separate classes of attribute integration methods which can
//! co-exist in the integration framework."* The [`MethodRegistry`]
//! realizes that: each attribute of the integrated relation is
//! assigned the method that derives it.

use crate::error::IntegrateError;
use evirel_algebra::ConflictPolicy;
use evirel_baselines::AggregateFn;
use std::collections::HashMap;
use std::fmt;

/// How one attribute of the integrated relation is derived from the
/// matched source values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IntegrationMethod {
    /// Dempster's rule of combination on evidence sets — the paper's
    /// contribution, ∪̃'s own attribute step, and the default for
    /// evidential attributes.
    #[default]
    Evidential,
    /// Dayal's aggregate resolution — numeric definite attributes.
    Aggregate(AggregateFn),
    /// Trust the left source.
    KeepLeft,
    /// Trust the right source.
    KeepRight,
}

impl fmt::Display for IntegrationMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrationMethod::Evidential => write!(f, "evidential(dempster)"),
            IntegrationMethod::Aggregate(a) => write!(f, "aggregate({a})"),
            IntegrationMethod::KeepLeft => write!(f, "keep-left"),
            IntegrationMethod::KeepRight => write!(f, "keep-right"),
        }
    }
}

/// Per-attribute method assignments with a type-aware default.
///
/// Resolution order for an attribute: explicit [`MethodRegistry::assign`]
/// → explicit [`MethodRegistry::with_default`] → built-in fallback
/// ([`IntegrationMethod::Evidential`] for evidential attributes,
/// [`IntegrationMethod::KeepLeft`] for open definite ones), so the
/// zero-configuration pipeline works on mixed schemas.
#[derive(Debug, Clone, Default)]
pub struct MethodRegistry {
    default: Option<IntegrationMethod>,
    per_attr: HashMap<String, IntegrationMethod>,
    /// Resolution policy for total conflicts inside evidential methods.
    pub on_total_conflict: ConflictPolicy,
}

impl MethodRegistry {
    /// Registry with the type-aware built-in default.
    pub fn new() -> MethodRegistry {
        MethodRegistry::default()
    }

    /// Set an explicit default method for all unassigned attributes.
    pub fn with_default(mut self, m: IntegrationMethod) -> Self {
        self.default = Some(m);
        self
    }

    /// Assign a method to one attribute.
    pub fn assign(mut self, attr: impl Into<String>, m: IntegrationMethod) -> Self {
        self.per_attr.insert(attr.into(), m);
        self
    }

    /// Set the total-conflict policy used by evidential methods.
    pub fn with_conflict_policy(mut self, p: ConflictPolicy) -> Self {
        self.on_total_conflict = p;
        self
    }

    /// The method for an attribute definition.
    pub fn method_for_attr(&self, attr: &evirel_relation::AttrDef) -> IntegrationMethod {
        if let Some(m) = self.per_attr.get(attr.name()) {
            return *m;
        }
        if let Some(m) = self.default {
            return m;
        }
        if attr.ty().is_evidential() {
            IntegrationMethod::Evidential
        } else {
            IntegrationMethod::KeepLeft
        }
    }

    /// Validate the assignments against a schema: aggregates need
    /// numeric definite attributes, evidential methods need evidential
    /// (or in-domain definite) attributes.
    ///
    /// # Errors
    /// [`IntegrateError::MethodMismatch`] on the first bad assignment.
    pub fn validate(&self, schema: &evirel_relation::Schema) -> Result<(), IntegrateError> {
        for attr in schema.attrs() {
            if attr.is_key() {
                continue;
            }
            let method = self.method_for_attr(attr);
            match (method, attr.ty()) {
                (
                    IntegrationMethod::Aggregate(_),
                    evirel_relation::AttrType::Definite(evirel_relation::ValueKind::Str),
                ) => {
                    return Err(IntegrateError::MethodMismatch {
                        attr: attr.name().to_owned(),
                        reason: "aggregate over non-numeric kind string".to_owned(),
                    });
                }
                (IntegrationMethod::Aggregate(_), evirel_relation::AttrType::Definite(_)) => {}
                (IntegrationMethod::Aggregate(_), evirel_relation::AttrType::Evidential(_)) => {
                    return Err(IntegrateError::MethodMismatch {
                        attr: attr.name().to_owned(),
                        reason: "aggregate over evidential attribute (use Evidential)".to_owned(),
                    });
                }
                (IntegrationMethod::Evidential, evirel_relation::AttrType::Definite(_)) => {
                    return Err(IntegrateError::MethodMismatch {
                        attr: attr.name().to_owned(),
                        reason: "evidential combination over open definite attribute \
                                 (use KeepLeft/KeepRight or Aggregate)"
                            .to_owned(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, Schema, ValueKind};
    use std::sync::Arc;

    fn schema() -> Schema {
        let d = Arc::new(AttrDomain::categorical("d", ["x"]).unwrap());
        Schema::builder("r")
            .key_str("k")
            .definite("salary", ValueKind::Int)
            .definite("dept", ValueKind::Str)
            .evidential("d", d)
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_with_type_aware_default() {
        let s = schema();
        let r = MethodRegistry::new()
            .assign("salary", IntegrationMethod::Aggregate(AggregateFn::Average));
        assert_eq!(
            r.method_for_attr(s.attr_by_name("salary").unwrap()),
            IntegrationMethod::Aggregate(AggregateFn::Average)
        );
        // Built-in fallback: evidential attr → Dempster, definite → KeepLeft.
        assert_eq!(
            r.method_for_attr(s.attr_by_name("d").unwrap()),
            IntegrationMethod::Evidential
        );
        assert_eq!(
            r.method_for_attr(s.attr_by_name("dept").unwrap()),
            IntegrationMethod::KeepLeft
        );
        // Explicit default overrides the fallback.
        let r = MethodRegistry::new().with_default(IntegrationMethod::KeepRight);
        assert_eq!(
            r.method_for_attr(s.attr_by_name("d").unwrap()),
            IntegrationMethod::KeepRight
        );
        // Zero-config registry validates against mixed schemas.
        assert!(MethodRegistry::new().validate(&s).is_ok());
    }

    #[test]
    fn validation_catches_mismatches() {
        // Aggregate over a string attribute: rejected.
        let r = MethodRegistry::new()
            .with_default(IntegrationMethod::KeepLeft)
            .assign("dept", IntegrationMethod::Aggregate(AggregateFn::Max));
        assert!(matches!(
            r.validate(&schema()),
            Err(IntegrateError::MethodMismatch { .. })
        ));
        // Aggregate over the evidential attribute: rejected.
        let r = MethodRegistry::new()
            .with_default(IntegrationMethod::KeepLeft)
            .assign("d", IntegrationMethod::Aggregate(AggregateFn::Max));
        assert!(r.validate(&schema()).is_err());
        // Evidential over an open definite attribute: rejected.
        let r = MethodRegistry::new().with_default(IntegrationMethod::Evidential);
        assert!(r.validate(&schema()).is_err());
        // A sensible registry passes.
        let r = MethodRegistry::new()
            .with_default(IntegrationMethod::KeepLeft)
            .assign("salary", IntegrationMethod::Aggregate(AggregateFn::Average))
            .assign("d", IntegrationMethod::Evidential);
        assert!(r.validate(&schema()).is_ok());
    }

    #[test]
    fn display_names() {
        assert_eq!(
            IntegrationMethod::Evidential.to_string(),
            "evidential(dempster)"
        );
        assert_eq!(IntegrationMethod::KeepLeft.to_string(), "keep-left");
        assert_eq!(IntegrationMethod::KeepRight.to_string(), "keep-right");
        assert_eq!(
            IntegrationMethod::Aggregate(AggregateFn::Average).to_string(),
            "aggregate(avg)"
        );
    }
}
