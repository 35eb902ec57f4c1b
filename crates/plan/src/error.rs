//! Error type for the plan layer.

use evirel_algebra::AlgebraError;
use evirel_relation::RelationError;
use std::fmt;

/// Errors produced while resolving, optimizing, building, or running
/// a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// An underlying algebra error from an operator kernel
    /// (predicate support, tuple merging, projection validation, …).
    Algebra(AlgebraError),
    /// An underlying relational-model error.
    Relation(RelationError),
    /// A scanned relation is not bound in the [`crate::RelationSource`].
    UnknownRelation {
        /// The missing name.
        name: String,
    },
    /// A predicate or projection referenced an attribute absent from
    /// its input schema — caught at plan time, before any operator
    /// runs.
    UnknownAttribute {
        /// The missing attribute.
        attr: String,
        /// The schema it was resolved against.
        schema: String,
    },
    /// A custom tuple merger rejected a matched pair (e.g. an
    /// integration method applied to a value it cannot handle).
    Merge {
        /// Attribute being merged (empty when not attribute-specific).
        attr: String,
        /// Why the merger refused.
        reason: String,
    },
    /// A merge pairing referenced keys absent from the inputs.
    Pairing {
        /// Explanation.
        reason: String,
    },
    /// A storage-engine failure from a stored scan or a spilled merge
    /// build side.
    Store(evirel_store::StoreError),
    /// An exchange worker panicked while driving its shard plan (the
    /// panic message went to stderr).
    ShardPanicked {
        /// The shard whose worker panicked.
        shard: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Algebra(e) => write!(f, "algebra error: {e}"),
            Self::Relation(e) => write!(f, "relation error: {e}"),
            Self::UnknownRelation { name } => write!(f, "unknown relation {name:?}"),
            Self::UnknownAttribute { attr, schema } => {
                write!(f, "unknown attribute {attr:?} in schema {schema:?}")
            }
            Self::Merge { attr, reason } => {
                if attr.is_empty() {
                    write!(f, "merge failed: {reason}")
                } else {
                    write!(f, "merge failed on attribute {attr:?}: {reason}")
                }
            }
            Self::Pairing { reason } => write!(f, "invalid merge pairing: {reason}"),
            Self::Store(e) => write!(f, "storage error: {e}"),
            Self::ShardPanicked { shard } => write!(f, "exchange shard {shard} panicked"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Algebra(e) => Some(e),
            Self::Relation(e) => Some(e),
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for PlanError {
    fn from(e: AlgebraError) -> Self {
        PlanError::Algebra(e)
    }
}

impl From<RelationError> for PlanError {
    fn from(e: RelationError) -> Self {
        PlanError::Relation(e)
    }
}

impl From<evirel_store::StoreError> for PlanError {
    fn from(e: evirel_store::StoreError) -> Self {
        PlanError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = PlanError::UnknownRelation { name: "zz".into() };
        assert!(e.to_string().contains("zz"));
        let e = PlanError::UnknownAttribute {
            attr: "nope".into(),
            schema: "RA".into(),
        };
        assert!(e.to_string().contains("nope") && e.to_string().contains("RA"));
        let e = PlanError::Merge {
            attr: "seats".into(),
            reason: "aggregate needs numbers".into(),
        };
        assert!(e.to_string().contains("seats"));
        let e: PlanError = AlgebraError::PredicateType { reason: "x".into() }.into();
        assert!(matches!(e, PlanError::Algebra(_)));
    }
}
