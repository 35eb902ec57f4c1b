//! Error types for the query layer.

use evirel_algebra::AlgebraError;
use evirel_relation::RelationError;
use std::fmt;

/// Errors produced while lexing, parsing, planning, or executing a
/// query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A character the lexer cannot start a token with.
    Lex {
        /// Byte offset into the query text.
        offset: usize,
        /// Description.
        message: String,
    },
    /// A syntax error.
    Parse {
        /// Byte offset of the offending token.
        offset: usize,
        /// Description.
        message: String,
    },
    /// A referenced relation is not registered in the catalog.
    UnknownRelation {
        /// The missing name.
        name: String,
    },
    /// A `WHERE`, `ON`, or projection referenced an attribute that
    /// does not exist in its source's schema — caught at plan time,
    /// before execution starts.
    UnknownAttribute {
        /// The missing attribute.
        attr: String,
        /// The schema it was resolved against.
        schema: String,
    },
    /// An underlying algebra error during execution.
    Algebra(AlgebraError),
    /// An underlying relational error during execution.
    Relation(RelationError),
    /// Any other plan-layer execution failure.
    Execution {
        /// Description.
        message: String,
    },
}

impl QueryError {
    /// Convenience constructor for parse errors.
    pub fn parse(offset: usize, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            offset,
            message: message.into(),
        }
    }

    /// A stable machine-readable kind tag — the query service's wire
    /// protocol sends this with every `ERR` response so clients can
    /// branch without parsing English.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Lex { .. } => "lex",
            Self::Parse { .. } => "parse",
            Self::UnknownRelation { .. } => "unknown-relation",
            Self::UnknownAttribute { .. } => "unknown-attribute",
            Self::Algebra(_) => "algebra",
            Self::Relation(_) => "relation",
            Self::Execution { .. } => "execution",
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lex { offset, message } => write!(f, "lex error at offset {offset}: {message}"),
            Self::Parse { offset, message } => {
                write!(f, "parse error at offset {offset}: {message}")
            }
            Self::UnknownRelation { name } => write!(f, "unknown relation {name:?}"),
            Self::UnknownAttribute { attr, schema } => {
                write!(f, "unknown attribute {attr:?} in schema {schema:?}")
            }
            Self::Algebra(e) => write!(f, "execution error: {e}"),
            Self::Relation(e) => write!(f, "execution error: {e}"),
            Self::Execution { message } => write!(f, "execution error: {message}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Algebra(e) => Some(e),
            Self::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for QueryError {
    fn from(e: AlgebraError) -> Self {
        QueryError::Algebra(e)
    }
}

impl From<RelationError> for QueryError {
    fn from(e: RelationError) -> Self {
        QueryError::Relation(e)
    }
}

impl From<evirel_plan::PlanError> for QueryError {
    fn from(e: evirel_plan::PlanError) -> Self {
        use evirel_plan::PlanError;
        match e {
            PlanError::Algebra(a) => QueryError::Algebra(a),
            PlanError::Relation(r) => QueryError::Relation(r),
            PlanError::UnknownRelation { name } => QueryError::UnknownRelation { name },
            PlanError::UnknownAttribute { attr, schema } => {
                QueryError::UnknownAttribute { attr, schema }
            }
            other => QueryError::Execution {
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = QueryError::parse(10, "expected FROM");
        assert!(e.to_string().contains("offset 10"));
        let e = QueryError::UnknownRelation { name: "zz".into() };
        assert!(e.to_string().contains("zz"));
        let e: QueryError = AlgebraError::PredicateType { reason: "x".into() }.into();
        assert!(matches!(e, QueryError::Algebra(_)));
    }
}
