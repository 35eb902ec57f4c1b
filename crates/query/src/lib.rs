//! # evirel-query — a query language over extended relations
//!
//! The paper closes §3 with query processing over the integrated
//! relation; this crate provides a small SQL-flavoured surface
//! language (EQL) whose `WHERE` clause is exactly the paper's
//! selection-condition language and whose `WITH` clause is the
//! membership threshold condition `Q`:
//!
//! ```text
//! SELECT rname, phone, speciality
//! FROM ra UNION rb
//! WHERE speciality IS {si} AND rating >= 'gd'
//! WITH SN > 0.5;
//! ```
//!
//! * is-predicates:    `attr IS {v1, v2}`
//! * θ-predicates:     `attr >= 'gd'`, `a.k = b.k`,
//!   `n <= [{1,4}^0.6, {2,6}^0.4]` (evidence literals)
//! * compound:         `AND` (paper), `OR` / `NOT` (documented
//!   extensions)
//! * sources:          a named relation, `UNION` chains (the extended
//!   union ∪̃), and binary `JOIN … ON …` (⋈̃)
//! * thresholds:       `WITH SN > c`, `WITH SN >= c`, `WITH SN = 1`,
//!   `WITH SP >= c`
//!
//! Pipeline: [`lexer`] → [`parser`], which builds the statement's
//! one tree, its `evirel-plan` logical plan ([`ast::SelectStmt`]) →
//! [`plan`] validation → [`prepare`] (the one place text becomes an
//! optimized plan) → the `evirel-plan` executor, against a
//! [`catalog::Catalog`] of named extended relations. [`exec`] is that pipeline for a bare catalog,
//! [`session`] the same through a plan cache and a resource budget.
//!
//! ```
//! use evirel_query::{Catalog, execute};
//! use evirel_workload::restaurant_db_a;
//!
//! let mut catalog = Catalog::new();
//! catalog.register("ra", restaurant_db_a().restaurants);
//! let result = execute(&catalog, "SELECT * FROM ra WHERE speciality IS {si} WITH SN > 0;")
//!     .unwrap();
//! assert_eq!(result.len(), 2); // garden and wok — the paper's Table 2
//! ```

pub mod ast;
pub mod catalog;
pub mod durable;
pub mod error;
pub mod exec;
pub mod format;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod prepare;
pub mod session;
pub mod snapshot;

pub use catalog::{Catalog, SegmentHandle};
pub use durable::{
    DurabilityStats, DurableCatalog, DurableMetrics, StreamPlan, RETAINED_RECORDS_CAP,
};
pub use error::QueryError;
pub use exec::{execute, execute_with_report, QueryOutcome};
pub use parser::parse;
pub use plan::explain;
pub use prepare::{explain_with, normalize_eql, CacheStats, PlanCache, PreparedPlan};
pub use session::{register_query_collectors, Session, SessionBudget, SessionOutcome};
pub use snapshot::{CatalogSnapshot, SharedCatalog};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, QueryError>;
