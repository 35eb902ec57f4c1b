//! # evirel-integrate — the database integration framework
//!
//! The paper's Figure 1 as an executable pipeline:
//!
//! ```text
//! R_A ──┐                                        ┌── R_B
//!       ▼                                        ▼
//!   attribute preprocessing  (schema mapping + attribute domain info)
//!       │                                        │
//!       ▼                                        ▼
//!      R'_A ──── entity identification ──────► R'_B
//!                  (tuple matching info)
//!                         │
//!                         ▼
//!                   tuple merging     (attribute integration methods)
//!                         │
//!                         ▼
//!                 integrated relation ──► query processing
//! ```
//!
//! * [`schema_map`] — attribute correspondences between a source
//!   relation and the global schema;
//! * [`domain_map`] — attribute domain information: value-level maps
//!   from source domains to global domains, including one-to-many
//!   mappings that *introduce* uncertainty (DeMichiel's observation,
//!   §1 of the paper);
//! * [`preprocess`] — applies both to turn actual source relations
//!   into virtual relations over the global schema;
//! * [`entity_id`] — tuple matching; the paper assumes a shared
//!   definite key (the [`entity_id::KeyMatcher`]), with a pluggable
//!   trait for fuzzier matchers;
//! * [`methods`] — per-attribute integration methods: evidential
//!   combination (the paper's contribution) coexisting with Dayal-style
//!   aggregates, exactly as §1.3 proposes;
//! * [`merge`] — tuple merging driven by the method registry;
//! * [`pipeline`] — the end-to-end [`pipeline::Integrator`] with a
//!   stage-by-stage trace.

pub mod domain_map;
pub mod entity_id;
pub mod error;
pub mod merge;
pub mod methods;
pub mod pipeline;
pub mod preprocess;
pub mod schema_map;

pub use domain_map::{DomainMapping, MappedValue};
pub use entity_id::{EntityMatcher, KeyMatcher, MatchOutcome, NormalizedKeyMatcher};
pub use error::IntegrateError;
pub use merge::{merge_relations, MergeOutcome};
pub use methods::{IntegrationMethod, MethodRegistry};
pub use pipeline::{IntegrationOutcome, Integrator, StageTrace};
pub use preprocess::Preprocessor;
pub use schema_map::SchemaMapping;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, IntegrateError>;
