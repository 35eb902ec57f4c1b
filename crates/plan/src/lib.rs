//! # evirel-plan — logical plans and streaming operators
//!
//! The composable query layer over the §3 algebra, in two halves:
//!
//! 1. **Logical**: a [`LogicalPlan`] tree with a fluent builder
//!    (`scan(r).select(p).threshold(q).project(a)…`) covering all
//!    five paper operators (σ̃, ∪̃, π̃, ×̃, ⋈̃) plus the setop/rename
//!    extensions, and a rewrite optimizer ([`optimize`]) with
//!    predicate pushdown through π̃/×̃, projection pruning,
//!    threshold-into-select fusion, select fusion, and σ̃-under-∪̃
//!    distribution for key-crisp predicates. Every rule application
//!    is recorded and surfaced by `EXPLAIN`.
//! 2. **Physical**: a pull-based [`ops::Operator`] trait
//!    (`open`/`next`/`close` over extended tuples) with streaming
//!    implementations — scan, select, membership threshold, project,
//!    product, a hash-probing ⋈̃, and a key-indexed ∪̃/∩̃ merge that
//!    builds its index once and streams probes. Composed queries no
//!    longer materialize an [`evirel_relation::ExtendedRelation`]
//!    between operators, and side outputs (∪̃ conflict reports, κ
//!    statistics) flow through the shared [`ExecContext`] instead of
//!    being dropped. With [`ExecContext::parallelism`] > 1, shardable
//!    fragments run through the Volcano-style [`exchange`] operator:
//!    hash-partition by key, N worker threads, deterministic re-merge
//!    — parallel execution reproduces sequential output bit for bit.
//!
//! The algebra free functions (`select`, `union_extended`, …) remain
//! the *naive single-node implementations* of the same operators;
//! [`reference::execute_reference`] composes them into an independent
//! oracle that the equivalence property suite checks the streaming
//! executor against. `evirel-query` lowers EQL onto this crate, and
//! `evirel-integrate`'s merge stage runs through [`execute_merge`]
//! with its method-registry merger.
//!
//! ```
//! use evirel_plan::{scan, execute_plan, Bindings, Config, ExecContext};
//! use evirel_algebra::{Predicate, Threshold};
//! use evirel_workload::restaurant_db_a;
//!
//! let mut bindings = Bindings::new();
//! bindings.bind("ra", restaurant_db_a().restaurants);
//! let plan = scan("ra")
//!     .select(Predicate::is("speciality", ["si"]))
//!     .project(["rname", "speciality"])
//!     .build();
//! let mut ctx = ExecContext::new(&Config::default());
//! let result = execute_plan(&plan, &bindings, &mut ctx).unwrap();
//! assert_eq!(result.len(), 2); // the paper's Table 2, streamed
//! ```

pub mod chain;
mod config;
pub mod cost;
pub mod error;
pub mod exchange;
pub mod exec;
pub mod logical;
pub mod ops;
pub mod reference;
pub mod rewrite;
pub mod spill;

pub use config::{Config, DEFAULT_SLOW_QUERY_MS, MAX_PARALLELISM};
pub use cost::CostModel;
pub use error::PlanError;
pub use exec::{
    execute_merge, execute_optimized_metered, execute_plan, explain_plan, Meters, OpMeter,
};
pub use logical::{
    scan, schema_of, validate_plan, Binding, Bindings, BoundRelation, LogicalPlan, PlanBuilder,
    RelationSource,
};
pub use ops::{ExecContext, ExecStats, MergePairing, TupleMerger};
pub use rewrite::optimize;
// The storage-engine types that appear in this crate's public API
// (`BoundRelation::Stored`, `ExecContext::pool`), re-exported so
// callers need not depend on `evirel-store` directly.
pub use evirel_store::{BufferPool, StoredRelation};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, PlanError>;
