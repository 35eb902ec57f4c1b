//! # evirel-algebra — the extended relational operations
//!
//! The heart of Lim, Srivastava & Shekhar (ICDE 1994), §3: a complete
//! algebra over extended relations. Every operation carries a tilde in
//! the paper (σ̃, ∪̃, π̃, ×̃, ⋈̃); here they are:
//!
//! | paper | module | function |
//! |-------|--------|----------|
//! | σ̃ (selection, §3.1)        | [`mod@select`]  | [`select::select`] |
//! | ∪̃ (extended union, §3.2)   | [`union`]   | [`union::union_extended`] |
//! | π̃ (projection, §3.3)       | [`mod@project`] | [`project::project`] |
//! | ×̃ (cartesian product, §3.4)| [`mod@product`] | [`product::product`] |
//! | ⋈̃ (join, §3.5)             | [`mod@join`]    | [`join::join`] |
//!
//! Supporting machinery:
//!
//! * [`predicate`] — the selection-condition AST: *is*-predicates,
//!   θ-predicates, and conjunctions (§3.1.1), plus the documented
//!   extensions `Or`/`Not`;
//! * [`support`] — the selection support function `F_SS` assigning a
//!   `(sn, sp)` pair to every (tuple, predicate) pair;
//! * [`threshold`] — membership threshold conditions `Q` (§3.1.3);
//! * [`conflict`] — conflict reports and resolution policies for the
//!   extended union (the paper's "inform the data administrators");
//! * [`setops`] — extensions: extended intersection and difference;
//! * [`rename`] — relation/attribute renaming;
//! * [`properties`] — empirical verifiers for the closure and
//!   boundedness properties of Theorem 1 (§3.6);
//! * [`partition`] — the key-hash [`Partitioner`] behind the plan
//!   layer's exchange operator (multiply-shift mix, multiply-high
//!   slots).
//!
//! All operations yield relations that satisfy CWA_ER by construction:
//! result tuples with `sn = 0` are *not stored* (they are exactly the
//! tuples the closed-world interpretation already accounts for), which
//! is how the closure property manifests in an executable system.
//!
//! ## Two layers: free functions vs. plans
//!
//! The free functions here are the *naive single-node
//! implementations*: each takes whole relations and materializes its
//! result. Composed queries should go through `evirel-plan` instead,
//! which builds a logical plan over the same operators, optimizes it
//! (predicate pushdown, threshold fusion, σ̃-under-∪̃ distribution),
//! and executes it with pull-based streaming operators that reuse
//! this crate's per-tuple kernels ([`support::BoundPredicate`],
//! [`union::merge_tuples`], the schema helpers) — so intermediates
//! are never materialized and ∪̃ conflict reports survive. The free
//! functions deliberately stay independent: they are the oracle the
//! plan layer's equivalence property suite is checked against.

pub mod conflict;
pub mod error;
pub mod join;
pub mod partition;
pub mod predicate;
pub mod product;
pub mod project;
pub mod properties;
pub mod rename;
pub mod select;
pub mod setops;
pub mod support;
pub mod threshold;
pub mod union;

pub use conflict::{AttributeConflict, ConflictPolicy, ConflictReport, PairKey};
pub use error::AlgebraError;
pub use join::join;
pub use partition::Partitioner;
pub use predicate::{Operand, Predicate, ThetaOp};
pub use product::product;
pub use project::project;
pub use rename::{rename_attribute, rename_relation};
pub use select::select;
pub use support::{predicate_support, BoundPredicate, Row};
pub use threshold::Threshold;
pub use union::{union_extended, MergeScratch, UnionOptions, UnionOutcome};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, AlgebraError>;
