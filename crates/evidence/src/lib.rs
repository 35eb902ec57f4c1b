//! # evirel-evidence — a Dempster–Shafer theory-of-evidence substrate
//!
//! This crate implements, from scratch, the portions of the
//! Dempster–Shafer theory of evidence (G. Shafer, *A Mathematical
//! Theory of Evidence*, Princeton, 1976) required by Lim, Srivastava &
//! Shekhar, *"Resolving Attribute Incompatibility in Database
//! Integration: An Evidential Reasoning Approach"* (ICDE 1994):
//!
//! * [`Frame`] — a finite frame of discernment Ω (an attribute domain);
//! * [`FocalSet`] — a canonical bitset subset of a frame;
//! * [`MassFunction`] — a basic probability assignment `m : 2^Ω → [0,1]`
//!   with `m(∅) = 0` and `Σ m = 1`, generic over the numeric
//!   [`Weight`] so the paper's exact fractions (e.g. `3/7`, `2/21`)
//!   can be verified with [`Ratio`] arithmetic while production code
//!   uses `f64`;
//! * belief `Bel`, plausibility `Pls`, commonality `Q` and related
//!   functionals ([`MassFunction::bel`], [`MassFunction::pls`], …);
//! * Dempster's rule of combination with explicit conflict mass κ
//!   ([`combine::dempster`]), plus alternative rules (Yager,
//!   Dubois–Prade, mixing) in [`rules`] for ablation studies;
//! * decision transforms (pignistic, plausibility) in [`transform`];
//! * focal-element approximation (summarization) in [`approx`].
//!
//! The crate is deliberately self-contained: it has **no**
//! dependencies, so the relational layers built on top of it
//! (`evirel-relation`, `evirel-algebra`) inherit no transitive
//! baggage.
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module | What it implements |
//! |---|---|---|
//! | §2.1 frames Ω | [`frame`], [`interner`] | attribute domains; incremental value→bit interning |
//! | §2.1 subsets of Ω | [`focal`] | canonical bitset focal elements (`u128` inline / boxed words) |
//! | §2.1 mass, Bel, Pls | [`mass`], [`measures`] | basic probability assignments and derived functionals |
//! | §2.2 Dempster's rule | [`combine`] | the hot-path combination engine (singleton fast path, bitset memo) |
//! | §2.2 alternatives | [`rules`] | Yager, Dubois–Prade, mixing — ablation rules |
//! | — (Shafer 1976) | [`mod@discount`] | source discounting and Dempster conditioning |
//! | — (Lowrance 1986) | [`approx`] | focal-element summarization for long chains |
//! | — (Smets) | [`transform`] | pignistic / plausibility decision transforms |
//! | exact table checks | [`ratio`], [`weight`] | `i128` rationals behind the generic [`Weight`] |
//! | executable spec | [`mod@reference`] | the retained `BTreeSet` implementation the engine is tested against |
//!
//! ## Example
//!
//! The running example of the paper (§2.1–§2.2): the speciality of the
//! restaurant *wok* according to two source databases.
//!
//! ```
//! use evirel_evidence::{Frame, MassFunction, combine};
//! use std::sync::Arc;
//!
//! let frame = Arc::new(Frame::new(
//!     "speciality",
//!     ["american", "hunan", "sichuan", "cantonese", "mughalai", "italian"],
//! ));
//!
//! // DB1: m1({cantonese}) = 1/2, m1({hunan, sichuan}) = 1/3, m1(Ω) = 1/6
//! let m1 = MassFunction::<f64>::builder(Arc::clone(&frame))
//!     .add(["cantonese"], 1.0 / 2.0).unwrap()
//!     .add(["hunan", "sichuan"], 1.0 / 3.0).unwrap()
//!     .add_omega(1.0 / 6.0)
//!     .build().unwrap();
//!
//! // DB2: m2({cantonese, hunan}) = 1/2, m2({hunan}) = 1/4, m2(Ω) = 1/4
//! let m2 = MassFunction::<f64>::builder(Arc::clone(&frame))
//!     .add(["cantonese", "hunan"], 1.0 / 2.0).unwrap()
//!     .add(["hunan"], 1.0 / 4.0).unwrap()
//!     .add_omega(1.0 / 4.0)
//!     .build().unwrap();
//!
//! let combined = combine::dempster(&m1, &m2).unwrap();
//! assert!((combined.conflict - 1.0 / 8.0).abs() < 1e-12);          // κ = 1/8
//! let cantonese = frame.subset(["cantonese"]).unwrap();
//! assert!((combined.mass.mass_of(&cantonese) - 3.0 / 7.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

pub mod approx;
pub mod combine;
pub mod discount;
pub mod error;
pub mod focal;
pub mod frame;
pub mod interner;
pub mod mass;
pub mod measures;
pub mod ratio;
pub mod reference;
pub mod rules;
pub mod transform;
pub mod weight;

pub use combine::{
    dempster, dempster_all, dempster_with, Combination, Entries, FocalView, Scratch,
};
pub use discount::{condition, discount, weight_of_conflict};
pub use error::EvidenceError;
pub use focal::FocalSet;
pub use frame::Frame;
pub use interner::FrameInterner;
pub use mass::{MassBuilder, MassFunction};
pub use ratio::Ratio;
pub use weight::Weight;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, EvidenceError>;
