//! # evirel-testkit — the one copy of what the integration suites share
//!
//! The paper's specification lives in two oracles —
//! `evirel_plan::reference` for plans, `evirel_evidence::reference` for
//! combination — plus Theorem 1's closure and boundedness. Every suite
//! that pins an implementation against them needs the same few pieces,
//! and this crate holds one of each:
//!
//! * [`config`] — the configuration CI's `EVIREL_*` modes reach a test
//!   through, and the contexts and catalogs built from it;
//! * [`gen`] — generated pairs, the durability suites' small-domain
//!   relation, and hand-made hazard tuples no generator draws;
//! * [`sides`] — the memory / stored-left / stored-right / stored-both /
//!   forced-spill matrix a binary operator's inputs are bound in;
//! * [`compare`] — bit-for-bit and tolerant comparators for relations,
//!   conflict reports and counters;
//! * [`durable`] — `reseal`, segment bytes and follower convergence;
//! * [`TempDir`] — a directory that removes itself;
//! * [`wire`] — a blocking client for `evirel-serve`'s protocol, and
//!   readers for its `STATS` and `METRICS` text.
//!
//! It is a dev-dependency only, of integration suites (`tests/`) and
//! harnesses (`benches/`). A crate's unit tests cannot use it: the kit
//! links the crate under test as a separate copy, whose types are not
//! the unit tests' own.

pub mod compare;
pub mod durable;
pub mod gen;
pub mod sides;
pub mod wire;

pub use compare::{equivalent, identical, masked, same_report, same_tuples, OrFail};
pub use durable::{assert_converged, encode, reseal, segment_bytes, TempDir};
pub use gen::{definite_pair, generated_pair, hazardous_pair, pair, relation, small_domain};
pub use sides::{store, Sides, PAGE};
pub use wire::{connect, line, ok_body, roundtrip, seeded, series, stat};

use evirel_algebra::union::UnionOptions;
use evirel_algebra::ConflictPolicy;
use evirel_plan::{Config, ExecContext};

/// What every suite runs under, read from the environment: CI's
/// `EVIREL_THREADS=4` and 4 KiB-pool modes reach a test through here.
pub fn config() -> Config {
    Config::from_env()
}

/// A context under [`config`] with `options`.
pub fn exec_context(options: UnionOptions) -> ExecContext {
    let mut ctx = ExecContext::new(&config());
    ctx.union_options = options;
    ctx
}

/// A context under [`config`] at `threads` threads.
pub fn context_at(threads: usize) -> ExecContext {
    ExecContext::new(&Config {
        threads,
        ..config()
    })
}

/// The default options, but a total conflict resolves vacuously
/// instead of aborting the query.
pub fn vacuous() -> UnionOptions {
    UnionOptions {
        on_total_conflict: ConflictPolicy::Vacuous,
    }
}
