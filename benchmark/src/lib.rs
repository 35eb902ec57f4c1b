//! # The evirel repo benchmark
//!
//! Two binaries share this library:
//!
//! * `loadgen` drives a release `evirel-serve` child process over
//!   loopback TCP and reports what a client sees. It uses only the
//!   standard library and pins only the wire protocol and the server's
//!   command line.
//! * `replay` (feature `replay`) handles the same request streams
//!   in-process, one span around each call into a layer's public
//!   function, and reports where a request's time goes. Every symbol
//!   of the repository it calls is in `layers.rs`.
//!
//! See `README.md` for the workloads, the metrics and how they are
//! expected to move together.

pub mod digest;
pub mod metrics;
pub mod run;
pub mod scrape;
pub mod server;
pub mod span;
pub mod stats;
pub mod stream;
pub mod wire;

#[cfg(feature = "replay")]
pub mod layers;
