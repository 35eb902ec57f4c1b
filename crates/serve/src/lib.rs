//! # evirel-serve — a concurrent query service over extended relations
//!
//! The paper's integration operators assume a *database service*
//! context: many clients querying and merging evidential relations at
//! once. This crate is that front-end — a registry-free (std-only)
//! TCP server wrapping the EQL engine of [`evirel_query`]:
//!
//! * **Epoch-snapshot catalog** — every query pins one immutable
//!   catalog generation ([`evirel_query::SharedCatalog`]); `MERGE`
//!   writes publish the next generation atomically (RCU-style swap),
//!   so readers never observe a half-updated binding set.
//! * **Prepared-plan cache** — plans are keyed by normalized EQL in
//!   a shared [`evirel_query::PlanCache`] and stay valid until a
//!   relation they scan is rebound; repeated service traffic skips
//!   lowering/validation/rewrite, a `MERGE` into another relation
//!   costs readers nothing, and a rebind invalidates exactly the
//!   plans that scanned the old binding.
//! * **Admission control** — a bounded worker pool serves sessions;
//!   connections beyond the pending-queue bound get a typed `BUSY`
//!   frame instead of an unbounded thread pile. Each worker session
//!   runs under a [`evirel_query::SessionBudget`] carving the
//!   catalog's thread count and pool budget across the pool.
//! * **Length-prefixed wire protocol** — see [`protocol`], the one
//!   frame codec: the server, the follower and the [`load`] driver
//!   behind the `evirel-bombard` binary all speak it. It is small
//!   enough to re-implement from its doc comment, and the repository
//!   benchmark's std-only client does exactly that, pinning
//!   interoperability from outside.
//! * **Streaming replication** — a durable server streams its
//!   journal to standbys over the `FOLLOW` verb ([`replicate`]);
//!   followers apply with the primary's fsync-before-publish
//!   discipline, serve reads at the applied generation, reject
//!   writes with `ERR readonly`, and can be promoted (`PROMOTE`, or
//!   `--promote-on-disconnect`) when the primary dies.
//! * **Observability** — every server owns an
//!   [`evirel_obs::MetricsRegistry`], and every number it keeps is a
//!   handle there: per-verb request counters and latency histograms,
//!   queue-depth/worker gauges, byte counters, the durable catalog's
//!   and replication's pushed series, plus pull-collectors mirroring
//!   the plan cache and buffer pool and deriving replication lag and
//!   heartbeat age. The `METRICS` verb scrapes it as Prometheus text;
//!   `STATS` renders the same registry human-readably, so the two can
//!   never disagree; [`ServerHandle::join`] returns it. Queries
//!   at or above [`ServeConfig::slow_query_ms`] emit structured
//!   `slow_query` events with per-stage span timings.

//!
//! ```no_run
//! use evirel_query::Catalog;
//! use evirel_serve::{start, ServeConfig};
//!
//! let mut catalog = Catalog::new();
//! catalog.register("ra", evirel_workload::restaurant_db_a().restaurants);
//! let handle = start(catalog, ServeConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! // ... clients connect, QUERY/MERGE/..., one sends SHUTDOWN ...
//! let metrics = handle.join();
//! assert_eq!(metrics.value("evirel_serve_panics_total", &[]), Some(0));
//! ```

pub mod load;
pub mod protocol;
pub mod replicate;
pub mod server;

pub use protocol::{
    read_frame, read_frame_with, write_frame, FrameBuf, Request, Response, StreamFrame,
    MAX_FRAME_BYTES, SEG_CHUNK_BYTES,
};
pub use replicate::{
    apply_stream, follower_loop, serve_follow, ApplyCtx, FollowConfig, FollowerExit,
    ReplicationMetrics, SenderCtx,
};
pub use server::{start, start_with_durability, ServeConfig, ServerHandle};
