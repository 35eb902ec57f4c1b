//! The thread-pool TCP server: bounded admission, per-session
//! budgets, epoch-snapshot reads, serialized generation-bumping
//! writes.
//!
//! ## Shape
//!
//! One **accept thread** owns the listener. Each accepted connection
//! goes into a bounded pending queue; when the queue is full the
//! connection gets a single [`Response::Busy`] frame and is closed —
//! overload is a typed, observable outcome, never an unbounded pile
//! of threads. **N worker threads** pop connections and serve each
//! one to completion (a connection is a session: many requests,
//! serial). Every worker session holds a [`Session`] over the one
//! shared [`SharedCatalog`] + [`PlanCache`], with a
//! [`SessionBudget`] carving `EVIREL_THREADS` / `EVIREL_BUFFER_BYTES`
//! evenly across the workers — W concurrent sessions cannot multiply
//! the process budgets by W.
//!
//! ## Concurrency contract
//!
//! Reads (`QUERY`/`EXPLAIN`) pin one catalog generation for their
//! whole execution; they never block writers, never wait for one (a
//! pin waits at most for another thread's pointer store), and no
//! writer can change what they see. Writes (`MERGE`) execute their
//! query against a pinned snapshot, then publish the result as the
//! next generation — durably through [`DurableCatalog::bind`], the
//! one write path, or in memory through [`SharedCatalog::update_at`]
//! when there is no data directory. Writers queue on the durable
//! mutex (then the catalog's writer mutex) for the whole of their
//! segment write and journal fsync — `evirel_catalog_writer_wait_seconds`
//! is that queue — and a reader that arrives meanwhile is served from
//! the generation before; it sees the whole new generation once the
//! fsync'd result is swapped in, or none of it. A `MERGE` into one
//! relation leaves the cached plans over the others valid. Worker
//! panics are caught per-request
//! ([`std::panic::catch_unwind`]) and surfaced as `ERR panic` frames,
//! so one poisoned request cannot take down a worker or the process.

use crate::protocol::{read_frame_with, write_frame, Request, Response};
use crate::replicate::{
    follower_loop, serve_follow, ApplyCtx, FollowerExit, RetryPolicy, SenderCtx,
};
use evirel_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use evirel_query::{
    register_query_collectors, Catalog, DurableCatalog, DurableMetrics, PlanCache, Session,
    SessionBudget, SharedCatalog,
};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Standby configuration: where the primary is and what to do when
/// it goes away.
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// The primary's address (`host:port`) to `FOLLOW`.
    pub primary: String,
    /// Promote automatically (drop read-only mode) once
    /// `retry_budget` consecutive reconnect attempts fail. Off by
    /// default: unattended promotion risks split-brain when the
    /// outage is a network partition rather than a dead primary.
    pub promote_on_disconnect: bool,
    /// Consecutive connection failures tolerated before
    /// `promote_on_disconnect` fires (ignored when it is off — the
    /// follower then retries forever).
    pub retry_budget: u32,
    /// First-reconnect backoff; doubles per consecutive failure.
    pub initial_backoff: Duration,
    /// Reconnect backoff ceiling.
    pub max_backoff: Duration,
}

impl FollowConfig {
    /// A standby of `primary` with default retry policy and manual
    /// promotion.
    pub fn new(primary: impl Into<String>) -> FollowConfig {
        FollowConfig {
            primary: primary.into(),
            promote_on_disconnect: false,
            retry_budget: 5,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — the number of sessions served concurrently.
    pub workers: usize,
    /// Pending-connection queue bound; connections beyond it are
    /// rejected with `BUSY` (admission control).
    pub max_pending: usize,
    /// Poll interval for idle connections: how often a worker blocked
    /// on a quiet session re-checks the shutdown flag. Not a
    /// disconnect timeout — idle sessions stay connected.
    pub poll_interval: Duration,
    /// Honor the `SHUTDOWN` verb (and `PROMOTE`) from non-loopback
    /// peers. Off by default: when `addr` binds a public interface,
    /// any client that can connect could otherwise terminate — or
    /// promote — the server. Loopback clients (and
    /// [`ServerHandle::shutdown`]) always work.
    pub allow_remote_shutdown: bool,
    /// Run as a replication standby of another server. Requires
    /// durability (a data directory): the follower journals every
    /// replicated record before publishing it, exactly like a
    /// primary journals its merges. While following, the server is
    /// read-only (`MERGE` → `ERR readonly`) until promoted.
    pub follow: Option<FollowConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_pending: 1024,
            poll_interval: Duration::from_millis(100),
            allow_remote_shutdown: false,
            follow: None,
        }
    }
}

/// Monotonic server counters. Each field is a handle onto a series in
/// the server's [`MetricsRegistry`] — `STATS`, `METRICS`, and
/// [`ServerHandle::stats`] all read the same underlying atomics, so
/// the numbers cannot disagree across surfaces.
#[derive(Debug)]
pub struct ServerStats {
    /// Connections admitted to the pending queue.
    pub accepted: Counter,
    /// Connections rejected with `BUSY` at the admission gate.
    pub rejected_busy: Counter,
    /// Sessions served to completion by workers.
    pub sessions: Counter,
    /// Requests handled (any verb, any outcome).
    pub requests: Counter,
    /// `ERR` responses sent (typed failures, including protocol).
    pub errors: Counter,
    /// Worker panics caught and converted to `ERR panic`.
    pub panics: Counter,
    /// Successful `MERGE` writes (generation bumps).
    pub merges: Counter,
}

/// A plain-data copy of [`ServerStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections admitted to the pending queue.
    pub accepted: u64,
    /// Connections rejected with `BUSY`.
    pub rejected_busy: u64,
    /// Sessions served to completion.
    pub sessions: u64,
    /// Requests handled.
    pub requests: u64,
    /// `ERR` responses sent.
    pub errors: u64,
    /// Worker panics caught.
    pub panics: u64,
    /// Successful `MERGE` writes.
    pub merges: u64,
}

impl ServerStats {
    fn new(registry: &MetricsRegistry) -> ServerStats {
        ServerStats {
            accepted: registry.counter(
                "evirel_serve_connections_accepted_total",
                "Connections admitted to the pending queue",
                &[],
            ),
            rejected_busy: registry.counter(
                "evirel_serve_busy_rejected_total",
                "Connections rejected with BUSY at the admission gate",
                &[],
            ),
            sessions: registry.counter(
                "evirel_serve_sessions_total",
                "Sessions served to completion by workers",
                &[],
            ),
            requests: registry.counter(
                "evirel_serve_requests_handled_total",
                "Requests handled, any verb, any outcome",
                &[],
            ),
            errors: registry.counter(
                "evirel_serve_request_errors_total",
                "ERR responses sent (typed failures, including protocol)",
                &[],
            ),
            panics: registry.counter(
                "evirel_serve_panics_total",
                "Worker panics caught and converted to ERR panic",
                &[],
            ),
            merges: registry.counter(
                "evirel_serve_merges_total",
                "Successful MERGE writes (generation bumps)",
                &[],
            ),
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.get(),
            rejected_busy: self.rejected_busy.get(),
            sessions: self.sessions.get(),
            requests: self.requests.get(),
            errors: self.errors.get(),
            panics: self.panics.get(),
            merges: self.merges.get(),
        }
    }
}

/// The `verb` label values the per-verb series pre-register (the
/// protocol's verbs plus `invalid` for unparseable requests). Handles
/// are created once at startup so the per-request hot path touches
/// only atomics, never the registry lock.
const VERB_LABELS: [&str; 10] = [
    "ping", "query", "explain", "merge", "stats", "metrics", "follow", "promote", "shutdown",
    "invalid",
];

/// Per-verb observation handles.
struct VerbMetrics {
    /// `evirel_serve_requests_total{verb=…}`.
    requests: Counter,
    /// `evirel_serve_request_seconds{verb=…}`.
    latency: Histogram,
}

/// Serve-layer instrumentation beyond the [`ServerStats`] counters:
/// per-verb traffic, queue pressure, worker utilization, wire volume.
struct ServeMetrics {
    queue_depth: Gauge,
    workers_busy: Gauge,
    bytes_read: Counter,
    bytes_written: Counter,
    /// `evirel_catalog_writer_wait_seconds`: how long a `MERGE`, its
    /// result computed, queued behind other writers before its own
    /// publish began.
    writer_wait: Histogram,
    verbs: BTreeMap<&'static str, VerbMetrics>,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> ServeMetrics {
        let verbs = VERB_LABELS
            .iter()
            .map(|&verb| {
                (
                    verb,
                    VerbMetrics {
                        requests: registry.counter(
                            "evirel_serve_requests_total",
                            "Requests received, by verb",
                            &[("verb", verb)],
                        ),
                        latency: registry.histogram(
                            "evirel_serve_request_seconds",
                            "Request handling latency, by verb",
                            &[("verb", verb)],
                        ),
                    },
                )
            })
            .collect();
        ServeMetrics {
            queue_depth: registry.gauge(
                "evirel_serve_queue_depth",
                "Connections waiting in the pending queue",
                &[],
            ),
            workers_busy: registry.gauge(
                "evirel_serve_workers_busy",
                "Workers currently serving a session",
                &[],
            ),
            bytes_read: registry.counter(
                "evirel_serve_bytes_read_total",
                "Request bytes received, frame headers included",
                &[],
            ),
            bytes_written: registry.counter(
                "evirel_serve_bytes_written_total",
                "Response bytes sent, frame headers included",
                &[],
            ),
            writer_wait: registry.histogram(
                "evirel_catalog_writer_wait_seconds",
                "Time a MERGE waited behind other writers to begin its publish",
                &[],
            ),
            verbs,
        }
    }

    fn verb(&self, verb: &str) -> &VerbMetrics {
        self.verbs.get(verb).unwrap_or(&self.verbs["invalid"])
    }
}

/// Replication role and counters.
#[derive(Debug)]
struct Replication {
    /// `true` while this server is an unpromoted standby: `MERGE`
    /// is rejected with `ERR readonly`. Cleared by promotion.
    readonly: AtomicBool,
    /// Set by the `PROMOTE` verb; the follower loop treats it as a
    /// stop signal and releases read-only mode on exit.
    promote: AtomicBool,
    /// Whether this server was *started* as a follower (its role
    /// line reads `follower` or `promoted`, never `primary`).
    role_follower: bool,
    /// `FOLLOW` subscriptions currently attached (primary side).
    followers: AtomicU64,
    /// Records (or resync snapshots) shipped to followers.
    records_sent: AtomicU64,
    /// Records applied from a primary (follower side).
    records_applied: AtomicU64,
    /// Full-state resyncs installed (follower side).
    resyncs: AtomicU64,
    /// Reconnect attempts after the initial connection.
    reconnects: AtomicU64,
    /// Whether the follower link is currently up.
    connected: AtomicBool,
    /// Highest generation the primary announced (follower side) —
    /// the minuend of the replication-lag gauge.
    primary_generation: AtomicU64,
    /// Unix milliseconds of the last stream frame received (follower
    /// side); 0 until the first frame.
    heartbeat_unix_ms: AtomicU64,
}

impl Replication {
    fn new(follower: bool) -> Replication {
        Replication {
            readonly: AtomicBool::new(follower),
            promote: AtomicBool::new(false),
            role_follower: follower,
            followers: AtomicU64::new(0),
            records_sent: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            primary_generation: AtomicU64::new(0),
            heartbeat_unix_ms: AtomicU64::new(0),
        }
    }

    /// Signal promotion and wait up to 10 s for the follower loop to
    /// release read-only mode; `true` once it has.
    fn promote_and_wait(&self) -> bool {
        self.promote.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.readonly.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        !self.readonly.load(Ordering::SeqCst)
    }

    fn role(&self) -> &'static str {
        if !self.role_follower {
            "primary"
        } else if self.readonly.load(Ordering::SeqCst) {
            "follower"
        } else {
            "promoted"
        }
    }
}

/// A plain-data copy of the replication state at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationSnapshot {
    /// `primary`, `follower`, or `promoted`.
    pub role: &'static str,
    /// `FOLLOW` subscriptions currently attached.
    pub followers: u64,
    /// Records/snapshots shipped to followers.
    pub records_sent: u64,
    /// Records applied from a primary.
    pub records_applied: u64,
    /// Full-state resyncs installed.
    pub resyncs: u64,
    /// Reconnect attempts after the initial connection.
    pub reconnects: u64,
    /// Whether the follower link is currently up.
    pub connected: bool,
}

/// Everything the accept thread and workers share.
struct Shared {
    shared: Arc<SharedCatalog>,
    cache: Arc<PlanCache>,
    /// This server's metrics registry, fresh per [`start`] — two
    /// in-process servers never bleed counters into each other.
    /// Sessions flush their execution stats here, and the `METRICS`
    /// verb renders it.
    metrics: Arc<MetricsRegistry>,
    serve_metrics: ServeMetrics,
    stats: ServerStats,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
    addr: SocketAddr,
    config: ServeConfig,
    budget: SessionBudget,
    /// The write-ahead durability layer, when the server was started
    /// with a data directory. MERGE handlers and the follower loop
    /// publish through it ([`DurableCatalog::bind`] and friends), so a
    /// mutation is fsync'd before its generation is observable; lock
    /// order is this mutex, then the catalog's writer mutex. Reads,
    /// `STATS` and `METRICS` never take either: a read pins without
    /// waiting for a writer, and the durable counters are pushed into
    /// the registry ([`DurableMetrics`]).
    durable: Option<Mutex<DurableCatalog>>,
    /// The data directory's path as `STATS` prints it — fixed at
    /// startup, so reading it never waits on the `durable` mutex.
    data_dir: Option<String>,
    /// Replication role and counters (present on every server; a
    /// plain primary just never flips out of the `primary` role).
    /// Arc'd so the scrape-time replication collector can hold it
    /// without owning the whole [`Shared`] (which owns the registry —
    /// a collector capturing `Shared` would leak the server).
    replication: Arc<Replication>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        self.ready.notify_all();
        // Unblock the accept thread: `incoming()` has no timeout, so
        // poke it with a throwaway connection it will drop on seeing
        // the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Dropping the handle does **not** stop the
/// server; call [`ServerHandle::shutdown`] (or send the `SHUTDOWN`
/// verb) and then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    follower: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared catalog, for out-of-band seeding or inspection.
    pub fn catalog(&self) -> &Arc<SharedCatalog> {
        &self.shared.shared
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.shared.cache
    }

    /// Current server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// This server's metrics registry — what the `METRICS` verb
    /// renders. Fresh per server: in-process servers never share
    /// counters.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// Current replication role and counters.
    pub fn replication(&self) -> ReplicationSnapshot {
        let r = &self.shared.replication;
        ReplicationSnapshot {
            role: r.role(),
            followers: r.followers.load(Ordering::Relaxed),
            records_sent: r.records_sent.load(Ordering::Relaxed),
            records_applied: r.records_applied.load(Ordering::Relaxed),
            resyncs: r.resyncs.load(Ordering::Relaxed),
            reconnects: r.reconnects.load(Ordering::Relaxed),
            connected: r.connected.load(Ordering::SeqCst),
        }
    }

    /// Ask a follower to promote (stop following, accept writes) and
    /// wait for the follower loop to release read-only mode. No-op on
    /// a primary. Equivalent to the `PROMOTE` verb from loopback.
    pub fn promote(&self) {
        let repl = &self.shared.replication;
        if repl.role_follower {
            repl.promote_and_wait();
        }
    }

    /// Begin a graceful shutdown: stop accepting, let workers drain
    /// the pending queue and finish in-flight sessions. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the accept thread and every worker to exit, returning
    /// the final counters. Call [`ServerHandle::shutdown`] first (or
    /// have a client send `SHUTDOWN`), or this blocks indefinitely.
    ///
    /// When the server runs durably, a final checkpoint is taken
    /// *after* the last worker drains — every journaled merge is
    /// folded into the manifest and superseded segments are GC'd, so
    /// a clean shutdown leaves a directory that recovers without
    /// journal replay. A failed checkpoint is reported on stderr but
    /// does not lose data: the journal still holds every record.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.follower.take() {
            let _ = t.join();
        }
        if let Some(durable) = &self.shared.durable {
            let mut durable = durable.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = durable.checkpoint() {
                eprintln!("evirel-serve: shutdown checkpoint failed: {e}");
            }
        }
        self.shared.stats.snapshot()
    }
}

/// Start a server over `catalog`. Binds synchronously (so the
/// returned handle's [`addr`](ServerHandle::addr) is immediately
/// connectable), then spawns the accept thread and `config.workers`
/// workers.
///
/// # Errors
/// Bind failures.
pub fn start(catalog: Catalog, config: ServeConfig) -> io::Result<ServerHandle> {
    start_with_durability(catalog, config, None)
}

/// [`start`], optionally with a durability layer: when `durable` is
/// given, the catalog is published at the recovered generation (so
/// generation numbers stay monotonic across restarts), every `MERGE`
/// is journaled + fsync'd before its generation becomes observable,
/// and [`ServerHandle::join`] checkpoints after the workers drain.
/// The caller opens the directory ([`DurableCatalog::open`]) and
/// overlays/merges the recovered bindings into `catalog` itself —
/// this function does not reconcile them.
///
/// # Errors
/// Bind failures.
pub fn start_with_durability(
    catalog: Catalog,
    config: ServeConfig,
    durable: Option<DurableCatalog>,
) -> io::Result<ServerHandle> {
    if config.follow.is_some() && durable.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a follower requires durability: pass a DurableCatalog (--data-dir) \
             so replicated records are journaled before they publish",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    // Carve the process budgets across the worker pool: each of the
    // W concurrent sessions gets threads/W and pool-bytes/W, so total
    // usage stays within EVIREL_THREADS / EVIREL_BUFFER_BYTES no
    // matter how many sessions run at once.
    let budget = SessionBudget::share_of(catalog.parallelism, catalog.pool.budget_bytes(), workers);
    let generation = durable
        .as_ref()
        .map_or(0, DurableCatalog::recovered_generation);
    let metrics = Arc::new(MetricsRegistry::new());
    let stats = ServerStats::new(&metrics);
    let serve_metrics = ServeMetrics::new(&metrics);
    let replication = Arc::new(Replication::new(config.follow.is_some()));
    let data_dir = durable.as_ref().map(|d| d.dir().display().to_string());
    let durable = durable.map(|mut d| {
        d.set_metrics(DurableMetrics {
            committed_generation: metrics.gauge(
                "evirel_store_committed_generation",
                "Last journaled or checkpointed generation",
                &[],
            ),
            journal_records: metrics.gauge(
                "evirel_store_journal_records",
                "Journal records since the last checkpoint",
                &[],
            ),
            checkpoints: metrics.counter(
                "evirel_store_checkpoints_total",
                "Checkpoints taken since open",
                &[],
            ),
            bindings: metrics.gauge("evirel_store_bindings", "Bindings currently persisted", &[]),
            journal_append: metrics.histogram(
                "evirel_store_journal_append_seconds",
                "Journal append + fsync latency (the commit point of every mutation)",
                &[],
            ),
            checkpoint: metrics.histogram(
                "evirel_store_checkpoint_seconds",
                "Checkpoint duration (manifest swap, journal truncation, segment GC)",
                &[],
            ),
            segment_bytes: metrics.counter(
                "evirel_store_segment_bytes_total",
                "Segment-file bytes written by binds",
                &[],
            ),
        });
        Mutex::new(d)
    });
    let shared_catalog = Arc::new(SharedCatalog::with_generation(catalog, generation));
    let cache = Arc::new(PlanCache::default());
    register_collectors(&metrics, &shared_catalog, &cache, &replication);
    let shared = Arc::new(Shared {
        shared: shared_catalog,
        cache,
        metrics,
        serve_metrics,
        stats,
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        shutdown: AtomicBool::new(false),
        addr,
        replication,
        config: ServeConfig { workers, ..config },
        budget,
        durable,
        data_dir,
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("evirel-serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?
    };
    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("evirel-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    let follower = match shared.config.follow.clone() {
        Some(follow) => {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("evirel-serve-follow".into())
                    .spawn(move || run_follower(&shared, &follow))?,
            )
        }
        None => None,
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers: worker_handles,
        follower,
    })
}

/// Mirror the subsystems that keep their own counters — plan cache,
/// buffer pool, replication — into the registry at scrape time, so
/// `METRICS` and `STATS` read one source of truth. (The durability
/// layer pushes its series itself — [`DurableMetrics`] — because
/// reading them here would take the durable mutex, which a MERGE
/// holds across its fsync.) Each
/// collector runs on [`MetricsRegistry::refresh`] (every scrape) and
/// touches only narrow `Arc`s, never the whole [`Shared`] — which
/// owns the registry, so capturing it would cycle and leak the
/// server. [`Counter::set_at_least`] keeps mirrored counters monotone.
fn register_collectors(
    metrics: &Arc<MetricsRegistry>,
    catalog: &Arc<SharedCatalog>,
    cache: &Arc<PlanCache>,
    replication: &Arc<Replication>,
) {
    // Plan-cache + buffer-pool/generation collectors are shared with
    // the `eql` REPL so both surfaces expose identical series names.
    register_query_collectors(metrics, catalog, cache);
    {
        let repl = Arc::clone(replication);
        let catalog = Arc::clone(catalog);
        let followers = metrics.gauge(
            "evirel_repl_followers",
            "FOLLOW subscriptions currently attached",
            &[],
        );
        let sent = metrics.counter(
            "evirel_repl_records_sent_total",
            "Records or snapshots shipped to followers",
            &[],
        );
        let applied = metrics.counter(
            "evirel_repl_records_applied_total",
            "Records applied from a primary",
            &[],
        );
        let resyncs = metrics.counter(
            "evirel_repl_resyncs_total",
            "Full-state resyncs installed",
            &[],
        );
        let reconnects = metrics.counter(
            "evirel_repl_reconnects_total",
            "Reconnect attempts after the initial connection",
            &[],
        );
        let connected = metrics.gauge(
            "evirel_repl_connected",
            "Whether the follower link is up (0/1)",
            &[],
        );
        let lag = metrics.gauge(
            "evirel_repl_generation_lag",
            "Primary generation minus locally applied generation",
            &[],
        );
        let heartbeat_age = metrics.gauge(
            "evirel_repl_heartbeat_age_seconds",
            "Seconds since the last stream frame from the primary",
            &[],
        );
        metrics.register_collector("replication", move || {
            followers.set(repl.followers.load(Ordering::Relaxed));
            sent.set_at_least(repl.records_sent.load(Ordering::Relaxed));
            applied.set_at_least(repl.records_applied.load(Ordering::Relaxed));
            resyncs.set_at_least(repl.resyncs.load(Ordering::Relaxed));
            reconnects.set_at_least(repl.reconnects.load(Ordering::Relaxed));
            connected.set(u64::from(repl.connected.load(Ordering::SeqCst)));
            let primary = repl.primary_generation.load(Ordering::Relaxed);
            lag.set(primary.saturating_sub(catalog.generation()));
            let hb = repl.heartbeat_unix_ms.load(Ordering::Relaxed);
            heartbeat_age.set(if hb == 0 {
                0
            } else {
                unix_ms().saturating_sub(hb) / 1000
            });
        });
    }
}

/// Wall-clock Unix milliseconds — heartbeat-age arithmetic only.
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// The follower thread: follow the primary until shutdown, promotion,
/// or (with `promote_on_disconnect`) the retry budget runs out; then
/// release read-only mode if promotion applies.
fn run_follower(shared: &Shared, follow: &FollowConfig) {
    let repl = &shared.replication;
    let stop = || shared.shutdown.load(Ordering::SeqCst) || repl.promote.load(Ordering::SeqCst);
    let durable = shared
        .durable
        .as_ref()
        .expect("follower servers always have a durability layer");
    let ctx = ApplyCtx {
        catalog: &shared.shared,
        durable,
        stop: &stop,
        records_applied: &repl.records_applied,
        resyncs: &repl.resyncs,
        primary_generation: &repl.primary_generation,
        heartbeat_unix_ms: &repl.heartbeat_unix_ms,
        events: shared.metrics.events(),
    };
    let policy = RetryPolicy {
        initial_backoff: follow.initial_backoff,
        max_backoff: follow.max_backoff,
        retry_budget: follow.promote_on_disconnect.then_some(follow.retry_budget),
        poll: shared.config.poll_interval,
    };
    let exit = follower_loop(
        &follow.primary,
        &ctx,
        &repl.connected,
        &repl.reconnects,
        &policy,
    );
    let promote_now = match exit {
        // Promotion releases read-only; plain shutdown leaves the
        // role as it was (the server is exiting anyway).
        FollowerExit::Stopped => repl.promote.load(Ordering::SeqCst),
        FollowerExit::RetriesExhausted => follow.promote_on_disconnect,
    };
    if promote_now {
        repl.readonly.store(false, Ordering::SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() < shared.config.max_pending {
            queue.push_back(stream);
            shared.serve_metrics.queue_depth.set(queue.len() as u64);
            drop(queue);
            shared.stats.accepted.inc();
            shared.ready.notify_one();
        } else {
            drop(queue);
            shared.stats.rejected_busy.inc();
            let busy = Response::Busy {
                message: format!(
                    "server at capacity ({} pending sessions); back off and retry",
                    shared.config.max_pending
                ),
            };
            let _ = write_frame(&mut stream, &busy.encode());
            // stream drops → connection closes.
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(c) = queue.pop_front() {
                    shared.serve_metrics.queue_depth.set(queue.len() as u64);
                    break Some(c);
                }
                // Drain-then-exit: pending sessions admitted before
                // shutdown still get served.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(queue, shared.config.poll_interval)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        let Some(stream) = conn else { return };
        shared.stats.sessions.inc();
        shared.serve_metrics.workers_busy.add(1);
        serve_connection(stream, shared);
        shared.serve_metrics.workers_busy.sub(1);
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // The read timeout is a *poll* interval: a quiet session loops
    // here so the worker can notice shutdown, it is never hung up on.
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_nodelay(true);
    let shutdown_allowed =
        shutdown_permitted(stream.peer_addr(), shared.config.allow_remote_shutdown);
    let mut session = Session::with_budget(
        Arc::clone(&shared.shared),
        Arc::clone(&shared.cache),
        shared.budget,
    );
    // Query spans, slow-query events, and execution-stat counters all
    // land in *this server's* registry, not the process-global one.
    session.set_metrics(Arc::clone(&shared.metrics));
    loop {
        // A timeout here means the session is *idle* — read_frame_with
        // keeps retrying on its own once any frame byte has arrived,
        // so a slow or fragmenting client cannot desync the stream.
        // Mid-frame, it re-checks the shutdown flag every poll
        // interval and gives up (TimedOut) once set, which lands in
        // the same return below.
        let payload = match read_frame_with(&mut stream, || !shared.shutdown.load(Ordering::SeqCst))
        {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return, // torn frame / reset — nothing to answer
        };
        shared.stats.requests.inc();
        shared
            .serve_metrics
            .bytes_read
            .add((payload.len() + 4) as u64);
        // Parse once: the verb labels the per-verb counter/latency
        // series, FOLLOW is intercepted below, and handle_request
        // gets the already-parsed request.
        let parsed = Request::parse(&payload);
        let verb_metrics = shared
            .serve_metrics
            .verb(parsed.as_ref().map_or("invalid", Request::verb));
        verb_metrics.requests.inc();
        // FOLLOW takes the whole connection over: the stream stops
        // being request/response and becomes a one-way record feed,
        // so it is handled here (where the socket lives), not in
        // handle_request. The subscription occupies this worker for
        // its lifetime — size `workers` accordingly.
        if let Ok(Request::Follow { from }) = &parsed {
            let Some(durable) = shared.durable.as_ref() else {
                let err = Response::error(
                    "unsupported",
                    "this server has no durability layer (no --data-dir); \
                     there is no journal to stream",
                );
                shared.stats.errors.inc();
                if write_frame(&mut stream, &err.encode()).is_err() {
                    return;
                }
                continue;
            };
            shared.replication.followers.fetch_add(1, Ordering::SeqCst);
            let ctx = SenderCtx {
                catalog: &shared.shared,
                durable,
                stop: &shared.shutdown,
                poll: shared.config.poll_interval,
                records_sent: &shared.replication.records_sent,
            };
            let _ = serve_follow(&mut stream, &ctx, *from);
            shared.replication.followers.fetch_sub(1, Ordering::SeqCst);
            return; // the stream is spent either way
        }
        // A panic inside request handling must not kill the worker:
        // convert it to a typed ERR frame and keep serving. The
        // session only holds Arc'd shared state whose invariants the
        // RCU snapshot layer protects, so resuming after a caught
        // panic is sound.
        let started = Instant::now();
        let handled = catch_unwind(AssertUnwindSafe(|| {
            handle_request(&session, parsed, shared, shutdown_allowed)
        }));
        let (response, shutdown_after) = handled.unwrap_or_else(|_| {
            shared.stats.panics.inc();
            (
                Response::error("panic", "internal panic while handling request"),
                false,
            )
        });
        verb_metrics.latency.observe(started.elapsed());
        if matches!(response, Response::Err { .. }) {
            shared.stats.errors.inc();
        }
        let encoded = response.encode();
        shared
            .serve_metrics
            .bytes_written
            .add((encoded.len() + 4) as u64);
        if write_frame(&mut stream, &encoded).is_err() {
            return; // peer gone mid-response
        }
        if shutdown_after {
            shared.begin_shutdown();
            return;
        }
    }
}

/// The SHUTDOWN gate: loopback peers may always stop the server;
/// remote peers — including connections whose peer address cannot be
/// resolved — only when the config opts in.
fn shutdown_permitted(peer: io::Result<SocketAddr>, allow_remote: bool) -> bool {
    allow_remote || peer.is_ok_and(|p| p.ip().is_loopback())
}

/// Handle one request; the bool asks the caller to begin shutdown
/// after the response frame is written. `shutdown_allowed` is the
/// per-connection SHUTDOWN gate (loopback peer, or the
/// [`ServeConfig::allow_remote_shutdown`] opt-in). The request
/// arrives pre-parsed — the caller needed the verb for its per-verb
/// series before dispatching.
fn handle_request(
    session: &Session,
    request: Result<Request, String>,
    shared: &Shared,
    shutdown_allowed: bool,
) -> (Response, bool) {
    let request = match request {
        Ok(r) => r,
        Err(message) => return (Response::error("protocol", message), false),
    };
    match request {
        Request::Ping => (
            Response::Ok {
                body: "pong".into(),
            },
            false,
        ),
        Request::Shutdown if !shutdown_allowed => (
            Response::error(
                "denied",
                "SHUTDOWN is only honored from loopback connections \
                 (start the server with allow_remote_shutdown to override)",
            ),
            false,
        ),
        Request::Shutdown => (
            Response::Ok {
                body: "shutting down".into(),
            },
            true,
        ),
        Request::Query(q) => (query_response(session, &q), false),
        Request::Explain(q) => match session.explain(&q) {
            Ok(text) => (Response::Ok { body: text }, false),
            Err(e) => (Response::error(e.kind(), e.to_string()), false),
        },
        Request::Merge { name, query } => (merge_response(session, shared, &name, &query), false),
        Request::Stats => (stats_response(session, shared), false),
        // The scrape endpoint: refresh collector-mirrored series and
        // render the whole registry as Prometheus text exposition.
        Request::Metrics => (
            Response::Ok {
                body: shared.metrics.render(),
            },
            false,
        ),
        // FOLLOW is intercepted in serve_connection (it takes the
        // socket over); reaching it here means the takeover path was
        // bypassed, which only tests do.
        Request::Follow { .. } => (
            Response::error(
                "protocol",
                "FOLLOW subscribes a stream and cannot be answered in-band",
            ),
            false,
        ),
        Request::Promote => (promote_response(shared, shutdown_allowed), false),
    }
}

/// Handle `PROMOTE`: flip a follower into an ordinary writable
/// server. Gated like `SHUTDOWN` (loopback unless the config opts
/// in) — promotion of a standby is a topology change, not a query.
/// Idempotent: promoting a primary (or twice) reports success.
fn promote_response(shared: &Shared, allowed: bool) -> Response {
    if !allowed {
        return Response::error(
            "denied",
            "PROMOTE is only honored from loopback connections \
             (start the server with allow_remote_shutdown to override)",
        );
    }
    let repl = &shared.replication;
    if !repl.role_follower {
        return Response::Ok {
            body: format!("already primary generation={}", shared.shared.generation()),
        };
    }
    // The follower loop notices the flag within a poll interval,
    // finishes (or abandons) its in-flight frame, and releases
    // read-only mode; wait for that so the client's next MERGE after
    // an OK cannot race an ERR readonly.
    if repl.promote_and_wait() {
        Response::Ok {
            body: format!("promoted generation={}", shared.shared.generation()),
        }
    } else {
        Response::error(
            "promote",
            "promotion signalled, but the follower loop has not released \
             read-only mode yet; retry PROMOTE",
        )
    }
}

fn query_response(session: &Session, query: &str) -> Response {
    match session.query(query) {
        Ok(out) => Response::Ok {
            body: format!(
                "tuples={} conflicts={} cached={} generation={}\n{}",
                out.outcome.relation.len(),
                out.outcome.report.len(),
                u8::from(out.cached_plan),
                out.generation,
                out.outcome.relation,
            ),
        },
        Err(e) => Response::error(e.kind(), e.to_string()),
    }
}

fn merge_response(session: &Session, shared: &Shared, name: &str, query: &str) -> Response {
    // Checked per-request, not per-session: a session opened while
    // the server was a standby becomes writable the moment the
    // server is promoted.
    if shared.replication.readonly.load(Ordering::SeqCst) {
        return Response::error(
            "readonly",
            "this server is a replication standby; write to the primary, \
             or PROMOTE this server to accept writes",
        );
    }
    // Read at a pinned snapshot, then publish the result as the next
    // generation. Two concurrent MERGEs to the same name serialize as
    // writers; last writer wins, and either way every reader sees a
    // complete binding.
    let out = match session.query(query) {
        Ok(out) => out,
        Err(e) => return Response::error(e.kind(), e.to_string()),
    };
    let tuples = out.outcome.relation.len();
    let rel = out.outcome.relation;
    // Becoming the writer is taking the durable mutex, or — with no
    // data directory — entering the publish closure.
    let writer_wait = &shared.serve_metrics.writer_wait;
    let queued = Instant::now();
    let published = match &shared.durable {
        Some(durable) => {
            let mut durable = durable.lock().unwrap_or_else(|e| e.into_inner());
            writer_wait.observe(queued.elapsed());
            durable.bind(&shared.shared, name, &rel)
        }
        None => shared
            .shared
            .update_at(|catalog, _| {
                writer_wait.observe(queued.elapsed());
                catalog.register(name.to_owned(), rel);
                Ok(())
            })
            .map(|((), generation)| generation),
    };
    match published {
        // Report the generation *this* merge published — re-reading
        // the shared counter here could already see a concurrent
        // writer's later bump.
        Ok(generation) => {
            shared.stats.merges.inc();
            Response::Ok {
                body: format!("merged {name} tuples={tuples} generation={generation}"),
            }
        }
        Err(e) => Response::error(e.kind(), e.to_string()),
    }
}

fn stats_response(session: &Session, shared: &Shared) -> Response {
    // One source of truth: refresh the collector-mirrored series,
    // then read every number back out of the registry — `STATS` and
    // `METRICS` render the same counters and cannot disagree. Only
    // non-numeric state (role, data dir, relation statistics) comes
    // from the subsystems directly.
    shared.metrics.refresh();
    let v = |name: &str| shared.metrics.value(name, &[]).unwrap_or(0);
    let snapshot = session.pin();
    let durability = match &shared.data_dir {
        Some(dir) => format!(
            "durability dir={dir} generation_committed={} journal_records={} \
             checkpoints={} bindings={}",
            v("evirel_store_committed_generation"),
            v("evirel_store_journal_records"),
            v("evirel_store_checkpoints_total"),
            v("evirel_store_bindings"),
        ),
        None => "durability off".into(),
    };
    let replication = format!(
        "replication role={} followers={} sent={} applied={} resyncs={} \
         reconnects={} connected={}",
        shared.replication.role(),
        v("evirel_repl_followers"),
        v("evirel_repl_records_sent_total"),
        v("evirel_repl_records_applied_total"),
        v("evirel_repl_resyncs_total"),
        v("evirel_repl_reconnects_total"),
        v("evirel_repl_connected"),
    );
    // Per-relation statistics as the planner's cost model sees them
    // — one `relation <name> (...)` line each.
    let relations: String = snapshot
        .catalog()
        .stats_summary()
        .lines()
        .map(|line| format!("relation {line}\n"))
        .collect();
    let relations = relations.trim_end();
    Response::Ok {
        body: format!(
            "server accepted={} busy={} sessions={} requests={} errors={} panics={} merges={}\n\
             cache entries={} hits={} misses={} stale={} evictions={} generation={}\n\
             pool hits={} misses={} evictions={} overcommits={}\n\
             {relations}\n\
             {durability}\n\
             {replication}",
            v("evirel_serve_connections_accepted_total"),
            v("evirel_serve_busy_rejected_total"),
            v("evirel_serve_sessions_total"),
            v("evirel_serve_requests_handled_total"),
            v("evirel_serve_request_errors_total"),
            v("evirel_serve_panics_total"),
            v("evirel_serve_merges_total"),
            v("evirel_query_cache_entries"),
            v("evirel_query_cache_hits_total"),
            v("evirel_query_cache_misses_total"),
            v("evirel_query_cache_stale_total"),
            v("evirel_query_cache_evictions_total"),
            snapshot.generation(),
            v("evirel_store_pool_hits_total"),
            v("evirel_store_pool_misses_total"),
            v("evirel_store_pool_evictions_total"),
            v("evirel_store_pool_overcommits_total"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_gate_requires_loopback_unless_opted_in() {
        let loopback4: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let loopback6: SocketAddr = "[::1]:9".parse().unwrap();
        let remote: SocketAddr = "203.0.113.7:9".parse().unwrap();
        let unresolvable = || Err(io::Error::new(io::ErrorKind::NotConnected, "gone"));
        assert!(shutdown_permitted(Ok(loopback4), false));
        assert!(shutdown_permitted(Ok(loopback6), false));
        assert!(!shutdown_permitted(Ok(remote), false));
        assert!(!shutdown_permitted(unresolvable(), false));
        assert!(shutdown_permitted(Ok(remote), true));
        assert!(shutdown_permitted(unresolvable(), true));
    }

    /// `STATS` and `METRICS` answer while another thread holds the
    /// durable mutex, as a MERGE does across its segment write and
    /// fsync: the durability series are pushed into the registry by
    /// the `DurableCatalog`, not read under its lock at scrape time.
    #[test]
    fn stats_and_metrics_answer_while_the_durable_mutex_is_held() {
        use crate::protocol::{read_frame, write_frame};
        let dir = std::env::temp_dir().join(format!("evirel-serve-scrape-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (durable, recovered) = DurableCatalog::open(&dir).unwrap();
        let handle = start_with_durability(recovered, ServeConfig::default(), Some(durable))
            .expect("server starts");

        let shared = Arc::clone(&handle.shared);
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let durable = shared.durable.as_ref().expect("started durable");
            let _guard = durable.lock().unwrap();
            locked_tx.send(()).unwrap();
            release_rx.recv().ok();
        });
        locked_rx.recv().expect("holder took the durable mutex");

        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        // A scrape queued behind the mutex would never answer.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        for (verb, series) in [
            ("STATS", "generation_committed=0 journal_records=0"),
            ("METRICS", "evirel_store_committed_generation 0"),
        ] {
            write_frame(&mut stream, verb).unwrap();
            let reply = read_frame(&mut stream)
                .unwrap_or_else(|e| panic!("{verb} waited on the durable mutex: {e}"))
                .expect("server replied");
            match Response::parse(&reply).unwrap() {
                Response::Ok { body } => assert!(body.contains(series), "{verb}: {body}"),
                other => panic!("{verb}: {other:?}"),
            }
        }

        release_tx.send(()).unwrap();
        holder.join().unwrap();
        handle.shutdown();
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}
