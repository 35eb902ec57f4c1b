//! One end-to-end run of one workload against a child `evirel-serve`.
//!
//! ```text
//! set-up ×k   start server → stored segments → warm-up      setup_s
//! window      the workload's traffic, fixed op count         *_ops_per_s, *_p50_us
//!             (METRICS scraped before and after)             per-layer counts
//! tail        the verb the window lacks, alone
//! end         STATS, data-dir size, VmHWM                    rss, disk bytes
//! crash       kill -9 → restart on the same dir → re-read    store.recover_ms
//! ```
//!
//! A workload with [`Spec::rounds`] above 1 runs window and tail that
//! many times in turn, each with its share of the operations, so that
//! both are sampled over the whole run and not at one end of it.
//!
//! Closed loop: the server runs one session per worker and every
//! caller waits for its reply, so each of the two connections sends
//! its next request when the previous one is answered. Both draw from
//! one query stream ([`Feed`]).

use crate::digest::{observe, Expected};
use crate::metrics::Values;
use crate::scrape::Scrape;
use crate::server::{dir_bytes, Launch, Server, WORKERS};
use crate::stats::{iqr_share, median, percentile, quartiles, slice_medians, slice_rates};
use crate::stream::{Mix, QueryStream, Request, Spec, Verb, MERGE_TARGETS};
use crate::wire::{Client, Reply};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// A reply later than this is a failed operation.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// A rate or a median latency is read off this many equal slices of
/// the time it was measured in: the quartile on the better side (see
/// [`timing`]).
const SLICES: usize = 20;
/// Warm-up merges of the writer connection: every target once. More
/// would make `setup_s` a reading of the disk's fsync time that
/// minute, which on a shared box has two or three levels.
const WRITER_WARMUP: u64 = MERGE_TARGETS as u64;
/// Set-ups per run when `setup_s` is reported: between these two, as
/// many as fit in the budget.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const SETUP_BUDGET_S: f64 = 1.0;
/// Stored-workload results must stay small, or rendering the reply
/// swamps the scan being measured.
const MAX_STORED_RESULT: u64 = 200;

/// Key under which [`Outcome::values`] carries the number of `QUERY`
/// requests the server counted in the main window.
pub const QUERY_REQUESTS: &str = "serve.requests.query";

/// What to run and where.
#[derive(Debug, Clone)]
pub struct Config {
    /// The release `evirel-serve`.
    pub serve_bin: PathBuf,
    /// The benchmark's directory: `expected/` is read, `out/` written.
    pub home: PathBuf,
    /// Seed of the request streams.
    pub seed: u64,
    /// `--seconds`: scales the frozen op counts.
    pub seconds: u32,
    /// Divisor of the op counts: 1, or 50 under `--smoke`.
    pub scale: u32,
    /// Report `setup_s`: set up several times and take the median.
    /// Otherwise (a traced run, which reports no set-up time) once.
    pub time_setup: bool,
    /// Record digests instead of checking them.
    pub bless: bool,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every end-to-end metric and every generator/scrape per-layer
    /// metric, by name.
    pub values: Values,
    /// Operations sent (warm-up, window, tail and restart checks).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or answered
    /// with the wrong output.
    pub failed: u64,
    /// The first few failures and every failed run-level check.
    pub errors: Vec<String>,
    /// `EVIREL_*` variables the server ran with.
    pub env: Vec<(&'static str, String)>,
}

impl Outcome {
    /// No failed operation and no failed check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// `(start, end)` of one answered operation, ns since the run's origin.
type Sample = (u64, u64);

/// One connection with its own copy of the digests and its tallies.
struct Conn {
    client: Client,
    expected: Expected,
    origin: Instant,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Generation of the last acknowledged merge on this connection.
    last_merge_generation: u64,
    /// Highest generation any reply reported.
    max_generation: u64,
    /// Set on an I/O error: the stream is desynchronised.
    broken: bool,
}

impl Conn {
    fn open(server: &Server, expected: &Expected, origin: Instant) -> Result<Conn, String> {
        let client = Client::connect(server.addr(), REQUEST_TIMEOUT)
            .map_err(|e| format!("cannot connect to {}: {e}", server.addr()))?;
        Ok(Conn {
            client,
            expected: expected.clone(),
            origin,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            last_merge_generation: 0,
            max_generation: 0,
            broken: false,
        })
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Send `req`, wait, verify. `Some` when the reply was `OK` and
    /// matched its digest.
    fn send(&mut self, req: &Request) -> Option<Sample> {
        if self.broken {
            return None;
        }
        self.attempted += 1;
        let start = self.origin.elapsed().as_nanos() as u64;
        let reply = self.client.call(&req.payload);
        let end = self.origin.elapsed().as_nanos() as u64;
        let verdict = match reply {
            Err(e) => {
                self.broken = true;
                Err(format!("no reply ({e})"))
            }
            Ok(text) => match Reply::parse(text) {
                Reply::Ok(body) => observe(req.verb, body).and_then(|(digest, generation)| {
                    self.expected.check(req.key, digest)?;
                    if req.verb == Verb::Merge {
                        if generation <= self.last_merge_generation {
                            return Err(format!(
                                "merge generation {generation} does not exceed the previous \
                                 acknowledgement's {}",
                                self.last_merge_generation
                            ));
                        }
                        self.last_merge_generation = generation;
                    }
                    self.max_generation = self.max_generation.max(generation);
                    Ok(())
                }),
                Reply::Err(kind, message) => Err(format!("ERR {kind}: {message}")),
                Reply::Busy(message) => Err(format!("BUSY: {message}")),
                Reply::Malformed => Err("malformed reply".to_owned()),
            },
        };
        match verdict {
            Ok(()) => Some((start, end)),
            Err(why) => {
                let first_line = req.payload.replace('\n', "\\n");
                self.fail(format!("{first_line}: {why}"));
                None
            }
        }
    }

    /// Send requests for as long as `next` hands them out, keeping
    /// the answered ones.
    fn drive(&mut self, mut next: impl FnMut() -> Option<Request>) -> Vec<Sample> {
        let mut samples = Vec::new();
        while !self.broken {
            let Some(req) = next() else { break };
            samples.extend(self.send(&req));
        }
        samples
    }

    /// A verb with no digest (`METRICS`, `STATS`): the body of its
    /// `OK` reply and the reply's frame length.
    fn ask(&mut self, verb: &str) -> Result<(String, usize), String> {
        let text = self
            .client
            .call(verb)
            .map_err(|e| format!("{verb}: no reply ({e})"))?;
        match Reply::parse(text) {
            Reply::Ok(body) => Ok((body.to_owned(), text.len() + 4)),
            other => Err(format!("{verb}: unexpected reply {other:?}")),
        }
    }
}

/// The query stream both connections draw from. Requests come from
/// the two per-connection streams in turn, and whichever connection is
/// free takes the next: the requests a run sends are the same for the
/// same seed however the connections race, and both connections finish
/// together (with a fixed count each, the slower one runs on alone, at
/// another latency, for up to a fifth of the window).
struct Feed<'a> {
    streams: Vec<QueryStream<'a>>,
    turn: usize,
    /// Requests still to hand out.
    budget: u64,
}

impl Feed<'_> {
    fn next(&mut self) -> Option<Request> {
        self.budget = self.budget.checked_sub(1)?;
        let stream = self.turn % self.streams.len();
        self.turn += 1;
        self.streams[stream].next()
    }
}

/// Both connections, the stream they read from, and the server.
struct Session<'a> {
    spec: &'a Spec,
    server: Server,
    conns: Vec<Conn>,
    feed: Mutex<Feed<'a>>,
    /// Merges sent to `m0..m7` so far (set-up merges not counted).
    merges_sent: u64,
}

impl<'a> Session<'a> {
    /// Start a server on an empty data dir and bring it to the point
    /// where measured traffic can begin.
    fn set_up(
        spec: &'a Spec,
        launch: &Launch,
        expected: &Expected,
        seed: u64,
        origin: Instant,
    ) -> Result<Session<'a>, String> {
        let _ = std::fs::remove_dir_all(&launch.data_dir);
        let server = Server::start(launch)?;
        let conns = (0..WORKERS)
            .map(|_| Conn::open(&server, expected, origin))
            .collect::<Result<Vec<_>, _>>()?;
        let mut s = Session {
            spec,
            server,
            conns,
            feed: Mutex::new(Feed {
                streams: (0..WORKERS as u32).map(|c| spec.queries(seed, c)).collect(),
                turn: 0,
                budget: 0,
            }),
            merges_sent: 0,
        };
        for req in spec.setup_merges() {
            s.conns[0].send(&req);
        }
        // Warm-up: plan cache, buffer pool, allocator and TCP state
        // reach steady state before anything is timed.
        if spec.mix == Mix::WriterAndReader {
            s.writer_merges(WRITER_WARMUP);
        }
        s.reads(u64::from(spec.warmup_per_conn) * WORKERS as u64);
        Ok(s)
    }

    /// Run `f` on both connections at once, each on its own thread,
    /// released together.
    fn both<T: Send>(
        &mut self,
        f: impl Fn(usize, &mut Conn, &Mutex<Feed<'a>>) -> T + Sync,
    ) -> Vec<T> {
        let barrier = Barrier::new(self.conns.len());
        let (f, barrier, feed) = (&f, &barrier, &self.feed);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    scope.spawn(move || {
                        barrier.wait();
                        f(i, conn, feed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        })
    }

    /// The next `total` queries of the feed, over both connections.
    fn reads(&mut self, total: u64) -> Vec<Sample> {
        self.feed.get_mut().expect("feed lock").budget = total;
        let per_conn =
            self.both(|_, conn, feed| conn.drive(|| feed.lock().expect("feed lock").next()));
        per_conn.concat()
    }

    /// `n` merges on connection 0.
    fn writer_merges(&mut self, n: u64) -> Vec<Sample> {
        let (spec, first) = (self.spec, self.merges_sent);
        self.merges_sent += n;
        let mut stream = (first..first + n).map(|i| spec.merge(i));
        self.conns[0].drive(|| stream.next())
    }

    /// `n` merges on connection 0 while connection 1 reads from the
    /// feed until the writer is done: `(reads, merges)`.
    fn write_and_read(&mut self, n: u64) -> (Vec<Sample>, Vec<Sample>) {
        let (spec, first, done) = (self.spec, self.merges_sent, AtomicBool::new(false));
        self.merges_sent += n;
        self.feed.get_mut().expect("feed lock").budget = u64::MAX;
        let mut per_conn = self.both(|i, conn, feed| {
            if i == 0 {
                let mut merges = (first..first + n).map(|i| spec.merge(i));
                let samples = conn.drive(|| merges.next());
                done.store(true, Ordering::SeqCst);
                samples
            } else {
                conn.drive(|| {
                    let go_on = !done.load(Ordering::SeqCst);
                    go_on
                        .then(|| feed.lock().expect("feed lock").next())
                        .flatten()
                })
            }
        });
        let reads = per_conn.pop().unwrap_or_default();
        (reads, per_conn.pop().unwrap_or_default())
    }

    fn scrape(&mut self) -> Result<(Scrape, usize), String> {
        let (body, frame) = self.conns[0].ask("METRICS")?;
        Ok((Scrape::parse(&body)?, frame))
    }
}

/// Operations of one verb in one stretch of time, `(start, end)` in ns
/// since the run's origin.
struct Phase {
    samples: Vec<Sample>,
    window: (u64, u64),
}

impl Phase {
    /// `samples` over the time they themselves took.
    fn of(samples: Vec<Sample>) -> Phase {
        let window = span_of(&samples);
        Phase { samples, window }
    }
}

/// What a client saw of one verb over all its phases.
struct Timing {
    /// Upper quartile of the slice rates, 1/s.
    rate: f64,
    /// Interquartile range of the slice rates over their median.
    rate_iqr: f64,
    /// Lower quartile of the slices' median latencies, µs.
    p50_us: f64,
}

/// Cut every phase into `SLICES / phases` equal slices; over all of
/// them, take the upper quartile of the rates and the lower quartile
/// of the median latencies. What else runs on a shared box only ever
/// slows a slice down, for a tenth of a second or for several, and in
/// a bad minute it slows more than half of them: the quartile on the
/// better side still reads what the program does when it is left
/// alone, where the median over the slices reads the box. A change to
/// the program moves every slice, and so moves the quartile as well.
fn timing(phases: &[Phase]) -> Timing {
    let per_phase = (SLICES / phases.len().max(1)).max(1);
    let (mut rates, mut p50s) = (Vec::new(), Vec::new());
    for p in phases {
        let (t0, t1) = p.window;
        rates.extend(slice_rates(&p.samples, t0, t1, per_phase));
        p50s.extend(slice_medians(&p.samples, t0, t1, per_phase));
    }
    Timing {
        rate: quartiles(&rates).1,
        rate_iqr: iqr_share(&rates),
        p50_us: quartiles(&p50s).0 / 1e3,
    }
}

fn span_of(samples: &[Sample]) -> (u64, u64) {
    let t0 = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let t1 = samples.iter().map(|s| s.1).max().unwrap_or(0);
    (t0, t1)
}

fn latencies(samples: &[Sample]) -> Vec<u64> {
    let mut l: Vec<u64> = samples.iter().map(|(s, e)| e - s).collect();
    l.sort_unstable();
    l
}

/// Bytes of user data per relation name, from the `STATS` lines
/// `relation <name> (<where>): <n> tuples, <b> bytes, …`.
fn canonical_bytes(stats: &str, name: &str) -> Option<u64> {
    let rest = stats.lines().find_map(|l| {
        l.strip_prefix("relation ")?
            .strip_prefix(name)?
            .strip_prefix(" (")
    })?;
    let bytes = rest.split(", ").find_map(|f| f.strip_suffix(" bytes"))?;
    bytes.trim().parse().ok()
}

/// Run `spec` once.
///
/// # Errors
/// When the run could not be carried out at all (no server, no
/// digests, no connection). Failed operations and failed checks are
/// not errors: they are counted in the [`Outcome`].
pub fn run(spec: &Spec, cfg: &Config) -> Result<Outcome, String> {
    let out_dir = cfg.home.join("out").join(spec.name);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let launch = Launch {
        bin: cfg.serve_bin.clone(),
        seed_tuples: spec.seed_tuples,
        buffer_bytes: spec.buffer_bytes,
        data_dir: out_dir.join("data"),
        stderr: out_dir.join("server.stderr"),
    };
    let _ = std::fs::remove_file(&launch.stderr);
    let digest_path = cfg
        .home
        .join("expected")
        .join(format!("{}.digest", spec.name));
    let expected = if cfg.bless {
        Expected::blank(spec.digest_keys())
    } else {
        Expected::load(&digest_path, spec.digest_keys())?
    };

    let mut out = Outcome {
        env: launch.env(),
        ..Outcome::default()
    };
    let origin = Instant::now();

    // Start from a quiet disk: what the build and earlier runs left
    // dirty would otherwise be written back under this run's fsyncs.
    let _ = Command::new("sync").arg("-f").arg(&out_dir).status();

    // Set-up, several times over: its time is short next to its
    // run-to-run noise, so one reading would not repeat. At least
    // MIN_SETUPS; a set-up that takes a tenth of a second is repeated
    // more often than one that takes a second.
    let wanted = |times: &[f64]| {
        if !cfg.time_setup {
            return times.is_empty();
        }
        times.len() < MIN_SETUPS
            || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    };
    let mut setup_times: Vec<f64> = Vec::new();
    let mut session = None;
    while wanted(&setup_times) {
        drop(session.take()); // kills the previous server
        let started = Instant::now();
        let s = Session::set_up(spec, &launch, &expected, cfg.seed, origin)?;
        setup_times.push(started.elapsed().as_secs_f64());
        session = Some(s);
    }
    let mut s = session.expect("at least one set-up ran");
    out.values.insert("setup_s".into(), median(&setup_times));

    // Window and tail, `rounds` times over. The window is the
    // workload's own traffic, scraped before and after; the tail is
    // the verb the window lacks, on an otherwise idle server: merges
    // on connection 0, or reads on both.
    let rounds = u64::from(spec.rounds.max(1));
    let main_ops = (spec.main_ops(cfg.seconds, cfg.scale) / rounds).max(1);
    let tail_ops = (spec.tail_ops(cfg.seconds, cfg.scale) / rounds).max(1);
    let (mut windows, mut window_queries, mut window_merges, mut tail) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let (before, before_frame) = s.scrape()?;
        match spec.mix {
            Mix::Reads => window_queries.push(Phase::of(s.reads(main_ops * WORKERS as u64))),
            Mix::WriterAndReader => {
                // Reads beside the writer are counted over the
                // writer's window.
                let (reads, merges) = s.write_and_read(main_ops);
                let merges = Phase::of(merges);
                window_queries.push(Phase {
                    samples: reads,
                    window: merges.window,
                });
                window_merges.push(merges);
            }
        }
        let (after, _) = s.scrape()?;
        windows.push((before, after, before_frame));
        tail.push(Phase::of(match spec.mix {
            Mix::Reads => s.writer_merges(tail_ops),
            Mix::WriterAndReader => s.reads(tail_ops),
        }));
    }

    // Each verb's rate over the time it ran in. The median latency of
    // reads beside the writer flips between "ran free" and "waited for
    // the write guard" from run to run, so on that mix it comes from
    // the tail's reads.
    let query = timing(&window_queries);
    let (query_p50_us, merge) = match spec.mix {
        Mix::Reads => (query.p50_us, timing(&tail)),
        Mix::WriterAndReader => (timing(&tail).p50_us, timing(&window_merges)),
    };
    let pooled = |phases: &[Phase]| -> Vec<Sample> {
        phases
            .iter()
            .flat_map(|p| p.samples.iter().copied())
            .collect()
    };
    let (main_queries, main_merges) = (pooled(&window_queries), pooled(&window_merges));
    let all_query_lat = latencies(&main_queries);
    let merge_lat = latencies(&match spec.mix {
        Mix::Reads => pooled(&tail),
        Mix::WriterAndReader => pooled(&window_merges),
    });
    if all_query_lat.is_empty() || merge_lat.is_empty() || tail.iter().any(|p| p.samples.is_empty())
    {
        out.errors
            .push("a verb got no answered operation; nothing to report".into());
    }
    let us = |sorted: &[u64], q: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            percentile(sorted, q) as f64 / 1e3
        }
    };
    let v = &mut out.values;
    v.insert("query_ops_per_s".into(), query.rate);
    v.insert("query_p50_us".into(), query_p50_us);
    v.insert("merge_ops_per_s".into(), merge.rate);
    v.insert("merge_p50_us".into(), merge.p50_us);
    v.insert("client.query_p99_us".into(), us(&all_query_lat, 0.99));
    v.insert("client.merge_p99_us".into(), us(&merge_lat, 0.99));
    v.insert("client.query_max_us".into(), us(&all_query_lat, 1.0));
    v.insert("client.query_ops_per_s.iqr".into(), query.rate_iqr);
    v.insert("client.merge_ops_per_s.iqr".into(), merge.rate_iqr);
    v.insert(
        "client.samples".into(),
        (main_queries.len()
            + main_merges.len()
            + tail.iter().map(|p| p.samples.len()).sum::<usize>()) as f64,
    );

    // Per-layer counts: what the server's own registry saw between
    // the two scrapes of each window. The first scrape's reply and
    // the second one's request fall inside the delta and are taken
    // back out.
    let d = |name: &str, labels: &[(&str, &str)]| -> f64 {
        let each = windows.iter().map(|(b, a, _)| b.delta(a, name, labels));
        each.sum()
    };
    let scrape_requests = (windows.len() * ("METRICS".len() + 4)) as f64;
    let scrape_replies = windows.iter().map(|w| w.2).sum::<usize>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let handled_query = d("evirel_serve_request_seconds_sum", &[("verb", "query")]);
    let handled_merge = d("evirel_serve_request_seconds_sum", &[("verb", "merge")]);
    let client_seconds: f64 = main_queries
        .iter()
        .chain(&main_merges)
        .map(|(s, e)| (e - s) as f64 / 1e9)
        .sum();
    let (hits, misses, stale) = (
        d("evirel_query_cache_hits_total", &[]),
        d("evirel_query_cache_misses_total", &[]),
        d("evirel_query_cache_stale_total", &[]),
    );
    let (scanned, emitted) = (
        d("evirel_exec_tuples_scanned_total", &[]),
        d("evirel_exec_tuples_emitted_total", &[]),
    );
    let (pool_hits, pool_misses) = (
        d("evirel_store_pool_hits_total", &[]),
        d("evirel_store_pool_misses_total", &[]),
    );
    let stage = |name: &str| d("evirel_query_stage_seconds_sum", &[("stage", name)]);
    let scraped = [
        (
            "serve.requests",
            d("evirel_serve_requests_total", &[("verb", "query")])
                + d("evirel_serve_requests_total", &[("verb", "merge")]),
        ),
        (
            "serve.bytes_read",
            d("evirel_serve_bytes_read_total", &[]) - scrape_requests,
        ),
        (
            "serve.bytes_written",
            d("evirel_serve_bytes_written_total", &[]) - scrape_replies,
        ),
        (
            "serve.busy_rejected",
            d("evirel_serve_busy_rejected_total", &[]),
        ),
        ("serve.errors", d("evirel_serve_request_errors_total", &[])),
        ("serve.handle_s.query", handled_query),
        ("serve.handle_s.merge", handled_merge),
        (
            "serve.outside_handler_share",
            1.0 - ratio(handled_query + handled_merge, client_seconds),
        ),
        ("query.cache_hits", hits),
        ("query.cache_misses", misses),
        ("query.cache_stale", stale),
        (
            "query.cache_evictions",
            d("evirel_query_cache_evictions_total", &[]),
        ),
        ("query.cache_hit_ratio", ratio(hits, hits + misses + stale)),
        ("query.stage_s.parse", stage("parse")),
        ("query.stage_s.cache_lookup", stage("cache_lookup")),
        ("query.stage_s.lower_rewrite", stage("lower_rewrite")),
        ("query.stage_s.execute", stage("execute")),
        ("plan.tuples_scanned", scanned),
        ("plan.tuples_emitted", emitted),
        (
            "plan.pairs_merged",
            d("evirel_exec_pairs_merged_total", &[]),
        ),
        ("plan.conflicts", d("evirel_exec_conflicts_total", &[])),
        ("plan.scanned_per_emitted", ratio(scanned, emitted)),
        ("store.pool_hits", pool_hits),
        ("store.pool_misses", pool_misses),
        (
            "store.pool_evictions",
            d("evirel_store_pool_evictions_total", &[]),
        ),
        (
            "store.pool_hit_ratio",
            ratio(pool_hits, pool_hits + pool_misses),
        ),
        (
            "store.segment_bytes_written",
            d("evirel_store_segment_bytes_total", &[]),
        ),
        (
            "store.journal_records",
            d("evirel_store_journal_records", &[]),
        ),
        (
            "store.journal_append_s",
            d("evirel_store_journal_append_seconds_sum", &[]),
        ),
    ];
    for (name, value) in scraped {
        v.insert(name.into(), value);
    }
    // Not a reported metric: the divisor of `trace.replay_vs_server`.
    v.insert(
        QUERY_REQUESTS.into(),
        d("evirel_serve_requests_total", &[("verb", "query")]),
    );

    // End state: memory, and bytes on disk per byte of user data.
    let (stats, _) = s.conns[0].ask("STATS")?;
    let merged_source = canonical_bytes(&stats, "m0");
    let mut user_bytes = merged_source.map(|b| b * s.merges_sent);
    for (name, _) in spec.stored {
        user_bytes = user_bytes
            .zip(canonical_bytes(&stats, name))
            .map(|(u, b)| u + b);
    }
    let disk = dir_bytes(&launch.data_dir)?;
    match user_bytes {
        Some(user) if user > 0 => {
            v.insert("disk_bytes_per_user_byte".into(), disk as f64 / user as f64);
        }
        _ => out
            .errors
            .push("STATS did not report the merged relations' sizes".into()),
    }
    v.insert("server_peak_rss_mb".into(), s.server.peak_rss_mb()?);

    // Crash: kill -9 (no clean-shutdown checkpoint), restart on the
    // same directory. Every acknowledged merge must be there.
    let acknowledged = s.conns.iter().map(|c| c.last_merge_generation).max();
    let Session {
        mut server, conns, ..
    } = s;
    server.kill();
    let mut learned = expected;
    for conn in conns {
        out.attempted += conn.attempted;
        out.failed += conn.failed;
        out.errors.extend(conn.errors);
        if let Err(why) = learned.merge(&conn.expected) {
            out.errors.push(why);
        }
    }
    let restart = Instant::now();
    let server = Server::start(&launch)?;
    let recover_ms = restart.elapsed().as_secs_f64() * 1e3;
    let mut conn = Conn::open(&server, &learned, origin)?;
    for req in spec.recovery_checks() {
        conn.send(&req);
    }
    if conn.max_generation < acknowledged.unwrap_or(0) {
        out.errors.push(format!(
            "restart recovered generation {} but generation {} was acknowledged",
            conn.max_generation,
            acknowledged.unwrap_or(0)
        ));
    }
    out.attempted += conn.attempted;
    out.failed += conn.failed;
    out.errors.extend(conn.errors);
    let learned = conn.expected;
    drop(server);
    let _ = std::fs::remove_dir_all(&launch.data_dir);
    out.values.insert("store.recover_ms".into(), recover_ms);
    out.values.insert("client.failed".into(), out.failed as f64);

    if !spec.stored.is_empty() {
        for key in 0..spec.queries.len() {
            if let Some(d) = learned.get(key).filter(|d| d.tuples > MAX_STORED_RESULT) {
                out.errors.push(format!(
                    "query {key} of {} returns {} tuples; stored-workload results must stay \
                     at or under {MAX_STORED_RESULT}",
                    spec.name, d.tuples
                ));
            }
        }
    }
    if cfg.bless && out.correct() {
        learned.save(&digest_path)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_bytes_reads_the_stats_line_of_exactly_that_relation() {
        let stats = "server accepted=4\n\
            relation m0 (stored): 6 tuples, 1119 bytes, ≈6 distinct keys, avg focal width 5.67\n\
            relation m01 (stored): 6 tuples, 7 bytes, ≈6 distinct keys\n\
            relation sa (stored): 10000 tuples, 2371790 bytes, ≈10000 distinct keys\n\
            durability dir=dd\n";
        assert_eq!(canonical_bytes(stats, "m0"), Some(1119));
        assert_eq!(canonical_bytes(stats, "m01"), Some(7));
        assert_eq!(canonical_bytes(stats, "sa"), Some(2_371_790));
        assert_eq!(canonical_bytes(stats, "sb"), None);
    }

    #[test]
    fn timing_reads_the_better_quartile_of_the_slices() {
        // One phase of 20 s, one slice a second: 100 ops/s of 10 ms
        // each, but in 12 of the 20 slices 50 ops/s of 20 ms.
        let s = 1_000_000_000u64;
        let mut samples: Vec<Sample> = Vec::new();
        for slice in 0..20u64 {
            let n = if slice % 5 < 3 { 50 } else { 100 };
            let step = s / n;
            samples.extend((0..n).map(|i| (slice * s + i * step, slice * s + (i + 1) * step)));
        }
        let t = timing(&[Phase::of(samples)]);
        assert!((t.rate - 100.0).abs() < 1e-6, "{}", t.rate);
        assert!((t.p50_us - 10_000.0).abs() < 1e-6, "{}", t.p50_us);
        assert!(t.rate_iqr > 0.5, "{}", t.rate_iqr);
    }

    #[test]
    fn timing_gives_every_phase_its_share_of_the_slices() {
        // Ten phases a second apart: two slices each, none across a gap.
        let ms = 1_000_000u64;
        let phases: Vec<Phase> = (0..10u64)
            .map(|p| {
                Phase::of(
                    (0..100)
                        .map(|i| (p * 1000 * ms + i * ms, p * 1000 * ms + (i + 1) * ms))
                        .collect(),
                )
            })
            .collect();
        let t = timing(&phases);
        assert!((t.rate - 1000.0).abs() < 1e-6, "{}", t.rate);
        assert!((t.p50_us - 1000.0).abs() < 1e-6, "{}", t.p50_us);
        assert!(t.rate_iqr.abs() < 1e-9);
    }
}
