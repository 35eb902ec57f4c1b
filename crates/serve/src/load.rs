//! Load driver for the query service: the client behind the
//! `evirel-bombard` binary.
//!
//! It speaks the one frame codec, [`crate::protocol`], and reads
//! replies with [`Response::parse`].
//!
//! [`run_load`] spawns one OS thread per session; every session
//! opens its own TCP connection (reconnecting with backoff when the
//! server answers `BUSY`), issues a mix of `QUERY` reads and `MERGE`
//! writes, and verifies each response frame. The returned
//! [`LoadReport`] aggregates exact counters — the CI gate asserts
//! `protocol_errors == 0 && server_errors == 0` after a run with
//! ≥ 1000 concurrent sessions.

use crate::protocol::{read_frame, write_frame, Response};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:4643`.
    pub addr: String,
    /// Concurrent sessions (one thread + one connection each).
    pub sessions: usize,
    /// Requests per session.
    pub ops_per_session: usize,
    /// Every `merge_every`-th request is a `MERGE` write (10 → 10%
    /// write mix). 0 disables writes.
    pub merge_every: usize,
    /// Merge targets rotate over `m0..m<merge_targets>` by session
    /// id, so writers contend on a handful of names.
    pub merge_targets: usize,
    /// Read-query pool; sessions rotate through it (this is what
    /// makes the server's plan cache earn its keep).
    pub queries: Vec<String>,
    /// Reconnect attempts per request when the server answers `BUSY`.
    pub max_busy_retries: usize,
    /// Backoff between `BUSY` retries (doubles per attempt).
    pub busy_backoff: Duration,
    /// Per-frame read timeout. Must cover the time a session waits in
    /// the server's pending queue behind other sessions.
    pub read_timeout: Duration,
    /// Optional standby address: `QUERY`/`PING` requests route here
    /// over a second per-session connection while `MERGE` writes stay
    /// on `addr` — the read/write split for driving a replicated
    /// primary/follower pair (a follower answers writes with
    /// `ERR readonly`, so sending it the mixed load would count
    /// server errors). `None` sends everything to `addr`.
    pub read_addr: Option<String>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:4643".into(),
            sessions: 64,
            ops_per_session: 8,
            merge_every: 10,
            merge_targets: 8,
            queries: default_queries(),
            max_busy_retries: 8,
            busy_backoff: Duration::from_millis(20),
            read_timeout: Duration::from_secs(300),
            read_addr: None,
        }
    }
}

/// The read mix matching `evirel-serve --seed-workload`: the paper's
/// restaurant databases (`ra`, `rb`) and the generated pair
/// (`ga`, `gb`).
pub fn default_queries() -> Vec<String> {
    [
        "SELECT * FROM ra WITH SN > 0",
        "SELECT * FROM ra UNION rb",
        "SELECT rname, speciality FROM ra WHERE speciality IS {si} WITH SN > 0",
        "SELECT * FROM ra UNION rb WITH SN > 0.5",
        "SELECT * FROM ga UNION gb WITH SN > 0.3",
        "SELECT k, e0 FROM ga WITH SN > 0",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// Exact counters from one [`run_load`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Sessions that completed all their operations.
    pub sessions_completed: u64,
    /// Requests answered `OK`.
    pub ops_ok: u64,
    /// `BUSY` rejections absorbed by reconnect-with-backoff.
    pub busy_retries: u64,
    /// Sessions abandoned after exhausting `BUSY` retries.
    pub busy_give_ups: u64,
    /// Wire-level failures: torn frames, unparseable responses, I/O
    /// errors, timeouts. **Must be zero** on a healthy run.
    pub protocol_errors: u64,
    /// Typed `ERR` responses. Zero for a valid workload.
    pub server_errors: u64,
    /// `QUERY` responses served from the prepared-plan cache
    /// (`cached=1` in the response header).
    pub cached_plans: u64,
    /// Successful `MERGE` writes acknowledged.
    pub merges_ok: u64,
    /// Client-observed latency of successful `QUERY` round-trips.
    pub query_latency: VerbLatency,
    /// Client-observed latency of successful `MERGE` round-trips.
    pub merge_latency: VerbLatency,
    /// Client-observed latency of successful `PING` round-trips
    /// (only populated when the query pool is empty).
    pub ping_latency: VerbLatency,
}

/// Client-observed latency percentiles for one verb, in microseconds
/// (nearest-rank over every successful round-trip of a run). The
/// server's own histograms measure handling time only; this is what
/// the client actually waited, queueing and wire included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerbLatency {
    /// Round-trips sampled.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl VerbLatency {
    /// Nearest-rank percentiles over raw samples (order irrelevant).
    fn from_samples(samples: &mut [u64]) -> VerbLatency {
        if samples.is_empty() {
            return VerbLatency::default();
        }
        samples.sort_unstable();
        let rank = |q: f64| {
            let idx = ((q * samples.len() as f64).ceil() as usize).saturating_sub(1);
            samples[idx.min(samples.len() - 1)]
        };
        VerbLatency {
            count: samples.len() as u64,
            p50_us: rank(0.50),
            p90_us: rank(0.90),
            p99_us: rank(0.99),
            max_us: samples[samples.len() - 1],
        }
    }
}

/// Which latency bucket a request's round-trip time lands in.
#[derive(Clone, Copy)]
enum Verb {
    Query,
    Merge,
    Ping,
}

#[derive(Default)]
struct Counters {
    sessions_completed: AtomicU64,
    ops_ok: AtomicU64,
    busy_retries: AtomicU64,
    busy_give_ups: AtomicU64,
    protocol_errors: AtomicU64,
    server_errors: AtomicU64,
    cached_plans: AtomicU64,
    merges_ok: AtomicU64,
    // Raw per-verb latency samples (µs), one push per successful
    // round-trip; reduced to percentiles once at report time. A
    // Mutex, not an atomic histogram: sessions push at most once per
    // request, so contention is negligible next to a TCP round-trip.
    query_us: Mutex<Vec<u64>>,
    merge_us: Mutex<Vec<u64>>,
    ping_us: Mutex<Vec<u64>>,
}

impl Counters {
    fn samples(&self, verb: Verb) -> std::sync::MutexGuard<'_, Vec<u64>> {
        let samples = match verb {
            Verb::Query => &self.query_us,
            Verb::Merge => &self.merge_us,
            Verb::Ping => &self.ping_us,
        };
        samples.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Account one `OK`, whether it answered the first send or the
    /// retry after a `BUSY`: its latency, and what its verb counts.
    fn ok(&self, verb: Verb, body: &str, issued: Instant) {
        self.samples(verb).push(issued.elapsed().as_micros() as u64);
        self.ops_ok.fetch_add(1, Ordering::Relaxed);
        match verb {
            Verb::Merge => {
                self.merges_ok.fetch_add(1, Ordering::Relaxed);
            }
            Verb::Query if body.lines().next().is_some_and(|h| h.contains("cached=1")) => {
                self.cached_plans.fetch_add(1, Ordering::Relaxed);
            }
            Verb::Query | Verb::Ping => {}
        }
    }

    fn latency(&self, verb: Verb) -> VerbLatency {
        VerbLatency::from_samples(&mut self.samples(verb))
    }

    fn report(&self) -> LoadReport {
        LoadReport {
            sessions_completed: self.sessions_completed.load(Ordering::Relaxed),
            ops_ok: self.ops_ok.load(Ordering::Relaxed),
            busy_retries: self.busy_retries.load(Ordering::Relaxed),
            busy_give_ups: self.busy_give_ups.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            server_errors: self.server_errors.load(Ordering::Relaxed),
            cached_plans: self.cached_plans.load(Ordering::Relaxed),
            merges_ok: self.merges_ok.load(Ordering::Relaxed),
            query_latency: self.latency(Verb::Query),
            merge_latency: self.latency(Verb::Merge),
            ping_latency: self.latency(Verb::Ping),
        }
    }
}

/// Run the load: `config.sessions` threads, synchronized on a barrier
/// so every session is genuinely concurrent, each issuing
/// `config.ops_per_session` mixed requests.
pub fn run_load(config: &LoadConfig) -> LoadReport {
    let counters = Arc::new(Counters::default());
    let barrier = Arc::new(Barrier::new(config.sessions));
    let mut threads = Vec::with_capacity(config.sessions);
    for sid in 0..config.sessions {
        let config = config.clone();
        let counters = Arc::clone(&counters);
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            run_session(sid, &config, &counters);
        }));
    }
    for t in threads {
        let _ = t.join();
    }
    counters.report()
}

fn run_session(sid: usize, config: &LoadConfig, counters: &Counters) {
    let Some(mut write_conn) = connect(&config.addr, config, counters) else {
        counters.busy_give_ups.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let mut read_conn = match &config.read_addr {
        None => None,
        Some(addr) => match connect(addr, config, counters) {
            Some(c) => Some(c),
            None => {
                counters.busy_give_ups.fetch_add(1, Ordering::Relaxed);
                return;
            }
        },
    };
    for op in 0..config.ops_per_session {
        // Staggered by session id so a 1-in-K write mix holds across
        // the whole run even when ops_per_session < K.
        let is_merge = config.merge_every > 0 && (sid + op).is_multiple_of(config.merge_every);
        let (request, verb) = if is_merge {
            let target = sid % config.merge_targets.max(1);
            (
                format!("MERGE m{target}\nSELECT * FROM ra UNION rb"),
                Verb::Merge,
            )
        } else if config.queries.is_empty() {
            ("PING".to_owned(), Verb::Ping)
        } else {
            let q = &config.queries[(sid + op) % config.queries.len()];
            (format!("QUERY\n{q}"), Verb::Query)
        };
        // Reads route to the standby when one is configured; writes
        // always go to the primary.
        let use_read = !is_merge && read_conn.is_some();
        let mut busy_retried = false;
        let (reply, issued) = loop {
            let conn = match read_conn.as_mut() {
                Some(conn) if use_read => conn,
                _ => &mut write_conn,
            };
            let issued = Instant::now();
            let reply = roundtrip(conn, &request);
            if busy_retried || !matches!(reply, Ok(Response::Busy { .. })) {
                break (reply, issued);
            }
            // Mid-session BUSY means the connection is gone;
            // reconnect (with backoff) and retry this op once.
            busy_retried = true;
            counters.busy_retries.fetch_add(1, Ordering::Relaxed);
            let addr = match &config.read_addr {
                Some(addr) if use_read => addr,
                _ => &config.addr,
            };
            let Some(c) = connect(addr, config, counters) else {
                counters.busy_give_ups.fetch_add(1, Ordering::Relaxed);
                return;
            };
            match read_conn.as_mut() {
                Some(conn) if use_read => *conn = c,
                _ => write_conn = c,
            }
        };
        // A first reply and a retried one are accounted alike.
        match reply {
            Ok(Response::Ok { body }) => counters.ok(verb, &body, issued),
            Ok(Response::Err { .. }) => {
                counters.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Response::Busy { .. }) => {
                counters.busy_give_ups.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    counters.sessions_completed.fetch_add(1, Ordering::Relaxed);
}

/// Connect with retry: connection refusals back off and retry (the
/// listener's OS backlog can overflow transiently under a thousand
/// simultaneous SYNs); `None` after the retry budget.
fn connect(addr: &str, config: &LoadConfig, counters: &Counters) -> Option<TcpStream> {
    let mut backoff = config.busy_backoff;
    for attempt in 0..=config.max_busy_retries {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(Some(config.read_timeout));
                let _ = stream.set_nodelay(true);
                return Some(stream);
            }
            Err(_) if attempt < config.max_busy_retries => {
                counters.busy_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            Err(_) => return None,
        }
    }
    None
}

/// One request frame out, one reply frame's payload back.
fn exchange(stream: &mut TcpStream, request: &str) -> io::Result<String> {
    write_frame(stream, request)?;
    read_frame(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before replying",
        )
    })
}

/// [`exchange`], the reply parsed.
fn roundtrip(stream: &mut TcpStream, request: &str) -> io::Result<Response> {
    let payload = exchange(stream, request)?;
    Response::parse(&payload).map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
}

/// Send one request over a fresh connection and return the raw
/// response payload — the driver-side primitive `evirel-bombard`
/// uses for `STATS` and `SHUTDOWN`.
///
/// # Errors
/// Connection or framing failures.
pub fn request_once(addr: &str, payload: &str, timeout: Duration) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    exchange(&mut stream, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted server: its first connection's request is answered
    /// `BUSY`, its second's `OK` with `body`.
    fn busy_then_ok(body: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let script = std::thread::spawn(move || {
            for reply in ["BUSY\nserver at capacity".to_owned(), format!("OK\n{body}")] {
                let (mut conn, _) = listener.accept().unwrap();
                read_frame(&mut conn).unwrap().expect("a request");
                write_frame(&mut conn, &reply).unwrap();
            }
        });
        (addr, script)
    }

    fn one_op(addr: String, merge_every: usize) -> LoadReport {
        run_load(&LoadConfig {
            addr,
            sessions: 1,
            ops_per_session: 1,
            merge_every,
            queries: vec!["SELECT * FROM ra".into()],
            busy_backoff: Duration::from_millis(1),
            read_timeout: Duration::from_secs(30),
            ..LoadConfig::default()
        })
    }

    #[test]
    fn a_merge_acked_after_busy_counts_as_a_merge() {
        let (addr, script) = busy_then_ok("merged m0 tuples=6 generation=1");
        let report = one_op(addr, 1);
        script.join().unwrap();
        assert_eq!((report.ops_ok, report.merges_ok), (1, 1), "{report:?}");
        assert!(report.busy_retries >= 1, "{report:?}");
        assert_eq!(report.merge_latency.count, 1, "{report:?}");
    }

    #[test]
    fn a_cached_query_answered_after_busy_counts_as_cached() {
        let (addr, script) = busy_then_ok("tuples=0 conflicts=0 cached=1 generation=0\n");
        let report = one_op(addr, 0);
        script.join().unwrap();
        assert_eq!((report.ops_ok, report.cached_plans), (1, 1), "{report:?}");
        assert!(report.busy_retries >= 1, "{report:?}");
        assert_eq!(report.query_latency.count, 1, "{report:?}");
    }
}
