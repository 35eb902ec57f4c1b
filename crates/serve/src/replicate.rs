//! Streaming replication: the `FOLLOW` sender (primary side) and the
//! apply loop (follower side).
//!
//! ## Stream semantics
//!
//! A follower says `FOLLOW <g>` — "I have durably applied through
//! generation `g`". The sender answers with a normal `OK` frame, then
//! streams [`StreamFrame`]s one-way:
//!
//! * **Tail mode** (the follower is inside the primary's retained
//!   record window): every journal record after `g`, in order. An
//!   inline bind's `REC BIND` carries its segment bytes as its body,
//!   read back from the primary's journal; any other `REC BIND` is
//!   preceded by the `SEG` chunks of its segment file. Generations are
//!   strictly increasing — the serve layer journals exactly one record
//!   per published generation.
//! * **Resync mode** (the follower is too far behind): a `SNAP`
//!   frame carrying the full durable entry set, `SEG` payloads for
//!   entries newer than `g` — an entry still inline in the primary's
//!   journal ships under its reserved file name like a file (older
//!   entries are byte-identical on both sides — the follower replayed
//!   the same single-writer history), and a `SNAPEND` commit point.
//!   The follower installs the snapshot atomically via a manifest swap.
//! * **Heartbeats**: `GEN <committed>` whenever the stream idles, so
//!   a follower can distinguish "no writes" from "dead link".
//!
//! ## The durability rule, replicated
//!
//! The follower applies a record with exactly the primary's
//! discipline — journal + fsync first, publish second, at the
//! generation the *primary* stamped — by calling the one write path:
//! [`DurableCatalog::apply_record`] per `REC`,
//! [`DurableCatalog::install`] per snapshot,
//! [`DurableCatalog::reconcile`] before every (re)connect. A follower
//! therefore never serves a generation it could lose — the invariant
//! that makes standby reads safe. This module only frames, counts and
//! heartbeats.
//!
//! ## Resume
//!
//! Reconnection always resumes from the follower's **current applied
//! generation** (re-read from its durable catalog at every attempt),
//! never from the generation the session originally started at: a
//! stream cut mid-frame loses at most un-acked work, and the next
//! `FOLLOW` re-requests exactly the suffix after what survived. The
//! sender's side of the same contract is [`DurableCatalog::
//! stream_plan`], which never re-sends a record at or below the
//! requested cursor.
//!
//! Everything here is written against generic `Read`/`Write` streams;
//! the TCP glue lives in [`crate::server`], and the fault-injection
//! suites drive these functions over in-memory buffers cut at
//! arbitrary byte boundaries.

use crate::protocol::{
    is_timeout, read_frame_with, write_frame, Request, Response, StreamFrame, SEG_CHUNK_BYTES,
};
use evirel_obs::{Counter, Event, EventLog, Gauge, MetricsRegistry};
use evirel_query::{DurableCatalog, SharedCatalog, StreamPlan};
use evirel_store::{JournalRecord, ManifestEntry};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn to_io(e: evirel_query::QueryError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn store_io(e: evirel_store::StoreError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Wall-clock Unix milliseconds — heartbeat timestamps and their age
/// only, never ordering.
pub(crate) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// A server's replication series: handles onto its
/// [`MetricsRegistry`] that the sender, the apply loop and the
/// follower loop push into, plus the two raw inputs the scrape-time
/// collector derives generation lag and heartbeat age from.
#[derive(Debug)]
pub struct ReplicationMetrics {
    /// `FOLLOW` subscriptions currently attached (primary side).
    pub followers: Gauge,
    /// Records (or resync snapshots) shipped to followers.
    pub sent: Counter,
    /// Records applied from a primary (follower side).
    pub applied: Counter,
    /// Full-state resyncs installed (follower side).
    pub resyncs: Counter,
    /// Reconnect attempts after the initial connection.
    pub reconnects: Counter,
    /// Whether the follower link is up (0/1).
    pub connected: Gauge,
    /// Highest generation the primary has announced (records,
    /// snapshots, or `GEN` heartbeats) — the minuend of the
    /// replication-lag gauge (`primary - applied`).
    pub primary_generation: AtomicU64,
    /// Unix milliseconds of the last frame received from the primary;
    /// 0 until the first frame. The heartbeat-age gauge subtracts
    /// this from now.
    pub heartbeat_unix_ms: AtomicU64,
}

impl ReplicationMetrics {
    /// Register the `evirel_repl_*` series in `registry` and hold
    /// their handles.
    pub fn new(registry: &MetricsRegistry) -> ReplicationMetrics {
        ReplicationMetrics {
            followers: registry.gauge(
                "evirel_repl_followers",
                "FOLLOW subscriptions currently attached",
                &[],
            ),
            sent: registry.counter(
                "evirel_repl_records_sent_total",
                "Records or snapshots shipped to followers",
                &[],
            ),
            applied: registry.counter(
                "evirel_repl_records_applied_total",
                "Records applied from a primary",
                &[],
            ),
            resyncs: registry.counter(
                "evirel_repl_resyncs_total",
                "Full-state resyncs installed",
                &[],
            ),
            reconnects: registry.counter(
                "evirel_repl_reconnects_total",
                "Reconnect attempts after the initial connection",
                &[],
            ),
            connected: registry.gauge(
                "evirel_repl_connected",
                "Whether the follower link is up (0/1)",
                &[],
            ),
            primary_generation: AtomicU64::new(0),
            heartbeat_unix_ms: AtomicU64::new(0),
        }
    }
}

// --------------------------------------------------------- sender

/// What a replication sender needs from the server: the published
/// catalog (for publish wakeups), the durable history, a stop flag,
/// and the replication series.
pub struct SenderCtx<'a> {
    /// The published catalog — [`SharedCatalog::wait_newer`] parks
    /// the sender between writes.
    pub catalog: &'a SharedCatalog,
    /// The durable history records are planned from.
    pub durable: &'a Mutex<DurableCatalog>,
    /// Server shutdown flag; the sender exits cleanly when set.
    pub stop: &'a AtomicBool,
    /// Idle heartbeat cadence (the server's poll interval).
    pub poll: Duration,
    /// [`ReplicationMetrics::sent`] counts each record (or snapshot)
    /// shipped.
    pub metrics: &'a ReplicationMetrics,
}

/// Serve one `FOLLOW <from>` subscription over `w`: handshake frame,
/// then stream until the peer drops, the server stops, or an error.
///
/// # Errors
/// I/O failures writing frames or reading segment files or retained
/// inline records (a segment GC'd, or a record a checkpoint truncated,
/// mid-ship surfaces here; the follower reconnects and the new plan —
/// a resync — no longer references it).
pub fn serve_follow(w: &mut impl Write, ctx: &SenderCtx<'_>, from: u64) -> io::Result<()> {
    let (dir, committed) = {
        let durable = lock(ctx.durable);
        (durable.dir().to_path_buf(), durable.committed_generation())
    };
    if from > committed {
        // The subscriber claims a future we never produced — a
        // diverged history (or the wrong primary). Refuse loudly
        // rather than silently idling forever.
        let err = Response::error(
            "diverged",
            format!("follower applied generation {from} is ahead of this primary's {committed}"),
        );
        write_frame(w, &err.encode())?;
        return Ok(());
    }
    let mode = match lock(ctx.durable).stream_plan(from) {
        StreamPlan::Tail(_) => "tail",
        StreamPlan::Resync { .. } => "resync",
    };
    let hello = Response::Ok {
        body: format!("following from={from} committed={committed} mode={mode}"),
    };
    write_frame(w, &hello.encode())?;

    let mut cursor = from;
    while !ctx.stop.load(Ordering::SeqCst) {
        let plan = lock(ctx.durable).stream_plan(cursor);
        match plan {
            StreamPlan::Tail(records) if records.is_empty() => {
                // Nothing to send: park on the publish signal, and
                // heartbeat when a poll interval passes without one.
                if ctx.catalog.wait_newer(cursor, ctx.poll).is_none() {
                    let committed = lock(ctx.durable).committed_generation();
                    write_frame(w, &StreamFrame::Gen { committed }.encode())?;
                }
            }
            StreamPlan::Tail(records) => {
                for record in records {
                    if ctx.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    let record = match record {
                        JournalRecord::Bind { ref file, .. } => {
                            send_file(w, &dir, file)?;
                            record
                        }
                        record => record.loaded(&dir).map_err(store_io)?,
                    };
                    let generation = record.generation();
                    write_frame(w, &StreamFrame::Rec(record).encode())?;
                    ctx.metrics.sent.inc();
                    cursor = generation;
                }
            }
            StreamPlan::Resync {
                generation,
                entries,
                inline,
            } => {
                write_frame(
                    w,
                    &StreamFrame::Snap {
                        generation,
                        entries: entries.clone(),
                    }
                    .encode(),
                )?;
                for entry in entries.iter().filter(|e| e.generation > cursor) {
                    match inline.get(&entry.file) {
                        Some(bytes) => send_segment(w, &entry.file, &mut &bytes[..], bytes.len())?,
                        None => send_file(w, &dir, &entry.file)?,
                    }
                }
                write_frame(w, &StreamFrame::SnapEnd { generation }.encode())?;
                ctx.metrics.sent.inc();
                cursor = generation;
            }
        }
    }
    Ok(())
}

/// Ship one segment file as ordered `SEG` chunks, read a chunk at a
/// time.
fn send_file(w: &mut impl Write, dir: &Path, file: &str) -> io::Result<()> {
    let mut source = std::fs::File::open(dir.join(file))?;
    let total_len = source.metadata()?.len() as usize;
    send_segment(w, file, &mut source, total_len)
}

/// Ship `total_len` segment bytes from `source` as ordered `SEG`
/// chunks of at most [`SEG_CHUNK_BYTES`], holding one chunk at a time.
/// An empty segment is still announced by one empty chunk, so the
/// receiver creates (and renames) it; real segments are never empty.
fn send_segment(
    w: &mut impl Write,
    file: &str,
    source: &mut impl Read,
    total_len: usize,
) -> io::Result<()> {
    let mut offset = 0;
    loop {
        let mut chunk = vec![0; (total_len - offset).min(SEG_CHUNK_BYTES)];
        source.read_exact(&mut chunk)?;
        let len = chunk.len();
        let frame = StreamFrame::Seg {
            file: file.to_owned(),
            offset: offset as u64,
            total_len: total_len as u64,
            chunk,
        };
        write_frame(w, &frame.encode())?;
        offset += len;
        if offset == total_len {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------- apply

/// What the follower's apply loop needs: its own durable catalog and
/// published catalog, a stop predicate (shutdown **or** promotion),
/// and the replication series.
pub struct ApplyCtx<'a> {
    /// The follower's published catalog; every applied record
    /// publishes at the primary's generation.
    pub catalog: &'a SharedCatalog,
    /// The follower's durable catalog; records journal here (fsync)
    /// before they publish.
    pub durable: &'a Mutex<DurableCatalog>,
    /// Checked between frames (and while idle); `true` ends the loop.
    pub stop: &'a dyn Fn() -> bool,
    /// Applied records, installed snapshots, the link state, and what
    /// the primary announced when.
    pub metrics: &'a ReplicationMetrics,
    /// Where follower failures are logged (the server's event ring):
    /// one `replication_error` event per failed connect, stream,
    /// apply, install or reconcile.
    pub events: &'a EventLog,
}

impl ApplyCtx<'_> {
    /// Log one follower failure: `stage` is the step that failed,
    /// `generation` the one it was working toward.
    fn failed(&self, stage: &str, generation: u64, error: &dyn std::fmt::Display) {
        self.events.record(
            Event::new("replication_error")
                .field("stage", stage)
                .field("generation", generation)
                .field("message", error),
        );
    }
}

/// Apply stream frames from `r` until the stream ends, `stop` turns
/// true, or an error. Ordinary returns (`Ok`) mean "reconnect if you
/// still want to follow"; errors mean the same and leave one
/// `replication_error` event in [`ApplyCtx::events`].
///
/// # Errors
/// I/O and protocol failures; a failed verification or out-of-order
/// record surfaces as `InvalidData`. The durable state is never left
/// half-applied (each record is atomic; a snapshot is a manifest
/// swap).
pub fn apply_stream(r: &mut impl Read, ctx: &ApplyCtx<'_>) -> io::Result<()> {
    // The step in flight and the generation it works toward — what
    // the error event reports.
    let mut at = ("stream", lock(ctx.durable).committed_generation());
    apply_frames(r, ctx, &mut at).inspect_err(|e| ctx.failed(at.0, at.1, e))
}

fn apply_frames(
    r: &mut impl Read,
    ctx: &ApplyCtx<'_>,
    at: &mut (&'static str, u64),
) -> io::Result<()> {
    let dir = lock(ctx.durable).dir().to_path_buf();
    let m = ctx.metrics;
    let mut pending_snap: Option<(u64, Vec<ManifestEntry>)> = None;
    loop {
        if (ctx.stop)() {
            return Ok(());
        }
        let payload = match read_frame_with(r, || !(ctx.stop)()) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // peer closed between frames
            Err(e) if is_timeout(&e) => continue, // idle poll tick
            Err(e) => return Err(e),
        };
        let frame = StreamFrame::parse(&payload)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
        // Every frame is proof of life — heartbeats included.
        m.heartbeat_unix_ms.store(unix_ms(), Ordering::Relaxed);
        match frame {
            StreamFrame::Seg {
                file,
                offset,
                total_len,
                chunk,
            } => {
                evirel_store::stage_chunk(&dir, &file, offset, &chunk, total_len)
                    .map_err(store_io)?;
            }
            StreamFrame::Rec(record) => {
                let generation = record.generation();
                *at = ("apply", generation);
                lock(ctx.durable)
                    .apply_record(ctx.catalog, &record)
                    .map_err(to_io)?;
                m.applied.inc();
                m.primary_generation
                    .fetch_max(generation, Ordering::Relaxed);
                *at = ("stream", generation);
            }
            StreamFrame::Snap {
                generation,
                entries,
            } => pending_snap = Some((generation, entries)),
            StreamFrame::SnapEnd { generation } => {
                *at = ("install", generation);
                let Some((announced, entries)) = pending_snap.take() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "SNAPEND without a preceding SNAP",
                    ));
                };
                if announced != generation {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("SNAPEND generation {generation} != SNAP {announced}"),
                    ));
                }
                lock(ctx.durable)
                    .install(ctx.catalog, generation, entries)
                    .map_err(to_io)?;
                m.resyncs.inc();
                m.primary_generation
                    .fetch_max(generation, Ordering::Relaxed);
                *at = ("stream", generation);
            }
            // Heartbeat: liveness, plus the primary's committed
            // generation — what the lag gauge measures against.
            StreamFrame::Gen { committed } => {
                m.primary_generation.fetch_max(committed, Ordering::Relaxed);
            }
        }
    }
}

// ------------------------------------------------------- follower

/// Why [`follower_loop`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerExit {
    /// The stop predicate turned true (shutdown or promotion).
    Stopped,
    /// The reconnect budget ran out (`--promote-on-disconnect`).
    RetriesExhausted,
}

/// Standby configuration: where the primary is and what to do when
/// it goes away. The reconnect backoff is not configured here: it is
/// derived from the server's poll interval (see [`follower_loop`]).
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
}

impl FollowConfig {
    /// A standby of `primary` with a retry budget of 5 and manual
    /// promotion.
    pub fn new(primary: impl Into<String>) -> FollowConfig {
        FollowConfig {
            primary: primary.into(),
            promote_on_disconnect: false,
            retry_budget: 5,
        }
    }
}

/// The follower's first reconnect backoff and its ceiling under poll
/// interval `poll`.
fn reconnect_backoff(poll: Duration) -> (Duration, Duration) {
    (poll, poll * 20)
}

/// The follower's outer loop: connect to `follow.primary`, `FOLLOW`
/// from the **current** applied generation, apply the stream,
/// reconnect with exponential backoff on any failure. `poll` is the
/// socket read poll interval (it also bounds stop-flag latency) and
/// sets the backoff: one poll interval first, doubling per
/// consecutive failure up to twenty. Returns when the stop
/// predicate turns true or, with `promote_on_disconnect`, the retry
/// budget is exhausted.
pub fn follower_loop(follow: &FollowConfig, poll: Duration, ctx: &ApplyCtx<'_>) -> FollowerExit {
    let (initial_backoff, max_backoff) = reconnect_backoff(poll);
    let retry_budget = follow.promote_on_disconnect.then_some(follow.retry_budget);
    let m = ctx.metrics;
    let mut failures: u32 = 0;
    let mut backoff = initial_backoff;
    let mut first = true;
    loop {
        if (ctx.stop)() {
            return FollowerExit::Stopped;
        }
        if !first {
            m.reconnects.inc();
        }
        first = false;
        // Resume from what is durably applied *now* — never from
        // where this loop started: an unclean primary death tears the
        // stream after records were applied, and a reborn primary
        // offered the stale session-start cursor would re-send them
        // (rejected by apply_record, so the follower would loop on
        // reconnect forever instead of converging).
        let cursor = {
            let durable = lock(ctx.durable);
            // A crash (or apply error) may have left the durable
            // state ahead of the published catalog — republish before
            // resuming so reads catch up to everything already safe.
            if let Err(e) = durable.reconcile(ctx.catalog) {
                ctx.failed("reconcile", durable.committed_generation(), &e);
            }
            durable.committed_generation()
        };
        // Failures past the handshake are logged by `apply_stream`.
        let attempt = match connect(&follow.primary, cursor, ctx, poll) {
            Ok(Some(mut stream)) => {
                m.connected.set(1);
                apply_stream(&mut stream, ctx).map(|()| true)
            }
            Ok(None) => Ok(false),
            Err(e) => {
                ctx.failed("connect", cursor, &e);
                Err(e)
            }
        };
        m.connected.set(0);
        match attempt {
            Ok(handshook) => {
                if (ctx.stop)() {
                    return FollowerExit::Stopped;
                }
                if handshook {
                    // The link worked and then dropped: reset the
                    // consecutive-failure count, restart backoff.
                    failures = 1;
                    backoff = initial_backoff;
                } else {
                    failures = failures.saturating_add(1);
                }
            }
            Err(_) => failures = failures.saturating_add(1),
        }
        if retry_budget.is_some_and(|budget| failures > budget) {
            return FollowerExit::RetriesExhausted;
        }
        sleep_unless_stopped(backoff, ctx.stop);
        backoff = (backoff * 2).min(max_backoff);
    }
}

/// Dial `primary` and `FOLLOW` from `from`. `None` means the stop
/// predicate fired before the handshake completed.
fn connect(
    primary: &str,
    from: u64,
    ctx: &ApplyCtx<'_>,
    poll: Duration,
) -> io::Result<Option<TcpStream>> {
    let mut stream = TcpStream::connect(primary)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(poll));
    write_frame(&mut stream, &Request::Follow { from }.encode())?;
    let hello = loop {
        match read_frame_with(&mut stream, || !(ctx.stop)()) {
            Ok(Some(p)) => break p,
            Ok(None) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "primary closed before the FOLLOW handshake",
                ))
            }
            Err(e) if is_timeout(&e) => {
                if (ctx.stop)() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    };
    match Response::parse(&hello) {
        Ok(Response::Ok { .. }) => {}
        Ok(Response::Err { kind, message }) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("primary refused FOLLOW ({kind}): {message}"),
            ))
        }
        Ok(Response::Busy { message }) => {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("primary busy: {message}"),
            ))
        }
        Err(m) => return Err(io::Error::new(io::ErrorKind::InvalidData, m)),
    }
    Ok(Some(stream))
}

/// Sleep `total`, in slices, bailing early when `stop` turns true.
fn sleep_unless_stopped(total: Duration, stop: &dyn Fn() -> bool) {
    let slice = Duration::from_millis(20);
    let mut left = total;
    while !stop() && !left.is_zero() {
        let nap = left.min(slice);
        std::thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon leaves the poll interval at its default, so its
    /// follower first backs off 100 ms and never more than 2 s.
    #[test]
    fn the_daemon_follower_backs_off_100ms_first_and_2s_at_most() {
        let poll = crate::ServeConfig::default().poll_interval;
        assert_eq!(
            reconnect_backoff(poll),
            (Duration::from_millis(100), Duration::from_secs(2))
        );
    }

    /// A segment past two chunks, read one chunk at a time, ships as
    /// the frames that cutting the whole file into `SEG_CHUNK_BYTES`
    /// pieces gives: same chunks, offsets and total.
    #[test]
    fn a_segment_ships_in_the_same_frames_read_a_chunk_at_a_time() {
        let dir = std::env::temp_dir().join(format!("evirel-send-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = "seg-000001.evb";
        let bytes: Vec<u8> = (0..2 * SEG_CHUNK_BYTES + 777)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        std::fs::write(dir.join(file), &bytes).unwrap();

        let mut sent = Vec::new();
        send_file(&mut sent, &dir, file).unwrap();
        let mut expected = Vec::new();
        for (i, chunk) in bytes.chunks(SEG_CHUNK_BYTES).enumerate() {
            let frame = StreamFrame::Seg {
                file: file.to_owned(),
                offset: (i * SEG_CHUNK_BYTES) as u64,
                total_len: bytes.len() as u64,
                chunk: chunk.to_vec(),
            };
            write_frame(&mut expected, &frame.encode()).unwrap();
        }
        assert_eq!(bytes.chunks(SEG_CHUNK_BYTES).count(), 3);
        assert!(sent == expected, "the frame sequence changed");

        // An empty file is still announced, by one empty chunk.
        std::fs::write(dir.join(file), b"").unwrap();
        let mut sent = Vec::new();
        send_file(&mut sent, &dir, file).unwrap();
        let mut expected = Vec::new();
        let empty = StreamFrame::Seg {
            file: file.to_owned(),
            offset: 0,
            total_len: 0,
            chunk: Vec::new(),
        };
        write_frame(&mut expected, &empty.encode()).unwrap();
        assert_eq!(sent, expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}
