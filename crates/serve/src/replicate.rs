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
//!   record window): every journal record after `g`, in order, each
//!   `REC BIND` preceded by the `SEG` chunks of its segment file.
//!   Generations are strictly increasing — the serve layer journals
//!   exactly one record per published generation.
//! * **Resync mode** (the follower is too far behind): a `SNAP`
//!   frame carrying the full durable entry set, `SEG` payloads for
//!   entries newer than `g` (older entries are byte-identical on both
//!   sides — the follower replayed the same single-writer history),
//!   and a `SNAPEND` commit point. The follower installs the snapshot
//!   atomically via a manifest swap.
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
    read_frame_with, write_frame, Request, Response, StreamFrame, SEG_CHUNK_BYTES,
};
use evirel_obs::{Event, EventLog};
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

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// --------------------------------------------------------- sender

/// What a replication sender needs from the server: the published
/// catalog (for publish wakeups), the durable history, a stop flag,
/// and counters.
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
    /// Incremented per record (or snapshot) shipped.
    pub records_sent: &'a AtomicU64,
}

/// Serve one `FOLLOW <from>` subscription over `w`: handshake frame,
/// then stream until the peer drops, the server stops, or an error.
///
/// # Errors
/// I/O failures writing frames or reading segment files (a segment
/// GC'd mid-ship surfaces here; the follower reconnects and the new
/// plan no longer references it).
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
                    if let JournalRecord::Bind { file, .. } = &record {
                        send_file(w, &dir, file)?;
                    }
                    let generation = record.generation();
                    write_frame(w, &StreamFrame::Rec(record).encode())?;
                    ctx.records_sent.fetch_add(1, Ordering::Relaxed);
                    cursor = generation;
                }
            }
            StreamPlan::Resync {
                generation,
                entries,
            } => {
                write_frame(
                    w,
                    &StreamFrame::Snap {
                        generation,
                        entries: entries.clone(),
                    }
                    .encode(),
                )?;
                for entry in &entries {
                    if entry.generation > cursor {
                        send_file(w, &dir, &entry.file)?;
                    }
                }
                write_frame(w, &StreamFrame::SnapEnd { generation }.encode())?;
                ctx.records_sent.fetch_add(1, Ordering::Relaxed);
                cursor = generation;
            }
        }
    }
    Ok(())
}

/// Ship one segment file as ordered `SEG` chunks.
fn send_file(w: &mut impl Write, dir: &Path, file: &str) -> io::Result<()> {
    let bytes = std::fs::read(dir.join(file))?;
    let total_len = bytes.len() as u64;
    let mut offset = 0u64;
    let mut chunks = bytes.chunks(SEG_CHUNK_BYTES).peekable();
    // Degenerate empty file: still announce it so the receiver
    // creates (and renames) it. Real segments are never empty.
    if chunks.peek().is_none() {
        let frame = StreamFrame::Seg {
            file: file.to_owned(),
            offset: 0,
            total_len,
            chunk: Vec::new(),
        };
        return write_frame(w, &frame.encode());
    }
    for chunk in chunks {
        let frame = StreamFrame::Seg {
            file: file.to_owned(),
            offset,
            total_len,
            chunk: chunk.to_vec(),
        };
        write_frame(w, &frame.encode())?;
        offset += chunk.len() as u64;
    }
    Ok(())
}

// ---------------------------------------------------------- apply

/// What the follower's apply loop needs: its own durable catalog and
/// published catalog, a stop predicate (shutdown **or** promotion),
/// and counters.
pub struct ApplyCtx<'a> {
    /// The follower's published catalog; every applied record
    /// publishes at the primary's generation.
    pub catalog: &'a SharedCatalog,
    /// The follower's durable catalog; records journal here (fsync)
    /// before they publish.
    pub durable: &'a Mutex<DurableCatalog>,
    /// Checked between frames (and while idle); `true` ends the loop.
    pub stop: &'a dyn Fn() -> bool,
    /// Incremented per record applied.
    pub records_applied: &'a AtomicU64,
    /// Incremented per full-state snapshot installed.
    pub resyncs: &'a AtomicU64,
    /// Highest generation the primary has announced (records,
    /// snapshots, or `GEN` heartbeats) — the minuend of the
    /// replication-lag gauge (`primary - applied`).
    pub primary_generation: &'a AtomicU64,
    /// Unix milliseconds of the last frame received from the primary;
    /// 0 until the first frame. The heartbeat-age gauge subtracts
    /// this from now.
    pub heartbeat_unix_ms: &'a AtomicU64,
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
        ctx.heartbeat_unix_ms.store(unix_ms(), Ordering::Relaxed);
        match frame {
            StreamFrame::Seg {
                file,
                offset,
                total_len,
                chunk,
            } => {
                evirel_store::stage_chunk(&dir, &file, offset, &chunk, total_len)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            }
            StreamFrame::Rec(record) => {
                let generation = record.generation();
                *at = ("apply", generation);
                lock(ctx.durable)
                    .apply_record(ctx.catalog, &record)
                    .map_err(to_io)?;
                ctx.records_applied.fetch_add(1, Ordering::Relaxed);
                ctx.primary_generation
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
                ctx.resyncs.fetch_add(1, Ordering::Relaxed);
                ctx.primary_generation
                    .fetch_max(generation, Ordering::Relaxed);
                *at = ("stream", generation);
            }
            // Heartbeat: liveness, plus the primary's committed
            // generation — what the lag gauge measures against.
            StreamFrame::Gen { committed } => {
                ctx.primary_generation
                    .fetch_max(committed, Ordering::Relaxed);
            }
        }
    }
}

/// Wall-clock Unix milliseconds — heartbeat timestamps only, never
/// ordering.
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
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

/// Reconnection policy for a follower.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry backoff; doubles per consecutive failure.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Consecutive connection failures tolerated before giving up
    /// (`None`: retry forever).
    pub retry_budget: Option<u32>,
    /// Socket read poll interval (also bounds stop-flag latency).
    pub poll: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            retry_budget: None,
            poll: Duration::from_millis(100),
        }
    }
}

/// The follower's outer loop: connect to `primary`, `FOLLOW` from the
/// **current** applied generation, apply the stream, reconnect with
/// exponential backoff on any failure. Returns when the stop
/// predicate turns true or the retry budget is exhausted.
pub fn follower_loop(
    primary: &str,
    ctx: &ApplyCtx<'_>,
    connected: &AtomicBool,
    reconnects: &AtomicU64,
    policy: &RetryPolicy,
) -> FollowerExit {
    let mut failures: u32 = 0;
    let mut backoff = policy.initial_backoff;
    let mut first = true;
    loop {
        if (ctx.stop)() {
            return FollowerExit::Stopped;
        }
        if !first {
            reconnects.fetch_add(1, Ordering::Relaxed);
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
        let attempt = match connect(primary, cursor, ctx, policy.poll) {
            Ok(Some(mut stream)) => {
                connected.store(true, Ordering::SeqCst);
                apply_stream(&mut stream, ctx).map(|()| true)
            }
            Ok(None) => Ok(false),
            Err(e) => {
                ctx.failed("connect", cursor, &e);
                Err(e)
            }
        };
        match attempt {
            Ok(handshook) => {
                connected.store(false, Ordering::SeqCst);
                if (ctx.stop)() {
                    return FollowerExit::Stopped;
                }
                if handshook {
                    // The link worked and then dropped: reset the
                    // consecutive-failure count, restart backoff.
                    failures = 1;
                    backoff = policy.initial_backoff;
                } else {
                    failures = failures.saturating_add(1);
                }
            }
            Err(_) => {
                connected.store(false, Ordering::SeqCst);
                failures = failures.saturating_add(1);
            }
        }
        if policy.retry_budget.is_some_and(|budget| failures > budget) {
            return FollowerExit::RetriesExhausted;
        }
        sleep_unless_stopped(backoff, ctx.stop);
        backoff = (backoff * 2).min(policy.max_backoff);
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
