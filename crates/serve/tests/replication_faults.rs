//! The replication fault matrix, wire-free: the primary's FOLLOW
//! stream is captured into bytes, then
//!
//! * the **primary is killed at every send boundary** — the byte
//!   stream is truncated at every frame edge (±bytes into the header
//!   and payload) and at a sweep of interior positions; the follower
//!   applies the torn prefix, reconnects from its applied
//!   generation, and must converge bit-for-bit, never re-applying or
//!   skipping a record;
//! * the **follower is killed at every apply boundary** — a
//!   [`FailpointFs`] sweep over every fsync (and a stride of every
//!   write unit) of the apply path; after each simulated crash the
//!   follower recovers from its own directory, resumes, and must
//!   converge.
//!
//! The primary's history mixes small binds, whose segment rides in
//! the `REC BIND` body, and a large one shipped as `SEG` chunks; the
//! stream is also cut at every byte of one `REC BIND` with a body.
//!
//! Convergence means: same committed generation, same manifest
//! entries, same raw segment bytes as the primary.
//!
//! Both halves run production code: the primary's history is written
//! by [`DurableCatalog::bind`] / [`DurableCatalog::unbind`], and the
//! follower applies through [`apply_stream`].

use evirel_obs::{EventLog, MetricsRegistry};
use evirel_query::{Catalog, DurableCatalog, SharedCatalog};
use evirel_serve::replicate::{
    apply_stream, serve_follow, ApplyCtx, ReplicationMetrics, SenderCtx,
};
use evirel_serve::{read_frame, write_frame, StreamFrame};
use evirel_store::failpoint::FailpointFs;
use evirel_store::JournalRecord;
use evirel_testkit::{assert_converged, config, small_domain, TempDir};
use evirel_workload::generator::{generate, GeneratorConfig};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// [`small_domain`] over four values.
fn rel(seed: u64, tuples: usize) -> evirel_relation::ExtendedRelation {
    let config = GeneratorConfig {
        domain_size: 4,
        ..small_domain(seed, tuples)
    };
    generate("R", &config).expect("generator config is valid")
}

/// A primary with a short history: six binds (two names rebound) and
/// one drop — seven generations. `rd` is past the inline limit, so its
/// segment is a file; every other bind's rides in its record.
fn build_primary(dir: &Path) -> (Mutex<DurableCatalog>, SharedCatalog) {
    let (durable, recovered) =
        DurableCatalog::open_into(dir, Catalog::with_config(&config())).expect("primary dir opens");
    let shared = SharedCatalog::with_generation(recovered, 0);
    let durable = Mutex::new(durable);
    for (name, seed, tuples) in [
        ("ra", 1u64, 6usize),
        ("rb", 2, 1),
        ("ra", 3, 4),
        ("rd", 6, 1200),
        ("rc", 4, 5),
        ("rb", 5, 2),
    ] {
        let r = rel(seed, tuples);
        durable
            .lock()
            .unwrap()
            .bind(&shared, name, &r)
            .expect("primary bind");
    }
    durable
        .lock()
        .unwrap()
        .unbind(&shared, "rc")
        .expect("primary drop");
    (durable, shared)
}

/// A sink that records the stream and trips the sender's stop flag
/// at the first idle heartbeat — by then every record up to the
/// committed generation has been framed.
struct CaptureUntilIdle<'a> {
    buf: Vec<u8>,
    stop: &'a AtomicBool,
}

impl Write for CaptureUntilIdle<'_> {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        // write_frame sends each frame as one buffer: 4-byte header
        // then payload. A GEN heartbeat marks the stream idle.
        if b.len() > 4 && b[4..].starts_with(b"GEN ") {
            self.stop.store(true, Ordering::SeqCst);
            return Ok(b.len()); // swallow the heartbeat
        }
        self.buf.extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Capture the FOLLOW stream from `from` to the committed tip as raw
/// bytes (handshake frame stripped, trailing heartbeat swallowed).
fn capture(durable: &Mutex<DurableCatalog>, shared: &SharedCatalog, from: u64) -> Vec<u8> {
    let stop = AtomicBool::new(false);
    let ctx = SenderCtx {
        catalog: shared,
        durable,
        stop: &stop,
        poll: Duration::from_millis(1),
        metrics: &ReplicationMetrics::new(&MetricsRegistry::new()),
    };
    let mut sink = CaptureUntilIdle {
        buf: Vec::new(),
        stop: &stop,
    };
    serve_follow(&mut sink, &ctx, from).expect("capture never fails");
    // Strip the OK handshake frame — apply_stream consumes stream
    // frames only (the real follower reads the handshake itself).
    let hello_len = u32::from_be_bytes(sink.buf[..4].try_into().unwrap()) as usize;
    sink.buf.split_off(4 + hello_len)
}

/// Byte offsets where frames start within `stream` (plus the end).
fn frame_boundaries(stream: &[u8]) -> Vec<usize> {
    let mut at = 0usize;
    let mut bounds = vec![0];
    while at + 4 <= stream.len() {
        let len = u32::from_be_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len;
        bounds.push(at.min(stream.len()));
    }
    bounds
}

/// The follower half, rebuilt after every simulated crash.
struct Follower {
    durable: Mutex<DurableCatalog>,
    shared: SharedCatalog,
    metrics: ReplicationMetrics,
    events: EventLog,
}

impl Follower {
    fn open(dir: &Path) -> Follower {
        let (durable, recovered) = DurableCatalog::open_into(dir, Catalog::with_config(&config()))
            .expect("follower dir recovers");
        let generation = durable.recovered_generation();
        Follower {
            durable: Mutex::new(durable),
            shared: SharedCatalog::with_generation(recovered, generation),
            metrics: ReplicationMetrics::new(&MetricsRegistry::new()),
            events: EventLog::default(),
        }
    }

    fn committed(&self) -> u64 {
        self.durable.lock().unwrap().committed_generation()
    }

    /// Feed `stream` through the real apply loop. Errors (torn
    /// frames, failpoint kills) are returned, not panicked — they
    /// are the point.
    fn apply(&self, stream: &[u8]) -> io::Result<()> {
        let stop = || false;
        let ctx = ApplyCtx {
            catalog: &self.shared,
            durable: &self.durable,
            stop: &stop,
            metrics: &self.metrics,
            events: &self.events,
        };
        let mut r = stream;
        apply_stream(&mut r, &ctx)
    }

    /// Converged with `primary` bit for bit ([`assert_converged`]), and
    /// published at its generation.
    fn assert_converged_to(&self, primary: &Mutex<DurableCatalog>) {
        let primary = primary.lock().unwrap();
        assert_converged(&primary, &self.durable.lock().unwrap());
        assert_eq!(
            self.shared.generation(),
            primary.committed_generation(),
            "published generation lags the durable one"
        );
    }
}

#[test]
fn primary_killed_at_every_send_boundary_converges_after_resume() {
    let pdir = TempDir::new("replfault-send-p");
    let (durable, shared) = build_primary(&pdir);
    let full = capture(&durable, &shared, 0);
    assert!(!full.is_empty());

    // Cut at every frame edge (±2 bytes: torn headers, torn
    // payloads) and a stride of interior positions.
    let mut cuts: Vec<usize> = frame_boundaries(&full)
        .into_iter()
        .flat_map(|b| [b.saturating_sub(2), b.saturating_sub(1), b, b + 1, b + 2])
        .filter(|&c| c <= full.len())
        .collect();
    let stride = (full.len() / 64).max(1);
    cuts.extend((0..full.len()).step_by(stride));
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let fdir = TempDir::new("replfault-send-f");
        let follower = Follower::open(&fdir);
        // The wire dies mid-stream: apply whatever arrived. A torn
        // frame is an error; a cut between frames is a clean EOF.
        let _ = follower.apply(&full[..cut]);
        let applied = follower.committed();

        // Reconnect: resume from the applied generation. Nothing is
        // re-sent at or below it, and the suffix completes the
        // history.
        let resume = capture(&durable, &shared, applied);
        follower
            .apply(&resume)
            .unwrap_or_else(|e| panic!("resume after cut {cut} (applied {applied}): {e}"));
        follower.assert_converged_to(&durable);
    }
}

/// The stream cut at every byte of a `REC BIND` that carries its
/// segment — its length prefix, head line, and every hex digit of its
/// body: the follower never applies a torn record, and resuming from
/// what it applied converges.
#[test]
fn an_inline_rec_bind_cut_at_every_byte_resumes_and_converges() {
    let pdir = TempDir::new("replfault-byte-p");
    let (durable, recovered) = DurableCatalog::open_into(&pdir, Catalog::with_config(&config()))
        .expect("primary dir opens");
    let shared = SharedCatalog::with_generation(recovered, 0);
    let durable = Mutex::new(durable);
    for (name, seed, tuples) in [("rb", 2u64, 1usize), ("ra", 1, 3)] {
        let r = rel(seed, tuples);
        durable.lock().unwrap().bind(&shared, name, &r).unwrap();
    }
    let full = capture(&durable, &shared, 0);
    let first = frame_boundaries(&full)[1];
    assert!(
        full[4..first].starts_with(b"REC BIND rb ") && full[4..first].contains(&b'\n'),
        "the first frame is rb's inline bind"
    );
    // A torn frame applies nothing, so one follower takes every cut
    // short of the whole frame; it must stay at generation 0, durably.
    let fdir = TempDir::new("replfault-byte-f");
    let follower = Follower::open(&fdir);
    for cut in 0..first {
        let _ = follower.apply(&full[..cut]);
        assert_eq!(follower.committed(), 0, "cut {cut} applied a torn record");
        assert_eq!(follower.shared.generation(), 0, "cut {cut} published");
    }
    drop(follower);
    let follower = Follower::open(&fdir);
    assert_eq!(follower.committed(), 0, "a torn record was journalled");
    follower
        .apply(&full[..first])
        .expect("the whole frame applies");
    assert_eq!(follower.committed(), 1);
    let resume = capture(&durable, &shared, 1);
    follower.apply(&resume).expect("resume applies");
    follower.assert_converged_to(&durable);
}

#[test]
fn follower_killed_at_every_fsync_and_write_stride_recovers_and_converges() {
    let pdir = TempDir::new("replfault-kill-p");
    let (durable, shared) = build_primary(&pdir);
    let full = capture(&durable, &shared, 0);

    // Pass 1: count the apply path's cost. The follower opens
    // *before* arming, matching the kill pass — the directory open
    // itself is the boot sequence, not the apply path under test.
    let (fsyncs, units) = {
        let fdir = TempDir::new("replfault-kill-observe");
        let follower = Follower::open(&fdir);
        let fp = FailpointFs::observe();
        follower.apply(&full).expect("observed apply succeeds");
        follower.assert_converged_to(&durable);
        let counts = (fp.fsyncs(), fp.units());
        drop(fp);
        counts
    };
    assert!(fsyncs > 0, "the apply path must fsync");

    // Pass 2a: kill at every fsync boundary.
    let mut kill_points: Vec<(&str, u64)> = (1..=fsyncs).map(|k| ("fsync", k)).collect();
    // Pass 2b: kill at a stride of write-unit budgets (0 = before
    // the first durable byte).
    let stride = (units / 48).max(1);
    kill_points.extend((0..=units).step_by(stride as usize).map(|b| ("budget", b)));

    for (mode, at) in kill_points {
        let fdir = TempDir::new("replfault-kill-f");
        {
            let follower = Follower::open(&fdir);
            let fp = match mode {
                "fsync" => FailpointFs::kill_at_fsync(at),
                _ => FailpointFs::kill_after(at),
            };
            let outcome = follower.apply(&full);
            if !fp.fired() {
                // The kill point lies beyond this run's cost (e.g.
                // budget == units): the apply simply succeeded.
                outcome.unwrap_or_else(|e| panic!("unfired {mode} {at} must succeed: {e}"));
            }
            drop(fp);
            // The in-memory follower "dies" here with everything it
            // journaled before the kill.
        }
        // Reboot from disk alone, resume from the recovered applied
        // generation, converge.
        let follower = Follower::open(&fdir);
        let resume = capture(&durable, &shared, follower.committed());
        follower
            .apply(&resume)
            .unwrap_or_else(|e| panic!("resume after {mode} kill {at}: {e}"));
        follower.assert_converged_to(&durable);
    }
}

#[test]
fn resync_stream_survives_the_same_fault_matrix() {
    // Same two sweeps, but over a RESYNC stream: checkpoint the
    // primary so a cursor-0 follower is below the retained floor.
    let pdir = TempDir::new("replfault-resync-p");
    let (durable, shared) = build_primary(&pdir);
    durable.lock().unwrap().checkpoint().expect("checkpoint");
    let full = capture(&durable, &shared, 0);

    // Truncation sweep at frame edges.
    for cut in frame_boundaries(&full)
        .into_iter()
        .flat_map(|b| [b.saturating_sub(1), b, b + 3])
        .filter(|&c| c <= full.len())
    {
        let fdir = TempDir::new("replfault-resync-cut-f");
        let follower = Follower::open(&fdir);
        let _ = follower.apply(&full[..cut]);
        // A torn snapshot must be invisible: either nothing was
        // installed (committed 0) or the whole snapshot was.
        let applied = follower.committed();
        assert!(
            applied == 0 || applied == durable.lock().unwrap().committed_generation(),
            "partial snapshot must never commit (got generation {applied})"
        );
        let resume = capture(&durable, &shared, applied);
        follower
            .apply(&resume)
            .unwrap_or_else(|e| panic!("resync resume after cut {cut}: {e}"));
        follower.assert_converged_to(&durable);
    }

    // Fsync sweep over the install path.
    let fsyncs = {
        let fdir = TempDir::new("replfault-resync-observe");
        let follower = Follower::open(&fdir);
        let fp = FailpointFs::observe();
        follower.apply(&full).expect("observed resync succeeds");
        let n = fp.fsyncs();
        drop(fp);
        n
    };
    for k in 1..=fsyncs {
        let fdir = TempDir::new("replfault-resync-kill-f");
        {
            let follower = Follower::open(&fdir);
            let fp = FailpointFs::kill_at_fsync(k);
            let _ = follower.apply(&full);
            drop(fp);
        }
        let follower = Follower::open(&fdir);
        let resume = capture(&durable, &shared, follower.committed());
        follower
            .apply(&resume)
            .unwrap_or_else(|e| panic!("resync resume after fsync kill {k}: {e}"));
        follower.assert_converged_to(&durable);
    }
}

#[test]
fn record_failing_verification_logs_one_event_and_publishes_nothing() {
    let pdir = TempDir::new("replfault-verify-p");
    let (durable, shared) = build_primary(&pdir);
    let full = capture(&durable, &shared, 0);

    // Re-frame the stream with one bit of every bind's checksum
    // flipped — inline or a file: the segments arrive intact but no
    // longer verify, so the apply dies at the first record.
    let mut tampered = Vec::new();
    let mut frames = &full[..];
    while let Some(payload) = read_frame(&mut frames).expect("captured stream re-reads") {
        let mut frame = StreamFrame::parse(&payload).expect("captured frame parses");
        if let StreamFrame::Rec(
            JournalRecord::Bind { checksum, .. } | JournalRecord::BindInline { checksum, .. },
        ) = &mut frame
        {
            *checksum ^= 1;
        }
        write_frame(&mut tampered, &frame.encode()).expect("re-frame");
    }

    let fdir = TempDir::new("replfault-verify-f");

    let follower = Follower::open(&fdir);
    let err = follower
        .apply(&tampered)
        .expect_err("a record whose segment fails verification must not apply");
    assert_eq!(follower.shared.generation(), 0, "nothing was published");
    assert_eq!(follower.committed(), 0, "nothing was journaled");
    let events = follower.events.snapshot();
    assert_eq!(events.len(), 1, "exactly one event: {events:?}");
    assert_eq!(events[0].kind, "replication_error");
    let fields = [
        ("stage", "apply".to_owned()),
        ("generation", "1".to_owned()),
        ("message", err.to_string()),
    ]
    .map(|(k, v)| (k.to_owned(), v));
    assert_eq!(events[0].fields, fields);

    // The failure is not sticky: the intact stream converges.
    follower.apply(&full).expect("intact stream applies");
    follower.assert_converged_to(&durable);
}
