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
//! Convergence means: same committed generation, same manifest
//! entries, same raw segment bytes as the primary.
//!
//! Both halves run production code: the primary's history is written
//! by [`DurableCatalog::bind`] / [`DurableCatalog::unbind`], and the
//! follower applies through [`apply_stream`].

use evirel_obs::EventLog;
use evirel_query::{DurableCatalog, SharedCatalog};
use evirel_serve::replicate::{apply_stream, serve_follow, ApplyCtx, SenderCtx};
use evirel_serve::{read_frame, write_frame, StreamFrame};
use evirel_store::failpoint::FailpointFs;
use evirel_store::JournalRecord;
use evirel_workload::generator::{generate, GeneratorConfig};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "evirel-replfault-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn rel(seed: u64, tuples: usize) -> evirel_relation::ExtendedRelation {
    generate(
        "R",
        &GeneratorConfig {
            tuples,
            domain_size: 4,
            evidential_attrs: 1,
            max_focal: 2,
            max_focal_size: 2,
            omega_mass: 0.2,
            uncertain_membership: 0.25,
            seed,
        },
    )
    .expect("generator config is valid")
}

/// A primary with a short history: five binds (two names rebound)
/// and one drop — six generations, several segment payloads.
fn build_primary(dir: &Path) -> (Mutex<DurableCatalog>, SharedCatalog) {
    let (durable, recovered) = DurableCatalog::open(dir).expect("primary dir opens");
    let shared = SharedCatalog::with_generation(recovered, 0);
    let durable = Mutex::new(durable);
    for (name, seed, tuples) in [
        ("ra", 1u64, 6usize),
        ("rb", 2, 3),
        ("ra", 3, 4),
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
    let sent = AtomicU64::new(0);
    let ctx = SenderCtx {
        catalog: shared,
        durable,
        stop: &stop,
        poll: Duration::from_millis(1),
        records_sent: &sent,
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
    dir: PathBuf,
    durable: Mutex<DurableCatalog>,
    shared: SharedCatalog,
    applied: AtomicU64,
    resyncs: AtomicU64,
    primary_generation: AtomicU64,
    heartbeat_unix_ms: AtomicU64,
    events: EventLog,
}

impl Follower {
    fn open(dir: PathBuf) -> Follower {
        let (durable, recovered) = DurableCatalog::open(&dir).expect("follower dir recovers");
        let generation = durable.recovered_generation();
        Follower {
            dir,
            durable: Mutex::new(durable),
            shared: SharedCatalog::with_generation(recovered, generation),
            applied: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            primary_generation: AtomicU64::new(0),
            heartbeat_unix_ms: AtomicU64::new(0),
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
            records_applied: &self.applied,
            resyncs: &self.resyncs,
            primary_generation: &self.primary_generation,
            heartbeat_unix_ms: &self.heartbeat_unix_ms,
            events: &self.events,
        };
        let mut r = stream;
        apply_stream(&mut r, &ctx)
    }
}

/// Bit-for-bit convergence: committed generation, manifest entries,
/// raw segment bytes.
fn assert_converged(primary: &Mutex<DurableCatalog>, pdir: &Path, follower: &Follower) {
    let p = primary.lock().unwrap();
    let f = follower.durable.lock().unwrap();
    assert_eq!(
        f.committed_generation(),
        p.committed_generation(),
        "committed generations diverge"
    );
    let p_entries: Vec<_> = p.entries().cloned().collect();
    let f_entries: Vec<_> = f.entries().cloned().collect();
    assert_eq!(p_entries, f_entries, "manifest entries diverge");
    for entry in &p_entries {
        let want = std::fs::read(pdir.join(&entry.file)).expect("primary segment reads");
        let got = std::fs::read(follower.dir.join(&entry.file)).expect("follower segment reads");
        assert_eq!(want, got, "segment {} bytes diverge", entry.file);
    }
    assert_eq!(
        follower.shared.generation(),
        p.committed_generation(),
        "published generation lags the durable one"
    );
}

#[test]
fn primary_killed_at_every_send_boundary_converges_after_resume() {
    let pdir = fresh_dir("send-p");
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
        let follower = Follower::open(fresh_dir("send-f"));
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
        assert_converged(&durable, &pdir, &follower);
        std::fs::remove_dir_all(&follower.dir).ok();
    }
    std::fs::remove_dir_all(&pdir).ok();
}

#[test]
fn follower_killed_at_every_fsync_and_write_stride_recovers_and_converges() {
    let pdir = fresh_dir("kill-p");
    let (durable, shared) = build_primary(&pdir);
    let full = capture(&durable, &shared, 0);

    // Pass 1: count the apply path's cost. The follower opens
    // *before* arming, matching the kill pass — the directory open
    // itself is the boot sequence, not the apply path under test.
    let (fsyncs, units) = {
        let fdir = fresh_dir("kill-observe");
        let follower = Follower::open(fdir.clone());
        let fp = FailpointFs::observe();
        follower.apply(&full).expect("observed apply succeeds");
        assert_converged(&durable, &pdir, &follower);
        let counts = (fp.fsyncs(), fp.units());
        drop(fp);
        std::fs::remove_dir_all(&fdir).ok();
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
        let fdir = fresh_dir("kill-f");
        {
            let follower = Follower::open(fdir.clone());
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
        let follower = Follower::open(fdir.clone());
        let resume = capture(&durable, &shared, follower.committed());
        follower
            .apply(&resume)
            .unwrap_or_else(|e| panic!("resume after {mode} kill {at}: {e}"));
        assert_converged(&durable, &pdir, &follower);
        std::fs::remove_dir_all(&fdir).ok();
    }
    std::fs::remove_dir_all(&pdir).ok();
}

#[test]
fn resync_stream_survives_the_same_fault_matrix() {
    // Same two sweeps, but over a RESYNC stream: checkpoint the
    // primary so a cursor-0 follower is below the retained floor.
    let pdir = fresh_dir("resync-p");
    let (durable, shared) = build_primary(&pdir);
    durable.lock().unwrap().checkpoint().expect("checkpoint");
    let full = capture(&durable, &shared, 0);

    // Truncation sweep at frame edges.
    for cut in frame_boundaries(&full)
        .into_iter()
        .flat_map(|b| [b.saturating_sub(1), b, b + 3])
        .filter(|&c| c <= full.len())
    {
        let follower = Follower::open(fresh_dir("resync-cut-f"));
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
        assert_converged(&durable, &pdir, &follower);
        std::fs::remove_dir_all(&follower.dir).ok();
    }

    // Fsync sweep over the install path.
    let fsyncs = {
        let fdir = fresh_dir("resync-observe");
        let follower = Follower::open(fdir.clone());
        let fp = FailpointFs::observe();
        follower.apply(&full).expect("observed resync succeeds");
        let n = fp.fsyncs();
        drop(fp);
        std::fs::remove_dir_all(&fdir).ok();
        n
    };
    for k in 1..=fsyncs {
        let fdir = fresh_dir("resync-kill-f");
        {
            let follower = Follower::open(fdir.clone());
            let fp = FailpointFs::kill_at_fsync(k);
            let _ = follower.apply(&full);
            drop(fp);
        }
        let follower = Follower::open(fdir.clone());
        let resume = capture(&durable, &shared, follower.committed());
        follower
            .apply(&resume)
            .unwrap_or_else(|e| panic!("resync resume after fsync kill {k}: {e}"));
        assert_converged(&durable, &pdir, &follower);
        std::fs::remove_dir_all(&fdir).ok();
    }
    std::fs::remove_dir_all(&pdir).ok();
}

#[test]
fn record_failing_verification_logs_one_event_and_publishes_nothing() {
    let pdir = fresh_dir("verify-p");
    let (durable, shared) = build_primary(&pdir);
    let full = capture(&durable, &shared, 0);

    // Re-frame the stream with one bit of every bind's checksum
    // flipped: the segments arrive intact but no longer verify, so
    // the apply dies at the first record.
    let mut tampered = Vec::new();
    let mut frames = &full[..];
    while let Some(payload) = read_frame(&mut frames).expect("captured stream re-reads") {
        let mut frame = StreamFrame::parse(&payload).expect("captured frame parses");
        if let StreamFrame::Rec(JournalRecord::Bind { checksum, .. }) = &mut frame {
            *checksum ^= 1;
        }
        write_frame(&mut tampered, &frame.encode()).expect("re-frame");
    }

    let follower = Follower::open(fresh_dir("verify-f"));
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
    assert_converged(&durable, &pdir, &follower);
    std::fs::remove_dir_all(&follower.dir).ok();
    std::fs::remove_dir_all(&pdir).ok();
}
