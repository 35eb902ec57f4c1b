//! End-to-end replication over real sockets: a durable primary and a
//! durable follower exchange the FOLLOW stream; the follower serves
//! reads at the applied generation, rejects writes, survives its own
//! restarts, and promotes into a writable primary — by verb, and
//! automatically when the primary dies.

use evirel_query::DurableCatalog;
use evirel_serve::protocol::{read_frame, write_frame, Response};
use evirel_serve::{start_with_durability, FollowConfig, ServeConfig, ServerHandle};
use evirel_testkit::{connect, line, ok_body, roundtrip, seeded, series, stat, TempDir};
use std::path::Path;
use std::time::{Duration, Instant};

fn serve_config() -> ServeConfig {
    ServeConfig {
        poll_interval: Duration::from_millis(25),
        ..ServeConfig::default()
    }
}

/// Boot a durable server over `dir` the way the binary does: recover
/// into the seeded catalog, recovered bindings win collisions.
fn boot_with(dir: &Path, serve: ServeConfig) -> ServerHandle {
    let (durable, catalog) = DurableCatalog::open_into(dir, seeded()).expect("data dir recovers");
    start_with_durability(catalog, serve, Some(durable)).expect("server starts")
}

fn boot_primary(dir: &Path) -> ServerHandle {
    boot_with(dir, serve_config())
}

/// Boot a primary on a *fixed* address (so a reborn incarnation is
/// reachable where the follower keeps dialing).
fn boot_primary_at(dir: &Path, addr: &str) -> ServerHandle {
    boot_with(
        dir,
        ServeConfig {
            addr: addr.to_owned(),
            ..serve_config()
        },
    )
}

/// Reserve an ephemeral port and release it for immediate reuse.
fn reserved_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

fn boot_follower_of(dir: &Path, primary_addr: &str) -> ServerHandle {
    boot_with(
        dir,
        ServeConfig {
            follow: Some(FollowConfig::new(primary_addr)),
            ..serve_config()
        },
    )
}

fn boot_follower(dir: &Path, primary: &ServerHandle) -> ServerHandle {
    boot_follower_with(dir, primary, FollowConfig::new(primary.addr().to_string()))
}

fn boot_follower_with(dir: &Path, primary: &ServerHandle, follow: FollowConfig) -> ServerHandle {
    let follow = FollowConfig {
        primary: primary.addr().to_string(),
        ..follow
    };
    boot_with(
        dir,
        ServeConfig {
            follow: Some(follow),
            ..serve_config()
        },
    )
}

/// Block until `cond` holds (polling), or panic after 10 s.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A replication series of `server`'s registry.
fn repl(server: &ServerHandle, series: &str) -> u64 {
    let name = format!("evirel_repl_{series}");
    server.metrics().value(&name, &[]).expect("registered")
}

/// Block until the follower's applied catalog generation reaches
/// `generation`.
fn wait_applied(follower: &ServerHandle, generation: u64) {
    wait_until(
        &format!("follower to apply generation {generation}"),
        || follower.catalog().generation() >= generation,
    );
}

#[test]
fn follower_applies_merges_and_serves_reads_but_rejects_writes() {
    let pdir = TempDir::new("serve-repl-p-basic");
    let fdir = TempDir::new("serve-repl-f-basic");
    let primary = boot_primary(&pdir);
    let follower = boot_follower(&fdir, &primary);

    // Replicated state flows: merge on the primary, read on the
    // follower at the very generation the primary published.
    let mut pc = connect(primary.addr());
    let body = ok_body(roundtrip(&mut pc, "MERGE m1\nSELECT * FROM ra UNION rb"));
    assert!(body.contains("generation=1"), "{body}");
    wait_applied(&follower, 1);
    let mut fc = connect(follower.addr());
    let q = ok_body(roundtrip(&mut fc, "QUERY\nSELECT * FROM m1 WITH SN > 0"));
    assert!(q.starts_with("tuples=6"), "follower must serve m1: {q}");
    assert!(q.contains("generation=1"), "{q}");

    // The replicated record is *durable* on the follower before it is
    // readable: its own STATS durability line says so.
    let fstats = ok_body(roundtrip(&mut fc, "STATS"));
    assert!(fstats.contains("generation_committed=1"), "{fstats}");
    assert!(fstats.contains("role=follower"), "{fstats}");
    assert!(fstats.contains("connected=1"), "{fstats}");

    // Writes are refused with the typed kind, and refused *cheaply*
    // (no generation consumed).
    match roundtrip(&mut fc, "MERGE nope\nSELECT * FROM ra WITH SN > 0") {
        Response::Err { kind, message } => {
            assert_eq!(kind, "readonly");
            assert!(message.contains("standby"), "{message}");
        }
        other => panic!("MERGE on a follower must ERR readonly, got {other:?}"),
    }
    assert_eq!(follower.catalog().generation(), 1);

    // The primary sees its subscriber.
    let pstats = ok_body(roundtrip(&mut pc, "STATS"));
    assert!(pstats.contains("role=primary"), "{pstats}");
    assert!(pstats.contains("followers=1"), "{pstats}");

    // A second merge streams too — including DROP-free rebinds of the
    // same name (last writer wins on both sides).
    ok_body(roundtrip(
        &mut pc,
        "MERGE m1\nSELECT * FROM ra WHERE speciality IS {si} WITH SN > 0",
    ));
    wait_applied(&follower, 2);
    let q = ok_body(roundtrip(&mut fc, "QUERY\nSELECT * FROM m1 WITH SN > 0"));
    assert!(q.starts_with("tuples=2"), "rebound m1 must shrink: {q}");

    roundtrip(&mut pc, "SHUTDOWN");
    follower.shutdown();
    for server in [follower, primary] {
        let metrics = server.join();
        assert_eq!(metrics.value("evirel_serve_panics_total", &[]), Some(0));
    }
}

#[test]
fn promote_verb_flips_a_follower_into_a_writable_server() {
    let pdir = TempDir::new("serve-repl-p-promote");
    let fdir = TempDir::new("serve-repl-f-promote");
    let primary = boot_primary(&pdir);
    let follower = boot_follower(&fdir, &primary);

    let mut pc = connect(primary.addr());
    ok_body(roundtrip(&mut pc, "MERGE base\nSELECT * FROM ra UNION rb"));
    wait_applied(&follower, 1);

    let mut fc = connect(follower.addr());
    let body = ok_body(roundtrip(&mut fc, "PROMOTE"));
    assert!(body.starts_with("promoted generation=1"), "{body}");
    // Idempotent: a second PROMOTE still succeeds.
    ok_body(roundtrip(&mut fc, "PROMOTE"));

    // The promoted server accepts writes, continuing the generation
    // sequence from the last applied one.
    let body = ok_body(roundtrip(
        &mut fc,
        "MERGE local\nSELECT * FROM base WITH SN > 0.4",
    ));
    assert!(body.contains("generation=2"), "{body}");
    let fstats = ok_body(roundtrip(&mut fc, "STATS"));
    assert!(fstats.contains("role=promoted"), "{fstats}");
    // ...and the write is durable on the *follower's* directory.
    assert!(fstats.contains("generation_committed=2"), "{fstats}");

    // PROMOTE on a primary is a cheap no-op.
    let body = ok_body(roundtrip(&mut pc, "PROMOTE"));
    assert!(body.starts_with("already primary"), "{body}");

    roundtrip(&mut pc, "SHUTDOWN");
    roundtrip(&mut fc, "SHUTDOWN");
    primary.join();
    follower.join();
}

#[test]
fn fresh_follower_resyncs_past_a_checkpointed_primary_history() {
    let pdir = TempDir::new("serve-repl-p-resync");
    let fdir = TempDir::new("serve-repl-f-resync");

    // Incarnation 1 of the primary: two merges, clean shutdown — the
    // join() checkpoint folds the journal into the manifest, so the
    // reborn primary has *no* retained records below generation 2.
    {
        let primary = boot_primary(&pdir);
        let mut pc = connect(primary.addr());
        ok_body(roundtrip(&mut pc, "MERGE m1\nSELECT * FROM ra UNION rb"));
        ok_body(roundtrip(
            &mut pc,
            "MERGE m2\nSELECT * FROM ra WITH SN > 0.4",
        ));
        roundtrip(&mut pc, "SHUTDOWN");
        primary.join();
    }

    // A brand-new follower (cursor 0) cannot tail a history that
    // starts at the checkpoint floor — it must take the resync path
    // and still converge.
    let primary = boot_primary(&pdir);
    let follower = boot_follower(&fdir, &primary);
    wait_applied(&follower, 2);
    assert!(
        repl(&follower, "resyncs_total") >= 1,
        "a fresh follower behind the checkpoint floor must resync"
    );
    let mut fc = connect(follower.addr());
    for (name, tuples) in [("m1", "tuples=6"), ("m2", "tuples=")] {
        let q = ok_body(roundtrip(
            &mut fc,
            &format!("QUERY\nSELECT * FROM {name} WITH SN > 0"),
        ));
        assert!(q.starts_with(tuples), "{name} after resync: {q}");
    }
    // Post-resync, the stream degrades to ordinary tailing.
    let mut pc = connect(primary.addr());
    ok_body(roundtrip(&mut pc, "MERGE m3\nSELECT * FROM m1 WITH SN > 0"));
    wait_applied(&follower, 3);

    roundtrip(&mut pc, "SHUTDOWN");
    follower.shutdown();
    follower.join();
    primary.join();
}

#[test]
fn restarted_follower_resumes_from_its_applied_generation() {
    let pdir = TempDir::new("serve-repl-p-resume");
    let fdir = TempDir::new("serve-repl-f-resume");
    let primary = boot_primary(&pdir);
    let mut pc = connect(primary.addr());

    // Follower incarnation 1 applies generation 1, then shuts down
    // cleanly (checkpointing its own directory).
    {
        let follower = boot_follower(&fdir, &primary);
        ok_body(roundtrip(&mut pc, "MERGE m1\nSELECT * FROM ra UNION rb"));
        wait_applied(&follower, 1);
        follower.shutdown();
        follower.join();
    }

    // The primary advances while the follower is down.
    ok_body(roundtrip(
        &mut pc,
        "MERGE m2\nSELECT * FROM ra WITH SN > 0.4",
    ));

    // Incarnation 2 recovers generation 1 from its own directory and
    // resumes the stream from there — applying only the missed merge.
    let follower = boot_follower(&fdir, &primary);
    wait_applied(&follower, 2);
    let mut fc = connect(follower.addr());
    for name in ["m1", "m2"] {
        let q = ok_body(roundtrip(
            &mut fc,
            &format!("QUERY\nSELECT * FROM {name} WITH SN > 0"),
        ));
        assert!(q.starts_with("tuples="), "{name} after resume: {q}");
    }

    roundtrip(&mut pc, "SHUTDOWN");
    follower.shutdown();
    follower.join();
    primary.join();
}

#[test]
fn promote_on_disconnect_fails_over_when_the_primary_dies() {
    let pdir = TempDir::new("serve-repl-p-failover");
    let fdir = TempDir::new("serve-repl-f-failover");
    let primary = boot_primary(&pdir);
    let follower = boot_follower_with(
        &fdir,
        &primary,
        FollowConfig {
            promote_on_disconnect: true,
            retry_budget: 2,
            ..FollowConfig::new(String::new())
        },
    );

    let mut pc = connect(primary.addr());
    ok_body(roundtrip(
        &mut pc,
        "MERGE committed\nSELECT * FROM ra UNION rb",
    ));
    wait_applied(&follower, 1);

    // The primary dies (clean join here; the kill -9 variant lives in
    // scripts/failover.sh). The follower's reconnects exhaust the
    // budget and it promotes itself.
    roundtrip(&mut pc, "SHUTDOWN");
    primary.join();
    wait_until("automatic promotion", || follower.role() == "promoted");

    // Zero committed merges lost, and the survivor accepts writes.
    let mut fc = connect(follower.addr());
    let q = ok_body(roundtrip(
        &mut fc,
        "QUERY\nSELECT * FROM committed WITH SN > 0",
    ));
    assert!(q.starts_with("tuples=6"), "{q}");
    let body = ok_body(roundtrip(
        &mut fc,
        "MERGE after\nSELECT * FROM committed WITH SN > 0",
    ));
    assert!(body.contains("generation=2"), "{body}");

    roundtrip(&mut fc, "SHUTDOWN");
    follower.join();
}

/// Regression: a FOLLOW stream dropped by an **unclean** primary
/// death must resume from the follower's *applied* generation — not
/// from the generation the follower session originally subscribed
/// at. The reborn primary (recovered from its journal, so its
/// retained window still starts at generation 1) will happily offer
/// the whole history to a stale cursor; a follower that re-requests
/// from its session-start generation would then try to re-apply
/// records it already holds (rejected, reconnect, forever — never
/// converging) or, with a laxer apply, double-apply them. The
/// resume cursor must be re-read from the follower's durable state
/// at every reconnect.
#[test]
fn torn_stream_resumes_from_applied_generation_never_reapplies_or_skips() {
    let pdir = TempDir::new("serve-repl-p-torn");
    let fdir = TempDir::new("serve-repl-f-torn");
    let addr = reserved_addr();

    // Incarnation 1: the follower applies generation 1, then the
    // primary dies mid-stream WITHOUT a checkpoint (its journal, and
    // therefore its reborn retained window, still begins at
    // generation 1).
    let primary = boot_primary_at(&pdir, &addr);
    let follower = boot_follower_of(&fdir, &addr);
    let mut pc = connect(primary.addr());
    ok_body(roundtrip(&mut pc, "MERGE m1\nSELECT * FROM ra UNION rb"));
    wait_applied(&follower, 1);
    assert_eq!(repl(&follower, "records_applied_total"), 1);
    primary.shutdown();
    std::mem::forget(primary);
    std::thread::sleep(Duration::from_millis(200));

    // Incarnation 2 on the same port advances the history by one.
    let primary = boot_primary_at(&pdir, &addr);
    let mut pc = connect(primary.addr());
    ok_body(roundtrip(
        &mut pc,
        "MERGE m2\nSELECT * FROM m1 WITH SN > 0.4",
    ));

    // The follower reconnects on its own. With a stale resume cursor
    // it would be offered generation 1 again and never converge;
    // resuming from the applied generation it applies exactly the
    // one record it misses.
    wait_applied(&follower, 2);
    assert_eq!(
        repl(&follower, "records_applied_total"),
        2,
        "exactly one record applied per generation — no re-apply, no skip"
    );
    assert_eq!(repl(&follower, "resyncs_total"), 0);
    let mut fc = connect(follower.addr());
    let q = ok_body(roundtrip(&mut fc, "QUERY\nSELECT * FROM m2 WITH SN > 0"));
    assert!(q.starts_with("tuples="), "{q}");

    roundtrip(&mut pc, "SHUTDOWN");
    follower.shutdown();
    follower.join();
    primary.join();
}

/// `STATS` and `METRICS` agree on every replication number of a
/// replicated pair, and each equals what the test drove: a fresh
/// follower resyncs past a checkpointed history, applies four
/// records, and reconnects once when its primary restarts.
#[test]
fn stats_and_metrics_agree_on_a_replicated_pair() {
    let pdir = TempDir::new("serve-repl-p-scrape");
    let fdir = TempDir::new("serve-repl-f-scrape");
    let addr = reserved_addr();
    let merge = |primary: &ServerHandle, name: &str| {
        let mut c = connect(primary.addr());
        ok_body(roundtrip(
            &mut c,
            &format!("MERGE {name}\nSELECT * FROM ra UNION rb"),
        ));
    };
    let restart = |primary: ServerHandle| {
        primary.shutdown();
        primary.join();
        boot_primary_at(&pdir, &addr)
    };

    // The shutdown checkpoint leaves no record below generation 1 to
    // tail, so the fresh follower takes one resync.
    let primary = boot_primary_at(&pdir, &addr);
    merge(&primary, "m0");
    let primary = restart(primary);
    // The follower's first reconnect waits one poll interval, long
    // enough for a restarted primary to be listening again.
    let follower = boot_with(
        &fdir,
        ServeConfig {
            follow: Some(FollowConfig::new(addr.clone())),
            poll_interval: Duration::from_secs(1),
            ..serve_config()
        },
    );
    wait_applied(&follower, 1);
    merge(&primary, "m1");
    merge(&primary, "m2");
    wait_applied(&follower, 3);
    let primary = restart(primary);
    merge(&primary, "m3");
    merge(&primary, "m4");
    wait_applied(&follower, 5);

    for (server, expected) in [
        (
            &primary,
            [
                ("followers", "evirel_repl_followers", 1),
                ("sent", "evirel_repl_records_sent_total", 2),
            ]
            .as_slice(),
        ),
        (
            &follower,
            &[
                ("applied", "evirel_repl_records_applied_total", 4),
                ("resyncs", "evirel_repl_resyncs_total", 1),
                ("reconnects", "evirel_repl_reconnects_total", 1),
                ("connected", "evirel_repl_connected", 1),
            ],
        ),
    ] {
        let mut c = connect(server.addr());
        let stats = ok_body(roundtrip(&mut c, "STATS"));
        let exposition = ok_body(roundtrip(&mut c, "METRICS"));
        let replication = line(&stats, "replication ");
        for &(key, series_name, count) in expected {
            assert_eq!(stat(replication, key), count, "STATS {key}: {replication}");
            assert_eq!(series(&exposition, series_name), count, "{series_name}");
        }
    }

    follower.shutdown();
    follower.join();
    primary.shutdown();
    primary.join();
}

#[test]
fn follow_without_durability_is_a_typed_error_both_ways() {
    // A server without a data dir refuses FOLLOW...
    let handle = evirel_serve::start(seeded(), serve_config()).expect("server starts");
    let mut c = connect(handle.addr());
    write_frame(&mut c, "FOLLOW 0").expect("writes");
    let reply = read_frame(&mut c).expect("reads").expect("replied");
    match Response::parse(&reply).expect("parses") {
        Response::Err { kind, .. } => assert_eq!(kind, "unsupported"),
        other => panic!("expected ERR unsupported, got {other:?}"),
    }
    roundtrip(&mut c, "SHUTDOWN");
    handle.join();

    // ...and a follower cannot even start without one.
    match start_with_durability(
        seeded(),
        ServeConfig {
            follow: Some(FollowConfig::new("127.0.0.1:1")),
            ..serve_config()
        },
        None,
    ) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("follower without durability must not start"),
    }
}

#[test]
fn diverged_follower_is_refused() {
    // A subscriber claiming a generation ahead of the primary's
    // committed history gets ERR diverged, not an idle stream.
    let pdir = TempDir::new("serve-repl-p-diverged");
    let primary = boot_primary(&pdir);
    let mut c = connect(primary.addr());
    ok_body(roundtrip(&mut c, "MERGE m1\nSELECT * FROM ra UNION rb"));
    write_frame(&mut c, "FOLLOW 99").expect("writes");
    let reply = read_frame(&mut c).expect("reads").expect("replied");
    match Response::parse(&reply).expect("parses") {
        Response::Err { kind, message } => {
            assert_eq!(kind, "diverged");
            assert!(message.contains("ahead"), "{message}");
        }
        other => panic!("expected ERR diverged, got {other:?}"),
    }
    let mut c2 = connect(primary.addr());
    roundtrip(&mut c2, "SHUTDOWN");
    primary.join();
}
