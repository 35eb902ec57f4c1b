//! Durable-service integration: a server started with a data
//! directory journals every MERGE, checkpoints on shutdown, and a
//! *re-started* server recovers the merged catalog — same bindings,
//! same tuples, monotonic generations — whether the previous
//! incarnation shut down cleanly (checkpoint) or was dropped with
//! only the journal on disk.

use evirel_query::{Catalog, DurableCatalog, SharedCatalog};
use evirel_serve::protocol::{read_frame, write_frame, Response};
use evirel_serve::{start_with_durability, ServeConfig, ServerHandle};
use evirel_store::failpoint::FailpointFs;
use evirel_workload::{restaurant_db_a, restaurant_db_b};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "evirel-serve-dur-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn seeded() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("ra", restaurant_db_a().restaurants);
    catalog.register("rb", restaurant_db_b().restaurants);
    catalog
}

/// Boot a durable server over `dir`, overlaying seeds the way the
/// binary does: recover first, recovered bindings win collisions.
fn boot(dir: &PathBuf) -> ServerHandle {
    serve(DurableCatalog::open(dir).expect("data dir recovers"))
}

/// [`boot`], from an already opened directory.
fn serve((durable, recovered): (DurableCatalog, Catalog)) -> ServerHandle {
    let mut catalog = seeded();
    for name in recovered
        .names()
        .iter()
        .map(|s| (*s).to_owned())
        .collect::<Vec<_>>()
    {
        if let Some(stored) = recovered.get_stored(&name) {
            catalog.attach(name, stored);
        }
    }
    start_with_durability(catalog, ServeConfig::default(), Some(durable)).expect("server starts")
}

/// Stop the server WITHOUT the `join()` checkpoint — a crash, as far
/// as the data directory can tell.
fn crash(handle: ServerHandle) {
    handle.shutdown();
    std::mem::forget(handle);
    // Give workers a moment to release the port/files (they hold
    // nothing that blocks recovery; this just quiets the test).
    std::thread::sleep(Duration::from_millis(200));
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.addr()).expect("connects");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

fn roundtrip(stream: &mut TcpStream, payload: &str) -> Response {
    write_frame(stream, payload).expect("request frame writes");
    let reply = read_frame(stream)
        .expect("response frame reads")
        .expect("server replied");
    Response::parse(&reply).expect("response parses")
}

fn ok_body(r: Response) -> String {
    match r {
        Response::Ok { body } => body,
        other => panic!("expected OK, got {other:?}"),
    }
}

/// Extract `key=value` as u64 from a STATS body.
fn stat(body: &str, key: &str) -> u64 {
    body.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {body:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("{key} not a number: {e}"))
}

#[test]
fn merge_survives_clean_shutdown_and_restart() {
    let dir = fresh_dir("clean");

    // Incarnation 1: merge, confirm the STATS durability line, clean
    // shutdown (join checkpoints).
    let gen_after_merge;
    {
        let handle = boot(&dir);
        let mut c = connect(&handle);
        let body = ok_body(roundtrip(&mut c, "MERGE m1\nSELECT * FROM ra UNION rb"));
        assert!(body.starts_with("merged m1"), "{body}");
        let stats = ok_body(roundtrip(&mut c, "STATS"));
        assert!(
            stats.contains("durability dir="),
            "STATS must report durability: {stats}"
        );
        assert_eq!(stat(&stats, "generation_committed"), 1);
        assert_eq!(stat(&stats, "journal_records"), 1);
        gen_after_merge = stat(&stats, "generation");
        assert_eq!(gen_after_merge, 1);
        // The merged binding serves from its durable segment at once.
        let q = ok_body(roundtrip(&mut c, "QUERY\nSELECT * FROM m1 WITH SN > 0"));
        assert!(q.starts_with("tuples=6"), "{q}");
        roundtrip(&mut c, "SHUTDOWN");
        let final_stats = handle.join();
        assert_eq!(final_stats.panics, 0);
    }
    // Clean shutdown checkpointed: manifest present, journal empty
    // (8-byte header only).
    assert!(dir.join("MANIFEST.evm").exists());
    assert_eq!(std::fs::metadata(dir.join("journal.evj")).unwrap().len(), 8);

    // Incarnation 2: the merge is back, the generation continues past
    // the recovered one, and a further merge also persists.
    {
        let handle = boot(&dir);
        let mut c = connect(&handle);
        let stats = ok_body(roundtrip(&mut c, "STATS"));
        assert_eq!(
            stat(&stats, "generation"),
            gen_after_merge,
            "published generation must resume from the recovered one"
        );
        let q = ok_body(roundtrip(&mut c, "QUERY\nSELECT * FROM m1 WITH SN > 0"));
        assert!(q.starts_with("tuples=6"), "recovered m1 must serve: {q}");
        let body = ok_body(roundtrip(
            &mut c,
            "MERGE m2\nSELECT * FROM m1 WITH SN > 0.4",
        ));
        assert!(body.contains("generation=2"), "{body}");
        roundtrip(&mut c, "SHUTDOWN");
        handle.join();
    }

    // Incarnation 3: both merges recovered.
    {
        let handle = boot(&dir);
        let mut c = connect(&handle);
        let stats = ok_body(roundtrip(&mut c, "STATS"));
        assert_eq!(stat(&stats, "generation"), 2);
        for name in ["m1", "m2"] {
            let q = ok_body(roundtrip(
                &mut c,
                &format!("QUERY\nSELECT * FROM {name} WITH SN > 0"),
            ));
            assert!(q.starts_with("tuples="), "{name}: {q}");
        }
        roundtrip(&mut c, "SHUTDOWN");
        handle.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_survives_unclean_drop_via_journal_alone() {
    let dir = fresh_dir("unclean");

    // Incarnation 1: merge, then *abandon* the server without
    // SHUTDOWN/join — no checkpoint happens; only the fsync'd journal
    // and segment are on disk. (Dropping the handle doesn't stop the
    // server, so ask it to stop but skip join's checkpoint by opening
    // the next incarnation on the directory after the workers exit.)
    {
        let handle = boot(&dir);
        let mut c = connect(&handle);
        ok_body(roundtrip(&mut c, "MERGE crashy\nSELECT * FROM ra UNION rb"));
        crash(handle);
    }
    // No checkpoint ran: the manifest is absent, the journal is not.
    assert!(!dir.join("MANIFEST.evm").exists());
    assert!(std::fs::metadata(dir.join("journal.evj")).unwrap().len() > 8);

    // Incarnation 2: journal replay alone recovers the merge.
    let handle = boot(&dir);
    let mut c = connect(&handle);
    let stats = ok_body(roundtrip(&mut c, "STATS"));
    assert_eq!(stat(&stats, "generation"), 1);
    let q = ok_body(roundtrip(&mut c, "QUERY\nSELECT * FROM crashy WITH SN > 0"));
    assert!(q.starts_with("tuples=6"), "{q}");
    roundtrip(&mut c, "SHUTDOWN");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The `key=value` field of a reply's first line, as u64.
fn reply_field(body: &str, key: &str) -> u64 {
    stat(body.lines().next().unwrap_or_default(), key)
}

/// A MERGE whose journal fsync fails is told `ERR` and publishes
/// nothing, so the next MERGE is handed the same generation — and a
/// restart must find that one alone, not the record the first left in
/// the file. The failpoint is thread-local, so the failing MERGE is
/// `DurableCatalog::bind` (the call the MERGE handler makes) on this
/// thread, before the server takes the handle.
#[test]
fn a_merge_whose_journal_fsync_failed_is_absent_after_restart() {
    let rel = restaurant_db_a().restaurants;
    let bind = |durable: &mut DurableCatalog, name: &str| {
        durable.bind(&SharedCatalog::new(Catalog::new()), name, &rel)
    };
    // A bind's last fsync is the journal's: count them on a scratch
    // directory.
    let journal_fsync = {
        let probe = fresh_dir("fsync-probe");
        let mut durable = DurableCatalog::open(&probe).expect("opens").0;
        let fp = FailpointFs::observe();
        bind(&mut durable, "probe").expect("binds");
        std::fs::remove_dir_all(&probe).ok();
        fp.fsyncs()
    };

    let dir = fresh_dir("fsync-fail");
    let (mut durable, recovered) = DurableCatalog::open(&dir).expect("opens");
    {
        let _fp = FailpointFs::fail_fsync(journal_fsync);
        bind(&mut durable, "lost").expect_err("the journal fsync fails");
    }
    {
        let handle = serve((durable, recovered));
        let mut c = connect(&handle);
        let body = ok_body(roundtrip(&mut c, "MERGE kept\nSELECT * FROM ra UNION rb"));
        assert_eq!(reply_field(&body, "generation"), 1, "{body}");
        crash(handle);
    }

    let handle = boot(&dir);
    let mut c = connect(&handle);
    assert_eq!(stat(&ok_body(roundtrip(&mut c, "STATS")), "generation"), 1);
    let kept = ok_body(roundtrip(&mut c, "QUERY\nSELECT * FROM kept WITH SN > 0"));
    assert!(kept.starts_with("tuples=6"), "{kept}");
    let lost = roundtrip(&mut c, "QUERY\nSELECT * FROM lost WITH SN > 0");
    assert!(
        matches!(lost, Response::Err { .. }),
        "the failed MERGE came back: {lost:?}"
    );
    roundtrip(&mut c, "SHUTDOWN");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads beside a durable writer: one connection issues MERGEs back
/// to back, two others read `ra`/`rb` for as long as it does. Every
/// connection sees generations that never go back, no read is served
/// from a generation the journal does not hold yet (a MERGE publishes
/// only after its fsync), and — since no MERGE rebinds `ra` or `rb` —
/// the readers keep their cached plans across every publish.
#[test]
fn readers_beside_a_durable_writer_see_only_journalled_generations() {
    use std::sync::atomic::AtomicBool;
    const MERGES: u64 = 150;
    const MIN_READS: u64 = 150;
    let dir = fresh_dir("beside");
    let handle = boot(&dir);
    let metrics = std::sync::Arc::clone(handle.metrics());
    let committed = || {
        metrics
            .value("evirel_store_committed_generation", &[])
            .expect("a durable server exports its committed generation")
    };
    let writer_done = AtomicBool::new(false);
    /// Set on drop, so a writer that fails an assertion still ends
    /// the readers' loops and the failure is reported, not hung on.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    let (reads, cached) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let _done = Done(&writer_done);
            let mut c = connect(&handle);
            let mut last = 0;
            for i in 0..MERGES {
                let request = format!("MERGE m{}\nSELECT * FROM ra UNION rb", i % 4);
                let generation = reply_field(&ok_body(roundtrip(&mut c, &request)), "generation");
                assert!(
                    generation > last,
                    "acked MERGE generations strictly increase"
                );
                assert!(generation <= committed(), "acked before it was journalled");
                last = generation;
            }
            last
        });
        let readers: Vec<_> = ["ra", "rb"]
            .into_iter()
            .map(|name| {
                let (handle, writer_done, committed) = (&handle, &writer_done, &committed);
                s.spawn(move || {
                    let request = format!("QUERY\nSELECT * FROM {name} WITH SN > 0");
                    let mut c = connect(handle);
                    let (mut reads, mut cached, mut last) = (0u64, 0u64, 0u64);
                    loop {
                        // Sampled first: the read after the writer's
                        // last ack must see its generation.
                        let finished = writer_done.load(Ordering::SeqCst);
                        let body = ok_body(roundtrip(&mut c, &request));
                        let generation = reply_field(&body, "generation");
                        assert!(
                            generation <= committed(),
                            "read served from generation {generation}, not yet journalled"
                        );
                        assert!(generation >= last, "a connection's generations went back");
                        last = generation;
                        reads += 1;
                        cached += reply_field(&body, "cached");
                        if finished && reads >= MIN_READS {
                            return (reads, cached, last);
                        }
                    }
                })
            })
            .collect();
        let last_merge = writer.join().expect("writer");
        assert_eq!(last_merge, MERGES);
        readers.into_iter().fold((0, 0), |(reads, cached), reader| {
            let (r, c, last_read) = reader.join().expect("reader");
            assert_eq!(last_read, last_merge, "the final read sees the final MERGE");
            (reads + r, cached + c)
        })
    });
    assert!(
        cached * 10 > reads * 9,
        "MERGEs into m0..m3 invalidated plans over ra/rb: {cached} of {reads} reads cached"
    );

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The key index of a stored build side rides on the relation, not on
/// the name: QUERY `sa UNION sb`, MERGE a different extension over
/// `sb`, QUERY again — the second reply is the union with the *new*
/// `sb` (a stale index would still answer for the old keys), and the
/// registry counts one index build per binding of `sb`, however many
/// queries probe it.
#[test]
fn a_rebound_build_side_is_indexed_afresh() {
    let dir = fresh_dir("reindex");
    let handle = boot(&dir);
    let metrics = std::sync::Arc::clone(handle.metrics());
    let builds = || metrics.value("evirel_exec_key_index_builds_total", &[]);
    let mut c = connect(&handle);
    let mut tuples = |text: &str| {
        let body = ok_body(roundtrip(&mut c, text));
        reply_field(&body, "tuples")
    };
    // rb's keys are a subset of ra's: rb ∪̃ rb adds nothing, rb ∪̃ ra does.
    let same_keys = tuples("QUERY\nSELECT * FROM rb UNION rb");
    let more_keys = tuples("QUERY\nSELECT * FROM rb UNION ra");
    assert!(same_keys < more_keys);

    for name in ["sa", "sb"] {
        tuples(&format!("MERGE {name}\nSELECT * FROM rb WITH SN > 0"));
    }
    let union = "QUERY\nSELECT * FROM sa UNION sb";
    for _ in 0..3 {
        assert_eq!(tuples(union), same_keys);
    }
    assert_eq!(builds(), Some(1), "three queries, one binding, one build");

    tuples("MERGE sb\nSELECT * FROM ra WITH SN > 0");
    for _ in 0..2 {
        assert_eq!(
            tuples(union),
            more_keys,
            "the reply must reflect the new sb"
        );
    }
    assert_eq!(builds(), Some(2), "the new binding of sb is indexed once");

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
