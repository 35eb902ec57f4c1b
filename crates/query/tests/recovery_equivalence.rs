//! Recovery equivalence: for any sequence of journaled catalog
//! mutations, replaying the data directory from disk must produce
//! exactly the catalog an in-memory application of the same mutations
//! produces — same binding set, same schemas, same tuples bit for
//! bit, same generation counter — including when the sequence is
//! interrupted by a simulated restart (close + reopen) mid-way.

use evirel_query::{Catalog, DurableCatalog, SharedCatalog};
use evirel_testkit::{config, identical, relation, OrFail, TempDir};
use proptest::prelude::*;

/// One scripted mutation. `Restart` closes the durable handle and
/// shared catalog and reopens both from disk — the crash/reboot
/// boundary under test (with a clean journal tail; torn tails are the
/// store crash-injection suite's job).
#[derive(Debug, Clone)]
enum Op {
    Bind {
        name: String,
        seed: u64,
        tuples: usize,
    },
    Drop {
        name: String,
    },
    Checkpoint,
    Restart,
}

/// Tuples of a large bind: its segment is past the inline limit, so
/// it is written as a file (`recovered_bindings_are_queryable_and_gc_prunes`
/// pins this).
const LARGE: usize = 1200;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40, 1usize..10).prop_map(|(seed, tuples)| Op::Bind {
            name: format!("r{}", seed % 4),
            seed,
            tuples,
        }),
        (0u64..40).prop_map(|seed| Op::Bind {
            name: format!("r{}", seed % 4),
            seed,
            tuples: LARGE,
        }),
        (0u64..40, 2usize..12).prop_map(|(seed, tuples)| Op::Bind {
            name: format!("r{}", seed % 4),
            seed,
            tuples,
        }),
        (0u64..4).prop_map(|n| Op::Drop {
            name: format!("r{n}")
        }),
        Just(Op::Checkpoint),
        Just(Op::Restart),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Disk replay ≡ fresh in-memory application, at every prefix the
    /// `Restart` boundaries cut the script into.
    #[test]
    fn disk_replay_equals_in_memory_catalog(
        script in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let dir = TempDir::new("recoveq-script");

        // Durable side: a SharedCatalog + DurableCatalog pair driven
        // through the write path evirel-serve calls.
        let (mut durable, recovered) = DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
        let mut shared = SharedCatalog::with_generation(recovered, 0);

        // Oracle side: a plain in-memory catalog + generation counter.
        let mut oracle = Catalog::with_config(&config());
        let mut oracle_generation = 0u64;

        for op in &script {
            match op {
                Op::Bind { name, seed, tuples } => {
                    let r = relation(*seed, *tuples);
                    durable.bind(&shared, name, &r).unwrap();
                    oracle.register(name.clone(), r);
                    oracle_generation += 1;
                }
                Op::Drop { name } => {
                    durable.unbind(&shared, name).unwrap();
                    oracle.deregister(name);
                    oracle_generation += 1;
                }
                Op::Checkpoint => {
                    durable.checkpoint().unwrap();
                }
                Op::Restart => {
                    // Close everything and recover purely from disk.
                    drop(durable);
                    let (d2, catalog) = DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
                    prop_assert_eq!(
                        d2.recovered_generation(),
                        oracle_generation,
                        "generation counter must survive the restart"
                    );
                    durable = d2;
                    shared = SharedCatalog::with_generation(
                        catalog,
                        durable.recovered_generation(),
                    );
                }
            }

            // Invariant after every op: live view ≡ oracle, and the
            // published generation tracks the mutation count.
            let pinned = shared.pin();
            prop_assert_eq!(pinned.generation(), oracle_generation);
            prop_assert_eq!(pinned.catalog().names(), oracle.names());
        }

        // Final restart: the recovered catalog equals the oracle bit
        // for bit.
        drop(durable);
        let (durable, catalog) = DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
        prop_assert_eq!(durable.recovered_generation(), oracle_generation);
        prop_assert_eq!(catalog.names(), oracle.names());
        for name in oracle.names() {
            let got = catalog.materialize(name).unwrap();
            let want = oracle.materialize(name).unwrap();
            identical(&want, &got).or_fail(name);
        }
    }
}

/// The serve-shaped happy path, spelled out once without proptest:
/// bind → checkpoint → bind → reopen recovers both bindings and the
/// exact generation, and stats counters move.
#[test]
fn open_bind_checkpoint_reopen_roundtrip() {
    let dir = TempDir::new("recoveq-roundtrip");
    {
        let (mut durable, recovered) =
            DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
        assert_eq!(durable.recovered_generation(), 0);
        assert!(recovered.is_empty());
        let shared = SharedCatalog::with_generation(recovered, 0);

        durable.bind(&shared, "ra", &relation(7, 6)).unwrap();
        assert_eq!(durable.stats().journal_records, 1);

        durable.checkpoint().unwrap();
        assert_eq!(durable.stats().journal_records, 0);
        assert_eq!(durable.stats().checkpoints, 1);

        durable.bind(&shared, "rb", &relation(9, 4)).unwrap();
        assert_eq!(durable.committed_generation(), 2);
    }
    // "Crash" (drop without checkpoint) and recover: the manifest has
    // generation 1, the journal supplies generation 2.
    let (durable, catalog) =
        DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
    assert_eq!(durable.recovered_generation(), 2);
    assert_eq!(catalog.names(), vec!["ra", "rb"]);
    assert_eq!(catalog.materialize("ra").unwrap().len(), 6);
    assert_eq!(catalog.materialize("rb").unwrap().len(), 4);
    // Planner statistics survive checkpoint → kill → recover: the
    // recovered attachments expose the stats section persisted at
    // segment-write time, byte-identical to stats recomputed from the
    // recovered extension.
    for name in ["ra", "rb"] {
        let stats = catalog
            .stats_for(name)
            .unwrap_or_else(|| panic!("{name}: no stats after recovery"));
        let recomputed = evirel_store::compute_stats(&catalog.materialize(name).unwrap());
        let mut a = Vec::new();
        let mut b = Vec::new();
        stats.encode(&mut a);
        recomputed.encode(&mut b);
        assert_eq!(a, b, "{name}: recovered stats diverge from recomputed");
    }
}

/// A recovered stored binding is queryable through the normal session
/// path, and checkpoint GC leaves exactly the referenced segments: two
/// large binds leave files the third, small, bind supersedes; the
/// checkpoint folds that one out to its file and removes the two.
#[test]
fn recovered_bindings_are_queryable_and_gc_prunes() {
    let dir = TempDir::new("recoveq-query");
    let evb_files = || -> Vec<String> {
        std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .filter(|n| n.ends_with(".evb"))
            .collect()
    };
    {
        let (mut durable, recovered) =
            DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
        let shared = SharedCatalog::with_generation(recovered, 0);
        // Rebind the same name three times: two segment files become
        // garbage for the checkpoint to collect.
        for (seed, tuples) in [(1u64, LARGE), (2, LARGE), (3, 5)] {
            durable.bind(&shared, "g", &relation(seed, tuples)).unwrap();
        }
        assert_eq!(evb_files().len(), 2, "the small bind wrote no file");
        let outcome = durable.checkpoint().unwrap();
        assert_eq!(outcome.files_removed, 2, "two superseded segments GC'd");
    }
    let (_durable, catalog) =
        DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
    let segs = evb_files();
    assert_eq!(segs.len(), 1, "exactly the live segment survives: {segs:?}");
    let got = evirel_query::execute(&catalog, "SELECT * FROM g WITH SN > 0").unwrap();
    let want = evirel_query::execute(
        &{
            let mut c = Catalog::with_config(&config());
            c.register("g", relation(3, 5));
            c
        },
        "SELECT * FROM g WITH SN > 0",
    )
    .unwrap();
    assert!(got.approx_eq(&want));
}

/// A directory in the one-file-per-bind layout — a segment file per
/// binding, a version-1 journal of `Bind` records naming them, as a
/// build without inline binds leaves it — recovers tuple for tuple,
/// takes small binds on top, and recovers again.
#[test]
fn a_file_per_bind_directory_recovers_tuple_for_tuple() {
    use evirel_store::{Journal, JournalRecord, JOURNAL_FILE};
    let dir = TempDir::new("recoveq-file-layout");
    let (mut journal, _) = Journal::open_or_create(&dir).unwrap();
    for (generation, (name, seed)) in [("ra", 7u64), ("rb", 9), ("ra", 11)]
        .into_iter()
        .enumerate()
    {
        let file = format!("seg-{:06}.evb", generation + 1);
        let meta = evirel_store::write_segment_meta(
            &relation(seed, 6),
            dir.join(&file),
            evirel_store::DEFAULT_PAGE_SIZE,
        )
        .unwrap();
        journal
            .append(&JournalRecord::Bind {
                name: name.to_owned(),
                file,
                format_version: 3,
                checksum: meta.checksum,
                tuple_count: meta.tuple_count,
                generation: generation as u64 + 1,
            })
            .unwrap();
    }
    drop(journal);
    let path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let mut oracle = Catalog::with_config(&config());
    oracle.register("ra", relation(11, 6));
    oracle.register("rb", relation(9, 6));
    let check = |oracle: &Catalog, durable: &DurableCatalog, catalog: &Catalog, generation| {
        assert_eq!(durable.recovered_generation(), generation);
        assert_eq!(catalog.names(), oracle.names());
        for name in oracle.names() {
            let want = oracle.materialize(name).unwrap();
            identical(&want, &catalog.materialize(name).unwrap()).or_fail(name);
        }
    };
    let (mut durable, catalog) =
        DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
    check(&oracle, &durable, &catalog, 3);

    let shared = SharedCatalog::with_generation(catalog, 3);
    durable.bind(&shared, "rc", &relation(13, 4)).unwrap();
    durable.bind(&shared, "ra", &relation(15, 5)).unwrap();
    assert!(matches!(
        durable.segment("ra"),
        Some(evirel_store::SegmentSource::Bytes(_))
    ));
    assert!(
        !dir.join("seg-000005.evb").exists(),
        "a small bind reserves its name and writes no file"
    );
    drop(durable);
    oracle.register("rc", relation(13, 4));
    oracle.register("ra", relation(15, 5));
    let (durable, catalog) =
        DurableCatalog::open_into(&dir, Catalog::with_config(&config())).unwrap();
    check(&oracle, &durable, &catalog, 5);
}
