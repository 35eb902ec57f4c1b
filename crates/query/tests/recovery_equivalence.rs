//! Recovery equivalence: for any sequence of journaled catalog
//! mutations, replaying the data directory from disk must produce
//! exactly the catalog an in-memory application of the same mutations
//! produces — same binding set, same schemas, same tuples bit for
//! bit, same generation counter — including when the sequence is
//! interrupted by a simulated restart (close + reopen) mid-way.

use evirel_query::{Catalog, DurableCatalog, SharedCatalog};
use evirel_relation::ExtendedRelation;
use evirel_workload::generator::{generate, GeneratorConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "evirel-recoveq-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

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

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40, 1usize..10).prop_map(|(seed, tuples)| Op::Bind {
            name: format!("r{}", seed % 4),
            seed,
            tuples,
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

fn rel(seed: u64, tuples: usize) -> ExtendedRelation {
    generate(
        "R",
        &GeneratorConfig {
            tuples,
            domain_size: 5,
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

/// Bit-for-bit relation equality: values plus raw membership bits.
fn assert_rel_eq(name: &str, a: &ExtendedRelation, b: &ExtendedRelation) {
    assert_eq!(a.len(), b.len(), "{name}: tuple count");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.values(), y.values(), "{name}[{i}]: values");
        assert_eq!(
            x.membership().sn().to_bits(),
            y.membership().sn().to_bits(),
            "{name}[{i}]: sn bits"
        );
        assert_eq!(
            x.membership().sp().to_bits(),
            y.membership().sp().to_bits(),
            "{name}[{i}]: sp bits"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Disk replay ≡ fresh in-memory application, at every prefix the
    /// `Restart` boundaries cut the script into.
    #[test]
    fn disk_replay_equals_in_memory_catalog(
        script in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let dir = fresh_dir("script");

        // Durable side: a SharedCatalog + DurableCatalog pair driven
        // through the write path evirel-serve calls.
        let (mut durable, recovered) = DurableCatalog::open(&dir).unwrap();
        let mut shared = SharedCatalog::with_generation(recovered, 0);

        // Oracle side: a plain in-memory catalog + generation counter.
        let mut oracle = Catalog::new();
        let mut oracle_generation = 0u64;

        for op in &script {
            match op {
                Op::Bind { name, seed, tuples } => {
                    let r = rel(*seed, *tuples);
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
                    let (d2, catalog) = DurableCatalog::open(&dir).unwrap();
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
        let (durable, catalog) = DurableCatalog::open(&dir).unwrap();
        prop_assert_eq!(durable.recovered_generation(), oracle_generation);
        prop_assert_eq!(catalog.names(), oracle.names());
        for name in oracle.names() {
            let got = catalog.materialize(name).unwrap();
            let want = oracle.materialize(name).unwrap();
            assert_rel_eq(name, &want, &got);
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The serve-shaped happy path, spelled out once without proptest:
/// bind → checkpoint → bind → reopen recovers both bindings and the
/// exact generation, and stats counters move.
#[test]
fn open_bind_checkpoint_reopen_roundtrip() {
    let dir = fresh_dir("roundtrip");
    {
        let (mut durable, recovered) = DurableCatalog::open(&dir).unwrap();
        assert_eq!(durable.recovered_generation(), 0);
        assert!(recovered.is_empty());
        let shared = SharedCatalog::with_generation(recovered, 0);

        durable.bind(&shared, "ra", &rel(7, 6)).unwrap();
        assert_eq!(durable.stats().journal_records, 1);

        durable.checkpoint().unwrap();
        assert_eq!(durable.stats().journal_records, 0);
        assert_eq!(durable.stats().checkpoints, 1);

        durable.bind(&shared, "rb", &rel(9, 4)).unwrap();
        assert_eq!(durable.committed_generation(), 2);
    }
    // "Crash" (drop without checkpoint) and recover: the manifest has
    // generation 1, the journal supplies generation 2.
    let (durable, catalog) = DurableCatalog::open(&dir).unwrap();
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
    std::fs::remove_dir_all(&dir).ok();
}

/// A recovered stored binding is queryable through the normal session
/// path, and checkpoint GC leaves exactly the referenced segments.
#[test]
fn recovered_bindings_are_queryable_and_gc_prunes() {
    let dir = fresh_dir("query");
    {
        let (mut durable, recovered) = DurableCatalog::open(&dir).unwrap();
        let shared = SharedCatalog::with_generation(recovered, 0);
        // Rebind the same name three times: two segments become
        // garbage for the checkpoint to collect.
        for seed in [1u64, 2, 3] {
            durable.bind(&shared, "g", &rel(seed, 5)).unwrap();
        }
        let outcome = durable.checkpoint().unwrap();
        assert_eq!(outcome.files_removed, 2, "two superseded segments GC'd");
    }
    let (_durable, catalog) = DurableCatalog::open(&dir).unwrap();
    let segs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(str::to_owned))
        .filter(|n| n.ends_with(".evb"))
        .collect();
    assert_eq!(segs.len(), 1, "exactly the live segment survives: {segs:?}");
    let got = evirel_query::execute(&catalog, "SELECT * FROM g WITH SN > 0").unwrap();
    let want = evirel_query::execute(
        &{
            let mut c = Catalog::new();
            c.register("g", rel(3, 5));
            c
        },
        "SELECT * FROM g WITH SN > 0",
    )
    .unwrap();
    assert!(got.approx_eq(&want));
    std::fs::remove_dir_all(&dir).ok();
}
