//! Replication equivalence, proptest-driven: for any sequence of
//! durable catalog mutations on a primary, any pattern of replication
//! round timing, and any crash cut-point on the follower, applying
//! the primary's generation stream (tail records and/or full-state
//! resyncs) must leave the follower **bit-for-bit** equal to the
//! primary — same committed generation, same manifest entries, same
//! segment bytes, same materialized tuples — at every synchronized
//! point, with no replicated record ever applied twice or skipped.
//!
//! This is the wire-free half of the replication test stack: it
//! drives [`DurableCatalog::stream_plan`] on the primary and
//! [`DurableCatalog::apply_record`] / [`DurableCatalog::install`] on
//! the follower — the functions `evirel-serve`'s replication module
//! calls. The socket framing, torn-frame, and kill-mid-apply variants
//! live in the serve crate's `replication_faults` suite.

use evirel_query::{DurableCatalog, SharedCatalog, StreamPlan};
use evirel_relation::ExtendedRelation;
use evirel_store::JournalRecord;
use evirel_workload::generator::{generate, GeneratorConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "evirel-repleq-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

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
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is unweighted; bias toward binds by
    // listing the strategy twice.
    prop_oneof![
        (0u64..40, 1usize..10).prop_map(|(seed, tuples)| Op::Bind {
            name: format!("r{}", seed % 4),
            seed,
            tuples,
        }),
        (10u64..40, 2usize..8).prop_map(|(seed, tuples)| Op::Bind {
            name: format!("r{}", seed % 4),
            seed,
            tuples,
        }),
        (0u64..4).prop_map(|n| Op::Drop {
            name: format!("r{n}")
        }),
        Just(Op::Checkpoint),
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

/// The follower half: its own directory, durable catalog, and
/// published catalog.
struct Follower {
    dir: PathBuf,
    durable: DurableCatalog,
    shared: SharedCatalog,
}

impl Follower {
    fn open(dir: PathBuf) -> Follower {
        let (durable, recovered) = DurableCatalog::open(&dir).expect("follower dir recovers");
        let generation = durable.recovered_generation();
        Follower {
            dir,
            durable,
            shared: SharedCatalog::with_generation(recovered, generation),
        }
    }

    /// Crash (drop everything in memory) and reboot from disk alone.
    fn crash_and_reopen(self) -> Follower {
        let dir = self.dir.clone();
        drop(self);
        Follower::open(dir)
    }

    /// Ship the record's segment, then apply it through the write
    /// path.
    fn apply(&mut self, primary_dir: &Path, record: &JournalRecord) {
        if let JournalRecord::Bind { file, .. } = record {
            std::fs::copy(primary_dir.join(file), self.dir.join(file)).expect("segment ships");
        }
        self.durable
            .apply_record(&self.shared, record)
            .expect("replicated record applies and publishes");
    }

    /// One full replication round: plan from the current cursor and
    /// apply everything. `partial` limits how many tail records are
    /// applied (a crash mid-round); `None` applies the whole plan.
    fn sync(&mut self, primary: &DurableCatalog, primary_dir: &Path, partial: Option<usize>) {
        let cursor = self.durable.committed_generation();
        match primary.stream_plan(cursor) {
            StreamPlan::Tail(records) => {
                let take = partial.unwrap_or(records.len());
                for record in records.iter().take(take) {
                    self.apply(primary_dir, record);
                }
            }
            StreamPlan::Resync {
                generation,
                entries,
            } => {
                for entry in &entries {
                    if entry.generation > cursor {
                        std::fs::copy(primary_dir.join(&entry.file), self.dir.join(&entry.file))
                            .expect("resync segment ships");
                    }
                }
                self.durable
                    .install(&self.shared, generation, entries)
                    .expect("snapshot installs and publishes");
            }
        }
    }
}

/// Bit-for-bit equality of primary and follower: committed
/// generation, manifest entries, raw segment bytes, published
/// catalog generation, and materialized tuples.
fn assert_converged(
    primary: &DurableCatalog,
    primary_dir: &Path,
    primary_shared: &SharedCatalog,
    follower: &Follower,
) {
    assert_eq!(
        follower.durable.committed_generation(),
        primary.committed_generation(),
        "committed generations diverge"
    );
    let p_entries: Vec<_> = primary.entries().cloned().collect();
    let f_entries: Vec<_> = follower.durable.entries().cloned().collect();
    assert_eq!(p_entries, f_entries, "manifest entries diverge");
    for entry in &p_entries {
        let want = std::fs::read(primary_dir.join(&entry.file)).expect("primary segment reads");
        let got = std::fs::read(follower.dir.join(&entry.file)).expect("follower segment reads");
        assert_eq!(want, got, "segment {} bytes diverge", entry.file);
    }
    assert_eq!(
        follower.shared.generation(),
        primary_shared.generation(),
        "published generations diverge"
    );
    let p_pin = primary_shared.pin();
    let f_pin = follower.shared.pin();
    for entry in &p_entries {
        let want = p_pin
            .catalog()
            .materialize(&entry.name)
            .expect("primary materializes");
        let got = f_pin
            .catalog()
            .materialize(&entry.name)
            .expect("follower materializes");
        assert_eq!(want.len(), got.len(), "{}: tuple count", entry.name);
        for (i, (x, y)) in want.iter().zip(got.iter()).enumerate() {
            assert_eq!(x.values(), y.values(), "{}[{i}]: values", entry.name);
            assert_eq!(
                x.membership().sn().to_bits(),
                y.membership().sn().to_bits(),
                "{}[{i}]: sn bits",
                entry.name
            );
            assert_eq!(
                x.membership().sp().to_bits(),
                y.membership().sp().to_bits(),
                "{}[{i}]: sp bits",
                entry.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any script, any sync cadence, any crash cut → the follower
    /// converges bit-for-bit at every synchronized point and never
    /// double-applies or skips a generation across its crash.
    #[test]
    fn follower_converges_bit_for_bit_across_any_cut(
        script in proptest::collection::vec(op_strategy(), 1..10),
        sync_bits in 0u32..1024,
        cut in 0usize..10,
        partial in 0usize..3,
    ) {
        let pdir = fresh_dir("primary");
        let fdir = fresh_dir("follower");
        let (mut primary, recovered) = DurableCatalog::open(&pdir).unwrap();
        let primary_shared = SharedCatalog::with_generation(recovered, 0);
        let mut follower = Some(Follower::open(fdir));

        for (i, op) in script.iter().enumerate() {
            match op {
                Op::Bind { name, seed, tuples } => {
                    let r = rel(*seed, *tuples);
                    primary.bind(&primary_shared, name, &r).unwrap();
                }
                Op::Drop { name } => {
                    primary.unbind(&primary_shared, name).unwrap();
                }
                Op::Checkpoint => {
                    primary.checkpoint().unwrap();
                }
            }

            if i == cut {
                // Crash the follower mid-round: apply only a prefix
                // of the pending tail, drop every in-memory handle,
                // and reboot from the follower's own disk.
                let mut f = follower.take().unwrap();
                f.sync(&primary, &pdir, Some(partial));
                follower = Some(f.crash_and_reopen());
            }
            if sync_bits >> (i % 10) & 1 == 1 {
                let f = follower.as_mut().unwrap();
                f.sync(&primary, &pdir, None);
                assert_converged(&primary, &pdir, &primary_shared, f);
            }
        }

        // Whatever the cadence left behind, one final round converges.
        let f = follower.as_mut().unwrap();
        f.sync(&primary, &pdir, None);
        assert_converged(&primary, &pdir, &primary_shared, f);

        std::fs::remove_dir_all(&pdir).ok();
        std::fs::remove_dir_all(follower.unwrap().dir).ok();
    }
}

/// The resync path, spelled out once without proptest: a follower
/// whose cursor predates the primary's checkpoint floor takes the
/// snapshot path (tail records are gone), installs atomically, and
/// subsequent rounds degrade to ordinary tailing.
#[test]
fn checkpoint_floor_forces_resync_then_tailing_resumes() {
    let pdir = fresh_dir("floor-p");
    let fdir = fresh_dir("floor-f");
    let (mut primary, recovered) = DurableCatalog::open(&pdir).unwrap();
    let primary_shared = SharedCatalog::with_generation(recovered, 0);

    for (name, seed) in [("a", 1u64), ("b", 2), ("a", 3)] {
        primary.bind(&primary_shared, name, &rel(seed, 4)).unwrap();
    }
    primary.checkpoint().unwrap();

    let mut follower = Follower::open(fdir);
    assert!(
        matches!(primary.stream_plan(0), StreamPlan::Resync { .. }),
        "a cursor below the checkpoint floor must resync"
    );
    follower.sync(&primary, &pdir, None);
    assert_converged(&primary, &pdir, &primary_shared, &follower);

    // Post-resync the follower tails.
    primary.bind(&primary_shared, "c", &rel(9, 6)).unwrap();
    assert!(matches!(
        primary.stream_plan(follower.durable.committed_generation()),
        StreamPlan::Tail(_)
    ));
    follower.sync(&primary, &pdir, None);
    assert_converged(&primary, &pdir, &primary_shared, &follower);

    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&follower.dir).ok();
}
