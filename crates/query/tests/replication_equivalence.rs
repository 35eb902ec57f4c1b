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
//! calls — over scripts that mix small binds (their segment inside
//! the journal record) and large ones (a segment file). The socket
//! framing, torn-frame, and kill-mid-apply variants live in the serve
//! crate's `replication_faults` suite; here a follower is also killed
//! at every byte of an inline record's apply.

use evirel_query::{Catalog, DurableCatalog, SharedCatalog, StreamPlan};
use evirel_store::failpoint::FailpointFs;
use evirel_store::{JournalRecord, SegmentSource};
use evirel_testkit::{assert_converged, config, identical, relation, OrFail, TempDir};
use proptest::prelude::*;
use std::path::Path;

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

/// Tuples of a large bind: its segment is past the inline limit.
const LARGE: usize = 1200;

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is unweighted; bias toward binds by
    // listing the strategy twice, and toward small ones by listing
    // the large bind once.
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
        (0u64..40).prop_map(|seed| Op::Bind {
            name: format!("r{}", seed % 4),
            seed,
            tuples: LARGE,
        }),
        (0u64..4).prop_map(|n| Op::Drop {
            name: format!("r{n}")
        }),
        Just(Op::Checkpoint),
    ]
}

/// The follower half: its own directory, durable catalog, and
/// published catalog.
struct Follower {
    dir: TempDir,
    durable: DurableCatalog,
    shared: SharedCatalog,
}

impl Follower {
    fn open(dir: TempDir) -> Follower {
        let (durable, recovered) = DurableCatalog::open_into(&dir, Catalog::with_config(&config()))
            .expect("follower dir recovers");
        let generation = durable.recovered_generation();
        Follower {
            dir,
            durable,
            shared: SharedCatalog::with_generation(recovered, generation),
        }
    }

    /// Crash (drop everything in memory) and reboot from disk alone.
    fn crash_and_reopen(self) -> Follower {
        drop((self.durable, self.shared));
        Follower::open(self.dir)
    }

    /// Ship the record's segment — a file bind's file, an inline
    /// bind's bytes read back from the primary's journal, as a sender
    /// does — then apply it through the write path.
    fn apply(&mut self, primary_dir: &Path, record: &JournalRecord) {
        if let JournalRecord::Bind { file, .. } = record {
            std::fs::copy(primary_dir.join(file), self.dir.join(file)).expect("segment ships");
        }
        let record = record.loaded(primary_dir).expect("inline bytes read back");
        self.durable
            .apply_record(&self.shared, &record)
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
                inline,
            } => {
                for entry in entries.iter().filter(|e| e.generation > cursor) {
                    let to = self.dir.join(&entry.file);
                    match inline.get(&entry.file) {
                        Some(bytes) => std::fs::write(to, bytes).expect("resync segment ships"),
                        None => {
                            std::fs::copy(primary_dir.join(&entry.file), to)
                                .expect("resync segment ships");
                        }
                    }
                }
                self.durable
                    .install(&self.shared, generation, entries)
                    .expect("snapshot installs and publishes");
            }
        }
    }

    /// Converged with the primary: durably bit for bit
    /// ([`assert_converged`]), and published at the primary's
    /// generation with its tuples, bit for bit.
    fn assert_converged_to(&self, primary: &DurableCatalog, primary_shared: &SharedCatalog) {
        assert_converged(primary, &self.durable);
        assert_eq!(
            self.shared.generation(),
            primary_shared.generation(),
            "published generations diverge"
        );
        let (p_pin, f_pin) = (primary_shared.pin(), self.shared.pin());
        for entry in primary.entries() {
            let want = p_pin
                .catalog()
                .materialize(&entry.name)
                .expect("primary materializes");
            let got = f_pin
                .catalog()
                .materialize(&entry.name)
                .expect("follower materializes");
            identical(&want, &got).or_fail(&entry.name);
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
        let pdir = TempDir::new("repleq-primary");
        let fdir = TempDir::new("repleq-follower");
        let (mut primary, recovered) = DurableCatalog::open_into(&pdir, Catalog::with_config(&config())).unwrap();
        let primary_shared = SharedCatalog::with_generation(recovered, 0);
        let mut follower = Some(Follower::open(fdir));

        for (i, op) in script.iter().enumerate() {
            match op {
                Op::Bind { name, seed, tuples } => {
                    let r = relation(*seed, *tuples);
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
                f.assert_converged_to(&primary, &primary_shared);
            }
        }

        // Whatever the cadence left behind, one final round converges.
        let f = follower.as_mut().unwrap();
        f.sync(&primary, &pdir, None);
        f.assert_converged_to(&primary, &primary_shared);
    }
}

/// The resync path, spelled out once without proptest: a follower
/// whose cursor predates the primary's checkpoint floor takes the
/// snapshot path (tail records are gone), installs atomically, and
/// subsequent rounds degrade to ordinary tailing.
#[test]
fn checkpoint_floor_forces_resync_then_tailing_resumes() {
    let pdir = TempDir::new("repleq-floor-p");
    let fdir = TempDir::new("repleq-floor-f");
    let (mut primary, recovered) =
        DurableCatalog::open_into(&pdir, Catalog::with_config(&config())).unwrap();
    let primary_shared = SharedCatalog::with_generation(recovered, 0);

    for (name, seed) in [("a", 1u64), ("b", 2), ("a", 3)] {
        primary
            .bind(&primary_shared, name, &relation(seed, 4))
            .unwrap();
    }
    primary.checkpoint().unwrap();

    let mut follower = Follower::open(fdir);
    assert!(
        matches!(primary.stream_plan(0), StreamPlan::Resync { .. }),
        "a cursor below the checkpoint floor must resync"
    );
    follower.sync(&primary, &pdir, None);
    follower.assert_converged_to(&primary, &primary_shared);

    // Post-resync the follower tails: a small bind inline, a large
    // one (a file, shipped before its record).
    primary.bind(&primary_shared, "c", &relation(9, 6)).unwrap();
    primary
        .bind(&primary_shared, "d", &relation(9, LARGE))
        .unwrap();
    assert!(matches!(
        primary.segment("c"),
        Some(SegmentSource::Bytes(_))
    ));
    assert!(matches!(primary.segment("d"), Some(SegmentSource::File(_))));
    assert!(matches!(
        primary.stream_plan(follower.durable.committed_generation()),
        StreamPlan::Tail(_)
    ));
    follower.sync(&primary, &pdir, None);
    follower.assert_converged_to(&primary, &primary_shared);
}

/// A follower killed at every byte of an inline record's apply — every
/// prefix of its one journal append, then its fsync — recovers either
/// without the record or with all of it, never a torn one, and the
/// next round converges.
#[test]
fn a_follower_killed_at_every_byte_of_an_inline_apply_converges() {
    let pdir = TempDir::new("repleq-bytes-p");
    let (mut primary, recovered) =
        DurableCatalog::open_into(&pdir, Catalog::with_config(&config())).unwrap();
    let primary_shared = SharedCatalog::with_generation(recovered, 0);
    primary.bind(&primary_shared, "a", &relation(1, 3)).unwrap();
    primary.bind(&primary_shared, "b", &relation(2, 1)).unwrap();
    let StreamPlan::Tail(records) = primary.stream_plan(0) else {
        panic!("an uncheckpointed primary tails");
    };
    let inline = records[1].loaded(&pdir).unwrap();
    assert!(matches!(inline, JournalRecord::BindInline { .. }));

    let units = {
        let mut follower = Follower::open(TempDir::new("repleq-bytes-observe"));
        follower.apply(&pdir, &records[0]);
        let fp = FailpointFs::observe();
        follower.apply(&pdir, &records[1]);
        let (units, fsyncs) = (fp.units(), fp.fsyncs());
        drop(fp);
        assert_eq!(fsyncs, 1, "an inline apply's one fsync is the journal's");
        units
    };
    for kill_at in 0..units {
        let mut follower = Follower::open(TempDir::new("repleq-bytes-f"));
        follower.apply(&pdir, &records[0]);
        {
            let _fp = FailpointFs::kill_after(kill_at);
            follower
                .durable
                .apply_record(&follower.shared, &inline)
                .expect_err("the killed apply fails");
        }
        assert_eq!(
            follower.shared.generation(),
            1,
            "kill at {kill_at}: published"
        );
        let mut follower = follower.crash_and_reopen();
        let applied = follower.durable.committed_generation();
        assert!(
            applied == 1 || applied == 2,
            "kill at {kill_at}: applied {applied}"
        );
        follower.sync(&primary, &pdir, None);
        follower.assert_converged_to(&primary, &primary_shared);
    }
}
