//! Crash-injection harness over the full durable write sequence:
//! `FailpointFs` kills the process-under-simulation after N cost
//! units (every byte boundary of every write, plus each fsync /
//! rename / create / truncate), and recovery must land on **exactly**
//! a committed prefix of the mutation history — bit-for-bit equal to
//! the in-memory oracle at that generation, never a torn or
//! half-applied state.
//!
//! The sequence under test is the one `DurableCatalog` performs per
//! mutation. A small bind encodes its segment in memory and appends +
//! fsyncs one journal record that carries it; a large one writes a
//! checksummed segment file (temp + fsync + rename) and then appends +
//! fsyncs a record naming it; a drop appends its record. A checkpoint
//! folds the live inline segments out to their files, swaps the
//! manifest, truncates the journal and GCs. The proptest loop varies
//! the mutation history over all four; an inner sweep visits every
//! kill point.

use evirel_store::checkpoint::checkpoint;
use evirel_store::failpoint::FailpointFs;
use evirel_store::journal::read_record_at;
use evirel_store::{
    Finished, InlineSegment, Journal, JournalRecord, Manifest, ManifestEntry, Segment,
    SegmentSource, SegmentWriter, StoredRelation, INLINE_SEGMENT_MAX,
};
use evirel_testkit::{identical, small_domain, OrFail, TempDir};
use evirel_workload::generator::{generate, GeneratorConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Tuples of a large bind: its segment is past
/// [`INLINE_SEGMENT_MAX`], so it is written as a file
/// (`large_binds_are_files_and_small_ones_are_inline` pins this).
const LARGE: usize = 800;

/// One scripted catalog mutation.
#[derive(Debug, Clone)]
enum Op {
    /// Bind `name` to a relation generated from `seed` with `tuples`
    /// tuples (inline below [`LARGE`], a file at it).
    Bind {
        name: String,
        seed: u64,
        tuples: usize,
    },
    /// Drop `name` (a no-op if absent — mirrored by the oracle).
    Drop { name: String },
    /// Checkpoint: fold the live inline segments out, then the journal
    /// into the manifest.
    Checkpoint,
}

/// The in-memory oracle: name → (seed, tuples) at each generation.
/// Generations count *mutations* (Bind/Drop), not checkpoints.
type OracleState = BTreeMap<String, (u64, usize)>;

fn oracle_history(ops: &[Op]) -> Vec<OracleState> {
    let mut states = vec![OracleState::new()];
    let mut current = OracleState::new();
    for op in ops {
        match op {
            Op::Bind { name, seed, tuples } => {
                current.insert(name.clone(), (*seed, *tuples));
                states.push(current.clone());
            }
            Op::Drop { name } => {
                current.remove(name);
                states.push(current.clone());
            }
            Op::Checkpoint => {} // not a generation
        }
    }
    states
}

/// The relation a bind writes. Memoized: every kill point of a sweep
/// replays the same script.
fn gen_relation(seed: u64, tuples: usize) -> evirel_relation::ExtendedRelation {
    thread_local! {
        static MEMO: std::cell::RefCell<BTreeMap<(u64, usize), evirel_relation::ExtendedRelation>> =
            const { std::cell::RefCell::new(BTreeMap::new()) };
    }
    MEMO.with(|memo| {
        memo.borrow_mut()
            .entry((seed, tuples))
            .or_insert_with(|| generate_relation(seed, tuples))
            .clone()
    })
}

/// [`small_domain`] over four values, with more uncertain memberships.
fn generate_relation(seed: u64, tuples: usize) -> evirel_relation::ExtendedRelation {
    let config = GeneratorConfig {
        domain_size: 4,
        uncertain_membership: 0.3,
        ..small_domain(seed, tuples)
    };
    generate("R", &config).expect("generator config is valid")
}

/// The durable binding set a directory's primitives track: manifest
/// entries, and the inline segment of each entry bound inline since
/// the last checkpoint.
#[derive(Default)]
struct Bindings {
    entries: BTreeMap<String, ManifestEntry>,
    inline: BTreeMap<String, InlineSegment>,
}

impl Bindings {
    fn apply(&mut self, record: &JournalRecord) {
        match record {
            JournalRecord::Bind {
                name,
                file,
                format_version,
                checksum,
                tuple_count,
                generation,
            } => self.bind(
                name,
                file,
                *format_version,
                *checksum,
                *tuple_count,
                *generation,
            ),
            JournalRecord::BindInline {
                name,
                file,
                checksum,
                tuple_count,
                generation,
                segment,
            } => {
                self.bind(name, file, 3, *checksum, *tuple_count, *generation);
                self.inline.insert(name.clone(), segment.clone());
            }
            JournalRecord::Drop { name, .. } => {
                self.entries.remove(name);
                self.inline.remove(name);
            }
        }
    }

    fn bind(&mut self, name: &str, file: &str, fv: u16, checksum: u32, tuples: u64, g: u64) {
        self.inline.remove(name);
        self.entries.insert(
            name.to_owned(),
            ManifestEntry {
                name: name.to_owned(),
                file: file.to_owned(),
                format_version: fv,
                checksum,
                tuple_count: tuples,
                generation: g,
            },
        );
    }

    /// The bytes of the inline segment bound to `name`, if any.
    fn inline_bytes(&self, dir: &Path, name: &str) -> Option<std::sync::Arc<[u8]>> {
        let bytes = |segment: &InlineSegment| match segment {
            InlineSegment::Bytes(bytes) => bytes.clone(),
            InlineSegment::At(frame) => match read_record_at(dir, *frame) {
                Ok(JournalRecord::BindInline {
                    segment: InlineSegment::Bytes(bytes),
                    ..
                }) => bytes,
                other => panic!("the inline record at {frame} reads back as {other:?}"),
            },
        };
        self.inline.get(name).map(bytes)
    }
}

/// Run the scripted ops against `dir` with durable-layer primitives,
/// stopping at the first injected failure. Returns how many
/// *mutations* (generations) were fully acknowledged.
fn run_script(dir: &Path, ops: &[Op]) -> u64 {
    let Ok((mut journal, replayed)) = Journal::open_or_create(dir) else {
        return 0;
    };
    let manifest = Manifest::load(dir).ok().flatten().unwrap_or_default();
    let mut generation = replayed
        .iter()
        .map(JournalRecord::generation)
        .max()
        .unwrap_or(manifest.generation);
    let mut state = Bindings {
        entries: manifest
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.clone()))
            .collect(),
        ..Bindings::default()
    };
    for record in &replayed {
        state.apply(record);
    }
    let mut acked = 0u64;
    let mut seg_counter = 1_000u64; // distinct from recovery runs
    for op in ops {
        match op {
            Op::Bind { name, seed, tuples } => {
                let rel = gen_relation(*seed, *tuples);
                seg_counter += 1;
                let file = format!("seg-{seg_counter:06}.evb");
                let Ok(mut writer) = SegmentWriter::create(dir.join(&file), rel.schema(), 256)
                else {
                    return acked;
                };
                if rel.iter().any(|t| writer.append(t).is_err()) {
                    return acked;
                }
                let Ok(finished) = writer.finish_inline() else {
                    return acked;
                };
                generation += 1;
                let record = match finished {
                    Finished::Inline {
                        bytes,
                        checksum,
                        tuple_count,
                    } => JournalRecord::BindInline {
                        name: name.clone(),
                        file,
                        checksum,
                        tuple_count,
                        generation,
                        segment: InlineSegment::Bytes(bytes),
                    },
                    Finished::File(meta) => JournalRecord::Bind {
                        name: name.clone(),
                        file,
                        format_version: 3,
                        checksum: meta.checksum,
                        tuple_count: meta.tuple_count,
                        generation,
                    },
                };
                if journal.append(&record).is_err() {
                    return acked;
                }
                state.apply(&record);
                acked += 1;
            }
            Op::Drop { name } => {
                generation += 1;
                let record = JournalRecord::Drop {
                    name: name.clone(),
                    generation,
                };
                if journal.append(&record).is_err() {
                    return acked;
                }
                state.apply(&record);
                acked += 1;
            }
            Op::Checkpoint => {
                let folded: Vec<(String, std::sync::Arc<[u8]>)> = state
                    .inline
                    .keys()
                    .map(|name| {
                        let bytes = state.inline_bytes(dir, name).expect("live inline");
                        (state.entries[name].file.clone(), bytes)
                    })
                    .collect();
                let batch: Vec<(&str, &[u8])> =
                    folded.iter().map(|(f, b)| (f.as_str(), &b[..])).collect();
                if SegmentWriter::fold_out(dir, &batch).is_err() {
                    return acked;
                }
                let manifest = Manifest {
                    generation,
                    entries: state.entries.values().cloned().collect(),
                };
                if checkpoint(dir, &manifest, &mut journal).is_err() {
                    return acked;
                }
                state.inline.clear();
            }
        }
    }
    acked
}

/// Recover the directory the way `DurableCatalog::open` does:
/// manifest + journal records above the manifest generation, then
/// open every surviving binding — from its journal record's bytes when
/// it was bound inline, else from its file — check its content
/// checksum and materialize it.
fn recover(dir: &Path) -> (u64, BTreeMap<String, evirel_relation::ExtendedRelation>) {
    let manifest = Manifest::load(dir)
        .expect("manifest must never be torn")
        .unwrap_or_default();
    let (_, replayed) = Journal::open_or_create(dir).expect("journal must recover");
    let mut state = Bindings {
        entries: manifest
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.clone()))
            .collect(),
        ..Bindings::default()
    };
    let mut generation = manifest.generation;
    for record in &replayed {
        if record.generation() <= manifest.generation {
            continue; // crash between manifest swap and journal truncate
        }
        state.apply(record);
        generation = generation.max(record.generation());
    }
    let pool = Arc::new(evirel_store::BufferPool::new(64 * 1024));
    let mut relations = BTreeMap::new();
    for (name, entry) in &state.entries {
        let source = match state.inline_bytes(dir, name) {
            Some(bytes) => SegmentSource::Bytes(bytes),
            None => SegmentSource::File(dir.join(&entry.file)),
        };
        let seg = Segment::open(source).expect("committed segment opens");
        assert_eq!(
            seg.content_checksum(),
            Some(entry.checksum),
            "committed segment checksum must match its journal/manifest record"
        );
        let rel = StoredRelation::from_segment(Arc::new(seg), Arc::clone(&pool))
            .to_relation()
            .expect("committed segment decodes");
        relations.insert(name.clone(), rel);
    }
    (generation, relations)
}

fn assert_matches_oracle(
    state: &OracleState,
    recovered: &BTreeMap<String, evirel_relation::ExtendedRelation>,
) {
    assert_eq!(
        recovered.keys().collect::<Vec<_>>(),
        state.keys().collect::<Vec<_>>(),
        "recovered binding set differs from oracle"
    );
    for (name, (seed, tuples)) in state {
        identical(&gen_relation(*seed, *tuples), &recovered[name]).or_fail(name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For a random mutation script and EVERY kill point in its
    /// durable write sequence: recovery lands on a committed prefix —
    /// at least everything acknowledged before the kill, at most one
    /// fully-written-but-unacknowledged record beyond it — and the
    /// recovered relations are bit-for-bit the oracle's.
    #[test]
    fn every_kill_point_recovers_a_committed_prefix(
        script in proptest::collection::vec(
            // The vendored prop_oneof! is unweighted: the small bind
            // is listed twice, so one op in five is a large bind.
            prop_oneof![
                (0u64..50, 1usize..12).prop_map(|(seed, tuples)| {
                    let name = format!("r{}", seed % 3);
                    Op::Bind { name, seed, tuples }
                }),
                (0u64..50, 1usize..12).prop_map(|(seed, tuples)| {
                    let name = format!("r{}", seed % 3);
                    Op::Bind { name, seed, tuples }
                }),
                (0u64..50).prop_map(|seed| {
                    let name = format!("r{}", seed % 3);
                    Op::Bind { name, seed, tuples: LARGE }
                }),
                (0u64..3).prop_map(|n| Op::Drop { name: format!("r{n}") }),
                Just(Op::Checkpoint),
            ],
            2..6,
        ),
    ) {
        // Pass 1: total cost of the full script, no kills.
        let total = {
            let dir = TempDir::new("crash-observe");
            let fp = FailpointFs::observe();
            run_script(&dir, &script);
            fp.units()
        };
        let history = oracle_history(&script);

        // Pass 2: kill everywhere. Stride keeps the sweep dense at
        // small boundaries without being O(bytes) per case; 0 and
        // total are always included.
        let stride = (total / 160).max(1);
        let mut kill_points: Vec<u64> = (0..=total).step_by(stride as usize).collect();
        if kill_points.last() != Some(&total) {
            kill_points.push(total);
        }
        for kill_at in kill_points {
            let dir = TempDir::new("crash-kill");
            let acked = {
                let fp = FailpointFs::kill_after(kill_at);
                let acked = run_script(&dir, &script);
                drop(fp);
                acked
            };
            let (generation, recovered) = recover(&dir);
            // The recovered generation is at least everything acked
            // (journal fsync'd before ack) and at most one mutation
            // beyond (a record fully written but killed at its fsync
            // legitimately replays).
            prop_assert!(
                generation >= acked && generation <= acked + 1,
                "kill at {kill_at}/{total}: acked {acked}, recovered generation {generation}"
            );
            assert_matches_oracle(&history[generation as usize], &recovered);
        }
    }
}

/// The split the script relies on: a [`LARGE`] bind's segment is past
/// [`INLINE_SEGMENT_MAX`] and lands as a file, a small one comes back
/// inline — the bytes a file would have held, under the same checksum.
#[test]
fn large_binds_are_files_and_small_ones_are_inline() {
    let dir = TempDir::new("crash-split");
    let finish = |tuples: usize, file: &str| {
        let rel = gen_relation(7, tuples);
        let mut writer = SegmentWriter::create(dir.join(file), rel.schema(), 256).unwrap();
        for t in rel.iter() {
            writer.append(t).unwrap();
        }
        writer.finish_inline().unwrap()
    };
    let Finished::File(meta) = finish(LARGE, "seg-000001.evb") else {
        panic!("a {LARGE}-tuple segment came back inline");
    };
    assert!(meta.bytes as usize > INLINE_SEGMENT_MAX, "{}", meta.bytes);
    assert_eq!(std::fs::metadata(&meta.path).unwrap().len(), meta.bytes);
    let Finished::Inline {
        bytes, checksum, ..
    } = finish(11, "seg-000002.evb")
    else {
        panic!("an 11-tuple segment was written as a file");
    };
    assert!(!dir.join("seg-000002.evb").exists());
    let file =
        evirel_store::write_segment_meta(&gen_relation(7, 11), dir.join("f.evb"), 256).unwrap();
    assert_eq!(std::fs::read(&file.path).unwrap(), &bytes[..]);
    assert_eq!(file.checksum, checksum);
}

/// Crash *during recovery* (while truncating a torn tail) must also
/// be recoverable: recovery is idempotent.
#[test]
fn recovery_is_idempotent_after_torn_tail() {
    let dir = TempDir::new("crash-idempotent");
    let ops = vec![
        Op::Bind {
            name: "a".into(),
            seed: 1,
            tuples: 5,
        },
        Op::Bind {
            name: "b".into(),
            seed: 2,
            tuples: 7,
        },
    ];
    // Kill mid-way through the second bind's journal append.
    let total = {
        let fp = FailpointFs::observe();
        run_script(&dir, &ops);
        let t = fp.units();
        drop(fp);
        t
    };
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    {
        let fp = FailpointFs::kill_after(total - 2);
        run_script(&dir, &ops);
        drop(fp);
    }
    let first = recover(&dir);
    let second = recover(&dir);
    assert_eq!(first.0, second.0);
    assert_eq!(
        first.1.keys().collect::<Vec<_>>(),
        second.1.keys().collect::<Vec<_>>()
    );
}
