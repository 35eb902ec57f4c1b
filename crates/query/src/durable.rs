//! The durable catalog: crash-safe persistence of catalog bindings.
//!
//! [`DurableCatalog`] fronts a data directory holding the manifest
//! ([`evirel_store::manifest`]), the write-ahead journal
//! ([`evirel_store::journal`]), and one checksummed segment file per
//! binding. The protocol, end to end:
//!
//! * **Recovery** ([`DurableCatalog::open`]): load the manifest (the
//!   last checkpoint), replay journal records with `generation >
//!   manifest.generation` (mutations since), attach every surviving
//!   binding's segment — verifying its content checksum against the
//!   recorded one — and report the recovered generation. The caller
//!   seeds its [`crate::SharedCatalog`] with
//!   [`crate::SharedCatalog::with_generation`] so the generation
//!   stream continues monotonically across restarts.
//! * **Mutation** ([`DurableCatalog::record_bind`] /
//!   [`DurableCatalog::record_drop`]): called *inside* a
//!   [`crate::SharedCatalog::update_at`] closure, so the journal
//!   record is written and fsync'd under the catalog write lock —
//!   strictly before any reader can observe the new generation.
//!   `record_bind` first writes the relation to a fresh
//!   `seg-NNNNNN.evb` (atomic temp+fsync+rename), then journals
//!   `{name, file, checksum, generation}`.
//! * **Checkpoint** ([`DurableCatalog::checkpoint`]): fold the
//!   journal into a freshly-written manifest, truncate the journal,
//!   GC unreferenced segments. Safe to crash out of at any point.
//!
//! Generation parity: the durable side never invents generations — it
//! records the ones `update_at` hands it. As long as every published
//! mutation is journaled (the serve layer's MERGE path) the durable
//! generation equals the published one.

use crate::catalog::Catalog;
use crate::error::QueryError;
use evirel_obs::{Counter, Histogram};
use evirel_store::checkpoint::{checkpoint, CheckpointOutcome};
use evirel_store::{
    Journal, JournalRecord, Manifest, ManifestEntry, Segment, StoreError, StoredRelation,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn store_err(e: StoreError) -> QueryError {
    QueryError::Execution {
        message: e.to_string(),
    }
}

/// Counters for the serve layer's STATS durability line.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityStats {
    /// Last committed (journaled or checkpointed) generation.
    pub committed_generation: u64,
    /// Journal records since the last checkpoint.
    pub journal_records: u64,
    /// Checkpoints taken since this process opened the directory.
    pub checkpoints: u64,
    /// Bindings currently persisted.
    pub bindings: u64,
}

/// Observability handles the durability layer records into once the
/// owner attaches them ([`DurableCatalog::set_metrics`]). The serve
/// layer wires these to its per-server registry; a bare
/// [`DurableCatalog`] (tests, the REPL) records nothing. Recording is
/// observation-only — it never changes what is written or when.
#[derive(Debug, Clone)]
pub struct DurableMetrics {
    /// Latency of one journal append + fsync — the commit point every
    /// mutation pays before its generation becomes observable.
    pub journal_append: Histogram,
    /// Wall-clock duration of each checkpoint (manifest swap, journal
    /// truncation, segment GC).
    pub checkpoint: Histogram,
    /// Total segment-file bytes written by binds.
    pub segment_bytes: Counter,
}

/// How many journal records a [`DurableCatalog`] retains in memory
/// for replication senders **by default**. A follower whose resume
/// cursor falls below the retained window gets a full snapshot
/// transfer instead of record replay. Override per process with the
/// `EVIREL_RETAIN_RECORDS` environment variable, an integer in
/// `1..=`[`MAX_RETAIN_RECORDS`].
pub const RETAINED_RECORDS_CAP: usize = 4096;

/// Largest retained-window size `EVIREL_RETAIN_RECORDS` accepts.
/// Each retained record is a small in-memory struct, but a window in
/// the millions means someone fat-fingered a byte budget into a
/// record count — reject it like garbage input.
pub const MAX_RETAIN_RECORDS: usize = 1 << 20;

/// The retained-window size a newly opened [`DurableCatalog`] uses:
/// `EVIREL_RETAIN_RECORDS` when it is an integer in
/// `1..=`[`MAX_RETAIN_RECORDS`], else [`RETAINED_RECORDS_CAP`] (an
/// invalid value is rejected loudly, see
/// [`evirel_store::EnvKnob::get`]). Small windows resync followers
/// sooner; large windows let a long-offline standby catch up by
/// record replay.
const RETAIN_RECORDS: evirel_store::EnvKnob = evirel_store::EnvKnob {
    var: "EVIREL_RETAIN_RECORDS",
    range: 1..=MAX_RETAIN_RECORDS,
    default: RETAINED_RECORDS_CAP,
};

/// What a replication sender should stream to a follower that has
/// applied through some generation — computed by
/// [`DurableCatalog::stream_plan`].
#[derive(Debug, Clone)]
pub enum StreamPlan {
    /// The follower is within the retained window: replay exactly
    /// these records (strictly increasing generations), in order.
    Tail(Vec<JournalRecord>),
    /// The follower is too far behind (or the retained range is not
    /// strictly monotonic, e.g. a REPL `\checkpoint` bound several
    /// names at one generation): transfer the full durable state.
    Resync {
        /// The committed generation this snapshot represents.
        generation: u64,
        /// Every durable binding. The follower installs this set
        /// atomically ([`DurableCatalog::install_snapshot`]); segment
        /// payloads need shipping only for entries stamped after the
        /// follower's cursor — older entries are byte-identical on
        /// both sides because both replayed the same single-writer
        /// history.
        entries: Vec<ManifestEntry>,
    },
}

/// A data directory opened for journaling and recovery. See the
/// module docs for the protocol.
#[derive(Debug)]
pub struct DurableCatalog {
    dir: PathBuf,
    journal: Journal,
    /// The durable binding set (manifest ∪ journal effects).
    entries: BTreeMap<String, ManifestEntry>,
    committed_generation: u64,
    recovered_generation: u64,
    next_segment: u64,
    checkpoints: u64,
    /// Recent journal records kept in memory for replication senders
    /// (checkpoints truncate the on-disk journal, but a sender must
    /// still be able to resume a follower from before the
    /// checkpoint). Ascending generations; capped at `retained_cap`.
    retained: Vec<JournalRecord>,
    /// Retained-window size, fixed at open time from
    /// `EVIREL_RETAIN_RECORDS` (default [`RETAINED_RECORDS_CAP`]).
    retained_cap: usize,
    /// Followers resuming from a generation **below** this floor need
    /// a full resync — the records are no longer individually
    /// retained.
    retained_floor: u64,
    /// Observability handles, when the owner attached any.
    metrics: Option<DurableMetrics>,
}

impl DurableCatalog {
    /// Open (creating if needed) the data directory, recover its
    /// committed state, and return the handle plus a [`Catalog`]
    /// holding every recovered binding as a stored attachment.
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error: unreadable
    /// directory, torn manifest, mid-journal damage, a missing or
    /// checksum-mismatched segment.
    pub fn open(dir: impl AsRef<Path>) -> Result<(DurableCatalog, Catalog), QueryError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| QueryError::Execution {
            message: format!("create data dir {dir:?}: {e}"),
        })?;
        let manifest = Manifest::load(&dir).map_err(store_err)?.unwrap_or_default();
        let (journal, replayed) = Journal::open_or_create(&dir).map_err(store_err)?;

        let mut entries: BTreeMap<String, ManifestEntry> = manifest
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.clone()))
            .collect();
        let mut committed = manifest.generation;
        let mut retained = Vec::new();
        for record in &replayed {
            // Records at or below the manifest generation were
            // absorbed by a checkpoint that crashed before its
            // journal truncation — skip them.
            if record.generation() <= manifest.generation {
                continue;
            }
            committed = committed.max(record.generation());
            retained.push(record.clone());
            match record {
                JournalRecord::Bind {
                    name,
                    file,
                    format_version,
                    checksum,
                    tuple_count,
                    generation,
                } => {
                    entries.insert(
                        name.clone(),
                        ManifestEntry {
                            name: name.clone(),
                            file: file.clone(),
                            format_version: *format_version,
                            checksum: *checksum,
                            tuple_count: *tuple_count,
                            generation: *generation,
                        },
                    );
                }
                JournalRecord::Drop { name, .. } => {
                    entries.remove(name);
                }
            }
        }

        // Attach every surviving binding, verifying content checksums
        // (v3 segments; v2 entries record checksum 0 and skip it).
        let mut catalog = Catalog::new();
        for entry in entries.values() {
            let path = dir.join(&entry.file);
            let segment = Segment::open(&path).map_err(store_err)?;
            if let Some(actual) = segment.content_checksum() {
                if actual != entry.checksum {
                    return Err(store_err(StoreError::corrupt(format!(
                        "segment {path:?} checksum {actual:#010x} does not match \
                         the committed {:#010x} for binding {:?}",
                        entry.checksum, entry.name
                    ))));
                }
            }
            let stored = StoredRelation::from_segment(Arc::new(segment), Arc::clone(&catalog.pool));
            catalog.attach(entry.name.clone(), stored);
        }

        // Apply the retained-window cap to the replayed tail too, so
        // a long journal does not pin unbounded memory at open.
        let retained_cap = RETAIN_RECORDS.get();
        let mut retained_floor = manifest.generation;
        if retained.len() > retained_cap {
            let excess = retained.len() - retained_cap;
            retained_floor = retained[excess - 1].generation();
            retained.drain(..excess);
        }

        let next_segment = next_segment_number(&dir);
        Ok((
            DurableCatalog {
                dir,
                journal,
                entries,
                committed_generation: committed,
                recovered_generation: committed,
                next_segment,
                checkpoints: 0,
                retained,
                retained_cap,
                retained_floor,
                metrics: None,
            },
            catalog,
        ))
    }

    /// Attach observability handles: subsequent journal appends,
    /// checkpoints, and segment writes record into them.
    pub fn set_metrics(&mut self, metrics: DurableMetrics) {
        self.metrics = Some(metrics);
    }

    /// Journal one record, timing the append + fsync when metrics are
    /// attached.
    fn timed_append(&mut self, record: &JournalRecord) -> Result<(), QueryError> {
        let started = Instant::now();
        self.journal.append(record).map_err(store_err)?;
        if let Some(m) = &self.metrics {
            m.journal_append.observe(started.elapsed());
        }
        Ok(())
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The generation recovery landed on when this handle opened.
    pub fn recovered_generation(&self) -> u64 {
        self.recovered_generation
    }

    /// The last committed generation (recovered, then advanced by
    /// every journaled mutation).
    pub fn committed_generation(&self) -> u64 {
        self.committed_generation
    }

    /// Counters for STATS.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            committed_generation: self.committed_generation,
            journal_records: self.journal.records_since_checkpoint(),
            checkpoints: self.checkpoints,
            bindings: self.entries.len() as u64,
        }
    }

    /// Durably record that `name` now binds `rel` at `generation`:
    /// write a fresh segment (atomic), then journal + fsync the
    /// binding. Call from inside [`crate::SharedCatalog::update_at`],
    /// with the generation the closure received, *before* registering
    /// the relation in the in-memory catalog — on return the mutation
    /// is durable, so publishing it is safe.
    ///
    /// Returns the segment path, so the caller can re-attach the
    /// binding as a stored relation instead of keeping it in memory.
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error; nothing
    /// was published then (a written segment without its journal
    /// record is GC'd at the next checkpoint).
    pub fn record_bind(
        &mut self,
        name: &str,
        rel: &evirel_relation::ExtendedRelation,
        generation: u64,
    ) -> Result<PathBuf, QueryError> {
        self.next_segment += 1;
        let file = format!("seg-{:06}.evb", self.next_segment);
        let path = self.dir.join(&file);
        let meta = evirel_store::write_segment_meta(rel, &path, evirel_store::DEFAULT_PAGE_SIZE)
            .map_err(store_err)?;
        if let Some(m) = &self.metrics {
            m.segment_bytes
                .add(std::fs::metadata(&meta.path).map_or(0, |f| f.len()));
        }
        let record = JournalRecord::Bind {
            name: name.to_owned(),
            file: file.clone(),
            format_version: 3,
            checksum: meta.checksum,
            tuple_count: meta.tuple_count,
            generation,
        };
        self.timed_append(&record)?;
        self.entries.insert(
            name.to_owned(),
            ManifestEntry {
                name: name.to_owned(),
                file,
                format_version: 3,
                checksum: meta.checksum,
                tuple_count: meta.tuple_count,
                generation,
            },
        );
        self.committed_generation = self.committed_generation.max(generation);
        self.push_retained(record);
        Ok(path)
    }

    /// Durably record that `name` was dropped at `generation`. Same
    /// calling discipline as [`DurableCatalog::record_bind`].
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error.
    pub fn record_drop(&mut self, name: &str, generation: u64) -> Result<(), QueryError> {
        let record = JournalRecord::Drop {
            name: name.to_owned(),
            generation,
        };
        self.timed_append(&record)?;
        self.entries.remove(name);
        self.committed_generation = self.committed_generation.max(generation);
        self.push_retained(record);
        Ok(())
    }

    /// Checkpoint: write the manifest from the current durable
    /// binding set, truncate the journal, GC unreferenced segments.
    ///
    /// The retained replication window is dropped with the journal:
    /// the GC may have deleted segment files that superseded `Bind`
    /// records reference, so offering those records to a lagging
    /// follower would stream dangling file names forever. Raising
    /// [`DurableCatalog::retained_floor`] to the checkpointed
    /// generation instead routes any follower still below it onto
    /// the resync path (a follower already at the floor keeps
    /// tailing — its next plan is an empty tail, not a resync).
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error; the
    /// previous manifest + journal remain recoverable then.
    pub fn checkpoint(&mut self) -> Result<CheckpointOutcome, QueryError> {
        let manifest = Manifest {
            generation: self.committed_generation,
            entries: self.entries.values().cloned().collect(),
        };
        let started = Instant::now();
        let outcome = checkpoint(&self.dir, &manifest, &mut self.journal).map_err(store_err)?;
        if let Some(m) = &self.metrics {
            m.checkpoint.observe(started.elapsed());
        }
        self.checkpoints += 1;
        self.retained.clear();
        self.retained_floor = self.committed_generation;
        Ok(outcome)
    }

    /// Persist the whole of `catalog` as one durable generation, then
    /// checkpoint: every relation is re-bound (segment + journal
    /// record), durable bindings absent from the catalog are dropped,
    /// and the manifest is swapped. The eql REPL's `\checkpoint` uses
    /// this to bind an interactive catalog wholesale; superseded
    /// segments are GC'd by the checkpoint.
    ///
    /// The generation is self-stamped (`committed + 1`) rather than
    /// taken from the caller: an interactive shell's in-memory
    /// generation counter starts at 0 regardless of what the data
    /// directory has seen, and journal records stamped below the
    /// manifest generation would be ignored by recovery.
    ///
    /// Returns how many bindings were persisted.
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error.
    /// Record `record` into the in-memory retained window, trimming
    /// the front (and raising the floor) past the cap.
    fn push_retained(&mut self, record: JournalRecord) {
        self.retained.push(record);
        if self.retained.len() > self.retained_cap {
            let excess = self.retained.len() - self.retained_cap;
            self.retained_floor = self.retained[excess - 1].generation();
            self.retained.drain(..excess);
        }
    }

    /// Generations at or below this are no longer individually
    /// retained for replay; followers behind it get a full resync.
    pub fn retained_floor(&self) -> u64 {
        self.retained_floor
    }

    /// What to stream to a follower that has applied through `from`:
    /// a record tail when `from` is inside the retained window and
    /// the records past it carry strictly increasing generations
    /// (the serve-layer write discipline — one journaled mutation per
    /// published generation); a full state transfer otherwise. A
    /// non-monotonic range (several records sharing a generation, the
    /// REPL's `\checkpoint` shape) falls back to resync because a
    /// record tail cut *inside* such a group could not be resumed
    /// without re-applying or skipping its siblings.
    pub fn stream_plan(&self, from: u64) -> StreamPlan {
        if from >= self.retained_floor {
            let tail: Vec<JournalRecord> = evirel_store::journal::since(&self.retained, from)
                .cloned()
                .collect();
            let monotonic = tail
                .windows(2)
                .all(|w| w[0].generation() < w[1].generation());
            if monotonic {
                return StreamPlan::Tail(tail);
            }
        }
        StreamPlan::Resync {
            generation: self.committed_generation,
            entries: self.entries.values().cloned().collect(),
        }
    }

    /// Apply one replicated journal record on a **follower**: verify
    /// the referenced segment (already staged into this directory by
    /// [`evirel_store::replica`]) against the record's checksum and
    /// tuple count, then journal + fsync it locally. On return the
    /// record is durable — the caller publishes the catalog change
    /// via [`crate::SharedCatalog::update_stamped`] *after* this, the
    /// same fsync-before-publish rule the primary follows, so a
    /// follower can never serve a generation it could lose.
    ///
    /// # Errors
    /// [`QueryError::Execution`] on a generation that does not
    /// strictly advance the committed one (a re-send the stream
    /// contract forbids), a pre-v3 segment, or any verification /
    /// journal failure. Nothing is applied then.
    pub fn apply_replicated(&mut self, record: &JournalRecord) -> Result<(), QueryError> {
        let generation = record.generation();
        if generation <= self.committed_generation {
            return Err(QueryError::Execution {
                message: format!(
                    "replicated record at generation {generation} does not advance \
                     the applied generation {}",
                    self.committed_generation
                ),
            });
        }
        match record {
            JournalRecord::Bind {
                name,
                file,
                format_version,
                checksum,
                tuple_count,
                generation,
            } => {
                if *format_version < 3 {
                    return Err(store_err(StoreError::corrupt(format!(
                        "replicated binding {name:?} uses segment format v{format_version}; \
                         replication requires checksummed v3 segments"
                    ))));
                }
                evirel_store::verify_segment(&self.dir, file, *checksum, *tuple_count)
                    .map_err(store_err)?;
                self.timed_append(record)?;
                self.entries.insert(
                    name.clone(),
                    ManifestEntry {
                        name: name.clone(),
                        file: file.clone(),
                        format_version: *format_version,
                        checksum: *checksum,
                        tuple_count: *tuple_count,
                        generation: *generation,
                    },
                );
                // Keep local segment numbering clear of replicated
                // files, so a post-promotion bind never collides.
                if let Some(n) = segment_number(file) {
                    self.next_segment = self.next_segment.max(n);
                }
            }
            JournalRecord::Drop { name, .. } => {
                self.timed_append(record)?;
                self.entries.remove(name);
            }
        }
        self.committed_generation = generation;
        self.push_retained(record.clone());
        Ok(())
    }

    /// Atomically install a full durable state on a **follower** that
    /// is too far behind for record replay: verify that every entry's
    /// segment is present (entries newer than the follower's cursor
    /// were just staged by the sender; older ones are byte-identical
    /// survivors of the shared history), then swap the manifest —
    /// write-temp → fsync → rename, the checkpoint primitive — and
    /// truncate the journal. A crash at any point leaves either the
    /// old complete state or the new complete state, never a mix;
    /// that atomicity is why resync is a manifest swap rather than a
    /// journal replay.
    ///
    /// # Errors
    /// [`QueryError::Execution`] when `generation` does not advance
    /// the applied one, a segment is missing or fails verification,
    /// or the manifest swap fails. The previous state remains intact.
    pub fn install_snapshot(
        &mut self,
        generation: u64,
        entries: Vec<ManifestEntry>,
    ) -> Result<(), QueryError> {
        if generation <= self.committed_generation {
            return Err(QueryError::Execution {
                message: format!(
                    "snapshot at generation {generation} does not advance \
                     the applied generation {}",
                    self.committed_generation
                ),
            });
        }
        for entry in &entries {
            if entry.format_version >= 3 {
                evirel_store::verify_segment(
                    &self.dir,
                    &entry.file,
                    entry.checksum,
                    entry.tuple_count,
                )
                .map_err(store_err)?;
            } else if !self.dir.join(&entry.file).is_file() {
                return Err(store_err(StoreError::corrupt(format!(
                    "snapshot entry {:?} references missing segment {:?}",
                    entry.name, entry.file
                ))));
            }
        }
        let manifest = Manifest {
            generation,
            entries: entries.clone(),
        };
        // Manifest swap then journal truncation — exactly a
        // checkpoint, except the state comes from the wire instead of
        // this process's own mutations. GC sweeps segments the new
        // state obsoleted (plus any abandoned staging files).
        let outcome = checkpoint(&self.dir, &manifest, &mut self.journal).map_err(store_err)?;
        let _ = outcome;
        self.entries = entries.into_iter().map(|e| (e.name.clone(), e)).collect();
        self.committed_generation = generation;
        self.checkpoints += 1;
        self.retained.clear();
        self.retained_floor = generation;
        self.next_segment = next_segment_number(&self.dir);
        Ok(())
    }

    /// The durable binding set, in name order — what a resync ships.
    pub fn entries(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.entries.values()
    }

    pub fn checkpoint_full(&mut self, catalog: &Catalog) -> Result<u64, QueryError> {
        let generation = self.committed_generation + 1;
        let mut persisted = 0u64;
        for name in catalog.names() {
            let name = name.to_owned();
            let rel = catalog.materialize(&name)?;
            self.record_bind(&name, &rel, generation)?;
            persisted += 1;
        }
        // Drop durable bindings no longer in the catalog.
        let stale: Vec<String> = self
            .entries
            .keys()
            .filter(|n| !catalog.names().contains(&n.as_str()))
            .cloned()
            .collect();
        for name in stale {
            self.record_drop(&name, generation)?;
        }
        self.checkpoint()?;
        Ok(persisted)
    }
}

/// The highest existing `seg-NNNNNN` number in `dir` (0 when none) —
/// `record_bind` pre-increments, so new segments never collide with
/// survivors of earlier incarnations.
fn next_segment_number(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| segment_number(e.file_name().to_str()?))
        .max()
        .map_or(0, |n| n)
}

/// The `N` of a `seg-NNNNNN.evb` file name, if it has that shape.
fn segment_number(file: &str) -> Option<u64> {
    file.strip_prefix("seg-")?
        .strip_suffix(".evb")?
        .parse::<u64>()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_records_parsing_rejects_invalid_values() {
        assert_eq!(RETAIN_RECORDS.parse("1"), Some(1));
        assert_eq!(RETAIN_RECORDS.parse(" 4096 "), Some(RETAINED_RECORDS_CAP));
        assert_eq!(RETAIN_RECORDS.parse("1048576"), Some(MAX_RETAIN_RECORDS));
        for invalid in [
            "",
            "0",
            "-2",
            "64.0",
            "O4",
            "lots",
            "1048577",
            "9999999999999999999999",
        ] {
            assert_eq!(RETAIN_RECORDS.parse(invalid), None, "{invalid:?}");
        }
    }
}
