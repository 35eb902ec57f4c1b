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
//! * **Checkpoint** ([`DurableCatalog::checkpoint`]): fold the
//!   journal into a freshly-written manifest, truncate the journal,
//!   GC unreferenced segments. Safe to crash out of at any point.
//!
//! ## The write path
//!
//! One rule governs every mutation: **durable first, published
//! second** — no reader may pin a generation that a crash could lose.
//! The five operations that change a served catalog implement it here
//! and nowhere else; each takes the [`SharedCatalog`] it publishes to:
//!
//! | operation | durable step | publish |
//! |---|---|---|
//! | [`DurableCatalog::bind`] | segment write, journal + fsync (in the closure) | [`SharedCatalog::update_at`], next generation |
//! | [`DurableCatalog::unbind`] | journal + fsync (in the closure) | [`SharedCatalog::update_at`], next generation |
//! | [`DurableCatalog::apply_record`] | verify staged segment, journal + fsync | [`SharedCatalog::update_stamped`], the primary's generation |
//! | [`DurableCatalog::install`] | verify segments, manifest swap | [`SharedCatalog::update_stamped`], the snapshot's generation |
//! | [`DurableCatalog::reconcile`] | none (already durable) | [`SharedCatalog::update_stamped`], the committed generation |
//!
//! `bind`/`unbind` are the primary's side: the generation is the one
//! the catalog's writer mutex hands out, so the durable step runs
//! *inside* the `update_at` closure — under that mutex, which orders
//! writers (hence journal records) totally with strictly increasing
//! generations, but under **no** guard on the published snapshot:
//! readers keep pinning the previous generation while the segment is
//! written and the journal fsync'd, and the new one is swapped in only
//! after the closure has returned, i.e. strictly after the fsync.
//! The other three are the follower's side: the primary already
//! stamped the generation, so the durable step runs first and the
//! `update_stamped` closure only opens the segment. A failure between
//! the two steps leaves the durable state ahead of the published one,
//! which is safe (nothing unrecoverable was served) and which
//! `reconcile` repairs.
//!
//! **Lock order**: exclusive access to the [`DurableCatalog`] first
//! (the five are methods — in `evirel-serve`, called with the durable
//! mutex held), the [`SharedCatalog`]'s writer mutex second, its
//! pointer-swap guard last (taken by `SharedCatalog` itself, for the
//! store only). Nothing may lock a shared `DurableCatalog` from inside
//! a [`SharedCatalog`] closure. Readers take neither mutex.
//!
//! Generation parity: the durable side never invents generations — it
//! records the ones the writer mutex (primary) or the stream (follower)
//! hands it, so the durable generation equals the published one after
//! every successful call.

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::snapshot::SharedCatalog;
use evirel_obs::{Counter, Gauge, Histogram};
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
/// observation-only — it never changes what is written or when. The
/// four state series are *pushed* — set when attached and after every
/// commit, checkpoint and install — so a scrape reads them without
/// taking whatever lock guards the [`DurableCatalog`].
#[derive(Debug, Clone)]
pub struct DurableMetrics {
    /// [`DurabilityStats::committed_generation`].
    pub committed_generation: Gauge,
    /// [`DurabilityStats::journal_records`].
    pub journal_records: Gauge,
    /// [`DurabilityStats::checkpoints`].
    pub checkpoints: Counter,
    /// [`DurabilityStats::bindings`].
    pub bindings: Gauge,
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
/// for replication senders. A follower whose resume cursor falls below
/// the retained window gets a full snapshot transfer instead of record
/// replay.
pub const RETAINED_RECORDS_CAP: usize = 4096;

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
        /// atomically ([`DurableCatalog::install`]); segment
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
    /// Retained-window size: [`RETAINED_RECORDS_CAP`], except in the
    /// tests that overflow the window.
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
        DurableCatalog::open_retaining(dir.as_ref(), RETAINED_RECORDS_CAP)
    }

    /// [`DurableCatalog::open`] with a retained window of
    /// `retained_cap` records.
    fn open_retaining(
        dir: &Path,
        retained_cap: usize,
    ) -> Result<(DurableCatalog, Catalog), QueryError> {
        let dir = dir.to_path_buf();
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
            fold(&mut entries, record);
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
        let mut retained_floor = manifest.generation;
        trim_window(&mut retained, &mut retained_floor, retained_cap);

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
        self.publish_state();
    }

    /// Push the durable state into the attached state series.
    fn publish_state(&self) {
        if let Some(m) = &self.metrics {
            let s = self.stats();
            m.committed_generation.set(s.committed_generation);
            m.journal_records.set(s.journal_records);
            m.checkpoints.set_at_least(s.checkpoints);
            m.bindings.set(s.bindings);
        }
    }

    /// The commit point of every mutation: journal `record` (append +
    /// fsync, timed when metrics are attached), then fold it into the
    /// in-memory durable state. Nothing changes on `Err`.
    fn commit(&mut self, record: JournalRecord) -> Result<(), QueryError> {
        let started = Instant::now();
        self.journal.append(&record).map_err(store_err)?;
        if let Some(m) = &self.metrics {
            m.journal_append.observe(started.elapsed());
        }
        fold(&mut self.entries, &record);
        self.committed_generation = self.committed_generation.max(record.generation());
        self.retained.push(record);
        trim_window(
            &mut self.retained,
            &mut self.retained_floor,
            self.retained_cap,
        );
        self.publish_state();
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

    /// Bind `name` to `rel` as the next generation of `shared`
    /// (the serve layer's durable `MERGE`): segment write, journal +
    /// fsync, then publish the binding re-attached from its segment —
    /// the catalog serves the very bytes recovery would. Returns the
    /// generation published.
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error; nothing
    /// was published then (a written segment without its journal
    /// record is GC'd at the next checkpoint).
    pub fn bind(
        &mut self,
        shared: &SharedCatalog,
        name: &str,
        rel: &evirel_relation::ExtendedRelation,
    ) -> Result<u64, QueryError> {
        let ((), generation) = shared.update_at(|catalog, generation| {
            let path = self.record_bind(name, rel, generation)?;
            catalog.attach_stored(name, path)
        })?;
        Ok(generation)
    }

    /// Drop `name` as the next generation of `shared`: journal +
    /// fsync, then publish. Returns the generation published.
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error; nothing
    /// was published then.
    pub fn unbind(&mut self, shared: &SharedCatalog, name: &str) -> Result<u64, QueryError> {
        let ((), generation) = shared.update_at(|catalog, generation| {
            self.commit(JournalRecord::Drop {
                name: name.to_owned(),
                generation,
            })?;
            catalog.deregister(name);
            Ok(())
        })?;
        Ok(generation)
    }

    /// Apply one replicated journal record on a **follower**: verify
    /// the referenced segment (already staged into this directory by
    /// [`evirel_store::replica`]) against the record's checksum and
    /// tuple count, journal + fsync the record locally, then publish
    /// it at the generation the *primary* stamped — so a follower
    /// never serves a generation it could lose, and one killed between
    /// the two steps recovers the record from its own journal at
    /// reboot.
    ///
    /// # Errors
    /// [`QueryError::Execution`] on a generation that does not
    /// strictly advance the committed one (a re-send the stream
    /// contract forbids), a pre-v3 segment, or any verification /
    /// journal / attach failure. Nothing is published then.
    pub fn apply_record(
        &mut self,
        shared: &SharedCatalog,
        record: &JournalRecord,
    ) -> Result<(), QueryError> {
        self.must_advance("replicated record", record.generation())?;
        if let JournalRecord::Bind {
            name,
            file,
            format_version,
            checksum,
            tuple_count,
            ..
        } = record
        {
            if *format_version < 3 {
                return Err(store_err(StoreError::corrupt(format!(
                    "replicated binding {name:?} uses segment format v{format_version}; \
                     replication requires checksummed v3 segments"
                ))));
            }
            evirel_store::verify_segment(&self.dir, file, *checksum, *tuple_count)
                .map_err(store_err)?;
            // Keep local segment numbering clear of replicated files,
            // so a post-promotion bind never collides.
            if let Some(n) = segment_number(file) {
                self.next_segment = self.next_segment.max(n);
            }
        }
        self.commit(record.clone())?;
        shared.update_stamped(record.generation(), |catalog| match record {
            JournalRecord::Bind { name, file, .. } => {
                catalog.attach_stored(name.as_str(), self.dir.join(file))
            }
            JournalRecord::Drop { name, .. } => {
                catalog.deregister(name);
                Ok(())
            }
        })
    }

    /// Install a full durable state on a **follower** too far behind
    /// for record replay: verify that every entry's segment is present
    /// (entries newer than the follower's cursor were just staged by
    /// the sender; older ones are byte-identical survivors of the
    /// shared history), swap the manifest — write-temp → fsync →
    /// rename, the checkpoint primitive — and truncate the journal,
    /// then publish it ([`DurableCatalog::reconcile`]: one swap that
    /// drops the bindings the snapshot no longer has and attaches the
    /// new set).
    /// A crash at any point leaves either the old complete state or
    /// the new one, never a mix; that atomicity is why resync is a
    /// manifest swap rather than a journal replay.
    ///
    /// # Errors
    /// [`QueryError::Execution`] when `generation` does not advance
    /// the applied one, a segment is missing or fails verification,
    /// or the manifest swap fails. The previous state remains intact
    /// and nothing is published.
    pub fn install(
        &mut self,
        shared: &SharedCatalog,
        generation: u64,
        entries: Vec<ManifestEntry>,
    ) -> Result<(), QueryError> {
        self.must_advance("snapshot", generation)?;
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
            entries,
        };
        // Manifest swap then journal truncation — exactly a
        // checkpoint, except the state comes from the wire instead of
        // this process's own mutations. GC sweeps segments the new
        // state obsoleted (plus any abandoned staging files).
        checkpoint(&self.dir, &manifest, &mut self.journal).map_err(store_err)?;
        self.entries = manifest
            .entries
            .into_iter()
            .map(|e| (e.name.clone(), e))
            .collect();
        self.committed_generation = generation;
        self.checkpoints += 1;
        self.retained.clear();
        self.retained_floor = generation;
        self.next_segment = next_segment_number(&self.dir);
        self.publish_state();
        self.reconcile(shared)
    }

    /// `Err` unless `generation` is past the committed one — a
    /// follower applies each generation of the stream exactly once.
    fn must_advance(&self, what: &str, generation: u64) -> Result<(), QueryError> {
        if generation > self.committed_generation {
            return Ok(());
        }
        Err(QueryError::Execution {
            message: format!(
                "{what} at generation {generation} does not advance \
                 the applied generation {}",
                self.committed_generation
            ),
        })
    }

    /// Self-heal a durable-ahead-of-published skew (a crash — or an
    /// error — between a follower's durable step and its publish):
    /// republish the durable binding set at the committed generation,
    /// after which the catalog's stored bindings are exactly the
    /// durable entries. In-memory bindings (seeded, never replicated)
    /// are left alone. A no-op when the generations already agree.
    ///
    /// # Errors
    /// [`QueryError::Execution`] when a durable segment cannot be
    /// attached; nothing is published then.
    pub fn reconcile(&self, shared: &SharedCatalog) -> Result<(), QueryError> {
        if shared.generation() >= self.committed_generation {
            return Ok(());
        }
        shared.update_stamped(self.committed_generation, |catalog| {
            let stale: Vec<String> = catalog
                .names()
                .into_iter()
                .filter(|n| catalog.get_stored(n).is_some() && !self.entries.contains_key(*n))
                .map(str::to_owned)
                .collect();
            for name in stale {
                catalog.deregister(&name);
            }
            for entry in self.entries.values() {
                catalog.attach_stored(entry.name.as_str(), self.dir.join(&entry.file))?;
            }
            Ok(())
        })
    }

    /// The durable half of [`DurableCatalog::bind`]: write a fresh
    /// segment (atomic temp + fsync + rename), then journal + fsync
    /// `{name, file, checksum, generation}`. Must run inside a
    /// [`SharedCatalog::update_at`] closure with the generation it
    /// received. Public only so a harness can time the durable step
    /// apart from the publish; everything that serves calls `bind`.
    ///
    /// Returns the segment path.
    ///
    /// # Errors
    /// [`QueryError::Execution`] wrapping the store error.
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
        self.commit(JournalRecord::Bind {
            name: name.to_owned(),
            file,
            format_version: 3,
            checksum: meta.checksum,
            tuple_count: meta.tuple_count,
            generation,
        })?;
        Ok(path)
    }

    /// Checkpoint: write the manifest from the current durable
    /// binding set, truncate the journal, GC unreferenced segments.
    ///
    /// The retained replication window is dropped with the journal:
    /// the GC may have deleted segment files that superseded `Bind`
    /// records reference, so offering those records to a lagging
    /// follower would stream dangling file names forever. Raising
    /// the retained floor to the checkpointed generation instead
    /// routes any follower still below it onto the resync path (a
    /// follower already at the floor keeps tailing — its next plan is
    /// an empty tail, not a resync).
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
        self.publish_state();
        Ok(outcome)
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

    /// The durable binding set, in name order — what a resync ships.
    pub fn entries(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.entries.values()
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
            self.commit(JournalRecord::Drop { name, generation })?;
        }
        self.checkpoint()?;
        Ok(persisted)
    }
}

/// Fold one journal record into a durable binding set — the one
/// definition of what a record means, shared by recovery's replay and
/// the live commit.
fn fold(entries: &mut BTreeMap<String, ManifestEntry>, record: &JournalRecord) {
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

/// Keep the newest `cap` retained records; the floor rises to the
/// generation of the newest one dropped.
fn trim_window(retained: &mut Vec<JournalRecord>, floor: &mut u64, cap: usize) {
    if retained.len() > cap {
        let excess = retained.len() - cap;
        *floor = retained[excess - 1].generation();
        retained.drain(..excess);
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
    use evirel_store::failpoint::FailpointFs;
    use evirel_workload::{restaurant_db_a, restaurant_db_b};

    fn names(catalog: &Catalog) -> Vec<String> {
        catalog.names().into_iter().map(str::to_owned).collect()
    }

    fn published(shared: &SharedCatalog) -> (u64, Vec<String>) {
        let pin = shared.pin();
        (pin.generation(), names(pin.catalog()))
    }

    /// Run `op` with its first fsync (and everything after) failing:
    /// it must fail and publish nothing. Returns the binding set a
    /// fresh open of `dir` then recovers.
    fn killed_at_first_fsync(
        (dir, mut durable, shared): (&Path, DurableCatalog, &SharedCatalog),
        op: impl FnOnce(&mut DurableCatalog, &SharedCatalog) -> Result<(), QueryError>,
    ) -> Vec<String> {
        let before = published(shared);
        let fp = FailpointFs::kill_at_fsync(1);
        op(&mut durable, shared).expect_err("the killed operation fails");
        assert!(fp.fired());
        drop(fp);
        assert_eq!(published(shared), before, "a failed operation published");
        drop(durable);
        names(&DurableCatalog::open(dir).unwrap().1)
    }

    #[test]
    fn a_failed_write_path_operation_publishes_nothing() {
        let root = std::env::temp_dir().join(format!("evirel-durable-test-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let node = |label: &str| {
            let dir = root.join(label);
            let (durable, recovered) = DurableCatalog::open(&dir).unwrap();
            (dir, durable, SharedCatalog::new(recovered))
        };
        let rb = restaurant_db_b().restaurants;
        let only_a = vec!["a".to_owned()];
        let a_and_b = vec!["a".to_owned(), "b".to_owned()];

        // A primary whose history is bind a (1), bind b (2), and a way
        // to make nodes that published `a` at generation 1 by applying
        // record 1 (every segment already shipped).
        let (pdir, mut primary, pshared) = node("primary");
        let ra = restaurant_db_a().restaurants;
        primary.bind(&pshared, "a", &ra).unwrap();
        primary.bind(&pshared, "b", &rb).unwrap();
        let StreamPlan::Tail(records) = primary.stream_plan(0) else {
            panic!("an uncheckpointed primary tails");
        };
        let replica = |label: &str| {
            let (dir, mut durable, shared) = node(label);
            for entry in primary.entries() {
                std::fs::copy(pdir.join(&entry.file), dir.join(&entry.file)).unwrap();
            }
            durable.apply_record(&shared, &records[0]).unwrap();
            (dir, durable, shared)
        };

        // bind and install die before their commit point (the segment
        // fsync precedes the journal record, the manifest temp file's
        // fsync precedes its rename): recovery is the last publish.
        let (dir, durable, shared) = replica("bind");
        let recovered = killed_at_first_fsync((&dir, durable, &shared), |d, s| {
            d.bind(s, "b", &rb).map(|_| ())
        });
        assert_eq!(recovered, only_a);

        // unbind and apply_record have one fsync — the journal's, their
        // commit point. The record's bytes were written before it, so a
        // process killed there recovers the whole record (never a torn
        // one), and still nothing was published before the kill.
        let (dir, durable, shared) = replica("unbind");
        let recovered = killed_at_first_fsync((&dir, durable, &shared), |d, s| {
            d.unbind(s, "a").map(|_| ())
        });
        assert_eq!(recovered, Vec::<String>::new());

        let (fdir, durable, fshared) = replica("apply");
        let recovered = killed_at_first_fsync((&fdir, durable, &fshared), |d, s| {
            d.apply_record(s, &records[1])
        });
        assert_eq!(recovered, a_and_b);

        let (dir, durable, shared) = replica("install");
        primary.checkpoint().unwrap();
        let StreamPlan::Resync {
            generation,
            entries,
        } = primary.stream_plan(1)
        else {
            panic!("a cursor below the checkpoint floor resyncs");
        };
        let recovered = killed_at_first_fsync((&dir, durable, &shared), |d, s| {
            d.install(s, generation, entries)
        });
        assert_eq!(recovered, only_a);

        // The killed apply left its directory ahead of what `fshared`
        // serves — the skew reconcile repairs. It performs no durable
        // write, so its one failure is an unreadable segment.
        let (durable, _) = DurableCatalog::open(&fdir).unwrap();
        let segment = fdir.join(&durable.entries["b"].file);
        let hidden = fdir.join("hidden");
        std::fs::rename(&segment, &hidden).unwrap();
        durable
            .reconcile(&fshared)
            .expect_err("a missing segment fails");
        assert_eq!(published(&fshared), (1, only_a));
        std::fs::rename(&hidden, &segment).unwrap();
        durable.reconcile(&fshared).unwrap();
        assert_eq!(published(&fshared), (2, a_and_b));

        std::fs::remove_dir_all(&root).ok();
    }

    /// The retained window overflowing, at commit time and again when
    /// a reopen replays a journal longer than the window: the floor is
    /// the newest generation dropped, a follower at it tails, one
    /// below it is sent the whole state.
    #[test]
    fn a_follower_below_the_retained_floor_is_resynced() {
        let dir =
            std::env::temp_dir().join(format!("evirel-durable-window-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (mut durable, recovered) = DurableCatalog::open_retaining(&dir, 2).unwrap();
        let shared = SharedCatalog::new(recovered);
        let ra = restaurant_db_a().restaurants;
        for name in ["a", "b", "c"] {
            durable.bind(&shared, name, &ra).unwrap();
        }
        let overflowed = |durable: &DurableCatalog| {
            assert_eq!(durable.retained_floor, 1);
            let StreamPlan::Tail(tail) = durable.stream_plan(1) else {
                panic!("a cursor at the floor tails");
            };
            let generations: Vec<u64> = tail.iter().map(JournalRecord::generation).collect();
            assert_eq!(generations, [2, 3]);
            let StreamPlan::Resync {
                generation,
                entries,
            } = durable.stream_plan(0)
            else {
                panic!("a cursor below the floor resyncs");
            };
            assert_eq!((generation, entries.len()), (3, 3));
        };
        overflowed(&durable);
        drop(durable);
        overflowed(&DurableCatalog::open_retaining(&dir, 2).unwrap().0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
