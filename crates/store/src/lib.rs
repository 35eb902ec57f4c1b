//! # evirel-store — the paged binary storage engine
//!
//! The layer *under* the streaming executor: extended relations
//! serialized into an on-disk segment format (fixed-target-size pages
//! of length-prefixed tuple records, interned frame dictionaries in a
//! header block, focal sets as their canonical bit patterns, raw-bit
//! `f64` / exact `Ratio` weights, `(sn, sp)` membership pairs), a
//! byte-budgeted [`BufferPool`] with pin/unpin reference counting and
//! clock (second-chance) eviction, and the [`StoredRelation`] handle
//! the plan layer's spill scan streams pages through.
//!
//! Three guarantees the layers above build on:
//!
//! * **Determinism.** `f64` payloads are stored as raw IEEE-754 bits
//!   and records keep insertion order, so a stored scan reproduces
//!   the in-memory scan *bit for bit* — the plan layer's equivalence
//!   property suite checks stored execution against the in-memory
//!   reference oracle.
//! * **Bounded memory.** Readers hold one pinned page at a time; the
//!   pool keeps total cached bytes under the budget its owner gives
//!   it (pinned pages excepted, counted as overcommits), so relations
//!   arbitrarily larger than memory scan, filter, and go through
//!   ∪̃, ∩̃, −̃, ×̃ and ⋈̃ (whose right sides spill past the budget).
//! * **No tuple is too large.** Pages target a fixed size but are
//!   located through an explicit page table, so a jumbo record gets
//!   its own oversized page instead of an error.
//!
//! The sibling `evirel-storage` crate remains the *text* notation
//! (the paper's own syntax, for humans and examples); this crate is
//! the binary engine for data that outgrows memory.
//! It reads no environment variable: a pool's budget is its caller's.

pub mod checkpoint;
pub mod codec;
pub mod compat;
pub mod crc;
pub mod error;
pub mod failpoint;
pub mod journal;
pub mod manifest;
pub mod pool;
pub mod replica;
pub mod segment;
pub mod stats;
pub mod stored;

pub use checkpoint::CheckpointOutcome;
pub use error::StoreError;
pub use journal::{InlineSegment, Journal, JournalRecord, JOURNAL_FILE};
pub use manifest::{Manifest, ManifestEntry, MANIFEST_FILE};
pub use pool::{BufferPool, PageGuard, PoolStats, DEFAULT_BUFFER_BYTES};
pub use replica::{stage_chunk, valid_segment_file_name, verify_segment};
pub use segment::{
    write_segment, write_segment_meta, Finished, RecordId, Segment, SegmentMeta, SegmentSource,
    SegmentWriter, DEFAULT_PAGE_SIZE, INLINE_SEGMENT_MAX,
};
pub use stats::{compute_stats, AttrStats, DistinctSketch, KappaSummary, RelStats, StatsBuilder};
pub use stored::{KeyIndex, StoredIter, StoredRelation};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// A process-unique temporary file path for spill segments, under the
/// system temp directory (`TMPDIR` moves it). The caller owns
/// deletion; the plan layer's spill path unlinks the file as soon as
/// the segment is open, so the kernel reclaims it when the last handle
/// drops.
pub fn spill_path(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "evirel-spill-{}-{n}-{label}.evb",
        std::process::id()
    ))
}

/// The unit tests' temp directories. Integration suites take
/// `evirel-testkit`'s `TempDir`; unit tests cannot, since the kit links
/// this crate as a copy whose types are not theirs.
#[cfg(test)]
pub(crate) mod test_dir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A directory of one test's own under the system temp directory,
    /// removed with everything in it when dropped: parallel tests never
    /// share one, and a run leaves none behind.
    pub(crate) struct TestDir(PathBuf);

    impl TestDir {
        pub(crate) fn new(label: &str) -> TestDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("evirel-{label}-test-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).unwrap();
            TestDir(path)
        }
    }

    impl std::ops::Deref for TestDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }
}
