//! Segment bytes, durable directories and replication convergence.

use evirel_query::DurableCatalog;
use evirel_relation::ExtendedRelation;
use evirel_store::crc::crc32;
use evirel_store::SegmentSource;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp directory (`TMPDIR` moves
/// it), unique to its process and call. Dropping it removes it and
/// everything in it — a failing test's too, since drops run while a
/// panic unwinds. Derefs to its [`Path`].
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `evirel-<label>-<pid>-<n>`.
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "evirel-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir creates");
        TempDir(path)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// `rel` written as a segment of `page_size`-byte pages, as bytes.
pub fn encode(rel: &ExtendedRelation, page_size: usize) -> Vec<u8> {
    let dir = TempDir::new("encode");
    let path = dir.join("segment.evb");
    evirel_store::write_segment(rel, &path, page_size).expect("segment writes");
    std::fs::read(&path).expect("segment reads")
}

/// Make every checksum of a v3 segment agree with its (tampered)
/// bytes again — page CRCs, then the table's, then the preamble's — as
/// a writer that encoded rot would have sealed it. Layout per
/// `evirel_store::segment`'s module docs.
pub fn reseal(bytes: &mut [u8]) {
    let u64_at =
        |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (table, pages) = (u64_at(bytes, 16) as usize, u64_at(bytes, 24) as usize);
    for entry in (0..pages).map(|page| table + 16 * page) {
        let offset = u64_at(bytes, entry) as usize;
        let len = u32::from_le_bytes(bytes[entry + 8..entry + 12].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 12..entry + 16].copy_from_slice(&crc.to_le_bytes());
    }
    let table_crc = crc32(&bytes[table..table + 16 * pages]);
    bytes[44..48].copy_from_slice(&table_crc.to_le_bytes());
    let preamble_crc = crc32(&bytes[..48]);
    bytes[48..52].copy_from_slice(&preamble_crc.to_le_bytes());
}

/// The bytes of durable binding `name`'s segment, inline or a file.
pub fn segment_bytes(durable: &DurableCatalog, name: &str) -> Vec<u8> {
    match durable.segment(name).expect("a durable binding") {
        SegmentSource::Bytes(bytes) => bytes.to_vec(),
        SegmentSource::File(path) => std::fs::read(path).expect("segment reads"),
    }
}

/// A follower's durable state is the primary's, bit for bit: committed
/// generation, manifest entries, and every binding's raw segment bytes.
pub fn assert_converged(primary: &DurableCatalog, follower: &DurableCatalog) {
    assert_eq!(
        follower.committed_generation(),
        primary.committed_generation(),
        "committed generations diverge"
    );
    let p_entries: Vec<_> = primary.entries().cloned().collect();
    let f_entries: Vec<_> = follower.entries().cloned().collect();
    assert_eq!(p_entries, f_entries, "manifest entries diverge");
    for entry in &p_entries {
        let (want, got) = (
            segment_bytes(primary, &entry.name),
            segment_bytes(follower, &entry.name),
        );
        assert!(want == got, "segment {} bytes diverge", entry.file);
    }
}
