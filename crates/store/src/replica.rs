//! Replication-side segment shipping: staging incoming chunks and
//! verifying the reassembled file, with the same crash discipline as
//! every other durable write in this crate.
//!
//! A replication follower receives a segment as a sequence of byte
//! chunks (the sender splits large files so no wire frame outgrows
//! the protocol's ceiling). The chunks land in a **staging file**
//! whose name contains `.tmp-` — the exact pattern
//! [`crate::checkpoint`] garbage-collects — so a follower killed
//! mid-transfer leaves nothing a later checkpoint won't sweep up.
//! Only when the final chunk arrives is the file fsync'd, renamed to
//! its real segment name, and the directory fsync'd: the final name
//! appears atomically or not at all, mirroring the manifest swap.
//!
//! Every byte routes through the [`crate::failpoint`] helpers, so the
//! fault-injection sweeps that already cover journal appends and
//! manifest swaps cover replication staging for free: killing the
//! follower at any point during [`stage_chunk`] leaves either a
//! `.tmp-` orphan (GC'd) or a fully-renamed segment, never a torn
//! file under the final name.

use crate::error::StoreError;
use crate::failpoint::{
    fp_create, fp_open_append, fp_rename, fp_sync, fp_sync_parent_dir, fp_write_all,
};
use crate::segment::{Segment, SegmentSource};
use std::path::{Path, PathBuf};

/// Suffix appended to a segment's name while its chunks are being
/// staged. Contains `.tmp-` on purpose: checkpoint GC removes
/// abandoned staging files without knowing about replication.
pub const STAGING_SUFFIX: &str = ".tmp-repl";

/// Whether `file` is an acceptable *relative* segment file name for a
/// replicated binding: the `seg-NNNNNN.evb` shape the primary's
/// durable catalog produces, with no path separators or traversal —
/// a follower must never let a (buggy or hostile) primary name a file
/// outside its own data directory.
pub fn valid_segment_file_name(file: &str) -> bool {
    let Some(stem) = file
        .strip_prefix("seg-")
        .and_then(|f| f.strip_suffix(".evb"))
    else {
        return false;
    };
    !stem.is_empty() && stem.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-')
}

/// Where a segment named `file` is staged inside `dir` while its
/// chunks arrive.
pub fn staging_path(dir: &Path, file: &str) -> PathBuf {
    dir.join(format!("{file}{STAGING_SUFFIX}"))
}

/// Append one replication chunk of `file` (final size `total_len`)
/// into its staging file in `dir`. Chunks must arrive in order:
/// `offset` is the byte position this chunk starts at, and the first
/// chunk (`offset == 0`) truncates any stale staging leftover from an
/// interrupted earlier transfer. When the last byte lands, the
/// staging file is fsync'd and atomically renamed to `file` (then the
/// directory is fsync'd); the return value says whether that happened.
///
/// # Errors
/// [`StoreError::Corrupt`] on a bad file name, an out-of-order or
/// over-long chunk, or a staging file whose length disagrees with
/// `offset` (an interrupted transfer the sender must restart from
/// offset 0); [`StoreError::Io`] on write failures.
pub fn stage_chunk(
    dir: &Path,
    file: &str,
    offset: u64,
    chunk: &[u8],
    total_len: u64,
) -> Result<bool, StoreError> {
    if !valid_segment_file_name(file) {
        return Err(StoreError::corrupt(format!(
            "replicated segment has an invalid file name {file:?}"
        )));
    }
    let end = offset
        .checked_add(chunk.len() as u64)
        .filter(|end| *end <= total_len)
        .ok_or_else(|| {
            StoreError::corrupt(format!(
                "replication chunk for {file:?} overruns its total \
                 (offset {offset} + {} > {total_len})",
                chunk.len()
            ))
        })?;
    let staging = staging_path(dir, file);
    let mut f = if offset == 0 {
        fp_create(&staging).map_err(|e| StoreError::io(format!("create {staging:?}"), &e))?
    } else {
        let have = std::fs::metadata(&staging).map(|m| m.len()).unwrap_or(0);
        if have != offset {
            return Err(StoreError::corrupt(format!(
                "out-of-order replication chunk for {file:?}: staged {have} bytes, \
                 chunk starts at {offset}"
            )));
        }
        fp_open_append(&staging)
            .map_err(|e| StoreError::io(format!("append to {staging:?}"), &e))?
    };
    fp_write_all(&mut f, chunk)
        .map_err(|e| StoreError::io(format!("stage chunk of {file:?}"), &e))?;
    if end < total_len {
        return Ok(false);
    }
    // Last chunk: make the bytes durable, then publish the final name
    // atomically. Crash-order argument: rename before fsync(file)
    // could expose a final-named file whose bytes are not durable, so
    // the fsync comes first, exactly as in the manifest swap.
    fp_sync(&f).map_err(|e| StoreError::io(format!("fsync staged {file:?}"), &e))?;
    drop(f);
    let final_path = dir.join(file);
    fp_rename(&staging, &final_path)
        .map_err(|e| StoreError::io(format!("rename {staging:?} into place"), &e))?;
    fp_sync_parent_dir(&final_path).map_err(|e| StoreError::io("fsync data directory", &e))?;
    Ok(true)
}

/// Open a replicated segment — a staged file, or the bytes of an
/// inline bind off the wire — and check it against what the primary's
/// journal record promised: the v3 content checksum and the tuple
/// count. A follower runs this **before** journaling the binding — a
/// segment that fails verification must never become part of the
/// standby's durable state. Returns the open segment.
///
/// # Errors
/// [`StoreError::Corrupt`] when the segment lacks a content checksum
/// (pre-v3 format) or either field disagrees; [`StoreError::Io`] /
/// [`StoreError::Corrupt`] from opening the segment itself.
pub fn verify_segment(
    source: impl Into<SegmentSource>,
    expected_checksum: u32,
    expected_tuples: u64,
) -> Result<Segment, StoreError> {
    let source = source.into();
    let what = match &source {
        SegmentSource::File(path) => format!("{:?}", path.file_name().unwrap_or_default()),
        SegmentSource::Bytes(bytes) => format!("(inline, {} bytes)", bytes.len()),
    };
    let segment = Segment::open(source)?;
    let Some(checksum) = segment.content_checksum() else {
        return Err(StoreError::corrupt(format!(
            "replicated segment {what} carries no content checksum \
             (format v{}); replication requires v3 segments",
            segment.version()
        )));
    };
    if checksum != expected_checksum {
        return Err(StoreError::corrupt(format!(
            "replicated segment {what} checksum mismatch \
             (journal promises {expected_checksum:#010x}, segment has {checksum:#010x})"
        )));
    }
    if segment.tuple_count() != expected_tuples {
        return Err(StoreError::corrupt(format!(
            "replicated segment {what} tuple count mismatch \
             (journal promises {expected_tuples}, segment has {})",
            segment.tuple_count()
        )));
    }
    Ok(segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FailpointFs;
    use crate::segment::write_segment_meta;
    use crate::DEFAULT_PAGE_SIZE;
    use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder, Schema};
    use std::sync::Arc;

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("evirel-replica-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rel() -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("r")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        RelationBuilder::new(schema)
            .tuple(|t| {
                t.set_str("k", "a")
                    .set_evidence_with_omega("d", [(&["x"][..], 0.5)], 0.5)
            })
            .unwrap()
            .build()
    }

    #[test]
    fn file_name_validation_rejects_traversal() {
        assert!(valid_segment_file_name("seg-000001.evb"));
        assert!(valid_segment_file_name("seg-0.evb"));
        for bad in [
            "",
            "seg-.evb",
            "seg-000001.evj",
            "MANIFEST.evm",
            "../seg-000001.evb",
            "seg-../../etc.evb",
            "a/seg-000001.evb",
            "seg-000001.evb/..",
            "seg-00 01.evb",
        ] {
            assert!(!valid_segment_file_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn chunked_staging_reassembles_and_verifies() {
        let d = dir("chunks");
        // Write a real segment elsewhere, ship it in 3 chunks.
        let src = dir("chunks-src");
        let meta =
            write_segment_meta(&rel(), src.join("seg-000001.evb"), DEFAULT_PAGE_SIZE).unwrap();
        let bytes = std::fs::read(&meta.path).unwrap();
        let total = bytes.len() as u64;
        let cut1 = bytes.len() / 3;
        let cut2 = 2 * bytes.len() / 3;
        assert!(!stage_chunk(&d, "seg-000001.evb", 0, &bytes[..cut1], total).unwrap());
        assert!(staging_path(&d, "seg-000001.evb").exists());
        assert!(!d.join("seg-000001.evb").exists());
        assert!(
            !stage_chunk(&d, "seg-000001.evb", cut1 as u64, &bytes[cut1..cut2], total).unwrap()
        );
        assert!(stage_chunk(&d, "seg-000001.evb", cut2 as u64, &bytes[cut2..], total).unwrap());
        assert!(!staging_path(&d, "seg-000001.evb").exists());
        assert!(d.join("seg-000001.evb").exists());
        verify_segment(d.join("seg-000001.evb"), meta.checksum, meta.tuple_count).unwrap();
        // Wrong expectations are typed corruption, not acceptance.
        assert!(matches!(
            verify_segment(
                d.join("seg-000001.evb"),
                meta.checksum ^ 1,
                meta.tuple_count
            ),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            verify_segment(
                d.join("seg-000001.evb"),
                meta.checksum,
                meta.tuple_count + 1
            ),
            Err(StoreError::Corrupt { .. })
        ));
        for p in [&d, &src] {
            std::fs::remove_dir_all(p).ok();
        }
    }

    #[test]
    fn out_of_order_and_overrun_chunks_are_rejected() {
        let d = dir("order");
        assert!(matches!(
            stage_chunk(&d, "seg-000001.evb", 4, b"late", 8),
            Err(StoreError::Corrupt { .. })
        ));
        stage_chunk(&d, "seg-000001.evb", 0, b"ab", 8).unwrap();
        // Gap (staged 2, chunk claims 4) and overrun both rejected.
        assert!(matches!(
            stage_chunk(&d, "seg-000001.evb", 4, b"cd", 8),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            stage_chunk(&d, "seg-000001.evb", 2, b"0123456789", 8),
            Err(StoreError::Corrupt { .. })
        ));
        // A restart from offset 0 truncates the stale staging file.
        assert!(stage_chunk(&d, "seg-000001.evb", 0, b"01234567", 8).unwrap());
        assert_eq!(
            std::fs::read(d.join("seg-000001.evb")).unwrap(),
            b"01234567"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn crash_sweep_never_exposes_a_torn_final_name() {
        let d = dir("sweep");
        let src = dir("sweep-src");
        let meta =
            write_segment_meta(&rel(), src.join("seg-000002.evb"), DEFAULT_PAGE_SIZE).unwrap();
        let bytes = std::fs::read(&meta.path).unwrap();
        let total_len = bytes.len() as u64;
        let mid = bytes.len() / 2;
        let ship = |dst: &Path| -> Result<bool, StoreError> {
            stage_chunk(dst, "seg-000002.evb", 0, &bytes[..mid], total_len)?;
            stage_chunk(dst, "seg-000002.evb", mid as u64, &bytes[mid..], total_len)
        };
        let total_units = {
            let fp = FailpointFs::observe();
            ship(&d).unwrap();
            let t = fp.units();
            drop(fp);
            t
        };
        for kill_at in 0..=total_units {
            std::fs::remove_file(d.join("seg-000002.evb")).ok();
            std::fs::remove_file(staging_path(&d, "seg-000002.evb")).ok();
            let fp = FailpointFs::kill_after(kill_at);
            let result = ship(&d);
            drop(fp);
            // Either the transfer died (leaving at most a .tmp- file a
            // checkpoint will GC) or the final name verifies clean.
            match result {
                Ok(true) => {
                    verify_segment(d.join("seg-000002.evb"), meta.checksum, meta.tuple_count)
                        .unwrap_or_else(|e| panic!("kill at {kill_at}: {e}"));
                }
                Ok(false) => unreachable!("ship always sends the final chunk"),
                Err(_) => {
                    // The rename is the commit point: if the final name
                    // exists despite the error, the rename itself
                    // succeeded, so the content is complete and synced.
                    if d.join("seg-000002.evb").exists() {
                        verify_segment(d.join("seg-000002.evb"), meta.checksum, meta.tuple_count)
                            .unwrap_or_else(|e| panic!("kill at {kill_at}: {e}"));
                    }
                }
            }
        }
        for p in [&d, &src] {
            std::fs::remove_dir_all(p).ok();
        }
    }
}
