//! On-disk segments: a header with the interned schema block, then
//! fixed-target-size data pages of length-prefixed tuple records.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ preamble (52 B): magic ∣ version ∣ flags ∣ page_size ∣       │
//! │                  schema_len ∣ table_offset ∣ page_count ∣    │
//! │                  tuple_count ∣ schema_crc ∣ table_crc ∣      │
//! │                  preamble_crc                                │
//! ├──────────────────────────────────────────────────────────────┤
//! │ schema block (codec::encode_schema — interned frame dicts)   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ page 0: [u32 record_count] [u32 len ∣ record]*               │
//! │ page 1: …                                                    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ page table: page_count × (u64 offset ∣ u32 len ∣ u32 crc)    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ stats section (flag 0x0001): u32 len ∣ RelStats ∣ u32 crc    │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Pages *target* `page_size` bytes but are located through the
//! explicit page table, so a single record larger than the target
//! simply gets its own oversized page — no record ever spans pages,
//! and no tuple is ever too large to store. Records are appended in
//! insertion order; a full-segment scan therefore reproduces the
//! source relation's iteration order exactly.
//!
//! **Durability.** Since format v3 a segment is written to a sibling
//! temporary file and only *renamed* into place after its final bytes
//! (page table + backpatched preamble) are written and fsync'd — an
//! interrupted write leaves at worst an orphaned `*.tmp-*` file,
//! never a torn `.evb`. The writer holds a segment in memory until it
//! passes [`INLINE_SEGMENT_MAX`]; a caller that finishes one below
//! that with [`SegmentWriter::finish_inline`] gets the bytes instead
//! of a file (the durable catalog journals them), and
//! [`SegmentWriter::fold_out`] later writes such bytes to their file
//! with the same
//! temp → fsync → rename. The checksums chain: `preamble_crc` covers
//! the preamble (which records `schema_crc` and `table_crc`), the
//! table covers per-page CRCs, and each page CRC covers its bytes —
//! so the single `preamble_crc` (the segment's *content checksum*,
//! recorded in the catalog manifest) commits to the entire file.
//! Readers verify page checksums on every read and surface any
//! mismatch as a typed [`StoreError::Corrupt`], whether the segment is
//! a file or bytes in memory ([`SegmentSource`]). The previous v2
//! format (no checksums) still loads via [`crate::compat`].
//!
//! **Decoding.** A verified page is framed by [`PageRecords`] — the
//! one walk over `[u32 len ∣ record]*`, as an iterator or, for a page
//! that stays pinned while its records are addressed by slot, done
//! once into [`PageRecords::ranges`] — and each record goes through
//! [`codec::decode_record`] under a column mask. [`Segment::decode_page`]
//! passes the all-true mask ([`Segment::all_columns`]) and validates
//! every tuple with `Tuple::new`. A caller that passes a narrower mask
//! (the plan layer's fused selections, and the key index in
//! [`crate::stored`]) gets the masked-in
//! values only; what it skips is length- and tag-checked and was
//! covered by the page CRC when the page was read, but is not
//! semantically validated unless the caller decodes that record again
//! in full — which it does for every tuple it emits.
//!
//! **Statistics.** The writer folds every appended tuple into a
//! [`crate::stats::StatsBuilder`] and, when the preamble's
//! [`compat::FLAG_STATS`] bit is set, persists the finished
//! [`RelStats`] block in a self-checksummed section after the page
//! table. The flag lives inside the CRC-covered preamble prefix;
//! the section carries its own CRC (verified at open — a corrupt
//! stats block is a loud [`StoreError::Corrupt`], never a silently
//! wrong estimate). A file without the flag — a v2 segment or a
//! pre-stats v3 one — gets the same block computed once at open, by
//! folding its tuples through the same [`StatsBuilder`], so every
//! open segment has statistics. Stats never affect query results,
//! only cost estimates.

use crate::codec::{self, Cursor};
use crate::compat::{self, PageEntry, MAGIC, PREAMBLE_V3, VERSION_V3};
use crate::crc::crc32;
use crate::error::StoreError;
use crate::failpoint::{fp_create, fp_rename, fp_sync, fp_sync_parent_dir, fp_write_all};
use crate::stats::{RelStats, StatsBuilder};
use evirel_relation::{AttrDomain, ExtendedRelation, Schema, Tuple};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes of page header: the record count.
const PAGE_HEADER: usize = 4;

/// Default target page size (bytes).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// The largest segment that travels inside its journal record instead
/// of as a file of its own (and the most a [`SegmentWriter`] holds in
/// memory before it moves to its temp file).
///
/// A file costs two fsyncs beyond the journal's (the file, then its
/// directory after the rename), a few hundred microseconds on a
/// virtual disk, whatever the size. Inline bytes cost their size
/// twice — written into the journal now and again when a checkpoint
/// folds them out to their file — and are held in memory while the
/// binding lives, re-read at recovery and hex-encoded on the
/// replication wire. At 64 KiB the extra write is about one fsync's
/// worth of sequential bandwidth, so inlining still wins, and a live
/// binding or a `REC` frame (128 KiB of hex) stays small next to the
/// buffer pool and the 16 MiB frame ceiling; past it the saving is
/// fixed while the costs keep growing.
pub const INLINE_SEGMENT_MAX: usize = 64 * 1024;

/// The location of one record inside a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordId {
    /// Page number.
    pub page: u64,
    /// Record slot within the page.
    pub slot: u32,
}

/// Process-unique segment ids — the buffer pool's cache key namespace.
static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(1);

/// Process-unique suffix counter for sibling temp files.
static NEXT_TMP_ID: AtomicU64 = AtomicU64::new(1);

fn temp_sibling(path: &Path) -> PathBuf {
    let n = NEXT_TMP_ID.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_else(|| "segment".into());
    name.push(format!(".tmp-{}-{n}", std::process::id()));
    path.with_file_name(name)
}

// ------------------------------------------------------------- writer

/// What [`SegmentWriter::finish_meta`] reports about a completed
/// segment file — everything the catalog manifest records per binding.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Final path the segment was renamed to.
    pub path: PathBuf,
    /// The segment's content checksum (the v3 `preamble_crc`, which
    /// transitively covers every byte of the file).
    pub checksum: u32,
    /// Number of stored tuples.
    pub tuple_count: u64,
    /// Bytes written to the file.
    pub bytes: u64,
}

/// Where [`SegmentWriter::finish_inline`] left a finished segment.
#[derive(Debug, Clone)]
pub enum Finished {
    /// At most [`INLINE_SEGMENT_MAX`] bytes: the segment itself, byte
    /// for byte what its file would hold (the same content checksum).
    /// Nothing was written to disk.
    Inline {
        /// The segment's bytes.
        bytes: Arc<[u8]>,
        /// The content checksum, as [`SegmentMeta::checksum`].
        checksum: u32,
        /// Number of stored tuples.
        tuple_count: u64,
    },
    /// Larger: a file at the writer's path, as
    /// [`SegmentWriter::finish_meta`] leaves it.
    File(SegmentMeta),
}

/// Streams tuples into a new segment. Records accumulate in one
/// in-memory page buffer and full pages are appended to the output;
/// the output stays in memory up to [`INLINE_SEGMENT_MAX`] and then
/// moves to the sibling temp file, which the rest streams into — so
/// peak writer memory is bounded by that limit plus a page, whatever
/// the relation's size.
///
/// [`SegmentWriter::finish`] lands the segment at the requested path
/// by atomically renaming the temp file into place (after an fsync),
/// so the destination either keeps its old contents or gains a
/// complete, checksummed segment — never a torn intermediate.
/// [`SegmentWriter::finish_inline`] hands a small segment back as
/// bytes instead. An unfinished writer removes its temp file on drop.
pub struct SegmentWriter {
    /// The output so far while it fits [`INLINE_SEGMENT_MAX`] (`file`
    /// is `None`); empty once it moved to the temp file.
    held: Vec<u8>,
    /// The sibling temp file, once the output outgrew `held`.
    file: Option<File>,
    /// The requested destination.
    path: PathBuf,
    /// The sibling temp file's path.
    tmp_path: PathBuf,
    /// Bytes of output so far.
    len: u64,
    /// Renamed into place, or handed back inline: nothing to remove.
    finished: bool,
    page_size: usize,
    schema_len: usize,
    schema_crc: u32,
    /// Current page payload (after the record-count header).
    page_buf: Vec<u8>,
    /// Reused full-page assembly buffer (header + payload).
    page_out: Vec<u8>,
    page_records: u32,
    pages: Vec<PageEntry>,
    next_offset: u64,
    tuple_count: u64,
    scratch: Vec<u8>,
    /// Running statistics over every appended tuple — persisted as
    /// the stats section by [`SegmentWriter::finish_meta`].
    stats: StatsBuilder,
}

impl SegmentWriter {
    /// Start a segment that will land at `path` once finished, for
    /// relations over `schema`, with the given target page size
    /// (≥ 64 bytes enforced).
    ///
    /// # Errors
    /// Does not fail: nothing touches the disk until the output
    /// outgrows [`INLINE_SEGMENT_MAX`]. The `Result` keeps callers on
    /// one error path with the writes that follow.
    pub fn create(
        path: impl AsRef<Path>,
        schema: &Schema,
        page_size: usize,
    ) -> Result<SegmentWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        let tmp_path = temp_sibling(&path);
        let mut held = vec![0u8; PREAMBLE_V3];
        codec::encode_schema(schema, &mut held);
        let schema_len = held.len() - PREAMBLE_V3;
        let schema_crc = crc32(&held[PREAMBLE_V3..]);
        let page_size = page_size.max(64);
        Ok(SegmentWriter {
            len: held.len() as u64,
            held,
            file: None,
            path,
            tmp_path,
            finished: false,
            page_size,
            schema_len,
            schema_crc,
            page_buf: Vec::with_capacity(page_size),
            page_out: Vec::with_capacity(page_size + PAGE_HEADER),
            page_records: 0,
            pages: Vec::new(),
            next_offset: (PREAMBLE_V3 + schema_len) as u64,
            tuple_count: 0,
            scratch: Vec::new(),
            stats: StatsBuilder::new(schema),
        })
    }

    /// Append one tuple, returning where it landed. Tuples must be
    /// valid for the schema the writer was created with (the reader
    /// revalidates on decode).
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures.
    pub fn append(&mut self, tuple: &Tuple) -> Result<RecordId, StoreError> {
        self.stats.observe(tuple);
        self.scratch.clear();
        codec::encode_record(tuple, &mut self.scratch);
        let framed = 4 + self.scratch.len();
        // Flush the current page when this record would overflow the
        // target — unless the page is empty (a jumbo record gets its
        // own oversized page).
        if !self.page_buf.is_empty() && PAGE_HEADER + self.page_buf.len() + framed > self.page_size
        {
            self.flush_page()?;
        }
        let id = RecordId {
            page: self.pages.len() as u64,
            slot: self.page_records,
        };
        codec::put_u32(&mut self.page_buf, self.scratch.len() as u32);
        self.page_buf.extend_from_slice(&self.scratch);
        self.page_records += 1;
        self.tuple_count += 1;
        Ok(id)
    }

    /// The temp file, created (with the output held so far) on first
    /// use.
    fn file(&mut self) -> Result<&mut File, StoreError> {
        if self.file.is_none() {
            let file = fp_create(&self.tmp_path)
                .map_err(|e| StoreError::io(format!("create {:?}", self.tmp_path), &e))?;
            // Kept before the first write, so that drop removes the
            // temp file even if that write fails.
            let file = self.file.insert(file);
            fp_write_all(file, &std::mem::take(&mut self.held))
                .map_err(|e| StoreError::io("write segment", &e))?;
        }
        Ok(self.file.as_mut().expect("created above"))
    }

    /// Append `bytes` to the output: in memory while it stays within
    /// [`INLINE_SEGMENT_MAX`], in the temp file past it.
    fn write(&mut self, bytes: &[u8], what: &str) -> Result<(), StoreError> {
        self.len += bytes.len() as u64;
        if self.file.is_none() && self.held.len() + bytes.len() <= INLINE_SEGMENT_MAX {
            self.held.extend_from_slice(bytes);
            return Ok(());
        }
        fp_write_all(self.file()?, bytes).map_err(|e| StoreError::io(what, &e))
    }

    fn flush_page(&mut self) -> Result<(), StoreError> {
        if self.page_buf.is_empty() {
            return Ok(());
        }
        let mut page = std::mem::take(&mut self.page_out);
        page.clear();
        page.extend_from_slice(&self.page_records.to_le_bytes());
        page.extend_from_slice(&self.page_buf);
        let len = page.len() as u32;
        let crc = crc32(&page);
        let written = self.write(&page, "write page");
        self.page_out = page;
        written?;
        self.pages.push(PageEntry {
            offset: self.next_offset,
            len,
            crc: Some(crc),
        });
        self.next_offset += u64::from(len);
        self.page_buf.clear();
        self.page_records = 0;
        Ok(())
    }

    /// Flush the final page, write the checksummed page table and the
    /// stats section, and patch the preamble — in memory or in the
    /// temp file, wherever the output is. Returns the content checksum.
    fn seal(&mut self) -> Result<u32, StoreError> {
        self.flush_page()?;
        let table_offset = self.next_offset;
        let mut table = Vec::with_capacity(self.pages.len() * compat::TABLE_ENTRY_V3);
        for entry in &self.pages {
            codec::put_u64(&mut table, entry.offset);
            codec::put_u32(&mut table, entry.len);
            codec::put_u32(&mut table, entry.crc.unwrap_or(0));
        }
        let table_crc = crc32(&table);
        self.write(&table, "write page table")?;
        // Stats section: [u32 len | RelStats payload | u32 crc],
        // after the page table (readers locate it from table_end).
        let rel_stats = self.stats.clone().finish();
        self.scratch.clear();
        rel_stats.encode(&mut self.scratch);
        let mut section = Vec::with_capacity(self.scratch.len() + 8);
        codec::put_u32(&mut section, self.scratch.len() as u32);
        section.extend_from_slice(&self.scratch);
        codec::put_u32(&mut section, crc32(&self.scratch));
        self.write(&section, "write stats section")?;
        let mut preamble = Vec::with_capacity(PREAMBLE_V3);
        codec::put_u32(&mut preamble, MAGIC);
        codec::put_u16(&mut preamble, VERSION_V3);
        codec::put_u16(&mut preamble, compat::FLAG_STATS);
        codec::put_u32(&mut preamble, self.page_size as u32);
        codec::put_u32(&mut preamble, self.schema_len as u32);
        codec::put_u64(&mut preamble, table_offset);
        codec::put_u64(&mut preamble, self.pages.len() as u64);
        codec::put_u64(&mut preamble, self.tuple_count);
        codec::put_u32(&mut preamble, self.schema_crc);
        codec::put_u32(&mut preamble, table_crc);
        let preamble_crc = crc32(&preamble);
        codec::put_u32(&mut preamble, preamble_crc);
        match &mut self.file {
            None => self.held[..PREAMBLE_V3].copy_from_slice(&preamble),
            Some(file) => {
                file.seek(SeekFrom::Start(0))
                    .map_err(|e| StoreError::io("seek preamble", &e))?;
                fp_write_all(file, &preamble).map_err(|e| StoreError::io("patch preamble", &e))?;
            }
        }
        Ok(preamble_crc)
    }

    /// Finish the segment and fsync + atomically rename the temp file
    /// to the destination path (returned).
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures.
    pub fn finish(self) -> Result<PathBuf, StoreError> {
        Ok(self.finish_meta()?.path)
    }

    /// As [`SegmentWriter::finish`], additionally reporting the
    /// content checksum and tuple count the catalog manifest records.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures.
    pub fn finish_meta(mut self) -> Result<SegmentMeta, StoreError> {
        let checksum = self.seal()?;
        self.land(checksum)
    }

    /// Finish the segment: one of at most [`INLINE_SEGMENT_MAX`] bytes
    /// comes back as those bytes and touches no disk; a larger one
    /// lands at the destination path as [`SegmentWriter::finish_meta`]
    /// lands it. Size alone decides.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures.
    pub fn finish_inline(mut self) -> Result<Finished, StoreError> {
        let checksum = self.seal()?;
        if self.file.is_some() {
            return self.land(checksum).map(Finished::File);
        }
        self.finished = true;
        Ok(Finished::Inline {
            bytes: Arc::from(std::mem::take(&mut self.held)),
            checksum,
            tuple_count: self.tuple_count,
        })
    }

    /// Land the sealed output at the destination: fsync the temp file,
    /// rename it into place, fsync the directory.
    fn land(mut self, checksum: u32) -> Result<SegmentMeta, StoreError> {
        let file = self.file()?;
        fp_sync(file).map_err(|e| StoreError::io("fsync segment", &e))?;
        fp_rename(&self.tmp_path, &self.path)
            .map_err(|e| StoreError::io(format!("rename into {:?}", self.path), &e))?;
        self.finished = true;
        fp_sync_parent_dir(&self.path)
            .map_err(|e| StoreError::io("fsync segment directory", &e))?;
        Ok(SegmentMeta {
            path: self.path.clone(),
            checksum,
            tuple_count: self.tuple_count,
            bytes: self.len,
        })
    }

    /// Fold inline segments out to their files in `dir`: each `(file,
    /// bytes)` — [`Finished::Inline`] bytes, exactly what the file holds —
    /// goes to a sibling temp file that is fsync'd and renamed into place,
    /// then `dir` is fsync'd once for the batch. Returns the bytes written.
    /// A checkpoint runs this before its manifest names the files.
    ///
    /// # Errors
    /// [`StoreError::Io`]; the temp file of the failed segment is removed,
    /// and files already renamed stay (unreferenced until a manifest names
    /// them, and rewritten whole by the next fold-out).
    pub fn fold_out(dir: &Path, segments: &[(&str, &[u8])]) -> Result<u64, StoreError> {
        let mut written = 0;
        for (file, bytes) in segments {
            let path = dir.join(file);
            let tmp = temp_sibling(&path);
            let landed = fp_create(&tmp).and_then(|mut f| {
                fp_write_all(&mut f, bytes)?;
                fp_sync(&f)?;
                fp_rename(&tmp, &path)
            });
            if let Err(e) = landed {
                std::fs::remove_file(&tmp).ok();
                return Err(StoreError::io(format!("fold out {path:?}"), &e));
            }
            written += bytes.len() as u64;
        }
        if let Some((file, _)) = segments.first() {
            fp_sync_parent_dir(&dir.join(file))
                .map_err(|e| StoreError::io("fsync segment directory", &e))?;
        }
        Ok(written)
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        if !self.finished && self.file.is_some() {
            // Abandoned mid-write (error or crash-injection): the
            // destination was never touched, only the temp file.
            std::fs::remove_file(&self.tmp_path).ok();
        }
    }
}

/// Write a whole relation to a segment at `path` (insertion order).
///
/// # Errors
/// As [`SegmentWriter`].
pub fn write_segment(
    rel: &ExtendedRelation,
    path: impl AsRef<Path>,
    page_size: usize,
) -> Result<(), StoreError> {
    write_segment_meta(rel, path, page_size).map(|_| ())
}

/// As [`write_segment`], reporting the finished segment's manifest
/// metadata (content checksum, tuple count).
///
/// # Errors
/// As [`SegmentWriter`].
pub fn write_segment_meta(
    rel: &ExtendedRelation,
    path: impl AsRef<Path>,
    page_size: usize,
) -> Result<SegmentMeta, StoreError> {
    let mut writer = SegmentWriter::create(path, rel.schema(), page_size)?;
    for tuple in rel.iter() {
        writer.append(tuple)?;
    }
    writer.finish_meta()
}

/// Read and verify the stats section at `offset`: `[u32 len |
/// payload | u32 crc]`. The flag promised a section, so truncation
/// or a checksum mismatch here is corruption, not absence.
fn read_stats_section(
    file: &mut (impl Read + Seek),
    offset: u64,
    file_len: u64,
) -> Result<RelStats, StoreError> {
    let mut len_buf = [0u8; 4];
    let min_end = offset
        .checked_add(8)
        .ok_or_else(|| StoreError::corrupt("stats section offset overflows"))?;
    if min_end > file_len {
        return Err(StoreError::corrupt(
            "stats section promised by preamble flag but file ends before it",
        ));
    }
    file.seek(SeekFrom::Start(offset))
        .and_then(|_| file.read_exact(&mut len_buf))
        .map_err(|e| StoreError::io("read stats length", &e))?;
    let len = u64::from(u32::from_le_bytes(len_buf));
    if min_end + len > file_len {
        return Err(StoreError::corrupt(format!(
            "stats section ({len} bytes) extends past end of file"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut crc_buf = [0u8; 4];
    file.read_exact(&mut payload)
        .and_then(|_| file.read_exact(&mut crc_buf))
        .map_err(|e| StoreError::io("read stats section", &e))?;
    let expected = u32::from_le_bytes(crc_buf);
    let actual = crc32(&payload);
    if actual != expected {
        return Err(StoreError::corrupt(format!(
            "stats section checksum mismatch (stored {expected:#010x}, \
             computed {actual:#010x})"
        )));
    }
    RelStats::decode(&payload)
}

/// Check `bytes` against a page-table entry: its recorded length and
/// (v3) checksum.
fn verify_entry(page: u64, entry: &PageEntry, bytes: &[u8]) -> Result<(), StoreError> {
    if bytes.len() != entry.len as usize {
        return Err(StoreError::corrupt(format!(
            "page {page} length mismatch ({} bytes, expected {})",
            bytes.len(),
            entry.len
        )));
    }
    if let Some(expected) = entry.crc {
        let actual = crc32(bytes);
        if actual != expected {
            return Err(StoreError::corrupt(format!(
                "page {page} checksum mismatch (stored {expected:#010x}, \
                 computed {actual:#010x})"
            )));
        }
    }
    Ok(())
}

/// Read one page's bytes (unverified — see [`verify_entry`]).
fn read_entry(
    file: &mut (impl Read + Seek),
    page: u64,
    entry: &PageEntry,
) -> Result<Vec<u8>, StoreError> {
    let mut buf = vec![0u8; entry.len as usize];
    file.seek(SeekFrom::Start(entry.offset))
        .and_then(|_| file.read_exact(&mut buf))
        .map_err(|e| StoreError::io(format!("read page {page}"), &e))?;
    Ok(buf)
}

/// The records of one page in slot order, each item one record's
/// bytes exactly as [`codec::decode_record`] takes them — the page
/// framing (`u32` record count, then `u32` length ∣ record), walked
/// through the bounds-checked cursor.
pub struct PageRecords<'a> {
    cur: Cursor<'a>,
    left: u32,
}

impl<'a> PageRecords<'a> {
    /// Frame `bytes` (from [`Segment::read_page`] or the buffer pool).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the page is shorter than its
    /// record-count header.
    pub fn new(bytes: &'a [u8]) -> Result<PageRecords<'a>, StoreError> {
        let mut cur = Cursor::new(bytes, "page");
        let left = cur.u32()?;
        Ok(PageRecords { cur, left })
    }

    /// Where each record of `bytes` lies, in slot order: the walk done
    /// once, for a page that stays pinned while its records are
    /// addressed by slot (`&bytes[range]` is then what the walk would
    /// have yielded).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on a malformed page, as the walk.
    pub fn ranges(bytes: &'a [u8]) -> Result<Vec<std::ops::Range<usize>>, StoreError> {
        let mut records = PageRecords::new(bytes)?;
        let mut ranges = Vec::with_capacity(records.size_hint().1.unwrap_or(0));
        while let Some(record) = records.next() {
            let end = records.cur.pos();
            ranges.push(end - record?.len()..end);
        }
        Ok(ranges)
    }
}

impl<'a> Iterator for PageRecords<'a> {
    type Item = Result<&'a [u8], StoreError>;

    fn next(&mut self) -> Option<Result<&'a [u8], StoreError>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let record = self.cur.u32().and_then(|len| self.cur.bytes(len as usize));
        if record.is_err() {
            self.left = 0;
        }
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // A record costs at least its 4-byte length prefix — the cap
        // keeps a corrupted count from sizing a gigabyte allocation.
        (0, Some((self.left as usize).min(self.cur.remaining() / 4)))
    }
}

/// Decode every record of a page into tuples, in slot order.
fn decode_records(
    bytes: &[u8],
    schema: &Schema,
    domains: &[Option<Arc<AttrDomain>>],
    all_columns: &[codec::Column],
) -> Result<Vec<Tuple>, StoreError> {
    let records = PageRecords::new(bytes)?;
    let mut out = Vec::with_capacity(records.size_hint().1.unwrap_or(0));
    for record in records {
        out.push(codec::decode_record(record?, domains, all_columns)?.into_tuple(schema)?);
    }
    Ok(out)
}

// ------------------------------------------------------------- reader

/// Where a [`Segment`] reads its bytes from. Every path converts into
/// one, so an API that takes `impl Into<SegmentSource>` takes a path
/// as before.
#[derive(Debug, Clone)]
pub enum SegmentSource {
    /// A segment file.
    File(PathBuf),
    /// A segment held in memory — an inline bind's bytes
    /// ([`Finished::Inline`]), byte for byte what its file would hold.
    Bytes(Arc<[u8]>),
}

impl<P: AsRef<Path>> From<P> for SegmentSource {
    fn from(path: P) -> SegmentSource {
        SegmentSource::File(path.as_ref().to_path_buf())
    }
}

/// The open [`SegmentSource`]: one `Read + Seek` stream that the
/// header, page table, stats section and every page are read through.
#[derive(Debug)]
enum Reader {
    File(File),
    Bytes(std::io::Cursor<Arc<[u8]>>),
}

impl Read for Reader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Reader::File(file) => file.read(buf),
            Reader::Bytes(bytes) => bytes.read(buf),
        }
    }
}

impl Seek for Reader {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        match self {
            Reader::File(file) => file.seek(pos),
            Reader::Bytes(bytes) => bytes.seek(pos),
        }
    }
}

/// An open segment: the parsed header (schema + domains + page table)
/// plus the source pages are read through — a file, or an inline
/// segment's bytes. Cheap to share behind an [`Arc`]; all reads are
/// interior-mutex, so exchange workers can page through one segment
/// concurrently.
#[derive(Debug)]
pub struct Segment {
    id: u64,
    source: Mutex<Reader>,
    schema: Arc<Schema>,
    domains: Vec<Option<Arc<AttrDomain>>>,
    /// The all-true column mask — full decodes go through the one
    /// masked record decoder with it.
    all_columns: Vec<codec::Column>,
    pages: Vec<PageEntry>,
    tuple_count: u64,
    page_size: usize,
    version: u16,
    content_checksum: Option<u32>,
    /// Relation statistics: the persisted block when the segment
    /// carries the stats flag, else computed at open.
    stats: Arc<RelStats>,
}

impl Segment {
    /// Open a segment — a file, or bytes in memory — rebuilding its
    /// schema (and interned domain dictionary) from the header.
    ///
    /// # Errors
    /// [`StoreError::Io`] / [`StoreError::Corrupt`] on unreadable or
    /// malformed segments.
    pub fn open(source: impl Into<SegmentSource>) -> Result<Segment, StoreError> {
        Segment::open_impl(source.into(), None)
    }

    /// Open a segment using a caller-supplied schema instead of
    /// rebuilding one from the header — the spill path uses this so
    /// decoded tuples share the executor's own domain `Arc`s (frames
    /// stay pointer-identical; no structural re-interning). The
    /// stored header is still parsed for the page table.
    ///
    /// # Errors
    /// As [`Segment::open`].
    pub fn open_with_schema(
        source: impl Into<SegmentSource>,
        schema: Arc<Schema>,
    ) -> Result<Segment, StoreError> {
        Segment::open_impl(source.into(), Some(schema))
    }

    fn open_impl(
        source: SegmentSource,
        schema: Option<Arc<Schema>>,
    ) -> Result<Segment, StoreError> {
        let (mut file, file_len) = match source {
            SegmentSource::File(path) => {
                let file =
                    File::open(&path).map_err(|e| StoreError::io(format!("open {path:?}"), &e))?;
                let len = file
                    .metadata()
                    .map_err(|e| StoreError::io(format!("stat {path:?}"), &e))?
                    .len();
                (Reader::File(file), len)
            }
            SegmentSource::Bytes(bytes) => {
                let len = bytes.len() as u64;
                (Reader::Bytes(std::io::Cursor::new(bytes)), len)
            }
        };
        let header = compat::read_header(&mut file, file_len)?;

        let mut schema_bytes = vec![0u8; header.schema_len];
        file.seek(SeekFrom::Start(header.preamble_len() as u64))
            .and_then(|_| file.read_exact(&mut schema_bytes))
            .map_err(|e| StoreError::io("read schema block", &e))?;
        if let Some(expected) = header.schema_crc {
            let actual = crc32(&schema_bytes);
            if actual != expected {
                return Err(StoreError::corrupt(format!(
                    "schema block checksum mismatch (stored {expected:#010x}, \
                     computed {actual:#010x})"
                )));
            }
        }
        let (schema, domains) = match schema {
            Some(live) => {
                let domains = codec::domains_of(&live);
                (live, domains)
            }
            None => {
                let mut cur = Cursor::new(&schema_bytes, "schema block");
                codec::decode_schema(&mut cur)?
            }
        };

        let pages = compat::read_page_table(&mut file, &header)?;
        let all_columns = vec![codec::Column::Full; schema.arity()];

        let stats = if header.flags & compat::FLAG_STATS != 0 {
            let table_len = (header.page_count * compat::TABLE_ENTRY_V3) as u64;
            let stats_offset = header.table_offset + table_len;
            read_stats_section(&mut file, stats_offset, file_len)?
        } else {
            // Written before the stats section existed: one pass over
            // the data pages, the fold the writer would have done.
            let mut builder = StatsBuilder::new(&schema);
            for (page, entry) in pages.iter().enumerate() {
                let bytes = read_entry(&mut file, page as u64, entry)?;
                verify_entry(page as u64, entry, &bytes)?;
                for tuple in decode_records(&bytes, &schema, &domains, &all_columns)? {
                    builder.observe(&tuple);
                }
            }
            builder.finish()
        };

        Ok(Segment {
            id: NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed),
            source: Mutex::new(file),
            schema,
            domains,
            all_columns,
            pages,
            tuple_count: header.tuple_count,
            page_size: header.page_size,
            version: header.version,
            content_checksum: header.content_checksum,
            stats: Arc::new(stats),
        })
    }

    /// The process-unique segment id (the buffer pool's cache key
    /// namespace).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The relation schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The per-position evidential domains records decode against
    /// (`None` at definite positions) — what [`codec::decode_record`]
    /// takes beside a column mask.
    pub fn domains(&self) -> &[Option<Arc<AttrDomain>>] {
        &self.domains
    }

    /// The all-`Full` column mask: what [`codec::decode_record`] takes
    /// to decode a record of this segment in full.
    pub fn all_columns(&self) -> &[codec::Column] {
        &self.all_columns
    }

    /// Number of data pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of stored tuples.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Target page size the segment was written with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// On-disk format version this segment was read as.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The segment's content checksum (v3 `preamble_crc`, which
    /// transitively covers the whole file); `None` for v2 segments.
    pub fn content_checksum(&self) -> Option<u32> {
        self.content_checksum
    }

    /// The relation statistics: read from the stats section
    /// ([`compat::FLAG_STATS`]) or, for v2 and pre-stats v3 files,
    /// computed from the data pages when the segment was opened.
    pub fn stats(&self) -> &Arc<RelStats> {
        &self.stats
    }

    /// On-disk byte length of page `page`.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] for out-of-range page numbers.
    pub fn page_len(&self, page: u64) -> Result<usize, StoreError> {
        Ok(self.entry(page)?.len as usize)
    }

    fn entry(&self, page: u64) -> Result<&PageEntry, StoreError> {
        self.pages
            .get(page as usize)
            .ok_or_else(|| StoreError::corrupt(format!("page {page} out of range")))
    }

    /// Verify `bytes` against page `page`'s recorded length and (for
    /// v3 segments) checksum. The read path calls this on every disk
    /// read; in a debug build the buffer pool re-calls it on cache
    /// hits too.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on any mismatch.
    pub fn verify_page(&self, page: u64, bytes: &[u8]) -> Result<(), StoreError> {
        verify_entry(page, self.entry(page)?, bytes)
    }

    /// Read raw page bytes from the source, verifying the page
    /// checksum — the buffer pool's fill path. Prefer
    /// [`crate::pool::BufferPool::get`], which caches.
    ///
    /// # Errors
    /// [`StoreError::Io`] / [`StoreError::Corrupt`].
    pub fn read_page(&self, page: u64) -> Result<Vec<u8>, StoreError> {
        let entry = self.entry(page)?;
        // The source lock covers the read only, not the checksum.
        let buf = read_entry(
            &mut *self.source.lock().expect("segment source lock"),
            page,
            entry,
        )?;
        verify_entry(page, entry, &buf)?;
        Ok(buf)
    }

    /// Decode every record of a page (bytes from [`Segment::read_page`]
    /// or the buffer pool) into tuples, in slot order.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on malformed pages; validation errors
    /// from tuple reconstruction.
    pub fn decode_page(&self, bytes: &[u8]) -> Result<Vec<Tuple>, StoreError> {
        decode_records(bytes, &self.schema, &self.domains, &self.all_columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FailpointFs;
    use crate::test_dir::TestDir;
    use evirel_relation::{RelationBuilder, Value};

    fn sample(n: usize) -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("spec", ["si", "hu", "ca"]).unwrap());
        let schema = Arc::new(
            Schema::builder("RA")
                .key_str("rname")
                .definite("bldg", evirel_relation::ValueKind::Int)
                .evidential("spec", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for i in 0..n {
            b = b
                .tuple(|t| {
                    t.set_str("rname", format!("r-{i}"))
                        .set_int("bldg", i as i64)
                        .set_evidence_with_omega(
                            "spec",
                            [(&["si"][..], 1.0 / 3.0), (&["hu", "ca"][..], 1.0 / 3.0)],
                            1.0 / 3.0,
                        )
                        .membership_pair(0.5 + (i as f64) / (2.0 * n as f64), 1.0)
                })
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn write_read_roundtrip_exact() {
        let rel = sample(100);
        let dir = TestDir::new("segment");
        let path = dir.join("roundtrip.evb");
        write_segment(&rel, &path, 512).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.tuple_count(), 100);
        assert_eq!(seg.version(), VERSION_V3);
        assert!(seg.content_checksum().is_some());
        assert!(seg.page_count() > 1, "512-byte pages must paginate");
        rel.schema().check_union_compatible(seg.schema()).unwrap();
        let mut decoded = Vec::new();
        for p in 0..seg.page_count() {
            let bytes = seg.read_page(p).unwrap();
            decoded.extend(seg.decode_page(&bytes).unwrap());
        }
        assert_eq!(decoded.len(), rel.len());
        for (orig, back) in rel.iter().zip(decoded.iter()) {
            // EXACT equality — raw f64 bits round-trip.
            assert_eq!(orig.values(), back.values());
            assert_eq!(orig.membership().sn(), back.membership().sn());
            assert_eq!(orig.membership().sp(), back.membership().sp());
        }
    }

    #[test]
    fn record_ids_and_point_lookup() {
        let rel = sample(50);
        let dir = TestDir::new("segment");
        let path = dir.join("points.evb");
        let mut writer = SegmentWriter::create(&path, rel.schema(), 256).unwrap();
        let ids: Vec<RecordId> = rel.iter().map(|t| writer.append(t).unwrap()).collect();
        writer.finish().unwrap();
        let seg = Segment::open(&path).unwrap();
        let point = |id: RecordId| {
            let bytes = seg.read_page(id.page).unwrap();
            let range = PageRecords::ranges(&bytes)
                .unwrap()
                .get(id.slot as usize)?
                .clone();
            let record = codec::decode_record(&bytes[range], seg.domains(), seg.all_columns());
            Some(record.unwrap().into_tuple(seg.schema()).unwrap())
        };
        for (tuple, id) in rel.iter().zip(&ids) {
            assert_eq!(point(*id).unwrap().values(), tuple.values());
        }
        // Out-of-range slot is absent, not UB.
        assert!(point(RecordId {
            page: 0,
            slot: 10_000
        })
        .is_none());
    }

    #[test]
    fn jumbo_records_get_oversized_pages() {
        let d = Arc::new(AttrDomain::categorical("spec", ["x"]).unwrap());
        let schema = Arc::new(
            Schema::builder("J")
                .key_str("k")
                .evidential("spec", d)
                .build()
                .unwrap(),
        );
        let big_key = "k".repeat(5000);
        let rel = RelationBuilder::new(schema)
            .tuple(|t| {
                t.set_str("k", big_key.clone())
                    .set_evidence("spec", [(&["x"][..], 1.0)])
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("k", "small")
                    .set_evidence("spec", [(&["x"][..], 1.0)])
            })
            .unwrap()
            .build();
        let dir = TestDir::new("segment");
        let path = dir.join("jumbo.evb");
        write_segment(&rel, &path, 64).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.tuple_count(), 2);
        assert!(seg.page_len(0).unwrap() > 5000, "jumbo page is oversized");
        let first = &seg.decode_page(&seg.read_page(0).unwrap()).unwrap()[0];
        assert_eq!(
            first.value(0).as_definite().unwrap(),
            &Value::str(big_key.clone())
        );
    }

    #[test]
    fn open_with_live_schema_shares_domain_arcs() {
        let rel = sample(5);
        let dir = TestDir::new("segment");
        let path = dir.join("live.evb");
        write_segment(&rel, &path, 512).unwrap();
        let seg = Segment::open_with_schema(&path, Arc::clone(rel.schema())).unwrap();
        assert!(Arc::ptr_eq(seg.schema(), rel.schema()));
        let decoded = seg.decode_page(&seg.read_page(0).unwrap()).unwrap();
        // Decoded frames are pointer-identical to the live schema's.
        let live = rel.schema().attr(2).ty().domain().unwrap();
        let m = decoded[0].value(2).as_evidential().unwrap();
        assert!(Arc::ptr_eq(m.frame(), live.frame()));
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let dir = TestDir::new("segment");
        let path = dir.join("corrupt.evb");
        std::fs::write(&path, b"this is not a segment file at all!!!!!!!!").unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        // A file shorter than any preamble is corrupt, not an I/O
        // error — the length check runs before any read.
        std::fs::write(&path, b"xx").unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(Segment::open("/nonexistent/nope.evb").is_err());
    }

    #[test]
    fn page_checksum_catches_bit_rot() {
        let rel = sample(30);
        let dir = TestDir::new("segment");
        let path = dir.join("bitrot.evb");
        write_segment(&rel, &path, 512).unwrap();
        // Flip one bit in the middle of page 0's data region.
        let mut bytes = std::fs::read(&path).unwrap();
        let seg = Segment::open(&path).unwrap();
        drop(seg);
        let target = PREAMBLE_V3 + 200; // somewhere in page data
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path);
        // Either the schema block was hit (open fails) or a page was
        // hit (read_page fails) — never a silent wrong answer.
        if let Ok(seg) = seg {
            let mut saw_corrupt = false;
            for p in 0..seg.page_count() {
                match seg.read_page(p) {
                    Ok(_) => {}
                    Err(StoreError::Corrupt { .. }) => saw_corrupt = true,
                    Err(e) => panic!("unexpected error kind: {e}"),
                }
            }
            assert!(saw_corrupt, "bit flip must surface as Corrupt");
        }
    }

    /// A segment that carries its stats section opens from the
    /// preamble, schema block, page table and that section alone: a
    /// rotten data page does not fail the open, it surfaces at the
    /// first read of that page. Only a stats-less legacy file pays a
    /// pass over its pages at open.
    #[test]
    fn open_with_stats_section_reads_no_data_page() {
        let rel = sample(30);
        let dir = TestDir::new("segment");
        let path = dir.join("noscan.evb");
        write_segment(&rel, &path, 512).unwrap();
        let mut schema_block = Vec::new();
        codec::encode_schema(rel.schema(), &mut schema_block);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PREAMBLE_V3 + schema_block.len() + 10] ^= 0x10; // inside page 0
        std::fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path).expect("open touches no data page");
        assert_eq!(seg.stats().tuples, 30);
        assert!(matches!(seg.read_page(0), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn interrupted_write_leaves_existing_segment_readable() {
        let rel = sample(20);
        let dir = TestDir::new("segment");
        let path = dir.join("atomic.evb");
        write_segment(&rel, &path, 512).unwrap();
        let original = std::fs::read(&path).unwrap();

        // Sweep every kill point of a rewrite over the same path:
        // the destination must stay byte-identical until the rename.
        let bigger = sample(40);
        let total = {
            let fp = FailpointFs::observe();
            write_segment(&bigger, &path, 512).unwrap();
            let t = fp.units();
            drop(fp);
            // Restore the original for the sweep.
            write_segment(&rel, &path, 512).unwrap();
            t
        };
        let mut failures = 0;
        for kill_at in (0..total).step_by(97) {
            let fp = FailpointFs::kill_after(kill_at);
            let result = write_segment(&bigger, &path, 512);
            drop(fp);
            if result.is_err() {
                failures += 1;
                // Original still fully readable, bit for bit.
                assert_eq!(std::fs::read(&path).unwrap(), original);
                let seg = Segment::open(&path).unwrap();
                assert_eq!(seg.tuple_count(), 20);
            }
        }
        assert!(failures > 0, "sweep must hit mid-write kill points");
        // No leaked temp files.
        let dir = path.parent().unwrap();
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            assert!(
                !name.starts_with("atomic.evb.tmp-"),
                "leaked temp file {name}"
            );
        }
    }
}
