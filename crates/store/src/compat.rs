//! Format-version compatibility for segment files.
//!
//! This build reads two on-disk formats:
//!
//! * **v3** (current, written by [`crate::segment::SegmentWriter`]) —
//!   a 52-byte preamble carrying three CRC-32s that transitively
//!   authenticate the whole file: `preamble_crc` covers the first 48
//!   preamble bytes (which include `schema_crc` and `table_crc`),
//!   `table_crc` covers the page table (which carries a per-page
//!   `crc`), and each page `crc` covers that page's bytes. A single
//!   `u32` — the `preamble_crc`, surfaced as the segment's *content
//!   checksum* — therefore commits to every byte of the segment, and
//!   is what the catalog manifest records per binding.
//! * **v2** (previous) — the 40-byte checksum-free preamble and
//!   12-byte page-table entries. Loads read-only for compatibility;
//!   committed fixtures under `tests/fixtures/` pin this forever.
//!
//! Unknown versions (and v1, which no released writer ever produced)
//! are rejected with a typed [`StoreError::Corrupt`] naming the
//! version — never a panic, never a misparse. All header fields are
//! validated against the actual file length before any allocation is
//! sized from them, so a corrupted `page_count` of `u64::MAX` is an
//! error, not an OOM.

use crate::crc::crc32;
use crate::error::StoreError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

/// Segment magic: "EVRS".
pub const MAGIC: u32 = 0x4556_5253;
/// The previous format: no checksums, 40-byte preamble.
pub const VERSION_V2: u16 = 2;
/// The current format: per-page CRCs + transitive preamble CRC.
pub const VERSION_V3: u16 = 3;
/// Preamble length of v2 files.
pub const PREAMBLE_V2: usize = 40;
/// Preamble length of v3 files (v2 + schema_crc + table_crc +
/// preamble_crc).
pub const PREAMBLE_V3: usize = 52;
/// Page-table entry size: v2 `(offset u64, len u32)`.
pub const TABLE_ENTRY_V2: usize = 12;
/// Page-table entry size: v3 `(offset u64, len u32, crc u32)`.
pub const TABLE_ENTRY_V3: usize = 16;
/// Preamble flag bit: the file carries a statistics section
/// (`[u32 len | RelStats payload | u32 crc]`) immediately after the
/// page table. Older v3 files have a zero flags word and v2 files no
/// flags word at all: their statistics are computed at open.
pub const FLAG_STATS: u16 = 0x0001;

/// A parsed, validated segment preamble — version-independent view.
#[derive(Debug, Clone)]
pub struct SegmentHeader {
    /// On-disk format version ([`VERSION_V2`] or [`VERSION_V3`]).
    pub version: u16,
    /// Preamble flags ([`FLAG_STATS`]); always zero for v2. The
    /// flags word sits inside the CRC-covered preamble prefix, so a
    /// flipped flag bit fails the preamble checksum rather than
    /// silently changing how the tail of the file is parsed.
    pub flags: u16,
    /// Target page size the writer used.
    pub page_size: usize,
    /// Length of the schema block that follows the preamble.
    pub schema_len: usize,
    /// File offset of the page table.
    pub table_offset: u64,
    /// Number of data pages.
    pub page_count: usize,
    /// Number of stored tuples.
    pub tuple_count: u64,
    /// CRC of the schema block (v3 only).
    pub schema_crc: Option<u32>,
    /// CRC of the page-table bytes (v3 only).
    pub table_crc: Option<u32>,
    /// CRC of the first 48 preamble bytes — the segment's content
    /// checksum (v3 only).
    pub content_checksum: Option<u32>,
}

impl SegmentHeader {
    /// Bytes of preamble for this header's version.
    pub fn preamble_len(&self) -> usize {
        match self.version {
            VERSION_V2 => PREAMBLE_V2,
            _ => PREAMBLE_V3,
        }
    }

    fn table_entry_len(&self) -> usize {
        match self.version {
            VERSION_V2 => TABLE_ENTRY_V2,
            _ => TABLE_ENTRY_V3,
        }
    }
}

/// One page's location (and, for v3, its checksum).
#[derive(Debug, Clone, Copy)]
pub struct PageEntry {
    /// File offset of the page.
    pub offset: u64,
    /// On-disk byte length of the page.
    pub len: u32,
    /// CRC-32 of the page bytes (v3 only).
    pub crc: Option<u32>,
}

fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::corrupt(what)
}

/// Read and validate the preamble of an open segment file.
///
/// Dispatches on the version field: v2 and v3 parse (v3 additionally
/// verifies `preamble_crc`); anything else is a typed error naming
/// the version. Every offset/length field is checked against
/// `file_len` with overflow-safe arithmetic.
///
/// # Errors
/// [`StoreError::Io`] on read failures; [`StoreError::Corrupt`] on
/// bad magic, unknown versions, checksum mismatches, or fields
/// inconsistent with the file length.
pub fn read_header(file: &mut File, file_len: u64) -> Result<SegmentHeader, StoreError> {
    if file_len < PREAMBLE_V2 as u64 {
        return Err(corrupt(format!(
            "truncated segment: {file_len} bytes is shorter than any preamble"
        )));
    }
    let mut fixed = [0u8; PREAMBLE_V2];
    file.seek(SeekFrom::Start(0))
        .and_then(|_| file.read_exact(&mut fixed))
        .map_err(|e| StoreError::io("read preamble", &e))?;
    let mut cur = crate::codec::Cursor::new(&fixed, "preamble");
    if cur.u32()? != MAGIC {
        return Err(corrupt("bad magic (not an evirel segment)"));
    }
    let version = cur.u16()?;
    if version != VERSION_V2 && version != VERSION_V3 {
        return Err(corrupt(format!(
            "unsupported segment version {version} (this build reads versions \
             {VERSION_V2} and {VERSION_V3})"
        )));
    }
    let flags = if version == VERSION_V3 {
        cur.u16()?
    } else {
        cur.u16()?;
        0
    };
    let page_size = cur.u32()? as usize;
    let schema_len = cur.u32()? as usize;
    let table_offset = cur.u64()?;
    let page_count_raw = cur.u64()?;
    let tuple_count = cur.u64()?;

    let (schema_crc, table_crc, content_checksum) = if version == VERSION_V3 {
        if file_len < PREAMBLE_V3 as u64 {
            return Err(corrupt("truncated v3 preamble"));
        }
        let mut tail = [0u8; PREAMBLE_V3 - PREAMBLE_V2];
        file.read_exact(&mut tail)
            .map_err(|e| StoreError::io("read preamble checksums", &e))?;
        let mut cur = crate::codec::Cursor::new(&tail, "preamble checksums");
        let schema_crc = cur.u32()?;
        let table_crc = cur.u32()?;
        let preamble_crc = cur.u32()?;
        let mut covered = [0u8; PREAMBLE_V3 - 4];
        covered[..PREAMBLE_V2].copy_from_slice(&fixed);
        covered[PREAMBLE_V2..].copy_from_slice(&tail[..8]);
        let actual = crc32(&covered);
        if actual != preamble_crc {
            return Err(corrupt(format!(
                "preamble checksum mismatch (stored {preamble_crc:#010x}, \
                 computed {actual:#010x})"
            )));
        }
        (Some(schema_crc), Some(table_crc), Some(preamble_crc))
    } else {
        (None, None, None)
    };

    let header = SegmentHeader {
        version,
        flags,
        page_size,
        schema_len,
        table_offset,
        page_count: 0, // validated + set below
        tuple_count,
        schema_crc,
        table_crc,
        content_checksum,
    };

    // Bounds: preamble + schema ≤ table_offset ≤ file_len, and the
    // whole page table must fit in the file. Checked arithmetic
    // throughout — these fields are untrusted input.
    let data_start = (header.preamble_len() as u64)
        .checked_add(schema_len as u64)
        .ok_or_else(|| corrupt("schema length overflows"))?;
    if table_offset < data_start || table_offset > file_len {
        return Err(corrupt(format!(
            "page-table offset {table_offset} outside file (data starts at \
             {data_start}, file is {file_len} bytes)"
        )));
    }
    let entry = header.table_entry_len() as u64;
    let table_len = page_count_raw
        .checked_mul(entry)
        .ok_or_else(|| corrupt("page count overflows"))?;
    let table_end = table_offset
        .checked_add(table_len)
        .ok_or_else(|| corrupt("page table extends past u64"))?;
    if table_end > file_len {
        return Err(corrupt(format!(
            "page table ({page_count_raw} pages) extends past end of file"
        )));
    }
    Ok(SegmentHeader {
        page_count: page_count_raw as usize,
        ..header
    })
}

/// Read, verify (v3: `table_crc`), and parse the page table.
///
/// Each entry is range-checked: pages must live entirely inside
/// `[data_start, table_offset)`.
///
/// # Errors
/// [`StoreError::Io`] on read failures; [`StoreError::Corrupt`] on
/// checksum mismatch or out-of-range entries.
pub fn read_page_table(
    file: &mut File,
    header: &SegmentHeader,
) -> Result<Vec<PageEntry>, StoreError> {
    let entry = header.table_entry_len();
    // Bounded by read_header's table_end ≤ file_len check.
    let mut table = vec![0u8; header.page_count * entry];
    file.seek(SeekFrom::Start(header.table_offset))
        .and_then(|_| file.read_exact(&mut table))
        .map_err(|e| StoreError::io("read page table", &e))?;
    if let Some(expected) = header.table_crc {
        let actual = crc32(&table);
        if actual != expected {
            return Err(corrupt(format!(
                "page-table checksum mismatch (stored {expected:#010x}, \
                 computed {actual:#010x})"
            )));
        }
    }
    let data_start = (header.preamble_len() + header.schema_len) as u64;
    let mut cur = crate::codec::Cursor::new(&table, "page table");
    let mut pages = Vec::with_capacity(header.page_count);
    for i in 0..header.page_count {
        let offset = cur.u64()?;
        let len = cur.u32()?;
        let crc = if header.version == VERSION_V3 {
            Some(cur.u32()?)
        } else {
            None
        };
        let end = offset
            .checked_add(u64::from(len))
            .ok_or_else(|| corrupt(format!("page {i} extent overflows")))?;
        if offset < data_start || end > header.table_offset {
            return Err(corrupt(format!(
                "page {i} [{offset}, {end}) outside data region \
                 [{data_start}, {})",
                header.table_offset
            )));
        }
        pages.push(PageEntry { offset, len, crc });
    }
    Ok(pages)
}
