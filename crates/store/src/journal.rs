//! The write-ahead journal of catalog mutations.
//!
//! Between checkpoints, every catalog mutation (bind via
//! attach/load/merge, or drop) appends one record to `journal.evj`
//! and fsyncs it **before** the in-memory `SharedCatalog` publishes
//! the new generation — a generation a client has seen is therefore
//! always recoverable. At checkpoint the manifest absorbs the
//! journal's effects and the journal truncates back to its header.
//!
//! ```text
//! header (8 B): magic "EVJL" (u32) ∣ version (u16) ∣ pad (u16)
//! record*:      body_len (u32) ∣ crc32(body) (u32) ∣ body
//! body:         kind (u8) ∣ fields
//!   1 bind        name ∣ file ∣ format_version (u16) ∣ checksum (u32)
//!                 ∣ tuple_count (u64) ∣ generation (u64)
//!   2 drop        name ∣ generation (u64)
//!   3 inline bind name ∣ file ∣ checksum (u32) ∣ tuple_count (u64)
//!                 ∣ generation (u64) ∣ segment bytes (rest of body)
//! ```
//!
//! Strings are `u32`-length-prefixed UTF-8. An **inline bind** carries
//! a v3 segment of at most [`crate::INLINE_SEGMENT_MAX`] bytes inside
//! the record — byte for byte the file it would otherwise have been,
//! under the `seg-NNNNNN.evb` name a checkpoint gives it when it folds
//! the bytes out — so the record's fsync is the bind's only one. The
//! record's CRC covers the bytes; their content checksum is the
//! segment's own `preamble_crc`, as for a file.
//!
//! Version 2 added the inline bind. This build reads versions 1 and 2
//! and creates version 2; a version-1 journal is rewritten to 2 just
//! before the first inline bind is appended to it, so a build that
//! reads version 1 only stops at the header, naming the version,
//! instead of at a record kind it does not know.
//!
//! Records are **committed** iff their full frame is present and the
//! CRC matches; [`Journal::open_or_create`] replays the longest valid
//! prefix and truncates any torn tail — a crash mid-append loses at
//! most the record being written, which by the fsync ordering was
//! never acknowledged to any client. A record whose CRC matches but
//! whose body does not decode is a typed [`StoreError::Corrupt`]
//! (that is damage, not a torn write). Replay walks the file through a
//! fixed-size read buffer and one record's body at a time; an inline
//! bind comes back holding its frame's offset ([`InlineSegment::At`]),
//! not its bytes, which [`read_record_at`] reads back on demand.
//!
//! **No acked record ever follows an un-acked one.** An append that
//! fails while the process lives (a write or fsync error) is cut back
//! out of the file before the error is returned; when even that fails
//! the [`Journal`] refuses every later append until it is reopened.
//! Otherwise the next writer — handed the same generation, since
//! nothing was published — would append behind the failed frame and a
//! later recovery would replay a mutation its client was told failed.

use crate::codec::{self, Cursor};
use crate::crc::crc32;
use crate::error::StoreError;
use crate::failpoint::{fp_set_len, fp_sync, fp_write_all};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal magic: "EVJL".
const MAGIC: u32 = 0x4556_4A4C;
/// The journal format this build writes: version 1 plus the inline
/// bind record.
const VERSION: u16 = 2;
/// The oldest journal format this build reads.
const VERSION_V1: u16 = 1;
/// Bytes of journal header.
const HEADER_LEN: u64 = 8;
/// Sanity cap on one record body. A record is a few strings and
/// integers, plus at most [`crate::INLINE_SEGMENT_MAX`] segment bytes
/// for an inline bind; a length claiming megabytes is corruption.
const MAX_RECORD: u32 = 16 * 1024 * 1024;
/// The read buffer replay walks the file through.
const REPLAY_BUFFER: usize = 64 * 1024;

/// File name of the journal inside a data directory.
pub const JOURNAL_FILE: &str = "journal.evj";

const KIND_BIND: u8 = 1;
const KIND_DROP: u8 = 2;
const KIND_BIND_INLINE: u8 = 3;

/// Where an inline bind's segment bytes are.
#[derive(Clone, PartialEq, Eq)]
pub enum InlineSegment {
    /// In `journal.evj`, inside the record whose frame starts at this
    /// offset: how a replayed or retained record holds them.
    At(u64),
    /// In memory: a record about to be appended, one read back by
    /// [`read_record_at`], or one that arrived off the wire.
    Bytes(Arc<[u8]>),
}

impl std::fmt::Debug for InlineSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InlineSegment::At(frame) => write!(f, "At({frame})"),
            InlineSegment::Bytes(bytes) => write!(f, "Bytes({} bytes)", bytes.len()),
        }
    }
}

/// One journaled catalog mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A binding appeared or was replaced: `name` now maps to
    /// segment `file` (relative to the data directory).
    Bind {
        /// Catalog binding name.
        name: String,
        /// Segment file name, relative to the data directory.
        file: String,
        /// On-disk segment format version.
        format_version: u16,
        /// The segment's content checksum (0 for v2 segments).
        checksum: u32,
        /// Stored tuple count.
        tuple_count: u64,
        /// Generation this mutation published.
        generation: u64,
    },
    /// A binding appeared or was replaced by a v3 segment that travels
    /// inside this record ([`crate::INLINE_SEGMENT_MAX`] at most).
    BindInline {
        /// Catalog binding name.
        name: String,
        /// The `seg-NNNNNN.evb` name a checkpoint folds the bytes out
        /// to (reserved now, so numbering never reuses it).
        file: String,
        /// The segment's content checksum.
        checksum: u32,
        /// Stored tuple count.
        tuple_count: u64,
        /// Generation this mutation published.
        generation: u64,
        /// The segment's bytes, or where in the journal they are.
        segment: InlineSegment,
    },
    /// A binding was removed.
    Drop {
        /// Catalog binding name.
        name: String,
        /// Generation this mutation published.
        generation: u64,
    },
}

impl JournalRecord {
    /// The generation this mutation published.
    pub fn generation(&self) -> u64 {
        match self {
            JournalRecord::Bind { generation, .. }
            | JournalRecord::BindInline { generation, .. }
            | JournalRecord::Drop { generation, .. } => *generation,
        }
    }

    /// The binding this mutation changed.
    pub fn name(&self) -> &str {
        match self {
            JournalRecord::Bind { name, .. }
            | JournalRecord::BindInline { name, .. }
            | JournalRecord::Drop { name, .. } => name,
        }
    }

    /// The segment file a bind names (an inline bind's reserved one).
    pub fn file(&self) -> Option<&str> {
        match self {
            JournalRecord::Bind { file, .. } | JournalRecord::BindInline { file, .. } => Some(file),
            JournalRecord::Drop { .. } => None,
        }
    }

    /// This record as held once it is journalled in the frame at
    /// `frame`: an inline bind keeps the position of its bytes, not
    /// the bytes.
    pub fn at(mut self, frame: u64) -> JournalRecord {
        if let JournalRecord::BindInline { segment, .. } = &mut self {
            *segment = InlineSegment::At(frame);
        }
        self
    }

    /// This record with an inline bind's bytes in memory: read back
    /// from `dir`'s journal when it holds their position (a record in
    /// the retained window), else the record itself.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the journal no longer holds this record
    /// at that position — a checkpoint truncated it since — and the
    /// errors of [`read_record_at`].
    pub fn loaded(&self, dir: &Path) -> Result<JournalRecord, StoreError> {
        let JournalRecord::BindInline {
            segment: InlineSegment::At(frame),
            ..
        } = self
        else {
            return Ok(self.clone());
        };
        let read = read_record_at(dir, *frame)?;
        if read.clone().at(*frame) != *self {
            return Err(StoreError::Io {
                context: format!("read inline segment at journal offset {frame}"),
                message: format!(
                    "the journal no longer holds generation {} of {:?} there \
                     (a checkpoint truncated it)",
                    self.generation(),
                    self.name()
                ),
            });
        }
        Ok(read)
    }

    fn encode(&self, out: &mut Vec<u8>) -> Result<(), StoreError> {
        match self {
            JournalRecord::Bind {
                name,
                file,
                format_version,
                checksum,
                tuple_count,
                generation,
            } => {
                out.push(KIND_BIND);
                codec::put_str(out, name);
                codec::put_str(out, file);
                codec::put_u16(out, *format_version);
                codec::put_u32(out, *checksum);
                codec::put_u64(out, *tuple_count);
                codec::put_u64(out, *generation);
            }
            JournalRecord::BindInline {
                name,
                file,
                checksum,
                tuple_count,
                generation,
                segment,
            } => {
                let InlineSegment::Bytes(bytes) = segment else {
                    return Err(StoreError::corrupt(format!(
                        "inline bind of {name:?} holds a journal position, not its bytes"
                    )));
                };
                out.push(KIND_BIND_INLINE);
                codec::put_str(out, name);
                codec::put_str(out, file);
                codec::put_u32(out, *checksum);
                codec::put_u64(out, *tuple_count);
                codec::put_u64(out, *generation);
                out.extend_from_slice(bytes);
            }
            JournalRecord::Drop { name, generation } => {
                out.push(KIND_DROP);
                codec::put_str(out, name);
                codec::put_u64(out, *generation);
            }
        }
        Ok(())
    }

    /// Decode one record body. An inline bind's bytes are copied out
    /// when `frame` is `None`, else left in place and `frame` (where
    /// the body's frame starts) recorded instead.
    fn decode(body: &[u8], frame: Option<u64>) -> Result<JournalRecord, StoreError> {
        let mut cur = Cursor::new(body, "journal record");
        let record = match cur.u8()? {
            KIND_BIND => JournalRecord::Bind {
                name: cur.str()?.to_owned(),
                file: cur.str()?.to_owned(),
                format_version: cur.u16()?,
                checksum: cur.u32()?,
                tuple_count: cur.u64()?,
                generation: cur.u64()?,
            },
            KIND_BIND_INLINE => JournalRecord::BindInline {
                name: cur.str()?.to_owned(),
                file: cur.str()?.to_owned(),
                checksum: cur.u32()?,
                tuple_count: cur.u64()?,
                generation: cur.u64()?,
                segment: {
                    let bytes = cur.bytes(cur.remaining())?;
                    match frame {
                        Some(frame) => InlineSegment::At(frame),
                        None => InlineSegment::Bytes(Arc::from(bytes)),
                    }
                },
            },
            KIND_DROP => JournalRecord::Drop {
                name: cur.str()?.to_owned(),
                generation: cur.u64()?,
            },
            kind => {
                return Err(StoreError::corrupt(format!(
                    "unknown journal record kind {kind}"
                )))
            }
        };
        if !cur.is_exhausted() {
            return Err(StoreError::corrupt("trailing bytes in journal record"));
        }
        Ok(record)
    }
}

/// Read the record whose frame starts at offset `frame` of `dir`'s
/// journal, an inline bind's bytes included: how a replication sender
/// and recovery get the bytes of a record that holds their position.
///
/// # Errors
/// [`StoreError::Io`] when the file cannot be read there (it was
/// truncated); [`StoreError::Corrupt`] when the bytes there are not a
/// whole, CRC-valid record.
pub fn read_record_at(dir: &Path, frame: u64) -> Result<JournalRecord, StoreError> {
    let path = dir.join(JOURNAL_FILE);
    let context = || format!("read journal record at offset {frame}");
    let mut file = File::open(&path).map_err(|e| StoreError::io(format!("open {path:?}"), &e))?;
    let mut head = [0u8; 8];
    file.seek(SeekFrom::Start(frame))
        .and_then(|_| file.read_exact(&mut head))
        .map_err(|e| StoreError::io(context(), &e))?;
    let (body_len, stored_crc) = frame_header(&head);
    if body_len > MAX_RECORD {
        return Err(StoreError::corrupt(format!(
            "journal record at offset {frame} claims {body_len} bytes"
        )));
    }
    let mut body = vec![0u8; body_len as usize];
    file.read_exact(&mut body)
        .map_err(|e| StoreError::io(context(), &e))?;
    if crc32(&body) != stored_crc {
        return Err(StoreError::corrupt(format!(
            "journal record at offset {frame} fails its checksum"
        )));
    }
    JournalRecord::decode(&body, None)
}

/// A frame header's body length and CRC.
fn frame_header(head: &[u8; 8]) -> (u32, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *head;
    (
        u32::from_le_bytes([l0, l1, l2, l3]),
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

/// Iterate `records` from a generation cursor: every record stamped
/// **strictly after** `generation`, in order. This is the replication
/// sender's resume primitive — a follower that says "I have applied
/// through G" is streamed exactly `since(&history, G)`, so a record
/// is never re-sent and never skipped as long as generations are
/// totally ordered (which the journal's single-writer append
/// discipline guarantees).
pub fn since(records: &[JournalRecord], generation: u64) -> impl Iterator<Item = &JournalRecord> {
    records.iter().filter(move |r| r.generation() > generation)
}

/// An open journal file, positioned for appends.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// The header's format version: [`VERSION`], or [`VERSION_V1`]
    /// until the first inline bind is appended to a version-1 file.
    version: u16,
    /// Committed records appended (or replayed) since open/truncate.
    records_since_checkpoint: u64,
    /// A failed append could not be rolled back: the file may end in
    /// an un-acked frame, so nothing may be appended behind it. Only
    /// a reopen (which replays or truncates that tail) clears this.
    poisoned: bool,
}

impl Journal {
    /// Open (or create) the journal in `dir`, replaying its committed
    /// records. A torn tail — an incomplete frame or a CRC mismatch
    /// on the *last* frame — is truncated away; damage earlier in the
    /// file is a typed error. Replayed inline binds hold their
    /// position, not their bytes ([`InlineSegment::At`]): replay holds
    /// one record body at a time, whatever the journal's length.
    ///
    /// # Errors
    /// [`StoreError::Io`] on file failures; [`StoreError::Corrupt`]
    /// on a bad header, an unsupported version, or mid-file damage.
    pub fn open_or_create(dir: &Path) -> Result<(Journal, Vec<JournalRecord>), StoreError> {
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError::io(format!("open {path:?}"), &e))?;
        let len = file
            .metadata()
            .map_err(|e| StoreError::io("stat journal", &e))?
            .len();

        if len < HEADER_LEN {
            // Brand new (or torn before the tiny header finished):
            // (re)write the header.
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            codec::put_u32(&mut header, MAGIC);
            codec::put_u16(&mut header, VERSION);
            codec::put_u16(&mut header, 0);
            file.set_len(0)
                .and_then(|_| file.seek(SeekFrom::Start(0)))
                .map_err(|e| StoreError::io("reset journal", &e))?;
            fp_write_all(&mut file, &header)
                .map_err(|e| StoreError::io("write journal header", &e))?;
            fp_sync(&file).map_err(|e| StoreError::io("fsync journal header", &e))?;
            return Ok((
                Journal {
                    file,
                    path,
                    version: VERSION,
                    records_since_checkpoint: 0,
                    poisoned: false,
                },
                Vec::new(),
            ));
        }

        let mut reader = BufReader::with_capacity(REPLAY_BUFFER, &file);
        let read_err = |e: std::io::Error| StoreError::io("read journal", &e);
        let mut header = [0u8; HEADER_LEN as usize];
        reader
            .seek(SeekFrom::Start(0))
            .and_then(|_| reader.read_exact(&mut header))
            .map_err(read_err)?;
        let version = {
            let mut cur = Cursor::new(&header, "journal header");
            if cur.u32()? != MAGIC {
                return Err(StoreError::corrupt("bad journal magic"));
            }
            let version = cur.u16()?;
            if !(VERSION_V1..=VERSION).contains(&version) {
                return Err(StoreError::corrupt(format!(
                    "unsupported journal version {version} (this build reads versions \
                     {VERSION_V1} to {VERSION})"
                )));
            }
            version
        };

        let mut records = Vec::new();
        let mut body = Vec::new();
        let mut pos = HEADER_LEN;
        let valid_end = loop {
            if pos == len {
                break pos; // clean end
            }
            if len - pos < 8 {
                break pos; // torn frame header
            }
            let mut head = [0u8; 8];
            reader.read_exact(&mut head).map_err(read_err)?;
            let (body_len, stored_crc) = frame_header(&head);
            if body_len > MAX_RECORD {
                // An absurd length: treat as a torn/garbage tail only
                // if nothing follows it would be unreachable anyway —
                // it IS the tail by construction (we stop here).
                break pos;
            }
            let body_end = pos + 8 + u64::from(body_len);
            if body_end > len {
                break pos; // torn body
            }
            body.resize(body_len as usize, 0);
            reader.read_exact(&mut body).map_err(read_err)?;
            if crc32(&body) != stored_crc {
                // CRC mismatch: a torn tail if this is the last frame,
                // damage otherwise.
                if body_end == len {
                    break pos;
                }
                return Err(StoreError::corrupt(format!(
                    "journal record at offset {pos} fails its checksum with records after it"
                )));
            }
            records.push(JournalRecord::decode(&body, Some(pos))?);
            pos = body_end;
        };
        drop(reader);

        if valid_end < len {
            // Drop the torn tail so the next append starts clean.
            file.set_len(valid_end)
                .and_then(|_| file.sync_all())
                .map_err(|e| StoreError::io("truncate torn journal tail", &e))?;
        }
        file.seek(SeekFrom::Start(valid_end))
            .map_err(|e| StoreError::io("seek journal end", &e))?;
        let count = records.len() as u64;
        Ok((
            Journal {
                file,
                path,
                version,
                records_since_checkpoint: count,
                poisoned: false,
            },
            records,
        ))
    }

    /// Append one record and fsync — on return the mutation is
    /// durable and may be published to readers. Returns the offset of
    /// the record's frame, the position [`JournalRecord::at`] keeps.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write or fsync failures; the frame is
    /// then rolled back (the file is cut to its pre-append length and
    /// fsync'd), so the next append starts where this one did. If the
    /// rollback fails too, this and every later append on this handle
    /// is refused with [`StoreError::Io`]: reopening the directory
    /// ([`Journal::open_or_create`]) replays or truncates the tail.
    /// [`StoreError::Corrupt`] for an inline bind that holds a
    /// position instead of its bytes (nothing is written).
    pub fn append(&mut self, record: &JournalRecord) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(StoreError::Io {
                context: "append journal record".to_owned(),
                message: "journal poisoned: an earlier failed append could not be \
                          rolled back; reopen the data directory"
                    .to_owned(),
            });
        }
        let mut frame = vec![0u8; 8];
        record.encode(&mut frame)?;
        let body_len = (frame.len() - 8) as u32;
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&body_len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        if self.version < VERSION && matches!(record, JournalRecord::BindInline { .. }) {
            self.upgrade_header()?;
        }
        let start = self
            .file
            .stream_position()
            .map_err(|e| StoreError::io("locate journal end", &e))?;
        let appended = fp_write_all(&mut self.file, &frame)
            .map_err(|e| StoreError::io("append journal record", &e))
            .and_then(|()| fp_sync(&self.file).map_err(|e| StoreError::io("fsync journal", &e)));
        if let Err(e) = appended {
            self.poisoned = self.cut_back_to(start).is_err();
            return Err(e);
        }
        self.records_since_checkpoint += 1;
        Ok(start)
    }

    /// Rewrite a version-1 header as [`VERSION`] (and fsync) before the
    /// first record version 1 does not have is appended behind it.
    fn upgrade_header(&mut self) -> Result<(), StoreError> {
        let end = self
            .file
            .stream_position()
            .map_err(|e| StoreError::io("locate journal end", &e))?;
        self.file
            .seek(SeekFrom::Start(4))
            .map_err(|e| StoreError::io("seek journal version", &e))?;
        let rewritten = fp_write_all(&mut self.file, &VERSION.to_le_bytes())
            .and_then(|()| fp_sync(&self.file))
            .map_err(|e| StoreError::io("upgrade journal version", &e));
        self.file
            .seek(SeekFrom::Start(end))
            .map_err(|e| StoreError::io("seek journal end", &e))?;
        rewritten?;
        self.version = VERSION;
        Ok(())
    }

    /// Durably shrink the file to `len` and position the cursor there.
    fn cut_back_to(&mut self, len: u64) -> std::io::Result<()> {
        fp_set_len(&self.file, len)?;
        fp_sync(&self.file)?;
        self.file.seek(SeekFrom::Start(len)).map(|_| ())
    }

    /// Truncate back to the header — the checkpoint's last step,
    /// after the manifest that absorbs these records is durably in
    /// place.
    ///
    /// # Errors
    /// [`StoreError::Io`] on failures.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.cut_back_to(HEADER_LEN)
            .map_err(|e| StoreError::io("truncate journal", &e))?;
        self.records_since_checkpoint = 0;
        Ok(())
    }

    /// Committed records appended or replayed since the last
    /// checkpoint (STATS reports this).
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FailpointFs;

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("evirel-journal-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn bind(n: u64) -> JournalRecord {
        JournalRecord::Bind {
            name: format!("m{n}"),
            file: format!("seg-{n:06}.evb"),
            format_version: 3,
            checksum: 0x1111 * n as u32,
            tuple_count: n * 10,
            generation: n,
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let d = dir("roundtrip");
        let (mut j, replayed) = Journal::open_or_create(&d).unwrap();
        assert!(replayed.is_empty());
        let records = vec![
            bind(1),
            JournalRecord::Drop {
                name: "m1".into(),
                generation: 2,
            },
            bind(3),
        ];
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);
        let (j, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(j.records_since_checkpoint(), 3);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_truncated_committed_prefix_kept() {
        let d = dir("torn");
        let (mut j, _) = Journal::open_or_create(&d).unwrap();
        j.append(&bind(1)).unwrap();
        j.append(&bind(2)).unwrap();
        drop(j);
        // Simulate a crash mid-append: an incomplete third frame.
        let path = d.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[42, 0, 0, 0, 7, 7]); // len=42, half a crc
        std::fs::write(&path, &torn).unwrap();
        let (_, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed, vec![bind(1), bind(2)]);
        // And the file itself was repaired.
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn mid_file_damage_is_typed_error() {
        let d = dir("damage");
        let (mut j, _) = Journal::open_or_create(&d).unwrap();
        j.append(&bind(1)).unwrap();
        j.append(&bind(2)).unwrap();
        drop(j);
        let path = d.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside record 1's body (not the tail record).
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open_or_create(&d),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn truncate_resets() {
        let d = dir("trunc");
        let (mut j, _) = Journal::open_or_create(&d).unwrap();
        j.append(&bind(1)).unwrap();
        j.truncate().unwrap();
        assert_eq!(j.records_since_checkpoint(), 0);
        j.append(&bind(9)).unwrap();
        drop(j);
        let (_, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed, vec![bind(9)]);
        std::fs::remove_dir_all(&d).ok();
    }

    /// On-disk bytes of one record's frame.
    fn frame_len(record: &JournalRecord) -> u64 {
        let mut body = Vec::new();
        record.encode(&mut body).unwrap();
        8 + body.len() as u64
    }

    /// An inline bind of `name` whose "segment" is `len` bytes of `fill`
    /// (the journal does not look inside them).
    fn inline(name: &str, generation: u64, fill: u8, len: usize) -> JournalRecord {
        JournalRecord::BindInline {
            name: name.to_owned(),
            file: format!("seg-{generation:06}.evb"),
            checksum: 0xC0DE + generation as u32,
            tuple_count: generation,
            generation,
            segment: InlineSegment::Bytes(vec![fill; len].into()),
        }
    }

    /// The frame `record` appends, built without a file.
    fn frame(record: &JournalRecord) -> Vec<u8> {
        let mut body = Vec::new();
        record.encode(&mut body).unwrap();
        let mut out = Vec::new();
        codec::put_u32(&mut out, body.len() as u32);
        codec::put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);
        out
    }

    /// An inline bind replays holding its frame's offset — the offset
    /// `append` returned — and reads back whole from there; once a
    /// checkpoint truncated the journal and something else was
    /// appended at that offset, reading it back is a typed error, not
    /// someone else's bytes.
    #[test]
    fn inline_binds_replay_as_positions_and_read_back_whole() {
        let d = dir("inline");
        let (mut j, _) = Journal::open_or_create(&d).unwrap();
        let a = inline("a", 1, 0xAB, 3522);
        let at = j.append(&bind(0)).unwrap();
        assert_eq!(at, HEADER_LEN);
        let frame = j.append(&a).unwrap();
        assert_eq!(frame, HEADER_LEN + frame_len(&bind(0)));
        drop(j);
        let (mut j, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed, vec![bind(0), a.clone().at(frame)]);
        assert_eq!(read_record_at(&d, frame).unwrap(), a);
        assert_eq!(replayed[1].loaded(&d).unwrap(), a);
        assert_eq!(replayed[0].loaded(&d).unwrap(), bind(0));
        j.truncate().unwrap();
        j.append(&inline("b", 2, 0xCD, 3522)).unwrap();
        j.append(&inline("c", 3, 0xEF, 3522)).unwrap();
        assert!(matches!(
            replayed[1].loaded(&d),
            Err(StoreError::Io { .. } | StoreError::Corrupt { .. })
        ));
        // Where a whole record now starts at that offset, it is not
        // taken for the one retained.
        let moved = JournalRecord::BindInline {
            name: "b".into(),
            file: "seg-000002.evb".into(),
            checksum: 0xC0DE + 2,
            tuple_count: 2,
            generation: 2,
            segment: InlineSegment::At(HEADER_LEN),
        };
        j.truncate().unwrap();
        j.append(&inline("b", 5, 0xCD, 3522)).unwrap();
        assert!(matches!(moved.loaded(&d), Err(StoreError::Io { .. })));
        // A positioned record has no bytes to append.
        assert!(matches!(
            j.append(&replayed[1]),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&d).ok();
    }

    /// Replay walks the journal through a fixed buffer and keeps no
    /// inline bytes: 2 000 rebinds of one name come back as 2 000
    /// positions, and folding them leaves one live binding, whose one
    /// payload reads back.
    #[test]
    fn replaying_2000_inline_rebinds_holds_one_payload() {
        let d = dir("rebinds");
        let mut bytes = Vec::new();
        codec::put_u32(&mut bytes, MAGIC);
        codec::put_u16(&mut bytes, VERSION);
        codec::put_u16(&mut bytes, 0);
        let records: Vec<JournalRecord> =
            (1..=2000).map(|g| inline("m0", g, g as u8, 3522)).collect();
        for record in &records {
            bytes.extend_from_slice(&frame(record));
        }
        assert!(bytes.len() > 100 * REPLAY_BUFFER);
        std::fs::write(d.join(JOURNAL_FILE), &bytes).unwrap();

        let (_, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed.len(), 2000);
        let mut live = std::collections::BTreeMap::new();
        for record in &replayed {
            let JournalRecord::BindInline { segment, .. } = record else {
                panic!("an inline bind replayed as {record:?}");
            };
            assert!(matches!(segment, InlineSegment::At(_)), "{record:?}");
            live.insert(record.name().to_owned(), record);
        }
        assert_eq!(live.len(), 1);
        assert_eq!(live["m0"].loaded(&d).unwrap(), records[1999]);
        std::fs::remove_dir_all(&d).ok();
    }

    /// A version-1 journal (what a build without inline binds writes)
    /// replays, takes file binds and drops as version 1, and is
    /// rewritten to version 2 just before its first inline bind. A
    /// version this build does not know is refused by name.
    #[test]
    fn a_version_1_journal_is_upgraded_by_its_first_inline_bind() {
        let d = dir("v1");
        let (mut j, _) = Journal::open_or_create(&d).unwrap();
        j.append(&bind(1)).unwrap();
        drop(j);
        let path = d.join(JOURNAL_FILE);
        let version = |path: &Path| {
            u16::from_le_bytes(std::fs::read(path).unwrap()[4..6].try_into().unwrap())
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&VERSION_V1.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let (mut j, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed, vec![bind(1)]);
        j.append(&bind(2)).unwrap();
        assert_eq!(version(&path), VERSION_V1);
        let fp = FailpointFs::observe();
        j.append(&inline("a", 3, 7, 100)).unwrap();
        assert_eq!(fp.fsyncs(), 2, "the header rewrite, then the record");
        drop(fp);
        assert_eq!(version(&path), VERSION);
        drop(j);
        let (_, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed.len(), 3);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open_or_create(&d) {
            Err(StoreError::Corrupt { context }) => {
                assert!(
                    context.contains("unsupported journal version 3"),
                    "{context}"
                )
            }
            other => panic!("a version-3 journal opened: {other:?}"),
        }
        std::fs::remove_dir_all(&d).ok();
    }

    /// A MERGE whose journal fsync fails is told `ERR` and nothing is
    /// published, so the next MERGE is handed the same generation: its
    /// record must replace the failed frame, not follow it.
    #[test]
    fn failed_fsync_is_rolled_back_before_the_next_append() {
        let d = dir("rollback");
        let (mut j, _) = Journal::open_or_create(&d).unwrap();
        let (a, b) = (bind(1), bind(2));
        let c = JournalRecord::Drop {
            name: "m1".into(),
            generation: 2,
        };
        j.append(&a).unwrap();
        {
            let _fp = FailpointFs::fail_fsync(1);
            assert!(matches!(j.append(&b), Err(StoreError::Io { .. })));
        }
        j.append(&c).unwrap();
        assert_eq!(j.records_since_checkpoint(), 2);
        drop(j);
        assert_eq!(
            std::fs::metadata(d.join(JOURNAL_FILE)).unwrap().len(),
            HEADER_LEN + frame_len(&a) + frame_len(&c)
        );
        let (_, replayed) = Journal::open_or_create(&d).unwrap();
        assert_eq!(replayed, vec![a, c]);
        assert!(replayed
            .windows(2)
            .all(|w| w[0].generation() < w[1].generation()));
        std::fs::remove_dir_all(&d).ok();
    }

    /// When the rollback fails too, the file may end in the un-acked
    /// frame: the handle refuses every later append (typed, even with
    /// the device healthy again), and a reopen sees what a crash at
    /// that point would have left — never an acked record behind it.
    #[test]
    fn failed_rollback_poisons_the_journal_until_reopen() {
        // The failing fsync finds b's frame whole on disk; the torn
        // write leaves five bytes of it.
        let arms: [(fn() -> FailpointFs, usize); 2] = [
            (|| FailpointFs::kill_at_fsync(1), 2),
            (|| FailpointFs::kill_after(5), 1),
        ];
        for (arm, survivors) in arms {
            let d = dir("poison");
            let (mut j, _) = Journal::open_or_create(&d).unwrap();
            j.append(&bind(1)).unwrap();
            {
                let fp = arm();
                assert!(j.append(&bind(2)).is_err());
                assert!(fp.fired());
            }
            match j.append(&bind(3)) {
                Err(StoreError::Io { message, .. }) => assert!(message.contains("poisoned")),
                other => panic!("a poisoned journal accepted an append: {other:?}"),
            }
            drop(j);
            let (mut j, replayed) = Journal::open_or_create(&d).unwrap();
            assert_eq!(replayed, [bind(1), bind(2)][..survivors]);
            j.append(&bind(3)).unwrap();
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn crash_sweep_every_kill_point_recovers_a_prefix() {
        let d = dir("sweep");
        let records: Vec<JournalRecord> = (1..=4).map(bind).collect();
        let total = {
            let (mut j, _) = Journal::open_or_create(&d).unwrap();
            let fp = FailpointFs::observe();
            for r in &records {
                j.append(r).unwrap();
            }
            let t = fp.units();
            drop(fp);
            t
        };
        for kill_at in 0..=total {
            std::fs::remove_dir_all(&d).ok();
            std::fs::create_dir_all(&d).unwrap();
            let (mut j, _) = Journal::open_or_create(&d).unwrap();
            let mut acked = 0u64;
            {
                let fp = FailpointFs::kill_after(kill_at);
                for r in &records {
                    match j.append(r) {
                        Ok(_) => acked += 1,
                        Err(_) => break,
                    }
                }
                drop(fp);
            }
            drop(j);
            let (_, replayed) = Journal::open_or_create(&d).unwrap();
            // Every acked record must replay; a final unacked record
            // may legitimately replay too if its bytes all landed
            // before the failing fsync.
            assert!(
                replayed.len() as u64 >= acked && replayed.len() as u64 <= acked + 1,
                "kill at {kill_at}: acked {acked}, replayed {}",
                replayed.len()
            );
            assert_eq!(replayed, records[..replayed.len()], "kill at {kill_at}");
        }
        std::fs::remove_dir_all(&d).ok();
    }
}
