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
//! ```
//!
//! Record bodies are self-describing (a kind tag, then fields). A
//! record is **committed** iff its full frame is present and the CRC
//! matches; [`Journal::open_or_create`] replays the longest valid
//! prefix and truncates any torn tail — a crash mid-append loses at
//! most the record being written, which by the fsync ordering was
//! never acknowledged to any client. A record whose CRC matches but
//! whose body does not decode is a typed [`StoreError::Corrupt`]
//! (that is damage, not a torn write).
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
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Journal magic: "EVJL".
const MAGIC: u32 = 0x4556_4A4C;
/// Journal format version.
const VERSION: u16 = 1;
/// Bytes of journal header.
const HEADER_LEN: u64 = 8;
/// Sanity cap on one record body — a journal record is a few strings
/// and integers; anything claiming megabytes is corruption.
const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// File name of the journal inside a data directory.
pub const JOURNAL_FILE: &str = "journal.evj";

const KIND_BIND: u8 = 1;
const KIND_DROP: u8 = 2;

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
            JournalRecord::Bind { generation, .. } | JournalRecord::Drop { generation, .. } => {
                *generation
            }
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
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
            JournalRecord::Drop { name, generation } => {
                out.push(KIND_DROP);
                codec::put_str(out, name);
                codec::put_u64(out, *generation);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<JournalRecord, StoreError> {
        match cur.u8()? {
            KIND_BIND => Ok(JournalRecord::Bind {
                name: cur.str()?.to_owned(),
                file: cur.str()?.to_owned(),
                format_version: cur.u16()?,
                checksum: cur.u32()?,
                tuple_count: cur.u64()?,
                generation: cur.u64()?,
            }),
            KIND_DROP => Ok(JournalRecord::Drop {
                name: cur.str()?.to_owned(),
                generation: cur.u64()?,
            }),
            kind => Err(StoreError::corrupt(format!(
                "unknown journal record kind {kind}"
            ))),
        }
    }
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
    /// file is a typed error.
    ///
    /// # Errors
    /// [`StoreError::Io`] on file failures; [`StoreError::Corrupt`]
    /// on a bad header or mid-file damage.
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
                    records_since_checkpoint: 0,
                    poisoned: false,
                },
                Vec::new(),
            ));
        }

        let mut bytes = Vec::with_capacity(len.min(64 * 1024 * 1024) as usize);
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_to_end(&mut bytes))
            .map_err(|e| StoreError::io("read journal", &e))?;
        {
            let mut cur = Cursor::new(&bytes[..HEADER_LEN as usize], "journal header");
            if cur.u32()? != MAGIC {
                return Err(StoreError::corrupt("bad journal magic"));
            }
            let version = cur.u16()?;
            if version != VERSION {
                return Err(StoreError::corrupt(format!(
                    "unsupported journal version {version} (this build reads version {VERSION})"
                )));
            }
        }

        let mut records = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let valid_end = loop {
            if pos == bytes.len() {
                break pos; // clean end
            }
            if bytes.len() - pos < 8 {
                break pos; // torn frame header
            }
            let body_len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if body_len as u64 > u64::from(MAX_RECORD) {
                // An absurd length: treat as a torn/garbage tail only
                // if nothing follows it would be unreachable anyway —
                // it IS the tail by construction (we stop here).
                break pos;
            }
            let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
            let body_start = pos + 8;
            let Some(body_end) = body_start.checked_add(body_len) else {
                break pos;
            };
            if body_end > bytes.len() {
                break pos; // torn body
            }
            let body = &bytes[body_start..body_end];
            if crc32(body) != stored_crc {
                // CRC mismatch: a torn tail if this is the last frame,
                // damage otherwise.
                if body_end == bytes.len() {
                    break pos;
                }
                return Err(StoreError::corrupt(format!(
                    "journal record at offset {pos} fails its checksum with records after it"
                )));
            }
            let mut cur = Cursor::new(body, "journal record");
            let record = JournalRecord::decode(&mut cur)?;
            if !cur.is_exhausted() {
                return Err(StoreError::corrupt(format!(
                    "trailing bytes in journal record at offset {pos}"
                )));
            }
            records.push(record);
            pos = body_end;
        };

        if valid_end < bytes.len() {
            // Drop the torn tail so the next append starts clean.
            file.set_len(valid_end as u64)
                .and_then(|_| file.sync_all())
                .map_err(|e| StoreError::io("truncate torn journal tail", &e))?;
        }
        file.seek(SeekFrom::Start(valid_end as u64))
            .map_err(|e| StoreError::io("seek journal end", &e))?;
        let count = records.len() as u64;
        Ok((
            Journal {
                file,
                path,
                records_since_checkpoint: count,
                poisoned: false,
            },
            records,
        ))
    }

    /// Append one record and fsync — on return the mutation is
    /// durable and may be published to readers.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write or fsync failures; the frame is
    /// then rolled back (the file is cut to its pre-append length and
    /// fsync'd), so the next append starts where this one did. If the
    /// rollback fails too, this and every later append on this handle
    /// is refused with [`StoreError::Io`]: reopening the directory
    /// ([`Journal::open_or_create`]) replays or truncates the tail.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Io {
                context: "append journal record".to_owned(),
                message: "journal poisoned: an earlier failed append could not be \
                          rolled back; reopen the data directory"
                    .to_owned(),
            });
        }
        let mut body = Vec::new();
        record.encode(&mut body);
        let mut frame = Vec::with_capacity(8 + body.len());
        codec::put_u32(&mut frame, body.len() as u32);
        codec::put_u32(&mut frame, crc32(&body));
        frame.extend_from_slice(&body);
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
        record.encode(&mut body);
        8 + body.len() as u64
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
                        Ok(()) => acked += 1,
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
