//! Spill-to-disk execution: stored-relation scans and segment-backed
//! merge build sides.
//!
//! Two pieces let the streaming operators run over data that never
//! fully fits in memory:
//!
//! * [`SpillScanOp`] — the [`Operator`] for a disk-backed
//!   [`StoredRelation`]: it decodes one page at a time through the
//!   shared [`evirel_store::BufferPool`], so a scan's
//!   working set is a single page regardless of relation size.
//!   Records keep insertion order and `f64` payloads round-trip as
//!   raw bits, so a stored scan is *bit-for-bit* equivalent to an
//!   in-memory [`crate::ops::ScanOp`] over the same tuples — the
//!   determinism contract the equivalence property suite checks.
//! * `SpillBuild` / `SpilledRight` (crate-private) — the merge
//!   operator's build side on disk. While draining its right input,
//!   [`crate::ops::MergeOp`]
//!   tracks the *exact encoded size* of what it has buffered
//!   (`codec::record_len`); past [`ExecContext::spill_threshold_bytes`]
//!   it migrates the buffer into a temp segment and keeps only a
//!   `key → (page, slot)` index in memory. Probes then pin one page
//!   through the buffer pool and decode one record. Spill files are
//!   unlinked as soon as the segment is open, so the kernel reclaims
//!   them when the merge closes — nothing leaks even on panic.

use crate::error::PlanError;
use crate::ops::{ExecContext, Operator};
use evirel_relation::{Schema, Tuple, Value};
use evirel_store::segment::RecordId;
use evirel_store::{BufferPool, Segment, SegmentWriter, StoredRelation};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------- spill scan

/// Leaf operator: stream a stored relation's tuples in insertion
/// order, one decoded page at a time through the buffer pool.
pub struct SpillScanOp {
    name: String,
    stored: Arc<StoredRelation>,
    page: u64,
    buf: std::vec::IntoIter<Tuple>,
}

impl SpillScanOp {
    /// Scan `stored`, displayed as `name`.
    pub fn new(name: impl Into<String>, stored: Arc<StoredRelation>) -> SpillScanOp {
        SpillScanOp {
            name: name.into(),
            stored,
            page: 0,
            buf: Vec::new().into_iter(),
        }
    }
}

impl Operator for SpillScanOp {
    fn schema(&self) -> &Arc<Schema> {
        self.stored.schema()
    }

    fn open(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.page = 0;
        self.buf = Vec::new().into_iter();
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        loop {
            if let Some(tuple) = self.buf.next() {
                ctx.stats.tuples_scanned += 1;
                return Ok(Some(Arc::new(tuple)));
            }
            if self.page >= self.stored.segment().page_count() {
                return Ok(None);
            }
            // The page is pinned only while it decodes.
            let tuples = self.stored.page_tuples(self.page)?;
            self.page += 1;
            self.buf = tuples.into_iter();
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.buf = Vec::new().into_iter();
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "scan {} [stored: {} tuples, {} pages × {} B target]",
            self.name,
            self.stored.len(),
            self.stored.segment().page_count(),
            self.stored.segment().page_size(),
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }

    fn stored_relation(&self) -> Option<&Arc<StoredRelation>> {
        Some(&self.stored)
    }
}

// --------------------------------------------------------- spill build

/// A merge build side being written to a temp segment.
pub(crate) struct SpillBuild {
    writer: SegmentWriter,
    path: std::path::PathBuf,
    schema: Arc<Schema>,
    index: HashMap<Vec<Value>, RecordId>,
}

impl SpillBuild {
    /// Start a temp-segment build side for tuples over `schema`.
    pub(crate) fn create(schema: &Arc<Schema>) -> Result<SpillBuild, PlanError> {
        let path = evirel_store::spill_path("merge-right");
        let writer = SegmentWriter::create(&path, schema, evirel_store::DEFAULT_PAGE_SIZE)?;
        Ok(SpillBuild {
            writer,
            path,
            schema: Arc::clone(schema),
            index: HashMap::new(),
        })
    }

    /// Append one right tuple under its (routing) key.
    pub(crate) fn append(&mut self, key: Vec<Value>, tuple: &Tuple) -> Result<(), PlanError> {
        let id = self.writer.append(tuple)?;
        self.index.insert(key, id);
        Ok(())
    }

    /// Finish writing and open the segment for probing. The temp file
    /// is unlinked immediately — the open handle keeps the data alive
    /// until the merge drops it.
    pub(crate) fn finish(self, pool: &Arc<BufferPool>) -> Result<SpilledRight, PlanError> {
        let path = self.writer.finish()?;
        let segment = Arc::new(Segment::open_with_schema(&path, self.schema)?);
        // Reclaimed by the kernel when the last handle drops; on
        // filesystems where unlink-while-open is not allowed the file
        // merely lingers until the OS temp cleaner runs.
        let _ = std::fs::remove_file(&self.path);
        Ok(SpilledRight {
            segment,
            pool: Arc::clone(pool),
            index: self.index,
        })
    }
}

/// A finished spilled build side: the temp segment plus the
/// `key → record` index probes go through.
pub(crate) struct SpilledRight {
    segment: Arc<Segment>,
    pool: Arc<BufferPool>,
    index: HashMap<Vec<Value>, RecordId>,
}

impl SpilledRight {
    /// `true` when `key` is indexed.
    pub(crate) fn contains(&self, key: &[Value]) -> bool {
        self.index.contains_key(key)
    }

    /// Decode the tuple stored under `key`, pinning its page only for
    /// the decode.
    pub(crate) fn fetch(&self, key: &[Value]) -> Result<Option<Tuple>, PlanError> {
        let Some(id) = self.index.get(key) else {
            return Ok(None);
        };
        let guard = self.pool.get(&self.segment, id.page)?;
        Ok(Some(self.segment.decode_record(&guard, id.slot)?))
    }
}

/// Index a stored relation's keys in ONE pass over its pages —
/// [`crate::ops::MergeOp`] uses this when its right child is a bare
/// stored scan, so the build side needs no re-spill (the segment on
/// disk *is* the build side) and no materialized tuples.
pub(crate) fn index_stored(
    stored: &Arc<StoredRelation>,
) -> Result<(SpilledRight, Vec<Vec<Value>>), PlanError> {
    let schema = Arc::clone(stored.schema());
    let mut index = HashMap::with_capacity(stored.len());
    let mut order = Vec::with_capacity(stored.len());
    for page in 0..stored.segment().page_count() {
        let tuples = stored.page_tuples(page)?;
        for (slot, tuple) in tuples.iter().enumerate() {
            let key = tuple.key(&schema);
            order.push(key.clone());
            index.insert(
                key,
                RecordId {
                    page,
                    slot: slot as u32,
                },
            );
        }
    }
    Ok((
        SpilledRight {
            segment: Arc::clone(stored.segment()),
            pool: Arc::clone(stored.pool()),
            index,
        },
        order,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{run, ScanOp};
    use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder};

    fn rel(n: usize) -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
        let schema = Arc::new(
            Schema::builder("R")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for i in 0..n {
            let label = ["x", "y", "z"][i % 3];
            b = b
                .tuple(|t| {
                    t.set_str("k", format!("k{i:04}"))
                        .set_evidence_with_omega("d", [(&[label][..], 0.7)], 0.3)
                        .membership_pair(0.2 + 0.001 * (i as f64), 1.0)
                })
                .unwrap();
        }
        b.build()
    }

    fn store(rel: &ExtendedRelation, budget: usize) -> Arc<StoredRelation> {
        let path = evirel_store::spill_path("plan-test");
        evirel_store::write_segment(rel, &path, 512).unwrap();
        let stored = StoredRelation::open(&path, Arc::new(BufferPool::new(budget))).unwrap();
        std::fs::remove_file(&path).ok();
        Arc::new(stored)
    }

    #[test]
    fn spill_scan_matches_in_memory_scan_bit_for_bit() {
        let r = rel(300);
        let stored = store(&r, 1024); // ~2 pages of budget
        let mut mem_ctx = ExecContext::new();
        let mem = run(&mut ScanOp::new("r", Arc::new(r.clone())), &mut mem_ctx).unwrap();
        let mut disk_ctx = ExecContext::new();
        let disk = run(
            &mut SpillScanOp::new("r", Arc::clone(&stored)),
            &mut disk_ctx,
        )
        .unwrap();
        assert_eq!(mem.len(), disk.len());
        for (a, b) in mem.iter().zip(disk.iter()) {
            assert_eq!(a.values(), b.values());
            assert_eq!(a.membership().sn().to_bits(), b.membership().sn().to_bits());
            assert_eq!(a.membership().sp().to_bits(), b.membership().sp().to_bits());
        }
        assert_eq!(mem_ctx.stats.tuples_scanned, disk_ctx.stats.tuples_scanned);
        // The tiny budget forced evictions while scanning.
        let stats = stored.pool().stats();
        assert!(stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn spilled_build_side_fetches_exact_tuples() {
        let r = rel(100);
        let pool = Arc::new(BufferPool::new(2048));
        let mut build = SpillBuild::create(r.schema()).unwrap();
        for (key, tuple) in r.iter_keyed() {
            build.append(key, tuple).unwrap();
        }
        let spilled = build.finish(&pool).unwrap();
        for (key, tuple) in r.iter_keyed() {
            assert!(spilled.contains(&key));
            let fetched = spilled.fetch(&key).unwrap().unwrap();
            assert_eq!(fetched.values(), tuple.values());
        }
        assert!(spilled.fetch(&[Value::str("nope")]).unwrap().is_none());
    }

    #[test]
    fn index_stored_is_one_pass_and_ordered() {
        let r = rel(80);
        let stored = store(&r, 4096);
        let (spilled, order) = index_stored(&stored).unwrap();
        assert_eq!(order, r.keys().collect::<Vec<_>>());
        let key = vec![Value::str("k0042")];
        let fetched = spilled.fetch(&key).unwrap().unwrap();
        assert_eq!(fetched.values(), r.get_by_key(&key).unwrap().values());
    }
}
