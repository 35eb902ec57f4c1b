//! Disk-backed relations: a segment plus the buffer pool it pages
//! through.

use crate::error::StoreError;
use crate::pool::BufferPool;
use crate::segment::{write_segment, Segment, DEFAULT_PAGE_SIZE};
use evirel_relation::{ExtendedRelation, Schema, Tuple};
use std::path::Path;
use std::sync::Arc;

/// A relation whose extension lives in an on-disk segment. Scans pull
/// one page at a time through the shared [`BufferPool`], so a stored
/// relation can be arbitrarily larger than memory; the plan layer's
/// `SpillScanOp` streams it through the same `Operator` interface as
/// an in-memory scan, with bit-identical results — page by page via
/// [`StoredRelation::page_tuples`], or, with a selection fused into
/// the scan, record by record over the pinned page
/// ([`crate::segment::PageRecords`]) so that only surviving records
/// are decoded in full.
#[derive(Debug)]
pub struct StoredRelation {
    segment: Arc<Segment>,
    pool: Arc<BufferPool>,
}

impl StoredRelation {
    /// Open a stored relation, paging through `pool`.
    ///
    /// # Errors
    /// As [`Segment::open`].
    pub fn open(
        path: impl AsRef<Path>,
        pool: Arc<BufferPool>,
    ) -> Result<StoredRelation, StoreError> {
        Ok(StoredRelation {
            segment: Arc::new(Segment::open(path)?),
            pool,
        })
    }

    /// Write `rel` to a segment at `path` and open it.
    ///
    /// # Errors
    /// Write or open failures.
    pub fn store(
        rel: &ExtendedRelation,
        path: impl AsRef<Path>,
        pool: Arc<BufferPool>,
    ) -> Result<StoredRelation, StoreError> {
        write_segment(rel, path.as_ref(), DEFAULT_PAGE_SIZE)?;
        StoredRelation::open(path, pool)
    }

    /// Wrap an already-open segment.
    pub fn from_segment(segment: Arc<Segment>, pool: Arc<BufferPool>) -> StoredRelation {
        StoredRelation { segment, pool }
    }

    /// The relation schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.segment.schema()
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.segment.tuple_count() as usize
    }

    /// `true` when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.segment.tuple_count() == 0
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.segment
    }

    /// The pool this relation pages through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The segment's statistics (see [`Segment::stats`]).
    pub fn stats(&self) -> Arc<crate::stats::RelStats> {
        Arc::clone(self.segment.stats())
    }

    /// Decode all tuples of one page (pinning it only for the decode).
    ///
    /// # Errors
    /// Page read/decode failures.
    pub fn page_tuples(&self, page: u64) -> Result<Vec<Tuple>, StoreError> {
        let guard = self.pool.get(&self.segment, page)?;
        self.segment.decode_page(&guard)
    }

    /// Stream every tuple in insertion order, holding at most one
    /// decoded page in memory.
    pub fn iter(&self) -> StoredIter<'_> {
        StoredIter {
            stored: self,
            page: 0,
            buf: Vec::new().into_iter(),
        }
    }

    /// Materialize the whole relation in memory — the bridge back to
    /// the in-memory executor (and the reference oracle in tests).
    ///
    /// # Errors
    /// Decode failures; insertion errors for corrupt duplicate keys.
    pub fn to_relation(&self) -> Result<ExtendedRelation, StoreError> {
        let mut out = ExtendedRelation::new(Arc::clone(self.schema()));
        for tuple in self.iter() {
            out.insert(tuple?).map_err(StoreError::from)?;
        }
        Ok(out)
    }
}

/// Streaming iterator over a stored relation (see
/// [`StoredRelation::iter`]).
pub struct StoredIter<'a> {
    stored: &'a StoredRelation,
    page: u64,
    buf: std::vec::IntoIter<Tuple>,
}

impl Iterator for StoredIter<'_> {
    type Item = Result<Tuple, StoreError>;

    fn next(&mut self) -> Option<Result<Tuple, StoreError>> {
        loop {
            if let Some(t) = self.buf.next() {
                return Some(Ok(t));
            }
            if self.page >= self.stored.segment.page_count() {
                return None;
            }
            match self.stored.page_tuples(self.page) {
                Ok(tuples) => {
                    self.page += 1;
                    self.buf = tuples.into_iter();
                }
                Err(e) => {
                    self.page = self.stored.segment.page_count();
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, RelationBuilder};

    #[test]
    fn store_iter_materialize() {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("S")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for i in 0..64 {
            b = b
                .tuple(|t| {
                    t.set_str("k", format!("k{i}"))
                        .set_evidence_with_omega("d", [(&["x"][..], 0.5)], 0.5)
                        .membership_pair(0.25 + 0.5 * ((i % 2) as f64), 1.0)
                })
                .unwrap();
        }
        let rel = b.build();
        let dir = std::env::temp_dir().join(format!("evirel-stored-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.evb");
        let pool = Arc::new(BufferPool::new(1024));
        let stored = StoredRelation::store(&rel, &path, pool).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(stored.len(), 64);
        assert!(!stored.is_empty());
        let back = stored.to_relation().unwrap();
        assert_eq!(back.len(), rel.len());
        // Insertion order preserved, values bit-exact.
        for (orig, dec) in rel.iter().zip(back.iter()) {
            assert_eq!(orig.values(), dec.values());
            assert_eq!(orig.membership().sn(), dec.membership().sn());
        }
    }
}
