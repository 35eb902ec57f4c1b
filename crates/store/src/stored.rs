//! Disk-backed relations: a segment, the buffer pool it pages
//! through, and — once some operator has asked for it — the segment's
//! key index.
//!
//! A segment is immutable and a rebind opens a new [`StoredRelation`],
//! so whatever can be derived from the segment's bytes is derived at
//! most once per relation. Today that is the [`KeyIndex`]: the
//! `key → ordinal → record` map every ∪̃/∩̃ build side and every −̃
//! right side over a bare stored scan needs. [`StoredRelation::key_index`]
//! builds it on first use (one keys-only pass over the pages) and hands
//! the same `Arc` to every later caller; it is freed with the relation,
//! cannot go stale, and is never built for a relation that is only
//! scanned. The residency this buys speed with: *a relation that has
//! served as a build side keeps ≈ 100 B per key resident until it is
//! rebound or dropped — what every query on it used to allocate and
//! free*.

use crate::codec::decode_record;
use crate::error::StoreError;
use crate::pool::BufferPool;
use crate::segment::{
    write_segment, PageRecords, RecordId, Segment, SegmentSource, DEFAULT_PAGE_SIZE,
};
use evirel_relation::{AttrValue, ExtendedRelation, Schema, Tuple, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The keys of a segment's records, addressed by *ordinal*: record
/// `i` in insertion order is ordinal `i`, so ordinal order is the
/// relation's iteration order and an ordinal identifies a record
/// without hashing its key again. [`StoredRelation::key_index`] builds
/// one per stored relation; the plan layer fills one per query for a
/// build side it spilled to a temp segment.
#[derive(Debug, Default)]
pub struct KeyIndex {
    by_key: HashMap<Vec<Value>, u32>,
    records: Vec<RecordId>,
}

impl KeyIndex {
    /// Index the next record (ordinal = records indexed so far).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when `key` is already indexed — a
    /// relation holds a key once, so a repeat means the bytes are not a
    /// relation's — naming the key and both records; or when the index
    /// is full (`u32::MAX` records).
    pub fn insert(&mut self, key: Vec<Value>, id: RecordId) -> Result<(), StoreError> {
        let ordinal = u32::try_from(self.records.len())
            .map_err(|_| StoreError::corrupt("more records than a key index addresses"))?;
        match self.by_key.entry(key) {
            Entry::Occupied(seen) => {
                let first = self.records[*seen.get() as usize];
                Err(StoreError::corrupt(format!(
                    "duplicate key {}: page {} slot {} and page {} slot {}",
                    Value::render_key(seen.key()),
                    first.page,
                    first.slot,
                    id.page,
                    id.slot
                )))
            }
            Entry::Vacant(slot) => {
                slot.insert(ordinal);
                self.records.push(id);
                Ok(())
            }
        }
    }

    /// The ordinal of the record stored under `key`.
    pub fn ordinal(&self, key: &[Value]) -> Option<u32> {
        self.by_key.get(key).copied()
    }

    /// Where record `ordinal` lives.
    pub fn record(&self, ordinal: u32) -> Option<RecordId> {
        self.records.get(ordinal as usize).copied()
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Index `segment`'s keys in one pass over its pages: each record
    /// is decoded under the key-positions mask only (and decoded in
    /// full when a probe fetches it).
    fn build(segment: &Segment, pool: &Arc<BufferPool>) -> Result<KeyIndex, StoreError> {
        let schema = segment.schema();
        let mut keys_only = vec![false; schema.arity()];
        for &pos in schema.key_positions() {
            keys_only[pos] = true;
        }
        let records = segment.tuple_count() as usize;
        let mut index = KeyIndex {
            by_key: HashMap::with_capacity(records),
            records: Vec::with_capacity(records),
        };
        for page in 0..segment.page_count() {
            let guard = pool.get(segment, page)?;
            for (slot, record) in PageRecords::new(&guard)?.enumerate() {
                // Key positions ascend, so the masked values are the key.
                let key = decode_record(record?, segment.domains(), &keys_only)?
                    .values
                    .into_iter()
                    .map(|value| match value {
                        AttrValue::Definite(v) => Ok(v),
                        AttrValue::Evidential(_) => {
                            Err(StoreError::corrupt("evidential value in a key position"))
                        }
                    })
                    .collect::<Result<Vec<Value>, StoreError>>()?;
                let slot = slot as u32; // a page's record count is a u32
                index.insert(key, RecordId { page, slot })?;
            }
        }
        Ok(index)
    }
}

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
    /// See [`StoredRelation::key_index`].
    key_index: OnceLock<Arc<KeyIndex>>,
    /// Held by the one caller building `key_index`, so racing first
    /// uses wait for it instead of each paying the pass.
    key_index_build: Mutex<()>,
}

impl StoredRelation {
    /// Open a stored relation — a segment file or an inline segment's
    /// bytes — paging through `pool`.
    ///
    /// # Errors
    /// As [`Segment::open`].
    pub fn open(
        source: impl Into<SegmentSource>,
        pool: Arc<BufferPool>,
    ) -> Result<StoredRelation, StoreError> {
        Ok(StoredRelation::from_segment(
            Arc::new(Segment::open(source)?),
            pool,
        ))
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
        StoredRelation::open(path.as_ref(), pool)
    }

    /// Wrap an already-open segment.
    pub fn from_segment(segment: Arc<Segment>, pool: Arc<BufferPool>) -> StoredRelation {
        StoredRelation {
            segment,
            pool,
            key_index: OnceLock::new(),
            key_index_build: Mutex::new(()),
        }
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

    /// The segment's key index, and whether this call built it. The
    /// first call pays one keys-only pass over the pages; every later
    /// one — from any thread, for as long as the relation lives — gets
    /// the same `Arc` back. Callers racing the first use wait for the
    /// one that builds. A failed build is not remembered: the next
    /// call tries again.
    ///
    /// # Errors
    /// Page read/decode failures; [`StoreError::Corrupt`] for a key
    /// stored twice.
    pub fn key_index(&self) -> Result<(Arc<KeyIndex>, bool), StoreError> {
        if let Some(index) = self.key_index.get() {
            return Ok((Arc::clone(index), false));
        }
        // The guarded state is `()`: a builder that panicked left
        // nothing half-written, so a poisoned lock is still usable.
        let _building = self
            .key_index_build
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = self.key_index.get() {
            return Ok((Arc::clone(index), false));
        }
        let index = Arc::new(KeyIndex::build(&self.segment, &self.pool)?);
        // Only the holder of `key_index_build` sets the cell.
        let _ = self.key_index.set(Arc::clone(&index));
        Ok((index, true))
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
    use crate::test_dir::TestDir;
    use evirel_relation::{AttrDomain, RelationBuilder};

    fn relation(n: usize) -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("S")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for i in 0..n {
            b = b
                .tuple(|t| {
                    t.set_str("k", format!("k{i}"))
                        .set_evidence_with_omega("d", [(&["x"][..], 0.5)], 0.5)
                        .membership_pair(0.25 + 0.5 * ((i % 2) as f64), 1.0)
                })
                .unwrap();
        }
        b.build()
    }

    /// Write `rel` with small pages and open it against a `budget`-byte pool.
    fn stored(rel: &ExtendedRelation, budget: usize) -> StoredRelation {
        let path = crate::spill_path("stored-test");
        write_segment(rel, &path, 512).unwrap();
        let stored = StoredRelation::open(&path, Arc::new(BufferPool::new(budget))).unwrap();
        std::fs::remove_file(&path).ok();
        stored
    }

    #[test]
    fn store_iter_materialize() {
        let rel = relation(64);
        let dir = TestDir::new("stored");
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

    /// One pass over the pages, ordinals in insertion order, records
    /// where the writer put them; the second call builds nothing and
    /// reads no page.
    #[test]
    fn key_index_is_one_pass_and_ordered() {
        let rel = relation(80);
        let stored = stored(&rel, 1 << 20);
        let pages = stored.segment().page_count();
        assert!(pages > 1);
        let (index, built) = stored.key_index().unwrap();
        assert!(built);
        let touched = stored.pool().stats();
        assert_eq!(touched.hits + touched.misses, pages);
        assert_eq!(index.len(), 80);
        assert!(!index.is_empty());
        for (ordinal, (key, tuple)) in rel.iter_keyed().enumerate() {
            assert_eq!(index.ordinal(&key), Some(ordinal as u32));
            let id = index.record(ordinal as u32).unwrap();
            let segment = stored.segment();
            let page = stored.pool().get(segment, id.page).unwrap();
            let range = PageRecords::ranges(&page).unwrap()[id.slot as usize].clone();
            let back = decode_record(&page[range], segment.domains(), segment.all_columns());
            assert_eq!(back.unwrap().values, tuple.values());
        }
        assert_eq!(index.ordinal(&[Value::str("nope")]), None);
        assert_eq!(index.record(80), None);

        let before = stored.pool().stats();
        let (again, built) = stored.key_index().unwrap();
        assert!(!built);
        assert!(Arc::ptr_eq(&index, &again));
        assert_eq!(stored.pool().stats(), before);
    }

    /// Eight threads race the first use: exactly one builds, everyone
    /// gets the same index, and so does every later caller.
    #[test]
    fn racing_first_uses_build_one_index() {
        let rel = relation(200);
        let stored = stored(&rel, 1 << 20);
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<(Arc<KeyIndex>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        stored.key_index().unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results.iter().filter(|(_, built)| *built).count(), 1);
        let (after, built) = stored.key_index().unwrap();
        assert!(!built);
        for (index, _) in &results {
            assert!(Arc::ptr_eq(index, &after));
            assert_eq!(index.len(), 200);
        }
    }
}
