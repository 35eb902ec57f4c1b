//! The buffer pool: a shared, byte-budgeted page cache with pin/unpin
//! reference counting and clock (second-chance) eviction.
//!
//! One pool is shared behind an [`Arc`] by every operator of an
//! execution — including the exchange operator's worker threads, so N
//! workers page through one budget instead of N. Pages are cached
//! per `(segment id, page number)`; a [`PageGuard`] pins its page for
//! as long as it lives, and pinned pages are never evicted. When the
//! cached bytes exceed the budget, the clock hand sweeps: pinned
//! frames are skipped, recently-referenced frames get a second chance
//! (their reference bit is cleared), and the first cold unpinned
//! frame is dropped. If *every* frame is pinned the pool temporarily
//! overshoots its budget rather than deadlocking (counted in
//! [`PoolStats::overcommits`]).
//!
//! The budget is its owner's ([`BufferPool::new`]; `EVIREL_BUFFER_BYTES`
//! to the binaries). CI runs the suites under a tiny budget so the
//! eviction and spill paths are exercised end to end every build. A
//! debug build re-verifies the checksum of every cache *hit* too (a miss
//! verifies on the disk read), so every test run checks that no path
//! serves cached bytes that diverge from their checksum.

use crate::error::StoreError;
use crate::segment::Segment;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// Default byte budget: 64 MiB.
pub const DEFAULT_BUFFER_BYTES: usize = 64 * 1024 * 1024;

type PageKey = (u64, u64);

/// A snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that read from disk.
    pub misses: u64,
    /// Pages evicted by the clock sweep.
    pub evictions: u64,
    /// Times the pool had to exceed its budget because every cached
    /// page was pinned.
    pub overcommits: u64,
    /// Bytes currently cached.
    pub bytes_cached: usize,
    /// Pages currently cached.
    pub pages_cached: usize,
}

#[derive(Debug)]
struct Frame {
    data: Arc<Vec<u8>>,
    pins: u32,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Inner {
    frames: HashMap<PageKey, Frame>,
    /// Clock order; swept circularly by `hand`.
    clock: Vec<PageKey>,
    hand: usize,
    bytes: usize,
    stats: PoolStats,
}

/// A shared page cache under a byte budget. See the module docs.
#[derive(Debug)]
pub struct BufferPool {
    budget: usize,
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// A pool with an explicit byte budget (≥ 1 enforced, so a zero
    /// budget degenerates to "evict after every unpin" rather than
    /// dividing by zero semantics).
    pub fn new(budget_bytes: usize) -> BufferPool {
        BufferPool {
            budget: budget_bytes.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().expect("pool lock").stats
    }

    /// Fetch a page of `segment`, reading from disk on a miss. The
    /// returned guard pins the page until dropped.
    ///
    /// # Errors
    /// [`StoreError`] from the underlying page read.
    pub fn get(self: &Arc<Self>, segment: &Segment, page: u64) -> Result<PageGuard, StoreError> {
        let key = (segment.id(), page);
        let cached = {
            let mut inner = self.inner.lock().expect("pool lock");
            if let Some(frame) = inner.frames.get_mut(&key) {
                frame.pins += 1;
                frame.referenced = true;
                let data = Arc::clone(&frame.data);
                inner.stats.hits += 1;
                Some(data)
            } else {
                inner.stats.misses += 1;
                None
            }
        };
        if let Some(data) = cached {
            // See the module docs: debug builds re-verify hits.
            if cfg!(debug_assertions) {
                if let Err(e) = segment.verify_page(page, &data) {
                    self.unpin(key);
                    return Err(e);
                }
            }
            return Ok(PageGuard {
                pool: Arc::clone(self),
                key,
                data,
            });
        }
        // Read outside the lock so slow I/O does not serialize other
        // workers' cache hits.
        let data = Arc::new(segment.read_page(page)?);
        let mut inner = self.inner.lock().expect("pool lock");
        // Another worker may have filled this page while we read; use
        // the cached copy to keep accounting single-entry.
        if let Some(frame) = inner.frames.get_mut(&key) {
            frame.pins += 1;
            frame.referenced = true;
            let data = Arc::clone(&frame.data);
            return Ok(PageGuard {
                pool: Arc::clone(self),
                key,
                data,
            });
        }
        inner.bytes += data.len();
        inner.frames.insert(
            key,
            Frame {
                data: Arc::clone(&data),
                pins: 1,
                referenced: true,
            },
        );
        inner.clock.push(key);
        inner.stats.bytes_cached = inner.bytes;
        inner.stats.pages_cached = inner.frames.len();
        self.evict_to_budget(&mut inner);
        Ok(PageGuard {
            pool: Arc::clone(self),
            key,
            data,
        })
    }

    /// Clock sweep: second chance for referenced frames, never evict
    /// pinned ones; give up (overcommit) after two full sweeps find
    /// nothing evictable.
    fn evict_to_budget(&self, inner: &mut Inner) {
        let mut scanned_since_eviction = 0usize;
        while inner.bytes > self.budget && !inner.clock.is_empty() {
            if scanned_since_eviction >= inner.clock.len() * 2 {
                inner.stats.overcommits += 1;
                break;
            }
            if inner.hand >= inner.clock.len() {
                inner.hand = 0;
            }
            let key = inner.clock[inner.hand];
            let frame = inner.frames.get_mut(&key).expect("clock entry has frame");
            if frame.pins > 0 {
                inner.hand += 1;
                scanned_since_eviction += 1;
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                inner.hand += 1;
                scanned_since_eviction += 1;
                continue;
            }
            let frame = inner.frames.remove(&key).expect("frame exists");
            inner.bytes -= frame.data.len();
            inner.clock.swap_remove(inner.hand);
            inner.stats.evictions += 1;
            scanned_since_eviction = 0;
        }
        inner.stats.bytes_cached = inner.bytes;
        inner.stats.pages_cached = inner.frames.len();
    }

    fn unpin(&self, key: PageKey) {
        let mut inner = self.inner.lock().expect("pool lock");
        if let Some(frame) = inner.frames.get_mut(&key) {
            frame.pins = frame.pins.saturating_sub(1);
        }
        // A pool over budget (everything was pinned) shrinks at the
        // next opportunity.
        if inner.bytes > self.budget {
            self.evict_to_budget(&mut inner);
        }
    }
}

/// A pinned page: dereferences to the raw page bytes; unpins on drop.
pub struct PageGuard {
    pool: Arc<BufferPool>,
    key: PageKey,
    data: Arc<Vec<u8>>,
}

impl Deref for PageGuard {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.pool.unpin(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{write_segment, Segment};
    use crate::test_dir::TestDir;
    use evirel_relation::{AttrDomain, RelationBuilder, Schema};

    fn segment(name: &str, tuples: usize, page_size: usize) -> Arc<Segment> {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("P")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for i in 0..tuples {
            b = b
                .tuple(|t| {
                    t.set_str("k", format!("key-{i:06}"))
                        .set_evidence("d", [(&["x"][..], 1.0)])
                })
                .unwrap();
        }
        let dir = TestDir::new("pool");
        let path = dir.join(name);
        write_segment(&b.build(), &path, page_size).unwrap();
        Arc::new(Segment::open(&path).unwrap())
    }

    #[test]
    fn hits_misses_and_eviction() {
        let seg = segment("hm.evb", 200, 256);
        assert!(seg.page_count() >= 8);
        // Budget of ~2 pages.
        let pool = Arc::new(BufferPool::new(512 + 8));
        for p in 0..seg.page_count() {
            let guard = pool.get(&seg, p).unwrap();
            assert!(!guard.is_empty());
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, seg.page_count());
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.bytes_cached <= pool.budget_bytes(), "{stats:?}");
        // Re-reading the last page hits.
        let _g = pool.get(&seg, seg.page_count() - 1).unwrap();
        assert!(pool.stats().hits >= 1);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let seg = segment("pin.evb", 200, 256);
        let pool = Arc::new(BufferPool::new(600));
        let pinned = pool.get(&seg, 0).unwrap();
        // Flood the pool far past its budget.
        for p in 1..seg.page_count() {
            let _ = pool.get(&seg, p).unwrap();
        }
        // Page 0 must still be cached (a re-get is a hit) and its
        // bytes must still be readable through the original guard.
        let hits_before = pool.stats().hits;
        let again = pool.get(&seg, 0).unwrap();
        assert_eq!(
            pool.stats().hits,
            hits_before + 1,
            "pinned page was evicted"
        );
        assert_eq!(&*again, &*pinned);
    }

    #[test]
    fn all_pinned_overcommits_instead_of_deadlocking() {
        let seg = segment("over.evb", 120, 256);
        let pool = Arc::new(BufferPool::new(300));
        let guards: Vec<_> = (0..seg.page_count())
            .map(|p| pool.get(&seg, p).unwrap())
            .collect();
        let stats = pool.stats();
        assert!(stats.bytes_cached > pool.budget_bytes());
        assert!(stats.overcommits > 0, "{stats:?}");
        // Dropping the pins lets the pool shrink back under budget.
        drop(guards);
        let _ = pool.get(&seg, 0).unwrap();
        assert!(pool.stats().bytes_cached <= pool.budget_bytes().max(seg.page_len(0).unwrap()));
    }
}
