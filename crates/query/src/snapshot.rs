//! Epoch-snapshot isolation over the [`Catalog`].
//!
//! The concurrent query service runs N sessions over one shared
//! catalog. Readers must never observe a *half-swapped* catalog — a
//! `\load` that has replaced one relation binding but not yet the
//! other, or a merge-write applied to one of two relations a query
//! scans. This module formalizes the RCU-style publish/retire
//! discipline the `Arc`-based bindings already make nearly free:
//!
//! * The current catalog lives behind an immutable, generation-
//!   stamped [`CatalogSnapshot`] inside an `Arc`. **Readers pin** a
//!   snapshot ([`SharedCatalog::pin`]) — one `Arc` clone under a
//!   briefly-held lock — and execute entirely against it; nothing a
//!   concurrent writer does can change what they see.
//! * **Writers publish** ([`SharedCatalog::update`]): clone the
//!   current catalog (cheap — maps of `Arc` handles), apply the
//!   mutation to the clone, bump the generation counter, and swap the
//!   new snapshot in atomically. A failed mutation publishes nothing.
//! * **Retirement is automatic**: the old generation's `Arc` drops
//!   when the last pinned reader finishes — no epoch bookkeeping
//!   thread, no grace periods.
//!
//! The generation number doubles as the invalidation key for the
//! prepared-plan cache ([`crate::prepare::PlanCache`]): a plan
//! prepared against generation G is only replayed against generation
//! G.

use crate::catalog::Catalog;
use crate::error::QueryError;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// One immutable, generation-stamped published catalog state.
///
/// Snapshots are only constructed by [`SharedCatalog`]; holding an
/// `Arc<CatalogSnapshot>` pins every relation binding (and the shared
/// buffer pool handle) exactly as they were at publish time.
#[derive(Debug)]
pub struct CatalogSnapshot {
    generation: u64,
    catalog: Catalog,
}

impl CatalogSnapshot {
    /// The epoch this snapshot was published at. Strictly increasing
    /// across [`SharedCatalog::update`] calls; generation 0 is the
    /// initial catalog.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pinned catalog state.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

/// A catalog shared by many sessions, read through pinned snapshots
/// and written through atomic generation swaps. See the module docs.
#[derive(Debug)]
pub struct SharedCatalog {
    current: RwLock<Arc<CatalogSnapshot>>,
    /// Publish signal: paired with `publish_cv` so subscribers
    /// ([`SharedCatalog::wait_newer`]) block instead of spinning.
    /// Publishers release the `current` write lock *before* taking
    /// this mutex (lock order: never both), then notify.
    publish_lock: Mutex<()>,
    publish_cv: Condvar,
}

impl SharedCatalog {
    /// Publish `catalog` as generation 0.
    pub fn new(catalog: Catalog) -> SharedCatalog {
        SharedCatalog::with_generation(catalog, 0)
    }

    /// Publish `catalog` at an explicit starting generation — the
    /// durable-recovery boot path uses this so the in-memory
    /// generation counter continues from the last committed
    /// generation instead of restarting at 0 (clients comparing STATS
    /// generations across a restart must see monotonicity).
    pub fn with_generation(catalog: Catalog, generation: u64) -> SharedCatalog {
        SharedCatalog {
            current: RwLock::new(Arc::new(CatalogSnapshot {
                generation,
                catalog,
            })),
            publish_lock: Mutex::new(()),
            publish_cv: Condvar::new(),
        }
    }

    /// Pin the current snapshot: the returned handle keeps every
    /// binding of this generation alive and unchanged for as long as
    /// it is held, no matter what writers publish meanwhile.
    pub fn pin(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current generation number (advances on every successful
    /// [`SharedCatalog::update`]).
    pub fn generation(&self) -> u64 {
        self.pin().generation
    }

    /// Apply a mutation and publish it as the next generation.
    ///
    /// The closure runs on a private clone of the current catalog;
    /// concurrent readers keep seeing the old generation until the
    /// swap, and an `Err` from the closure publishes **nothing** —
    /// there is no observable half-applied state, ever. Writers
    /// serialize against each other (the closure runs under the write
    /// lock), so read-modify-write sequences like "execute this merge
    /// query, then register the result" are atomic when expressed as
    /// one `update` call.
    ///
    /// # Errors
    /// Whatever the closure returns; the catalog is unchanged then.
    pub fn update<T>(
        &self,
        mutate: impl FnOnce(&mut Catalog) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        self.update_at(|catalog, _| mutate(catalog))
            .map(|(value, _)| value)
    }

    /// As [`SharedCatalog::update`], but the closure also receives the
    /// generation the mutation will publish as, and the call returns
    /// it alongside the closure's value. Use the returned generation
    /// when reporting the write: with concurrent writers, reading
    /// [`SharedCatalog::generation`] afterwards may already observe a
    /// *later* writer's bump.
    ///
    /// This is the durability hook ([`crate::DurableCatalog::bind`]):
    /// the closure writes a journal record stamped with that
    /// generation and fsyncs it *before* returning — because the
    /// closure runs under the write lock, the record is durable before
    /// any reader can observe the new generation, and writers (hence
    /// journal appends) are totally ordered with strictly increasing
    /// generations. Readers' [`SharedCatalog::pin`] waits for that
    /// lock, so a durable publish stalls pins for the length of its
    /// fsync. An `Err` from the closure publishes nothing, exactly as
    /// in `update`.
    ///
    /// # Errors
    /// Whatever the closure returns; the catalog is unchanged then.
    pub fn update_at<T>(
        &self,
        mutate: impl FnOnce(&mut Catalog, u64) -> Result<T, QueryError>,
    ) -> Result<(T, u64), QueryError> {
        let result = {
            let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
            let mut next = slot.catalog.clone();
            let generation = slot.generation + 1;
            let value = mutate(&mut next, generation)?;
            *slot = Arc::new(CatalogSnapshot {
                generation,
                catalog: next,
            });
            (value, generation)
        };
        self.notify_publish();
        Ok(result)
    }

    /// Publish a mutation at an **explicit** generation instead of
    /// `current + 1`. This is the replication-apply hook
    /// ([`crate::DurableCatalog::apply_record`]): a follower replays
    /// the primary's journal records and must publish each one at the
    /// generation the *primary* stamped it with, so pinned
    /// snapshots on the standby carry the same generation numbers as
    /// on the primary and STATS/plan-cache keys line up across
    /// failover. Generations may skip (the primary's counter also
    /// advances on mutations that never reach this follower's catalog,
    /// e.g. drops of unknown names) but must strictly increase.
    ///
    /// # Errors
    /// Whatever the closure returns, or [`QueryError::Execution`] when
    /// `generation` does not advance past the published one; nothing
    /// is published in either case.
    pub fn update_stamped<T>(
        &self,
        generation: u64,
        mutate: impl FnOnce(&mut Catalog) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let value = {
            let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
            if generation <= slot.generation {
                return Err(QueryError::Execution {
                    message: format!(
                        "stamped publish must advance the generation \
                         (current {}, stamped {generation})",
                        slot.generation
                    ),
                });
            }
            let mut next = slot.catalog.clone();
            let value = mutate(&mut next)?;
            *slot = Arc::new(CatalogSnapshot {
                generation,
                catalog: next,
            });
            value
        };
        self.notify_publish();
        Ok(value)
    }

    /// Block until a generation **newer than** `seen` is published,
    /// returning the freshly pinned snapshot, or `None` on timeout.
    /// This is the replication sender's subscription hook: instead of
    /// polling [`SharedCatalog::generation`], the sender parks here
    /// and wakes exactly when a writer publishes.
    pub fn wait_newer(&self, seen: u64, timeout: Duration) -> Option<Arc<CatalogSnapshot>> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.publish_lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // Checking under `publish_lock` closes the missed-wakeup
            // window: a publisher that swaps after this check cannot
            // notify until `wait_timeout` releases the mutex.
            let snapshot = self.pin();
            if snapshot.generation > seen {
                return Some(snapshot);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (next, result) = self
                .publish_cv
                .wait_timeout(guard, remaining)
                .unwrap_or_else(|e| e.into_inner());
            guard = next;
            if result.timed_out() {
                let snapshot = self.pin();
                return (snapshot.generation > seen).then_some(snapshot);
            }
        }
    }

    fn notify_publish(&self) {
        // Taking the mutex (even empty-handed) orders this notify
        // after any in-flight waiter's condition check.
        drop(self.publish_lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.publish_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder, Schema};
    use std::sync::Arc;

    fn rel(mass: f64) -> ExtendedRelation {
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
                    .set_evidence_with_omega("d", [(&["x"][..], mass)], 1.0 - mass)
            })
            .unwrap()
            .build()
    }

    #[test]
    fn pinned_snapshot_survives_updates() {
        let shared = SharedCatalog::new({
            let mut c = Catalog::new();
            c.register("r", rel(0.25));
            c
        });
        let pinned = shared.pin();
        assert_eq!(pinned.generation(), 0);

        shared
            .update(|c| {
                c.register("r", rel(0.75));
                Ok(())
            })
            .unwrap();
        assert_eq!(shared.generation(), 1);

        // The pinned reader still sees generation 0's binding…
        let old = pinned.catalog().get("r").unwrap();
        let new = shared.pin();
        let new = new.catalog().get("r").unwrap();
        assert!(!std::ptr::eq(old, new));
        // …and a fresh pin sees the new one.
        assert_eq!(new.len(), 1);
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let shared = SharedCatalog::new(Catalog::new());
        let err = shared.update(|c| {
            c.register("ghost", rel(0.5));
            Err::<(), _>(QueryError::Execution {
                message: "boom".into(),
            })
        });
        assert!(err.is_err());
        assert_eq!(shared.generation(), 0);
        assert!(shared.pin().catalog().get("ghost").is_none());
    }

    #[test]
    fn updates_serialize_and_bump_generations() {
        let shared = Arc::new(SharedCatalog::new(Catalog::new()));
        std::thread::scope(|s| {
            for i in 0..8 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    shared
                        .update(|c| {
                            c.register(format!("r{i}"), rel(0.5));
                            Ok(())
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(shared.generation(), 8);
        assert_eq!(shared.pin().catalog().len(), 8);
    }

    #[test]
    fn stamped_publish_carries_explicit_generations() {
        let shared = SharedCatalog::new(Catalog::new());
        shared
            .update_stamped(7, |c| {
                c.register("r", rel(0.5));
                Ok(())
            })
            .unwrap();
        assert_eq!(shared.generation(), 7);
        // Generations may skip but never stall or regress.
        for stale in [0, 3, 7] {
            let err = shared.update_stamped(stale, |_| Ok(()));
            assert!(err.is_err(), "stamped {stale} after 7 must fail");
            assert_eq!(shared.generation(), 7);
        }
        shared.update_stamped(9, |_| Ok(())).unwrap();
        assert_eq!(shared.generation(), 9);
        // A failed mutation publishes nothing, as with `update`.
        let err = shared.update_stamped(12, |c| {
            c.register("ghost", rel(0.5));
            Err::<(), _>(QueryError::Execution {
                message: "boom".into(),
            })
        });
        assert!(err.is_err());
        assert_eq!(shared.generation(), 9);
        assert!(shared.pin().catalog().get("ghost").is_none());
    }

    #[test]
    fn wait_newer_wakes_on_publish_and_times_out_without_one() {
        use std::time::Duration;
        let shared = Arc::new(SharedCatalog::new(Catalog::new()));
        // No publish: times out empty-handed.
        assert!(shared.wait_newer(0, Duration::from_millis(20)).is_none());
        // Already-newer generation: returns immediately.
        shared.update(|_| Ok(())).unwrap();
        let snap = shared.wait_newer(0, Duration::from_secs(5)).unwrap();
        assert_eq!(snap.generation(), 1);
        // A publish from another thread wakes a parked waiter.
        std::thread::scope(|s| {
            let waiter = {
                let shared = Arc::clone(&shared);
                s.spawn(move || shared.wait_newer(1, Duration::from_secs(30)))
            };
            std::thread::sleep(Duration::from_millis(30));
            shared.update(|_| Ok(())).unwrap();
            let snap = waiter.join().unwrap().expect("waiter sees the publish");
            assert_eq!(snap.generation(), 2);
        });
    }

    #[test]
    fn each_writer_learns_its_own_published_generation() {
        let shared = Arc::new(SharedCatalog::new(Catalog::new()));
        let published = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for i in 0..8 {
                let shared = Arc::clone(&shared);
                let published = &published;
                s.spawn(move || {
                    let ((), generation) = shared
                        .update_at(|c, _| {
                            c.register(format!("r{i}"), rel(0.5));
                            Ok(())
                        })
                        .unwrap();
                    published.lock().unwrap().push(generation);
                });
            }
        });
        // Every writer saw a distinct generation — exactly 1..=8, not
        // whatever the counter happened to read after later bumps.
        let mut published = published.into_inner().unwrap();
        published.sort_unstable();
        assert_eq!(published, (1..=8).collect::<Vec<u64>>());
    }
}
