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
//!   read guard that no writer ever holds for longer than a pointer
//!   store — and execute entirely against it; nothing a concurrent
//!   writer does can change what they see, and nothing a writer does
//!   (a segment write, a journal fsync) makes a reader wait.
//! * **Writers publish** ([`SharedCatalog::update`]): take the writer
//!   mutex, clone the current catalog (cheap — maps of `Arc` handles),
//!   apply the mutation to the clone, bump the generation counter, and
//!   swap the new snapshot in atomically. A failed mutation publishes
//!   nothing.
//! * **Retirement is automatic**: the old generation's `Arc` drops
//!   when the last pinned reader finishes — no epoch bookkeeping
//!   thread, no grace periods.
//!
//! The generation number orders publishes; it does *not* decide
//! whether a prepared plan may be replayed — that is the bindings the
//! plan scans ([`crate::prepare::PlanCache`]), so a publish that
//! rebinds `m3` leaves the cached plans over `ra` valid.

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
    /// The published snapshot. Read-locked for one `Arc` clone
    /// ([`SharedCatalog::pin`]), write-locked for one `Arc` store
    /// (`swap`) — never across anything that can block.
    current: RwLock<Arc<CatalogSnapshot>>,
    /// Serializes writers: held from reading the generation a publish
    /// builds on until its snapshot is swapped in, across the mutation
    /// closure. Readers never touch it. It guards no data — a closure
    /// that panics has published nothing — so a poisoned lock is
    /// simply taken over.
    writer: Mutex<()>,
    /// Publish signal: paired with `publish_cv` so subscribers
    /// ([`SharedCatalog::wait_newer`]) block instead of spinning.
    /// Publishers release the writer mutex *before* taking this one
    /// (lock order: never both), then notify.
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
            writer: Mutex::new(()),
            publish_lock: Mutex::new(()),
            publish_cv: Condvar::new(),
        }
    }

    /// Pin the current snapshot: the returned handle keeps every
    /// binding of this generation alive and unchanged for as long as
    /// it is held, no matter what writers publish meanwhile. Waits on
    /// nothing longer than another thread's pointer store.
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
    /// concurrent readers keep pinning the old generation — without
    /// waiting — until the swap, and an `Err` from the closure
    /// publishes **nothing** — there is no observable half-applied
    /// state, ever. Writers serialize against each other (the closure
    /// runs under the writer mutex), so read-modify-write sequences
    /// like "execute this merge query, then register the result" are
    /// atomic when expressed as one `update` call. The closure may
    /// read through the `SharedCatalog` ([`SharedCatalog::pin`]); it
    /// must not publish through it (the writer mutex is not
    /// reentrant).
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
    /// generation and fsyncs it *before* returning. The closure runs
    /// under the writer mutex only — no guard on the published
    /// snapshot — so pins proceed at full speed while it writes and
    /// fsyncs; the ordering rules hold all the same:
    ///
    /// * **fsync before publish.** The swap happens after the closure
    ///   has returned, so the record is durable before any reader can
    ///   pin the new generation; until then every pin returns the old
    ///   one. No reader observes a generation a crash could lose.
    /// * **Total order.** The writer mutex is held from reading the
    ///   current generation to the swap, so writers — hence journal
    ///   appends — are totally ordered with strictly increasing
    ///   generations, and no publish is built on a stale clone.
    /// * **All or nothing.** An `Err` from the closure returns before
    ///   the swap: nothing is published, exactly as in `update`.
    ///
    /// Lock order, outermost first: whatever guards the caller's
    /// durable state (in `evirel-serve`, the durable mutex), the
    /// writer mutex, the swap's write guard; subscribers are notified
    /// after all three are released.
    ///
    /// # Errors
    /// Whatever the closure returns; the catalog is unchanged then.
    pub fn update_at<T>(
        &self,
        mutate: impl FnOnce(&mut Catalog, u64) -> Result<T, QueryError>,
    ) -> Result<(T, u64), QueryError> {
        self.publish(|current| Ok(current + 1), mutate)
    }

    /// Publish a mutation at an **explicit** generation instead of
    /// `current + 1`. This is the replication-apply hook
    /// ([`crate::DurableCatalog::apply_record`]): a follower replays
    /// the primary's journal records and must publish each one at the
    /// generation the *primary* stamped it with, so pinned
    /// snapshots on the standby carry the same generation numbers as
    /// on the primary and STATS lines up across failover. Generations
    /// may skip (the primary's counter also advances on mutations that
    /// never reach this follower's catalog, e.g. drops of unknown
    /// names) but must strictly increase. Locking is
    /// [`SharedCatalog::update_at`]'s: the closure (a segment open)
    /// runs under the writer mutex, readers keep pinning meanwhile.
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
        let stamp = |current| {
            if generation > current {
                return Ok(generation);
            }
            Err(QueryError::Execution {
                message: format!(
                    "stamped publish must advance the generation \
                     (current {current}, stamped {generation})"
                ),
            })
        };
        self.publish(stamp, |catalog, _| mutate(catalog))
            .map(|(value, _)| value)
    }

    /// The one publish protocol behind `update`/`update_at`/
    /// `update_stamped`: become the writer, pick the generation
    /// (`stamp` maps the current one to the next, or refuses), mutate
    /// a private clone with no guard on `current`, swap, notify.
    fn publish<T>(
        &self,
        stamp: impl FnOnce(u64) -> Result<u64, QueryError>,
        mutate: impl FnOnce(&mut Catalog, u64) -> Result<T, QueryError>,
    ) -> Result<(T, u64), QueryError> {
        let published = {
            let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            // Only the writer swaps, so this pin is still current at
            // the swap below.
            let base = self.pin();
            let generation = stamp(base.generation)?;
            let mut next = base.catalog.clone();
            let value = mutate(&mut next, generation)?;
            self.swap(CatalogSnapshot {
                generation,
                catalog: next,
            });
            (value, generation)
        };
        self.notify_publish();
        Ok(published)
    }

    /// Store `next` as the published snapshot — the only place the
    /// write guard on `current` is taken, and all it covers: the
    /// allocation happens before it, and the retired snapshot (whose
    /// last reference this may be) drops after it.
    fn swap(&self, next: CatalogSnapshot) {
        let next = Arc::new(next);
        let retired = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(|e| e.into_inner()),
            next,
        );
        drop(retired);
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

    fn config() -> evirel_plan::Config {
        evirel_plan::Config::from_env()
    }

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
            let mut c = Catalog::with_config(&config());
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
        let shared = SharedCatalog::new(Catalog::with_config(&config()));
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
        let shared = Arc::new(SharedCatalog::new(Catalog::with_config(&config())));
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
        let shared = SharedCatalog::new(Catalog::with_config(&config()));
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
        let shared = Arc::new(SharedCatalog::new(Catalog::with_config(&config())));
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
        let shared = Arc::new(SharedCatalog::new(Catalog::with_config(&config())));
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

    /// Park a writer *inside* its publish closure (`write` runs one
    /// publish whose closure calls the `park` it is handed) and check
    /// the short publish lock from outside: a pin on another thread
    /// still answers — with the old generation — a second writer does
    /// not start, and once the first is released its generation
    /// (`published`) appears and the second publishes right after it.
    fn readers_run_and_writers_queue_behind_a_parked_writer(
        write: impl Fn(&SharedCatalog, &dyn Fn()) + Send,
        published: u64,
    ) {
        use std::sync::mpsc::channel;
        let patience = Duration::from_secs(20);
        let shared = &SharedCatalog::new(Catalog::with_config(&config()));
        let (parked_tx, parked_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (pinned_tx, pinned_rx) = channel();
        let (second_tx, second_rx) = channel();
        std::thread::scope(|s| {
            // Owned by this block, so a failed assertion below drops
            // it and the parked writer wakes instead of hanging the
            // scope's join.
            let release_tx = release_tx;
            s.spawn(move || {
                write(shared, &|| {
                    parked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            });
            parked_rx.recv().expect("the writer entered its closure");

            s.spawn(move || pinned_tx.send(shared.pin().generation()).unwrap());
            let pinned = pinned_rx
                .recv_timeout(patience)
                .expect("pin() waited for a writer that is inside its closure");
            assert_eq!(pinned, 0, "nothing is published before the closure returns");

            s.spawn(move || {
                let base = shared.update_at(|_, generation| {
                    second_tx.send(generation).unwrap();
                    Ok(shared.pin().generation())
                });
                // It was built on the first writer's snapshot.
                assert_eq!(base.unwrap(), (published, published + 1));
            });
            assert!(
                second_rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "a second writer started beside the first"
            );

            release_tx.send(()).unwrap();
            let second = second_rx
                .recv_timeout(patience)
                .expect("the second writer runs once the first has published");
            assert_eq!(second, published + 1);
        });
        assert_eq!(shared.generation(), published + 1);
    }

    #[test]
    fn update_at_holds_no_guard_on_the_snapshot_across_its_closure() {
        readers_run_and_writers_queue_behind_a_parked_writer(
            |shared, park| {
                let ((), generation) = shared
                    .update_at(|_, _| {
                        park();
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(generation, 1);
            },
            1,
        );
    }

    #[test]
    fn update_stamped_holds_no_guard_on_the_snapshot_across_its_closure() {
        readers_run_and_writers_queue_behind_a_parked_writer(
            |shared, park| {
                shared
                    .update_stamped(5, |_| {
                        park();
                        Ok(())
                    })
                    .unwrap();
            },
            5,
        );
    }

    /// A publish closure may read through the `SharedCatalog` it is
    /// publishing to: it sees the generation it builds on.
    #[test]
    fn a_publish_closure_may_pin() {
        let shared = Arc::new(SharedCatalog::new(Catalog::with_config(&config())));
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let seen = shared.update_at(|_, _| Ok(shared.pin().generation()));
                tx.send(seen.unwrap()).unwrap();
            })
        };
        let seen = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("pin() inside a publish closure deadlocked");
        assert_eq!(seen, (0, 1));
        writer.join().unwrap();
    }
}
