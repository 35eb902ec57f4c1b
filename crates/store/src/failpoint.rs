//! Crash injection for the durability layer: [`FailpointFs`], a
//! test-support write layer that simulates the process dying partway
//! through a durable write sequence.
//!
//! Every write the durability subsystem performs — segment pages,
//! journal records, manifest swaps, fsyncs, renames — routes through
//! the `fp_*` helpers in this module. When no failpoint is armed they
//! are plain `std::fs` calls (one thread-local read of overhead).
//! When a test arms one, the helpers charge each operation against a
//! **cost budget** (writes cost their byte length; fsync, rename,
//! create, and truncate cost one unit each) and, once the budget is
//! exhausted, the in-flight write lands only its affordable *prefix*
//! (a genuinely torn write on disk) and every subsequent operation
//! fails — exactly what a `kill -9` mid-sequence leaves behind.
//! Sweeping the budget over `0..=total` therefore visits every
//! interleaving: before, inside, and after each write, fsync, and
//! rename of the sequence.
//!
//! One plan is not a crash: [`FailpointFs::fail_fsync`] fails a single
//! fsync and lets the process live, for the paths that must clean up
//! after an error they survive (a journal append's rollback).
//!
//! State is **thread-local**: the arming test kills only its own
//! writes, so unrelated tests (and their spill segments) in the same
//! process are untouched, and no cross-test locking is needed.
//!
//! The one process-wide number here is [`fsyncs_total`]: every file or
//! directory fsync the helpers issue, armed or not — the
//! `evirel_store_fsyncs_total` series. It counts every thread of the
//! process, so exact per-operation counts are read from an armed
//! [`FailpointFs::fsyncs`] instead.
//!
//! ```
//! use evirel_store::failpoint::FailpointFs;
//!
//! // Pass 1: count the cost of the sequence under test.
//! let observe = FailpointFs::observe();
//! // ... run the durable write sequence ...
//! let total = observe.units();
//! drop(observe);
//! // Pass 2: kill at every point.
//! for kill_at in 0..=total {
//!     let _fp = FailpointFs::kill_after(kill_at);
//!     // ... rerun; expect an error partway; recovery must succeed ...
//! }
//! ```

use std::cell::RefCell;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// See [`fsyncs_total`].
static FSYNCS: AtomicU64 = AtomicU64::new(0);

/// File and directory fsyncs the durability layer has issued in this
/// process, on every thread (`evirel_store_fsyncs_total`).
pub fn fsyncs_total() -> u64 {
    FSYNCS.load(Ordering::Relaxed)
}

#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Count costs without ever failing.
    Observe,
    /// Fail once cumulative cost exceeds the budget (torn prefix
    /// written for the unaffordable write).
    KillAfter(u64),
    /// Fail the k-th fsync call (1-based) and everything after it.
    KillAtFsync(u64),
    /// Fail the k-th fsync call (1-based) and nothing else: a
    /// transient device error in a process that lives on.
    FailFsync(u64),
}

#[derive(Debug)]
struct State {
    plan: Plan,
    units: u64,
    fsyncs: u64,
    dead: bool,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// The simulated-crash error every failed operation surfaces.
fn killed() -> io::Error {
    io::Error::other("failpoint: simulated crash (process killed mid-write)")
}

/// Handle to the thread-local failpoint; see the module docs. Not
/// meant for production code paths — tests arm it, durable writers
/// only ever *consult* it through the crate-internal helpers.
pub struct FailpointFs {
    _private: (),
}

impl FailpointFs {
    fn arm(plan: Plan) -> FailpointFs {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            assert!(s.is_none(), "a failpoint is already armed on this thread");
            *s = Some(State {
                plan,
                units: 0,
                fsyncs: 0,
                dead: false,
            });
        });
        FailpointFs { _private: () }
    }

    /// Arm in counting mode: nothing fails, but every durable
    /// operation's cost is tallied (read it with
    /// [`FailpointFs::units`] / [`FailpointFs::fsyncs`]).
    pub fn observe() -> FailpointFs {
        FailpointFs::arm(Plan::Observe)
    }

    /// Arm a kill after `budget` cost units: writes past the budget
    /// land only their affordable prefix, then every operation fails.
    pub fn kill_after(budget: u64) -> FailpointFs {
        FailpointFs::arm(Plan::KillAfter(budget))
    }

    /// Arm a kill at the `k`-th fsync call (1-based): that fsync and
    /// everything after it fail; the bytes written before it stay.
    pub fn kill_at_fsync(k: u64) -> FailpointFs {
        FailpointFs::arm(Plan::KillAtFsync(k.max(1)))
    }

    /// Arm a transient failure of the `k`-th fsync call (1-based):
    /// only that call fails; every operation before and after it
    /// proceeds, so the code under test keeps running on the same
    /// file — what a crash plan cannot show.
    pub fn fail_fsync(k: u64) -> FailpointFs {
        FailpointFs::arm(Plan::FailFsync(k.max(1)))
    }

    /// Cost units charged so far on this thread.
    pub fn units(&self) -> u64 {
        STATE.with(|s| s.borrow().as_ref().map_or(0, |s| s.units))
    }

    /// Fsync calls observed so far on this thread.
    pub fn fsyncs(&self) -> u64 {
        STATE.with(|s| s.borrow().as_ref().map_or(0, |s| s.fsyncs))
    }

    /// `true` once the armed kill has fired.
    pub fn fired(&self) -> bool {
        STATE.with(|s| s.borrow().as_ref().is_some_and(|s| s.dead))
    }
}

impl Drop for FailpointFs {
    fn drop(&mut self) {
        STATE.with(|s| s.borrow_mut().take());
    }
}

/// How many bytes of an `n`-byte write may proceed, charging the
/// cost. `None` = unlimited (disarmed). Flips the state to dead when
/// the write cannot complete.
fn charge_write(n: u64) -> Option<u64> {
    STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(state) = borrow.as_mut() else {
            return None; // disarmed: unlimited
        };
        if state.dead {
            return Some(0);
        }
        match state.plan {
            Plan::Observe | Plan::KillAtFsync(_) | Plan::FailFsync(_) => {
                state.units += n;
                None
            }
            Plan::KillAfter(budget) => {
                let allowed = budget.saturating_sub(state.units).min(n);
                state.units += n;
                if allowed < n {
                    state.dead = true;
                }
                if allowed == n {
                    None
                } else {
                    Some(allowed)
                }
            }
        }
    })
}

/// Charge a unit-cost operation (fsync/rename/create/truncate);
/// `Err` once dead or when this op exhausts the budget.
fn charge_unit(is_fsync: bool) -> io::Result<()> {
    STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(state) = borrow.as_mut() else {
            return Ok(());
        };
        if state.dead {
            return Err(killed());
        }
        if is_fsync {
            state.fsyncs += 1;
        }
        match state.plan {
            Plan::Observe => {
                state.units += 1;
                Ok(())
            }
            Plan::KillAfter(budget) => {
                if state.units >= budget {
                    state.dead = true;
                    return Err(killed());
                }
                state.units += 1;
                Ok(())
            }
            Plan::KillAtFsync(k) => {
                if is_fsync && state.fsyncs >= k {
                    state.dead = true;
                    return Err(killed());
                }
                Ok(())
            }
            Plan::FailFsync(k) => {
                if is_fsync && state.fsyncs == k {
                    return Err(io::Error::other(
                        "failpoint: simulated transient fsync failure",
                    ));
                }
                Ok(())
            }
        }
    })
}

/// Failpoint-aware `write_all`: on a budget kill, the affordable
/// prefix really lands in the file (a torn write) before the error.
pub(crate) fn fp_write_all(file: &mut File, buf: &[u8]) -> io::Result<()> {
    use std::io::Write;
    match charge_write(buf.len() as u64) {
        None => file.write_all(buf),
        Some(allowed) => {
            file.write_all(&buf[..allowed as usize])?;
            let _ = file.flush();
            Err(killed())
        }
    }
}

/// Failpoint-aware `sync_all`.
pub(crate) fn fp_sync(file: &File) -> io::Result<()> {
    charge_unit(true)?;
    FSYNCS.fetch_add(1, Ordering::Relaxed);
    file.sync_all()
}

/// Failpoint-aware `File::create`.
pub(crate) fn fp_create(path: &Path) -> io::Result<File> {
    charge_unit(false)?;
    File::create(path)
}

/// Failpoint-aware open-for-append (replication chunk staging).
pub(crate) fn fp_open_append(path: &Path) -> io::Result<File> {
    charge_unit(false)?;
    std::fs::OpenOptions::new().append(true).open(path)
}

/// Failpoint-aware `fs::rename`.
pub(crate) fn fp_rename(from: &Path, to: &Path) -> io::Result<()> {
    charge_unit(false)?;
    std::fs::rename(from, to)
}

/// Failpoint-aware `File::set_len` (journal truncation).
pub(crate) fn fp_set_len(file: &File, len: u64) -> io::Result<()> {
    charge_unit(false)?;
    file.set_len(len)
}

/// Fsync the directory containing `path`, so a just-renamed file's
/// directory entry is durable. Failpoint-aware; a filesystem that
/// cannot sync directories (the open itself failing) is tolerated —
/// the rename is already atomic, the dir sync only narrows the
/// post-crash window.
pub(crate) fn fp_sync_parent_dir(path: &Path) -> io::Result<()> {
    charge_unit(true)?;
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    match File::open(parent) {
        Ok(dir) => {
            FSYNCS.fetch_add(1, Ordering::Relaxed);
            dir.sync_all()
        }
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use std::io::Read;

    #[test]
    fn disarmed_helpers_are_plain_io() {
        let dir = TestDir::new("fp");
        let path = dir.join("plain.bin");
        let mut f = fp_create(&path).unwrap();
        fp_write_all(&mut f, b"hello").unwrap();
        fp_sync(&f).unwrap();
        let renamed = dir.join("plain2.bin");
        fp_rename(&path, &renamed).unwrap();
        let mut back = String::new();
        File::open(&renamed)
            .unwrap()
            .read_to_string(&mut back)
            .unwrap();
        assert_eq!(back, "hello");
    }

    #[test]
    fn observe_counts_costs() {
        let dir = TestDir::new("fp");
        let path = dir.join("count.bin");
        let fp = FailpointFs::observe();
        let mut f = fp_create(&path).unwrap();
        fp_write_all(&mut f, b"0123456789").unwrap();
        fp_sync(&f).unwrap();
        // create(1) + write(10) + fsync(1)
        assert_eq!(fp.units(), 12);
        assert_eq!(fp.fsyncs(), 1);
        assert!(!fp.fired());
        drop(fp);
    }

    #[test]
    fn budget_kill_tears_the_write_and_stays_dead() {
        let dir = TestDir::new("fp");
        let path = dir.join("torn.bin");
        {
            let fp = FailpointFs::kill_after(1 + 4); // create + 4 bytes
            let mut f = fp_create(&path).unwrap();
            let err = fp_write_all(&mut f, b"0123456789").unwrap_err();
            assert!(err.to_string().contains("failpoint"));
            assert!(fp.fired());
            // Everything after the kill fails too.
            assert!(fp_sync(&f).is_err());
            assert!(fp_write_all(&mut f, b"more").is_err());
            assert!(fp_rename(&path, &dir.join("never.bin")).is_err());
        }
        // Exactly the affordable prefix landed — a torn write.
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
    }

    #[test]
    fn fsync_boundary_kill() {
        let dir = TestDir::new("fp");
        let path = dir.join("fsync.bin");
        let fp = FailpointFs::kill_at_fsync(2);
        let mut f = fp_create(&path).unwrap();
        fp_write_all(&mut f, b"aa").unwrap();
        fp_sync(&f).unwrap(); // fsync #1 succeeds
        fp_write_all(&mut f, b"bb").unwrap();
        assert!(fp_sync(&f).is_err()); // fsync #2 is the kill
        assert!(fp_write_all(&mut f, b"cc").is_err());
        drop(fp);
        // Bytes written before the failing fsync are on disk (the OS
        // may or may not have persisted them across a real crash —
        // recovery must tolerate both, which the sweep tests assert).
        assert_eq!(std::fs::read(&path).unwrap(), b"aabb");
    }

    #[test]
    fn zero_budget_fails_everything_from_the_start() {
        let dir = TestDir::new("fp");
        let _fp = FailpointFs::kill_after(0);
        assert!(fp_create(&dir.join("zero.bin")).is_err());
    }
}
