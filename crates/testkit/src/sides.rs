//! The side matrix: how a binary operator's two inputs are bound — in
//! memory, either or both stored, or in memory with the build side
//! forced to a temp segment.

use evirel_plan::{Bindings, BufferPool, StoredRelation};
use evirel_relation::ExtendedRelation;
use std::sync::Arc;

/// The page size stored inputs are written with: small, so a relation
/// of a hundred tuples spans dozens of pages and a pool of a few pages
/// evicts.
pub const PAGE: usize = 512;

/// Write `rel` to a temp segment of [`PAGE`]-byte pages and open it
/// against `pool`. The file is unlinked once open.
pub fn store(rel: &ExtendedRelation, pool: &Arc<BufferPool>) -> Arc<StoredRelation> {
    let path = evirel_store::spill_path("equiv");
    evirel_store::write_segment(rel, &path, PAGE).expect("segment writes");
    let stored = StoredRelation::open(&path, Arc::clone(pool)).expect("segment opens");
    std::fs::remove_file(&path).ok();
    Arc::new(stored)
}

/// How the two sides `sa` and `sb` of a binary operator are bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sides {
    Memory,
    StoredLeft,
    StoredRight,
    StoredBoth,
    /// In memory, the build side forced to a temp segment (the caller
    /// sets `spill_threshold_bytes` to 0).
    Spilled,
}

impl Sides {
    /// All five, [`Sides::Spilled`] — the one a binding alone cannot
    /// make — last.
    pub const ALL: [Sides; 5] = [
        Sides::Memory,
        Sides::StoredLeft,
        Sides::StoredRight,
        Sides::StoredBoth,
        Sides::Spilled,
    ];

    pub fn stored_left(self) -> bool {
        matches!(self, Sides::StoredLeft | Sides::StoredBoth)
    }

    pub fn stored_right(self) -> bool {
        matches!(self, Sides::StoredRight | Sides::StoredBoth)
    }

    /// `ga` as `sa` and `gb` as `sb`, each [`store`]d against `pool`
    /// where these sides say so.
    pub fn bind(
        self,
        ga: &ExtendedRelation,
        gb: &ExtendedRelation,
        pool: &Arc<BufferPool>,
    ) -> Bindings {
        let mut b = Bindings::new();
        for (name, rel, stored) in [
            ("sa", ga, self.stored_left()),
            ("sb", gb, self.stored_right()),
        ] {
            match stored {
                true => b.bind_stored(name, store(rel, pool)),
                false => b.bind(name, rel.clone()),
            };
        }
        b
    }
}
