//! Hash partitioning of tuples by key — the slot-assignment scheme
//! of the parallel executor.
//!
//! `evirel-plan`'s exchange operator (and `evirel-integrate`'s merge
//! stage on top of it) splits work by routing every tuple to one of
//! `shards` slots based on its key hash. The raw [`DefaultHasher`] output is
//! fine as a 64-bit hash but its low bits are not uniform enough to
//! feed a bare `% shards` — with few shards and structured keys
//! (`"key-0"`, `"key-1"`, …) the modulo can leave whole workers idle.
//! [`Partitioner`] therefore finalizes the hash with a multiply-shift
//! mix (the 64-bit finalizer of MurmurHash3/SplitMix64) and selects
//! the slot by multiply-high range reduction, which uses the *high*
//! bits of the mixed hash and needs no division.

use evirel_relation::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Assigns tuple keys to one of `shards` slots, deterministically.
///
/// The assignment is a pure function of the key, so every scan of the
/// same relation — on any thread, in any run — routes a tuple to the
/// same shard, which is what makes hash-partitioned execution
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    shards: usize,
}

impl Partitioner {
    /// A partitioner over `shards` slots (at least 1).
    pub fn new(shards: usize) -> Partitioner {
        Partitioner {
            shards: shards.max(1),
        }
    }

    /// Number of slots.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The slot for a tuple key.
    pub fn slot_for_key(&self, key: &[Value]) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.slot_for_hash(h.finish())
    }

    /// The slot for a precomputed 64-bit key hash.
    pub fn slot_for_hash(&self, hash: u64) -> usize {
        let mixed = mix64(hash);
        // Multiply-high range reduction: maps the mixed hash onto
        // [0, shards) using its high bits, without `%`.
        ((u128::from(mixed) * self.shards as u128) >> 64) as usize
    }
}

/// The MurmurHash3 64-bit finalizer: a multiply-shift (xor-shift ×
/// odd-constant) avalanche so every input bit diffuses into every
/// output bit.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_deterministic_and_in_range() {
        let p = Partitioner::new(4);
        for i in 0..1000 {
            let key = vec![Value::str(format!("key-{i}"))];
            let slot = p.slot_for_key(&key);
            assert!(slot < 4);
            assert_eq!(slot, p.slot_for_key(&key));
        }
    }

    #[test]
    fn structured_keys_spread_over_all_slots() {
        // The regression the mix exists for: sequential string keys
        // must not collapse onto a subset of slots.
        for shards in [2usize, 3, 4, 8] {
            let p = Partitioner::new(shards);
            let mut counts = vec![0usize; shards];
            for i in 0..4096 {
                counts[p.slot_for_key(&[Value::str(format!("key-{i}"))])] += 1;
            }
            let expected = 4096 / shards;
            for (slot, &n) in counts.iter().enumerate() {
                assert!(
                    n > expected / 2 && n < expected * 2,
                    "slot {slot}/{shards} got {n} of 4096 (expected ≈{expected})"
                );
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let p = Partitioner::new(0);
        assert_eq!(p.shards(), 1);
        assert_eq!(p.slot_for_key(&[Value::int(7)]), 0);
    }
}
