//! Canonical bitset subsets of a frame of discernment.
//!
//! This is the §2 substrate every hot path sits on: Dempster's rule
//! intersects focal-element pairs, Bel/Pls/Q scan focal lists with
//! subset tests, and the extended union does both per merged tuple.
//! [`FocalSet`] therefore has two representations behind one canonical
//! value type:
//!
//! * an **inline `u128`** for sets whose members all lie below bit
//!   128 — every realistic attribute domain in the paper's workload
//!   (ratings, specialities, dishes) fits here, and all set algebra is
//!   branch-free word arithmetic with **zero heap allocation**;
//! * **boxed words** (`Box<[u64]>`) for frames wider than 128 values,
//!   kept trimmed so equality and hashing stay canonical.
//!
//! The representation is an internal detail: two sets with the same
//! members always compare equal, hash identically, and sort the same
//! way regardless of how they were built. [`FocalSet::as_bits`]
//! exposes the inline bits so the combination engine can memoize
//! intersections keyed by `(lhs_bits, rhs_bits)`.

use std::cmp::Ordering;
use std::fmt;

const WORD_BITS: usize = 64;
/// Largest element index (exclusive) representable inline.
const SMALL_BITS: usize = 128;

/// Internal representation. Canonical invariant: a set whose members
/// all lie below [`SMALL_BITS`] is always `Small`; `Big` word slices
/// are trimmed (no trailing zero words) and have more than two words,
/// i.e. at least one member ≥ 128. Unique representation per set value
/// makes the derived `PartialEq`/`Hash` canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(u128),
    Big(Box<[u64]>),
}

/// A subset of a frame of discernment, stored as a canonical bitset.
///
/// Sets over frames of up to 128 values (the overwhelmingly common
/// case) are a single inline `u128` — construction and set algebra
/// never touch the heap. Wider frames fall back to a boxed word
/// vector with trailing zero words trimmed, so two sets with the same
/// members always compare equal and hash identically regardless of
/// the frame size they were built against. The empty set is inline
/// zero.
///
/// Focal sets are immutable values; build them with
/// [`FocalSet::from_indices`], [`FocalSet::singleton`],
/// [`FocalSet::full`], or by set algebra on existing sets.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FocalSet {
    repr: Repr,
}

impl FocalSet {
    /// The empty set ∅.
    pub fn empty() -> FocalSet {
        FocalSet {
            repr: Repr::Small(0),
        }
    }

    fn small(bits: u128) -> FocalSet {
        FocalSet {
            repr: Repr::Small(bits),
        }
    }

    /// Canonicalize a word vector: trim trailing zeros, and collapse
    /// into the inline representation when every member fits.
    fn from_words(mut words: Vec<u64>) -> FocalSet {
        while words.last() == Some(&0) {
            words.pop();
        }
        if words.len() <= 2 {
            let lo = words.first().copied().unwrap_or(0) as u128;
            let hi = words.get(1).copied().unwrap_or(0) as u128;
            return FocalSet::small(lo | (hi << WORD_BITS));
        }
        FocalSet {
            repr: Repr::Big(words.into_boxed_slice()),
        }
    }

    /// The singleton `{i}`.
    pub fn singleton(i: usize) -> FocalSet {
        if i < SMALL_BITS {
            return FocalSet::small(1u128 << i);
        }
        let mut words = vec![0u64; i / WORD_BITS + 1];
        words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
        FocalSet::from_words(words)
    }

    /// The full set `{0, 1, …, n-1}`.
    pub fn full(n: usize) -> FocalSet {
        if n == 0 {
            return FocalSet::empty();
        }
        if n <= SMALL_BITS {
            let bits = if n == SMALL_BITS {
                u128::MAX
            } else {
                (1u128 << n) - 1
            };
            return FocalSet::small(bits);
        }
        let n_words = n.div_ceil(WORD_BITS);
        let mut words = vec![u64::MAX; n_words];
        let rem = n % WORD_BITS;
        if rem != 0 {
            words[n_words - 1] = (1u64 << rem) - 1;
        }
        FocalSet::from_words(words)
    }

    /// Build from element indices (duplicates are fine).
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> FocalSet {
        let mut small: u128 = 0;
        let mut big: Option<Vec<u64>> = None;
        for i in indices {
            match &mut big {
                None if i < SMALL_BITS => small |= 1u128 << i,
                None => {
                    let mut words = vec![0u64; i / WORD_BITS + 1];
                    words[0] = small as u64;
                    words[1] = (small >> WORD_BITS) as u64;
                    words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
                    big = Some(words);
                }
                Some(words) => {
                    let w = i / WORD_BITS;
                    if w >= words.len() {
                        words.resize(w + 1, 0);
                    }
                    words[w] |= 1 << (i % WORD_BITS);
                }
            }
        }
        match big {
            Some(words) => FocalSet::from_words(words),
            None => FocalSet::small(small),
        }
    }

    /// The inline bit pattern, when every member lies below 128.
    ///
    /// This is the memoization key the combination engine uses: for
    /// inline sets, an intersection is a single `&` of the two
    /// returned values. Returns `None` for boxed (>128-element-frame)
    /// sets.
    pub fn as_bits(&self) -> Option<u128> {
        match self.repr {
            Repr::Small(bits) => Some(bits),
            Repr::Big(_) => None,
        }
    }

    /// Rebuild a set from an inline bit pattern — the inverse of
    /// [`FocalSet::as_bits`]. Allocation-free; the combination engine
    /// uses this to materialize each *distinct* intersection result
    /// exactly once instead of once per focal pair.
    pub fn from_bits(bits: u128) -> FocalSet {
        FocalSet::small(bits)
    }

    /// The element index, if this is a singleton `{i}`.
    pub fn as_singleton(&self) -> Option<usize> {
        match &self.repr {
            Repr::Small(bits) => (bits.count_ones() == 1).then(|| bits.trailing_zeros() as usize),
            Repr::Big(_) => (self.len() == 1).then(|| self.min_index().expect("len 1")),
        }
    }

    /// Number of elements (popcount).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small(bits) => bits.count_ones() as usize,
            Repr::Big(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// `true` for ∅.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Small(bits) => *bits == 0,
            // Canonical Big sets have a nonzero top word.
            Repr::Big(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        match &self.repr {
            Repr::Small(bits) => i < SMALL_BITS && bits & (1u128 << i) != 0,
            Repr::Big(words) => words
                .get(i / WORD_BITS)
                .is_some_and(|w| w & (1 << (i % WORD_BITS)) != 0),
        }
    }

    /// The low 128 bits of a boxed word slice.
    fn low_bits(words: &[u64]) -> u128 {
        let lo = words.first().copied().unwrap_or(0) as u128;
        let hi = words.get(1).copied().unwrap_or(0) as u128;
        lo | (hi << WORD_BITS)
    }

    /// `self ⊆ other`.
    pub fn is_subset_of(&self, other: &FocalSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a & !b == 0,
            (Repr::Small(a), Repr::Big(b)) => a & !FocalSet::low_bits(b) == 0,
            // A canonical Big set has a member ≥ 128 that no Small set
            // contains.
            (Repr::Big(_), Repr::Small(_)) => false,
            (Repr::Big(a), Repr::Big(b)) => {
                a.len() <= b.len() && a.iter().zip(b.iter()).all(|(x, y)| x & !y == 0)
            }
        }
    }

    /// `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &FocalSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a & b != 0,
            (Repr::Small(a), Repr::Big(b)) | (Repr::Big(b), Repr::Small(a)) => {
                a & FocalSet::low_bits(b) != 0
            }
            (Repr::Big(a), Repr::Big(b)) => a.iter().zip(b.iter()).any(|(x, y)| x & y != 0),
        }
    }

    /// `self ∩ other`. Allocation-free unless the result itself has a
    /// member ≥ 128: the trimmed result length is computed first, so
    /// intersections of wide sets that land below 128 bits (the common
    /// case — intersections shrink) collapse straight into the inline
    /// representation.
    pub fn intersect(&self, other: &FocalSet) -> FocalSet {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => FocalSet::small(a & b),
            (Repr::Small(a), Repr::Big(b)) | (Repr::Big(b), Repr::Small(a)) => {
                FocalSet::small(a & FocalSet::low_bits(b))
            }
            (Repr::Big(a), Repr::Big(b)) => {
                let n = a.len().min(b.len());
                // Trimmed result length: highest word with a nonzero AND.
                let mut top = n;
                while top > 0 && a[top - 1] & b[top - 1] == 0 {
                    top -= 1;
                }
                if top <= 2 {
                    let lo = if top > 0 { a[0] & b[0] } else { 0 } as u128;
                    let hi = if top > 1 { a[1] & b[1] } else { 0 } as u128;
                    FocalSet::small(lo | (hi << WORD_BITS))
                } else {
                    let words: Vec<u64> = a[..top]
                        .iter()
                        .zip(b[..top].iter())
                        .map(|(x, y)| x & y)
                        .collect();
                    FocalSet {
                        repr: Repr::Big(words.into_boxed_slice()),
                    }
                }
            }
        }
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &FocalSet) -> FocalSet {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => FocalSet::small(a | b),
            (Repr::Small(a), Repr::Big(b)) | (Repr::Big(b), Repr::Small(a)) => {
                let mut words = b.to_vec();
                words[0] |= *a as u64;
                words[1] |= (a >> WORD_BITS) as u64;
                // b is canonical Big (top word nonzero), so the union
                // stays Big and trimmed.
                FocalSet {
                    repr: Repr::Big(words.into_boxed_slice()),
                }
            }
            (Repr::Big(a), Repr::Big(b)) => {
                let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                let mut words = long.to_vec();
                for (w, s) in words.iter_mut().zip(short.iter()) {
                    *w |= s;
                }
                FocalSet {
                    repr: Repr::Big(words.into_boxed_slice()),
                }
            }
        }
    }

    /// `self \ other`.
    pub fn difference(&self, other: &FocalSet) -> FocalSet {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => FocalSet::small(a & !b),
            (Repr::Small(a), Repr::Big(b)) => FocalSet::small(a & !FocalSet::low_bits(b)),
            (Repr::Big(a), Repr::Small(b)) => {
                let mut words = a.to_vec();
                words[0] &= !(*b as u64);
                words[1] &= !((b >> WORD_BITS) as u64);
                // Top word untouched and nonzero: still canonical Big.
                FocalSet {
                    repr: Repr::Big(words.into_boxed_slice()),
                }
            }
            (Repr::Big(a), Repr::Big(b)) => {
                let mut words = a.to_vec();
                for (w, o) in words.iter_mut().zip(b.iter()) {
                    *w &= !o;
                }
                FocalSet::from_words(words)
            }
        }
    }

    /// Complement with respect to a frame of `n` elements: `Ω \ self`.
    pub fn complement(&self, n: usize) -> FocalSet {
        FocalSet::full(n).difference(self)
    }

    /// Word `wi` of the bit pattern (zero beyond the set's extent).
    fn word(&self, wi: usize) -> u64 {
        match &self.repr {
            Repr::Small(bits) => match wi {
                0 => *bits as u64,
                1 => (bits >> WORD_BITS) as u64,
                _ => 0,
            },
            Repr::Big(words) => words.get(wi).copied().unwrap_or(0),
        }
    }

    fn word_count(&self) -> usize {
        match &self.repr {
            Repr::Small(_) => 2,
            Repr::Big(words) => words.len(),
        }
    }

    /// Iterate over member indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.word_count()).flat_map(move |wi| {
            let mut bits = self.word(wi);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// Smallest member, if any.
    pub fn min_index(&self) -> Option<usize> {
        match &self.repr {
            Repr::Small(bits) => (*bits != 0).then(|| bits.trailing_zeros() as usize),
            Repr::Big(words) => words
                .iter()
                .position(|&w| w != 0)
                .map(|wi| wi * WORD_BITS + words[wi].trailing_zeros() as usize),
        }
    }

    /// Largest member, if any.
    pub fn max_index(&self) -> Option<usize> {
        match &self.repr {
            Repr::Small(bits) => {
                (*bits != 0).then(|| SMALL_BITS - 1 - bits.leading_zeros() as usize)
            }
            Repr::Big(words) => {
                // Canonical: the top word is nonzero.
                let wi = words.len() - 1;
                Some(wi * WORD_BITS + (WORD_BITS - 1 - words[wi].leading_zeros() as usize))
            }
        }
    }
}

impl PartialOrd for FocalSet {
    fn partial_cmp(&self, other: &FocalSet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FocalSet {
    /// Deterministic total order used for canonical display and sorted
    /// focal lists: first by cardinality, then lexicographically by
    /// member indices. Singletons therefore print before pairs before
    /// Ω, matching the layout of the paper's tables.
    fn cmp(&self, other: &FocalSet) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => canonical_cmp(*a, *b),
            _ => self
                .len()
                .cmp(&other.len())
                .then_with(|| self.iter().cmp(other.iter())),
        }
    }
}

/// [`FocalSet`]'s order on two inline bit patterns, in word arithmetic:
/// fewer members first; among as many, the set holding the lowest
/// member in which they differ — the first place their ascending member
/// lists part.
pub(crate) fn canonical_cmp(a: u128, b: u128) -> Ordering {
    let differ = a ^ b;
    let lowest = differ & differ.wrapping_neg();
    a.count_ones().cmp(&b.count_ones()).then(match differ {
        0 => Ordering::Equal,
        _ if lowest & a != 0 => Ordering::Less,
        _ => Ordering::Greater,
    })
}

impl fmt::Debug for FocalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[usize]) -> FocalSet {
        FocalSet::from_indices(v.iter().copied())
    }

    /// The inline order in word arithmetic is the member-list order:
    /// fewer members first, then ascending member lists compared
    /// lexicographically — over every subset of members straddling the
    /// word boundary, pair by pair.
    #[test]
    fn inline_order_is_the_member_list_order() {
        let members = [0, 1, 5, 63, 64, 100, 127];
        let subsets: Vec<Vec<usize>> = (0u32..1 << members.len())
            .map(|bits| {
                (0..members.len())
                    .filter(|i| bits >> i & 1 == 1)
                    .map(|i| members[i])
                    .collect()
            })
            .collect();
        for a in &subsets {
            for b in &subsets {
                let lists = a.len().cmp(&b.len()).then_with(|| a.cmp(b));
                assert_eq!(set(a).cmp(&set(b)), lists, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn construction() {
        assert!(FocalSet::empty().is_empty());
        assert_eq!(FocalSet::singleton(3).len(), 1);
        assert!(FocalSet::singleton(3).contains(3));
        assert_eq!(FocalSet::full(6).len(), 6);
        assert_eq!(FocalSet::full(64).len(), 64);
        assert_eq!(FocalSet::full(65).len(), 65);
        assert_eq!(FocalSet::full(128).len(), 128);
        assert_eq!(FocalSet::full(129).len(), 129);
        assert_eq!(set(&[1, 2, 1]).len(), 2);
        assert_eq!(FocalSet::singleton(200).len(), 1);
        assert!(FocalSet::singleton(200).contains(200));
    }

    #[test]
    fn small_representation_is_inline() {
        assert_eq!(set(&[0, 127]).as_bits(), Some(1 | (1u128 << 127)));
        assert_eq!(set(&[0, 128]).as_bits(), None);
        assert_eq!(FocalSet::empty().as_bits(), Some(0));
    }

    #[test]
    fn singleton_views() {
        assert_eq!(set(&[5]).as_singleton(), Some(5));
        assert_eq!(set(&[200]).as_singleton(), Some(200));
        assert_eq!(set(&[1, 2]).as_singleton(), None);
        assert_eq!(FocalSet::empty().as_singleton(), None);
    }

    #[test]
    fn canonical_form_is_frame_independent() {
        // {1} built directly vs. {1} arising from intersection with a
        // wide set must be identical.
        let a = FocalSet::singleton(1);
        let wide = set(&[1, 200]);
        let b = wide.intersect(&set(&[0, 1, 2]));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn canonical_collapse_across_the_128_boundary() {
        // Big ∩ Big landing below 128 bits collapses to inline.
        let a = set(&[5, 64, 300]);
        let b = set(&[5, 64, 301]);
        let i = a.intersect(&b);
        assert_eq!(i, set(&[5, 64]));
        assert!(i.as_bits().is_some());
        // Big \ Big likewise.
        let d = a.difference(&FocalSet::singleton(300));
        assert_eq!(d, set(&[5, 64]));
        assert!(d.as_bits().is_some());
    }

    #[test]
    fn set_algebra() {
        let a = set(&[0, 1, 2]);
        let b = set(&[2, 3]);
        assert_eq!(a.intersect(&b), set(&[2]));
        assert_eq!(a.union(&b), set(&[0, 1, 2, 3]));
        assert_eq!(a.difference(&b), set(&[0, 1]));
        assert!(a.intersects(&b));
        assert!(!set(&[0]).intersects(&set(&[1])));
        assert!(set(&[1]).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(FocalSet::empty().is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn mixed_representation_algebra() {
        let small = set(&[1, 100]);
        let big = set(&[1, 200]);
        assert_eq!(small.intersect(&big), set(&[1]));
        assert_eq!(big.intersect(&small), set(&[1]));
        assert_eq!(small.union(&big), set(&[1, 100, 200]));
        assert_eq!(big.union(&small), set(&[1, 100, 200]));
        assert_eq!(small.difference(&big), set(&[100]));
        assert_eq!(big.difference(&small), set(&[200]));
        assert!(small.intersects(&big) && big.intersects(&small));
        assert!(set(&[1]).is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(!small.is_subset_of(&big));
        assert!(big.is_subset_of(&set(&[1, 100, 200])));
        assert!(!set(&[150]).intersects(&set(&[1, 2])));
    }

    #[test]
    fn complement() {
        let a = set(&[0, 2]);
        assert_eq!(a.complement(4), set(&[1, 3]));
        assert_eq!(FocalSet::empty().complement(3), FocalSet::full(3));
        assert_eq!(FocalSet::full(3).complement(3), FocalSet::empty());
        // Across the inline boundary.
        let wide = FocalSet::singleton(130);
        let comp = wide.complement(132);
        assert_eq!(comp.len(), 131);
        assert!(!comp.contains(130));
        assert!(comp.contains(131));
    }

    #[test]
    fn iteration_and_extremes() {
        let a = set(&[5, 64, 130]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 64, 130]);
        assert_eq!(a.min_index(), Some(5));
        assert_eq!(a.max_index(), Some(130));
        assert_eq!(FocalSet::empty().min_index(), None);
        assert_eq!(FocalSet::empty().max_index(), None);
        let b = set(&[3, 127]);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![3, 127]);
        assert_eq!(b.min_index(), Some(3));
        assert_eq!(b.max_index(), Some(127));
    }

    #[test]
    fn ordering_by_cardinality_then_lex() {
        let mut sets = vec![set(&[0, 1]), set(&[2]), set(&[0]), set(&[1, 2])];
        sets.sort();
        assert_eq!(sets, vec![set(&[0]), set(&[2]), set(&[0, 1]), set(&[1, 2])]);
    }

    #[test]
    fn cross_word_subset() {
        let small = set(&[3]);
        let large = set(&[3, 100]);
        assert!(small.is_subset_of(&large));
        assert!(!large.is_subset_of(&small));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", set(&[1, 3])), "{1,3}");
        assert_eq!(format!("{:?}", FocalSet::empty()), "{}");
    }
}
