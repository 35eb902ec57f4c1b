//! Dempster's rule of combination (§2.2 of the paper).
//!
//! Given two mass functions `m1`, `m2` over the same frame, the
//! combined mass is
//!
//! ```text
//! m1 ⊕ m2 (Z) = Σ_{X ∩ Y = Z} m1(X)·m2(Y) / (1 − κ)
//! κ           = Σ_{X ∩ Y = ∅} m1(X)·m2(Y)
//! ```
//!
//! κ is the *conflict* between the sources. When κ = 1 the sources
//! share no common focal element and the rule is undefined; the paper
//! requires this case to be reported to the data administrators, which
//! we model as [`EvidenceError::TotalConflict`].
//!
//! The rule is commutative and associative (checked by property tests),
//! so the order of combining evidence from many databases is
//! irrelevant — the basis for the extended union's correctness.
//!
//! # The hot path
//!
//! This is the inner loop of every tuple merge in the integration
//! framework (§4): the extended union ∪̃ runs one combination per
//! common non-key attribute per matched tuple pair, plus one for the
//! membership pair. The engine therefore dispatches on the shape of
//! the operands, cheapest first:
//!
//! 1. **Singleton-only (Bayesian) fast path** — when every focal
//!    element of both operands is a singleton (the common case in the
//!    restaurant workload, where source databases assert plain value
//!    distributions), `X ∩ Y ≠ ∅` iff `X = Y`, so the quadratic
//!    pairwise loop collapses to a value-indexed dense-array walk:
//!    `O(|m1| + |m2| + |Ω|)`, no set operations at all.
//! 2. **Inline bitset path** — when every focal element fits the
//!    inline `u128` representation ([`FocalSet::as_bits`]; always true
//!    for frames of ≤ 128 values), each pairwise intersection is a
//!    single word-AND and products are accumulated in a memo table
//!    keyed by the `(lhs_bits & rhs_bits)` result pattern
//!    (`BitsMemo`). No per-pair `FocalSet` is allocated: each
//!    *distinct* intersection pattern is materialized exactly once
//!    when the table drains.
//! 3. **Boxed fallback** — frames wider than 128 values go through
//!    [`FocalSet::intersect`] (which itself collapses results back
//!    into the inline representation when they fit).
//!
//! All paths feed the trusted `MassFunction::from_combination`
//! constructor, skipping the per-entry revalidation of the public
//! builder. The same dispatch also runs *without a sink*
//! ([`observe_with`]): the walk and its accumulation order are
//! unchanged, so κ and the total-conflict verdict are the ones the full
//! rule reports, but no intersection product is accumulated and no
//! mass function is built — what a merge pays for an attribute whose
//! combined value is never read. The retained [`crate::reference`]
//! module implements the same rule over `BTreeSet<usize>` with none of
//! these refinements; the property suite pits the two against each
//! other.

use crate::error::EvidenceError;
use crate::focal::{canonical_cmp, FocalSet};
use crate::frame::Frame;
use crate::mass::MassFunction;
use crate::weight::Weight;
use std::borrow::Cow;
use std::collections::HashMap;

/// The result of a combination: the normalized mass function and the
/// conflict mass κ observed during the combination.
#[derive(Debug, Clone, PartialEq)]
pub struct Combination<W: Weight> {
    /// `m1 ⊕ m2`, normalized.
    pub mass: MassFunction<W>,
    /// The conflict κ ∈ [0, 1).
    pub conflict: W,
}

/// A memo table for intersection products, keyed by the inline bit
/// pattern of `lhs_bits & rhs_bits`. Open-addressed with linear
/// probing over a power-of-two slot array so the per-pair cost is a
/// multiply-fold hash and (usually) one probe — no `SipHash`, no
/// per-pair allocation, no `FocalSet` until the table drains.
#[derive(Debug)]
struct BitsMemo<W> {
    /// Entry index + 1; 0 marks an empty slot.
    slots: Vec<u32>,
    mask: usize,
    entries: Vec<(u128, W)>,
}

impl<W: Weight> BitsMemo<W> {
    fn new(expected: usize) -> BitsMemo<W> {
        let cap = (expected * 2).next_power_of_two().max(16);
        BitsMemo {
            slots: vec![0; cap],
            mask: cap - 1,
            entries: Vec::with_capacity(expected),
        }
    }

    /// Make the table empty again, keeping (and if necessary growing)
    /// its allocations — the reuse path a whole merge pass shares one
    /// memo through (see [`Scratch`]).
    fn reset(&mut self, expected: usize) {
        let cap = (expected * 2).next_power_of_two().max(16);
        if cap > self.slots.len() {
            self.slots = vec![0; cap];
            self.mask = cap - 1;
        } else {
            self.slots.fill(0);
        }
        self.entries.clear();
    }

    /// Fold a 128-bit pattern to a table index (murmur-style finalizer
    /// over the XOR-mixed halves — cheap and well-distributed for the
    /// sparse patterns focal sets produce).
    #[inline]
    fn hash(bits: u128) -> usize {
        let mut h = (bits as u64) ^ ((bits >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h as usize
    }

    /// Accumulate `product` into the entry for `bits` (non-empty).
    fn add(&mut self, bits: u128, product: W) -> Result<(), EvidenceError> {
        let mut i = Self::hash(bits) & self.mask;
        loop {
            match self.slots[i] {
                0 => {
                    self.entries.push((bits, product));
                    self.slots[i] = self.entries.len() as u32;
                    if self.entries.len() * 4 > self.slots.len() * 3 {
                        self.grow();
                    }
                    return Ok(());
                }
                e => {
                    let e = (e - 1) as usize;
                    if self.entries[e].0 == bits {
                        self.entries[e].1 = self.entries[e].1.add(&product)?;
                        return Ok(());
                    }
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.mask = cap - 1;
        self.slots.clear();
        self.slots.resize(cap, 0);
        for (e, (bits, _)) in self.entries.iter().enumerate() {
            let mut i = Self::hash(*bits) & self.mask;
            while self.slots[i] != 0 {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = (e + 1) as u32;
        }
    }

    /// Drain into `(FocalSet, W)` entries, materializing each distinct
    /// intersection pattern exactly once. Leaves the table ready for
    /// [`BitsMemo::reset`]; allocations are retained.
    fn drain_entries(&mut self) -> Vec<(FocalSet, W)> {
        self.entries
            .drain(..)
            .map(|(bits, w)| (FocalSet::from_bits(bits), w))
            .collect()
    }
}

/// Reusable scratch state for the combination engine.
///
/// Every `dempster` call on the inline-bitset path needs a memo table
/// for intersection products. A tuple merge runs one combination per
/// common attribute per matched pair, so a whole ∪̃ pass over 10⁵
/// tuples allocates (and drops) that table hundreds of thousands of
/// times. Holding one `Scratch` per merge pass — as the plan layer's
/// `DempsterMerger` does — and calling [`dempster_with`] reuses the
/// slot array and entry vector across every combination of the pass.
///
/// A `Scratch` carries no results between calls (each use resets it),
/// so combining with and without scratch is bit-for-bit identical —
/// the property suite checks this.
#[derive(Debug)]
pub struct Scratch<W: Weight> {
    memo: BitsMemo<W>,
}

impl<W: Weight> Scratch<W> {
    /// An empty scratch (first use sizes the table).
    pub fn new() -> Scratch<W> {
        Scratch {
            memo: BitsMemo::new(0),
        }
    }
}

impl<W: Weight> Default for Scratch<W> {
    fn default() -> Self {
        Scratch::new()
    }
}

/// What the conjunctive pass reads of one operand: its focal elements
/// and their weights, in canonical order — a [`MassFunction`], or a
/// [`FocalView`] of a stored one. The pass walks either in the same
/// order, so over views it observes the decoded mass functions' κ bits.
pub trait Entries<W: Weight> {
    /// [`EvidenceError::FrameMismatch`] unless both are over one frame
    /// (nothing to check for operands whose frames were checked once,
    /// up front).
    ///
    /// # Errors
    /// As above.
    fn check_frames(&self, _other: &Self) -> Result<(), EvidenceError> {
        Ok(())
    }
    /// Number of values in the frame.
    fn frame_len(&self) -> usize;
    /// Every focal element is a singleton.
    fn is_bayesian(&self) -> bool;
    /// `(focal element, weight)` per focal element.
    fn sets(&self) -> impl Iterator<Item = (Cow<'_, FocalSet>, W)> + '_;
    /// `(bit pattern, weight)` per focal element of an inline operand.
    fn bits(&self) -> impl Iterator<Item = (u128, W)> + '_ {
        self.sets()
            .map(|(s, w)| (s.as_bits().expect("inline operand"), w))
    }
    /// Every focal element has the inline bit-pattern representation.
    fn is_inline(&self) -> bool {
        self.sets().all(|(s, _)| s.as_bits().is_some())
    }
}

impl<W: Weight> Entries<W> for MassFunction<W> {
    fn check_frames(&self, other: &Self) -> Result<(), EvidenceError> {
        if self.frame() != other.frame() {
            return Err(EvidenceError::FrameMismatch {
                left: self.frame().name().to_owned(),
                right: other.frame().name().to_owned(),
            });
        }
        Ok(())
    }

    fn frame_len(&self) -> usize {
        self.frame().len()
    }

    fn is_bayesian(&self) -> bool {
        MassFunction::is_bayesian(self)
    }

    fn sets(&self) -> impl Iterator<Item = (Cow<'_, FocalSet>, W)> + '_ {
        self.iter().map(|(s, w)| (Cow::Borrowed(s), w.clone()))
    }
}

/// A mass function borrowed where it stands or converted for the pass.
impl<W: Weight> Entries<W> for Cow<'_, MassFunction<W>> {
    fn check_frames(&self, other: &Self) -> Result<(), EvidenceError> {
        (**self).check_frames(other)
    }

    fn frame_len(&self) -> usize {
        self.frame().len()
    }

    fn is_bayesian(&self) -> bool {
        MassFunction::is_bayesian(self)
    }

    fn sets(&self) -> impl Iterator<Item = (Cow<'_, FocalSet>, W)> + '_ {
        Entries::sets(&**self)
    }
}

/// A stored `f64` mass function's focal entries, read in place: per
/// entry a little-endian `u16` word count, that many little-endian
/// `u64` words of the set's bit pattern, the weight's IEEE-754 bits.
/// Its frame is its segment's, checked once per pair of segments by
/// the reader, so a pass over two views checks none.
#[derive(Debug, Clone, Copy)]
pub struct FocalView<'a> {
    entries: &'a [u8],
    count: usize,
    frame_len: usize,
    bayesian: bool,
}

impl<'a> FocalView<'a> {
    /// The `count` entries `entries` holds, over `frame` — or `None`
    /// unless [`MassFunction::from_entries`] would keep every one as it
    /// stands: a frame of at most 128 values, sets of at most two words,
    /// non-empty and in the frame, valid non-zero weights, the sets in
    /// strictly ascending canonical order, a total `approx_eq` 1, and
    /// no byte short or over.
    pub fn new(frame: &Frame, count: usize, entries: &'a [u8]) -> Option<FocalView<'a>> {
        let frame_len = frame.len();
        if frame_len > 128 || count == 0 {
            return None;
        }
        let outside = u128::MAX.checked_shl(frame_len as u32).unwrap_or(0);
        let (mut rest, mut sum, mut last) = (entries, 0.0, 0u128);
        for _ in 0..count {
            let (bits, w) = next_entry(&mut rest)?;
            let ascends = last == 0 || canonical_cmp(last, bits).is_lt();
            if bits == 0 || bits & outside != 0 || !ascends || !w.is_valid_mass() || w.is_zero() {
                return None;
            }
            sum += w;
            last = bits;
        }
        (rest.is_empty() && sum.approx_eq(&1.0)).then_some(FocalView {
            entries,
            count,
            frame_len,
            bayesian: last.count_ones() == 1,
        })
    }
}

/// The entry at the front of `rest`, which moves past it; `None` for a
/// set of more than two words or bytes that end early.
fn next_entry(rest: &mut &[u8]) -> Option<(u128, f64)> {
    let (count, tail) = rest.split_first_chunk::<2>()?;
    let words = usize::from(u16::from_le_bytes(*count));
    if words > 2 {
        return None;
    }
    let (body, tail) = tail.split_at_checked(8 * words + 8)?;
    let word = |i: usize| u64::from_le_bytes(body[8 * i..8 * i + 8].try_into().unwrap());
    let bits = (0..words).fold(0u128, |bits, i| bits | u128::from(word(i)) << (64 * i));
    *rest = tail;
    Some((bits, f64::from_bits(word(words))))
}

impl Entries<f64> for FocalView<'_> {
    fn frame_len(&self) -> usize {
        self.frame_len
    }

    fn is_bayesian(&self) -> bool {
        self.bayesian
    }

    fn sets(&self) -> impl Iterator<Item = (Cow<'_, FocalSet>, f64)> + '_ {
        self.bits()
            .map(|(bits, w)| (Cow::Owned(FocalSet::from_bits(bits)), w))
    }

    fn bits(&self) -> impl Iterator<Item = (u128, f64)> + '_ {
        let mut rest = self.entries;
        (0..self.count).map(move |_| next_entry(&mut rest).expect("checked by FocalView::new"))
    }

    fn is_inline(&self) -> bool {
        true
    }
}

/// `1 − diag`, clamped to exact zero when it lands within the weight
/// tolerance (floating-point dust must not surface as negative κ).
fn one_minus<W: Weight>(diag: &W) -> Result<W, EvidenceError> {
    let rest = W::one().sub(diag)?;
    if rest.is_zero() || !rest.is_positive() {
        Ok(W::zero())
    } else {
        Ok(rest)
    }
}

/// What one conjunctive pass yields. With `KEEP` the product mass of
/// every non-empty intersection is accumulated into `entries`
/// (distinct, non-empty focal sets); without it the pass is the same
/// walk in the same order with nothing accumulated — `entries` stays
/// empty and `agreed` is all that is known of them.
struct Raw<W> {
    entries: Vec<(FocalSet, W)>,
    /// The conflict mass κ.
    conflict: W,
    /// Some product mass landed on a non-empty intersection.
    agreed: bool,
}

/// Singleton-only (Bayesian × Bayesian) conjunction: intersections are
/// non-empty exactly on equal singletons, so one dense-array pass over
/// the shorter operand replaces the quadratic pairwise loop, and
/// κ = 1 − Σᵢ m1({i})·m2({i}).
fn bayesian_raw<W: Weight, E: Entries<W>, const KEEP: bool>(
    a: &E,
    b: &E,
) -> Result<Raw<W>, EvidenceError> {
    let mut dense: Vec<Option<W>> = vec![None; a.frame_len()];
    for (s, w) in b.sets() {
        dense[s.as_singleton().expect("bayesian operand")] = Some(w);
    }
    let pushed = if KEEP {
        a.sets().count().min(b.sets().count())
    } else {
        0
    };
    let mut entries = Vec::with_capacity(pushed);
    let mut diag = W::zero();
    let mut agreed = false;
    for (s, w) in a.sets() {
        let i = s.as_singleton().expect("bayesian operand");
        if let Some(wb) = &dense[i] {
            let product = w.mul(wb)?;
            if !product.is_zero() {
                diag = diag.add(&product)?;
                agreed = true;
                if KEEP {
                    entries.push((s.into_owned(), product));
                }
            }
        }
    }
    Ok(Raw {
        entries,
        conflict: one_minus(&diag)?,
        agreed,
    })
}

/// Inline-bitset conjunction: word-AND intersections accumulated in
/// `memo` (reset here, drained before returning — the caller only
/// provides the allocations; an observing pass leaves it alone).
fn inline_raw<W: Weight, E: Entries<W>, const KEEP: bool>(
    a: &E,
    b: &E,
    memo: &mut BitsMemo<W>,
) -> Result<Raw<W>, EvidenceError> {
    if KEEP {
        memo.reset(a.sets().count() * b.sets().count());
    }
    let mut conflict = W::zero();
    let mut agreed = false;
    for (xa, wa) in a.bits() {
        for (xb, wb) in b.bits() {
            let z = xa & xb;
            let product = wa.mul(&wb)?;
            if product.is_zero() {
                continue;
            }
            if z == 0 {
                conflict = conflict.add(&product)?;
            } else {
                agreed = true;
                if KEEP {
                    memo.add(z, product)?;
                }
            }
        }
    }
    let entries = if KEEP {
        memo.drain_entries()
    } else {
        Vec::new()
    };
    Ok(Raw {
        entries,
        conflict,
        agreed,
    })
}

/// Boxed fallback for frames wider than 128 values.
fn boxed_raw<W: Weight, E: Entries<W>, const KEEP: bool>(
    a: &E,
    b: &E,
) -> Result<Raw<W>, EvidenceError> {
    let inserted = if KEEP {
        a.sets().count() * b.sets().count()
    } else {
        0
    };
    let mut acc: HashMap<FocalSet, W> = HashMap::with_capacity(inserted);
    let mut conflict = W::zero();
    let mut agreed = false;
    for (x, wx) in a.sets() {
        for (y, wy) in b.sets() {
            let product = wx.mul(&wy)?;
            if product.is_zero() {
                continue;
            }
            let z = x.intersect(&y);
            if z.is_empty() {
                conflict = conflict.add(&product)?;
                continue;
            }
            agreed = true;
            if KEEP {
                match acc.get_mut(&z) {
                    Some(w) => *w = w.add(&product)?,
                    None => {
                        acc.insert(z, product);
                    }
                }
            }
        }
    }
    Ok(Raw {
        entries: acc.into_iter().collect(),
        conflict,
        agreed,
    })
}

/// The one conjunctive dispatch — Bayesian, inline, boxed, cheapest
/// first. `KEEP` accumulates the unnormalized conjunctive combination
/// (Dempster's rule and the alternative rules normalize or repair it);
/// without it the pass only observes, in the same accumulation order,
/// so its κ is the same bits.
fn conjunctive<W: Weight, E: Entries<W>, const KEEP: bool>(
    a: &E,
    b: &E,
    scratch: &mut Scratch<W>,
) -> Result<Raw<W>, EvidenceError> {
    a.check_frames(b)?;
    if a.is_bayesian() && b.is_bayesian() {
        return bayesian_raw::<W, E, KEEP>(a, b);
    }
    if a.is_inline() && b.is_inline() {
        inline_raw::<W, E, KEEP>(a, b, &mut scratch.memo)
    } else {
        boxed_raw::<W, E, KEEP>(a, b)
    }
}

/// The unnormalized conjunctive combination and the conflict mass, for
/// the alternative rules. The returned entries have distinct,
/// non-empty focal sets.
pub(crate) fn conjunctive_raw<W: Weight>(
    a: &MassFunction<W>,
    b: &MassFunction<W>,
) -> Result<(Vec<(FocalSet, W)>, W), EvidenceError> {
    let raw = conjunctive::<W, _, true>(a, b, &mut Scratch::new())?;
    Ok((raw.entries, raw.conflict))
}

/// Combine two mass functions with Dempster's rule.
///
/// # Examples
///
/// The paper's §2.2 worked example — the speciality of restaurant
/// *wok* according to two source databases:
///
/// ```
/// use evirel_evidence::{combine, Frame, MassFunction};
/// use std::sync::Arc;
///
/// let frame = Arc::new(Frame::new("speciality", ["hunan", "sichuan", "cantonese"]));
/// let m1 = MassFunction::<f64>::builder(Arc::clone(&frame))
///     .add(["cantonese"], 0.5).unwrap()
///     .add(["hunan", "sichuan"], 1.0 / 3.0).unwrap()
///     .add_omega(1.0 / 6.0)
///     .build().unwrap();
/// let m2 = MassFunction::<f64>::builder(Arc::clone(&frame))
///     .add(["cantonese", "hunan"], 0.5).unwrap()
///     .add(["hunan"], 0.25).unwrap()
///     .add_omega(0.25)
///     .build().unwrap();
///
/// let c = combine::dempster(&m1, &m2).unwrap();
/// assert!((c.conflict - 1.0 / 8.0).abs() < 1e-12); // κ = 1/8
/// let cantonese = frame.singleton("cantonese").unwrap();
/// assert!((c.mass.mass_of(&cantonese) - 3.0 / 7.0).abs() < 1e-12);
/// ```
///
/// # Errors
/// * [`EvidenceError::FrameMismatch`] if the frames differ;
/// * [`EvidenceError::TotalConflict`] if κ = 1.
pub fn dempster<W: Weight>(
    a: &MassFunction<W>,
    b: &MassFunction<W>,
) -> Result<Combination<W>, EvidenceError> {
    dempster_with(a, b, &mut Scratch::new())
}

/// [`dempster`] reusing a caller-held [`Scratch`] for the memo table —
/// bit-for-bit the same result, without the per-call allocation. Merge
/// passes (the extended union, the integration merge stage) hold one
/// scratch for the whole pass.
///
/// # Errors
/// As [`dempster`].
pub fn dempster_with<W: Weight>(
    a: &MassFunction<W>,
    b: &MassFunction<W>,
    scratch: &mut Scratch<W>,
) -> Result<Combination<W>, EvidenceError> {
    let Raw {
        mut entries,
        conflict,
        agreed,
    } = conjunctive::<W, _, true>(a, b, scratch)?;
    if is_total(agreed, &conflict) {
        return Err(EvidenceError::TotalConflict);
    }
    if !conflict.is_zero() {
        let denom = W::one().sub(&conflict)?;
        for (_, w) in &mut entries {
            *w = w.div(&denom)?;
        }
    }
    let mass = MassFunction::from_combination(a.frame().clone(), entries)?;
    Ok(Combination { mass, conflict })
}

/// Fold Dempster's rule over any number of sources.
///
/// Returns the single input unchanged (κ = 0) for a one-element
/// iterator.
///
/// # Errors
/// * [`EvidenceError::EmptyFocalElement`] for an empty iterator;
/// * errors from [`dempster`] otherwise. The reported conflict is the
///   conflict of the *last* pairwise combination, which is what the
///   integration layer reports per merge step.
pub fn dempster_all<'a, W: Weight + 'a>(
    sources: impl IntoIterator<Item = &'a MassFunction<W>>,
) -> Result<Combination<W>, EvidenceError> {
    let mut iter = sources.into_iter();
    let first = iter.next().ok_or(EvidenceError::EmptyFocalElement)?;
    let mut result = Combination {
        mass: first.clone(),
        conflict: W::zero(),
    };
    for next in iter {
        result = dempster(&result.mass, next)?;
    }
    Ok(result)
}

/// Dempster's rule is undefined on a pair whose conjunctive pass found
/// no agreement, or whose κ is 1 within the weight tolerance.
fn is_total<W: Weight>(agreed: bool, conflict: &W) -> bool {
    !agreed || conflict.approx_eq(&W::one())
}

/// What two sources show of each other *without* being combined.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation<W: Weight> {
    /// The conflict mass κ — the bits [`dempster`] reports.
    pub conflict: W,
    /// The sources are in total conflict: [`dempster`] returns
    /// [`EvidenceError::TotalConflict`] for them.
    pub total: bool,
}

/// Observe two sources without combining them: κ and the
/// total-conflict verdict of [`dempster_with`], from the same
/// conjunctive dispatch run without a sink — same fast paths, same
/// accumulation order, but no entry is accumulated, nothing is
/// normalized and no mass function is built. What a merge owes a pair
/// whose combined value nobody will read — over two mass functions, or
/// over two [`FocalView`]s of stored ones.
///
/// # Errors
/// [`EvidenceError::FrameMismatch`] if the frames differ.
pub fn observe_with<W: Weight, E: Entries<W>>(
    a: &E,
    b: &E,
    scratch: &mut Scratch<W>,
) -> Result<Observation<W>, EvidenceError> {
    let raw = conjunctive::<W, E, false>(a, b, scratch)?;
    Ok(Observation {
        total: is_total(raw.agreed, &raw.conflict),
        conflict: raw.conflict,
    })
}

/// The degree of conflict κ between two sources *without* combining
/// them — useful for conflict analysis and the integration layer's
/// diagnostics. The κ of [`observe_with`].
///
/// # Errors
/// [`EvidenceError::FrameMismatch`] if the frames differ.
pub fn conflict<W: Weight>(a: &MassFunction<W>, b: &MassFunction<W>) -> Result<W, EvidenceError> {
    conflict_with(a, b, &mut Scratch::new())
}

/// [`conflict`] reusing a caller-held [`Scratch`].
///
/// # Errors
/// As [`conflict`].
pub fn conflict_with<W: Weight>(
    a: &MassFunction<W>,
    b: &MassFunction<W>,
    scratch: &mut Scratch<W>,
) -> Result<W, EvidenceError> {
    Ok(observe_with(a, b, scratch)?.conflict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::ratio::Ratio;
    use std::sync::Arc;

    fn speciality() -> Arc<Frame> {
        Arc::new(Frame::new(
            "speciality",
            [
                "american",
                "hunan",
                "sichuan",
                "cantonese",
                "mughalai",
                "italian",
            ],
        ))
    }

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    fn m1() -> MassFunction<Ratio> {
        MassFunction::builder(speciality())
            .add(["cantonese"], r(1, 2))
            .unwrap()
            .add(["hunan", "sichuan"], r(1, 3))
            .unwrap()
            .add_omega(r(1, 6))
            .build()
            .unwrap()
    }

    fn m2() -> MassFunction<Ratio> {
        MassFunction::builder(speciality())
            .add(["cantonese", "hunan"], r(1, 2))
            .unwrap()
            .add(["hunan"], r(1, 4))
            .unwrap()
            .add_omega(r(1, 4))
            .build()
            .unwrap()
    }

    /// The paper's §2.2 worked example, verified with exact rationals:
    /// κ = 1/8 and the six combined masses are exactly as printed.
    #[test]
    fn paper_combination_example_exact() {
        let c = dempster(&m1(), &m2()).unwrap();
        assert_eq!(c.conflict, r(1, 8));
        let f = speciality();
        let m = &c.mass;
        assert_eq!(m.mass_of(&f.subset(["cantonese"]).unwrap()), r(3, 7));
        assert_eq!(m.mass_of(&f.subset(["hunan"]).unwrap()), r(1, 3));
        assert_eq!(
            m.mass_of(&f.subset(["cantonese", "hunan"]).unwrap()),
            r(2, 21)
        );
        assert_eq!(
            m.mass_of(&f.subset(["hunan", "sichuan"]).unwrap()),
            r(2, 21)
        );
        assert_eq!(m.mass_of(&f.omega()), r(1, 21));
        // m(∅) = 0 by construction; total is 1.
        assert_eq!(m.focal_count(), 5);
    }

    /// §2.2's observed trends: combination increases the mass of small
    /// merged sets and decreases that of large/conflicting ones.
    #[test]
    fn paper_combination_trends() {
        let c = dempster(&m1(), &m2()).unwrap();
        let f = speciality();
        let hu = f.subset(["hunan"]).unwrap();
        let ca = f.subset(["cantonese"]).unwrap();
        // hunan rose from 0 (m1) and 1/4 (m2) to 1/3.
        assert!(c.mass.mass_of(&hu) > m2().mass_of(&hu));
        // cantonese fell from 1/2 to 3/7.
        assert!(c.mass.mass_of(&ca) < m1().mass_of(&ca));
        // Ω mass shrank (uncertainty reduced).
        assert!(c.mass.mass_of(&f.omega()) < m1().mass_of(&f.omega()));
    }

    #[test]
    fn commutative_exact() {
        let ab = dempster(&m1(), &m2()).unwrap();
        let ba = dempster(&m2(), &m1()).unwrap();
        assert_eq!(ab.mass, ba.mass);
        assert_eq!(ab.conflict, ba.conflict);
    }

    #[test]
    fn associative_exact() {
        let m3 = MassFunction::builder(speciality())
            .add(["hunan"], r(3, 5))
            .unwrap()
            .add_omega(r(2, 5))
            .build()
            .unwrap();
        let left = dempster(&dempster(&m1(), &m2()).unwrap().mass, &m3).unwrap();
        let right = dempster(&m1(), &dempster(&m2(), &m3).unwrap().mass).unwrap();
        assert_eq!(left.mass, right.mass);
    }

    #[test]
    fn vacuous_is_identity() {
        let v = MassFunction::<Ratio>::vacuous(speciality()).unwrap();
        let c = dempster(&m1(), &v).unwrap();
        assert_eq!(c.mass, m1());
        assert_eq!(c.conflict, Ratio::ZERO);
    }

    #[test]
    fn total_conflict_detected() {
        let a = MassFunction::<Ratio>::certain(speciality(), "hunan").unwrap();
        let b = MassFunction::<Ratio>::certain(speciality(), "italian").unwrap();
        assert_eq!(dempster(&a, &b), Err(EvidenceError::TotalConflict));
        assert_eq!(conflict(&a, &b).unwrap(), Ratio::ONE);
    }

    #[test]
    fn frame_mismatch_detected() {
        let other = Arc::new(Frame::new("rating", ["ex", "gd", "avg"]));
        let a = MassFunction::<Ratio>::vacuous(speciality()).unwrap();
        let b = MassFunction::<Ratio>::vacuous(other).unwrap();
        assert!(matches!(
            dempster(&a, &b),
            Err(EvidenceError::FrameMismatch { .. })
        ));
    }

    #[test]
    fn dempster_all_folds() {
        let v = MassFunction::<Ratio>::vacuous(speciality()).unwrap();
        let c = dempster_all([&m1(), &v, &m2()]).unwrap();
        let direct = dempster(&m1(), &m2()).unwrap();
        assert_eq!(c.mass, direct.mass);
        let single = dempster_all([&m1()]).unwrap();
        assert_eq!(single.mass, m1());
        assert_eq!(single.conflict, Ratio::ZERO);
        assert!(dempster_all(Vec::<&MassFunction<Ratio>>::new()).is_err());
    }

    #[test]
    fn f64_matches_exact_within_tolerance() {
        let fm1 = MassFunction::<f64>::builder(speciality())
            .add(["cantonese"], 0.5)
            .unwrap()
            .add(["hunan", "sichuan"], 1.0 / 3.0)
            .unwrap()
            .add_omega(1.0 / 6.0)
            .build()
            .unwrap();
        let fm2 = MassFunction::<f64>::builder(speciality())
            .add(["cantonese", "hunan"], 0.5)
            .unwrap()
            .add(["hunan"], 0.25)
            .unwrap()
            .add_omega(0.25)
            .build()
            .unwrap();
        let c = dempster(&fm1, &fm2).unwrap();
        let f = speciality();
        assert!((c.conflict - 0.125).abs() < 1e-12);
        assert!((c.mass.mass_of(&f.subset(["cantonese"]).unwrap()) - 3.0 / 7.0).abs() < 1e-12);
    }

    /// One shared [`Scratch`] across a whole pass of combinations is
    /// bit-for-bit identical to a fresh memo per call — the contract
    /// that lets merge passes reuse the table.
    #[test]
    fn shared_scratch_is_bit_identical() {
        let mut scratch = Scratch::new();
        // Exact rationals: equality below is exact, not approximate.
        let pairs = [(m1(), m2()), (m2(), m1()), (m1(), m1()), (m2(), m2())];
        for _ in 0..3 {
            for (a, b) in &pairs {
                let fresh = dempster(a, b).unwrap();
                let reused = dempster_with(a, b, &mut scratch).unwrap();
                assert_eq!(fresh.mass, reused.mass);
                assert_eq!(fresh.conflict, reused.conflict);
                assert_eq!(
                    conflict(a, b).unwrap(),
                    conflict_with(a, b, &mut scratch).unwrap()
                );
            }
        }
        // Growth inside a reused scratch (many distinct patterns) is
        // handled too: a 20-focal f64 pair forces the table to grow.
        let wide = Arc::new(Frame::new("wide", (0..40).map(|i| format!("v{i}"))));
        let mut b1 = MassFunction::<f64>::builder(Arc::clone(&wide));
        let mut b2 = MassFunction::<f64>::builder(Arc::clone(&wide));
        for i in 0..20 {
            b1 = b1
                .add([format!("v{i}"), format!("v{}", i + 1)], 0.05)
                .unwrap();
            b2 = b2
                .add([format!("v{}", i + 1), format!("v{}", (i + 2) % 40)], 0.05)
                .unwrap();
        }
        let (w1, w2) = (b1.build().unwrap(), b2.build().unwrap());
        let mut scratch = Scratch::new();
        let fresh = dempster(&w1, &w2).unwrap();
        let reused = dempster_with(&w1, &w2, &mut scratch).unwrap();
        assert_eq!(fresh.mass, reused.mass);
    }

    /// Combining a Bayesian mass with itself sharpens it (Bayes-like
    /// behaviour: Dempster generalizes Bayesian conditioning).
    #[test]
    fn bayesian_self_combination_sharpens() {
        let m = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], 0.6)
            .unwrap()
            .add(["sichuan"], 0.4)
            .unwrap()
            .build()
            .unwrap();
        let c = dempster(&m, &m).unwrap();
        let hu = speciality().subset(["hunan"]).unwrap();
        // 0.36 / (0.36 + 0.16) ≈ 0.6923 > 0.6
        assert!(c.mass.mass_of(&hu) > 0.69);
        assert!(c.mass.is_bayesian());
    }
}
