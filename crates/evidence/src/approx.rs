//! Focal-element approximation (summarization).
//!
//! Repeated Dempster combination can grow the number of focal elements
//! combinatorially (in the worst case, toward `2^|Ω|`). Integration
//! pipelines that chain many extended unions therefore benefit from
//! bounding the focal count. This module implements the classical
//! *summarization* approximation (Lowrance, Garvey & Strat, 1986): keep
//! the `k − 1` largest-mass focal elements and collapse the remainder
//! into the union of the discarded sets, preserving total mass and
//! never *under*-reporting plausibility.
//!
//! It is a step applied to a mass function, not an option of the
//! extended union: ∪̃ keeps every focal element Dempster's rule yields,
//! and a caller who wants a cap applies [`summarize`] to the result.

use crate::error::EvidenceError;
use crate::mass::MassFunction;
use crate::weight::Weight;

/// Summarize `m` to at most `k` focal elements (`k ≥ 1`).
///
/// If `m` already has ≤ `k` focal elements it is returned unchanged.
/// Otherwise the `k − 1` focal elements with the largest masses are
/// kept verbatim and all others are replaced by a single focal element
/// equal to their union, carrying their combined mass.
///
/// # Errors
/// [`EvidenceError::EmptyFocalElement`] if `k == 0`.
pub fn summarize<W: Weight>(
    m: &MassFunction<W>,
    k: usize,
) -> Result<MassFunction<W>, EvidenceError> {
    if k == 0 {
        return Err(EvidenceError::EmptyFocalElement);
    }
    if m.focal_count() <= k {
        return Ok(m.clone());
    }
    // Sort focal elements by descending mass; ties broken by the
    // canonical set order to stay deterministic.
    let mut entries: Vec<_> = m.iter().map(|(s, w)| (s.clone(), w.clone())).collect();
    entries.sort_by(|(sa, wa), (sb, wb)| {
        wb.partial_cmp(wa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| sa.cmp(sb))
    });
    let keep = k - 1;
    let mut kept: Vec<_> = entries[..keep].to_vec();
    let mut rest_mass = W::zero();
    let mut rest_union = crate::focal::FocalSet::empty();
    for (s, w) in &entries[keep..] {
        rest_mass = rest_mass.add(w)?;
        rest_union = rest_union.union(s);
    }
    // The union may coincide with a kept focal element; merge if so.
    if let Some(slot) = kept.iter_mut().find(|(s, _)| *s == rest_union) {
        slot.1 = slot.1.add(&rest_mass)?;
    } else {
        kept.push((rest_union, rest_mass));
    }
    // Distinct entries (dedup above) whose masses are a permutation /
    // regrouping of a valid function's: the trusted constructor
    // applies.
    MassFunction::from_combination(m.frame().clone(), kept)
}

/// The error introduced by an approximation, measured as the maximum
/// absolute difference in belief over every focal element of either
/// function (a practical proxy for the sup-norm over all of `2^Ω`).
pub fn max_belief_error<W: Weight>(a: &MassFunction<W>, b: &MassFunction<W>) -> f64 {
    let mut worst = 0.0f64;
    for (s, _) in a.iter().chain(b.iter()) {
        let d = (a.bel(s).to_f64() - b.bel(s).to_f64()).abs();
        if d > worst {
            worst = d;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use std::sync::Arc;

    fn frame() -> Arc<Frame> {
        Arc::new(Frame::new("f", ["a", "b", "c", "d"]))
    }

    fn m() -> MassFunction<f64> {
        MassFunction::<f64>::builder(frame())
            .add(["a"], 0.4)
            .unwrap()
            .add(["b"], 0.3)
            .unwrap()
            .add(["c"], 0.2)
            .unwrap()
            .add(["d"], 0.1)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn summarize_keeps_top_masses() {
        let s = summarize(&m(), 3).unwrap();
        assert_eq!(s.focal_count(), 3);
        // a and b kept; c,d collapsed into {c,d} with mass 0.3.
        assert!(s.mass_of(&frame().subset(["a"]).unwrap()).approx_eq(&0.4));
        assert!(s.mass_of(&frame().subset(["b"]).unwrap()).approx_eq(&0.3));
        assert!(s
            .mass_of(&frame().subset(["c", "d"]).unwrap())
            .approx_eq(&0.3));
    }

    #[test]
    fn summarize_noop_when_small() {
        let s = summarize(&m(), 10).unwrap();
        assert_eq!(s, m());
    }

    #[test]
    fn summarize_to_one_yields_core() {
        let s = summarize(&m(), 1).unwrap();
        assert_eq!(s.focal_count(), 1);
        assert!(s.mass_of(&m().core()).approx_eq(&1.0));
    }

    #[test]
    fn summarize_zero_rejected() {
        assert!(summarize(&m(), 0).is_err());
    }

    #[test]
    fn summarize_never_underestimates_plausibility() {
        let orig = m();
        let s = summarize(&orig, 2).unwrap();
        for i in 0..frame().len() {
            let singleton = crate::focal::FocalSet::singleton(i);
            assert!(s.pls(&singleton) + 1e-12 >= orig.pls(&singleton));
        }
    }

    #[test]
    fn summarize_merges_union_into_existing_focal() {
        // Focal {c,d} already present and largest-but-one: the rest
        // union can collide with a kept element.
        let m = MassFunction::<f64>::builder(frame())
            .add(["a"], 0.5)
            .unwrap()
            .add(["c", "d"], 0.3)
            .unwrap()
            .add(["c"], 0.1)
            .unwrap()
            .add(["d"], 0.1)
            .unwrap()
            .build()
            .unwrap();
        let s = summarize(&m, 2).unwrap();
        assert_eq!(s.focal_count(), 2);
        assert!(s
            .mass_of(&frame().subset(["c", "d"]).unwrap())
            .approx_eq(&0.5));
    }

    #[test]
    fn belief_error_metric() {
        let orig = m();
        let s = summarize(&orig, 2).unwrap();
        let err = max_belief_error(&orig, &s);
        assert!(err > 0.0 && err <= 1.0);
        assert_eq!(max_belief_error(&orig, &orig), 0.0);
    }
}
