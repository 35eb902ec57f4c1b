//! Alternative combination rules.
//!
//! The paper commits to Dempster's rule (and our extended union does
//! too), but the choice of rule is a known design axis in evidential
//! reasoning: Dempster's normalization can behave counter-intuitively
//! under high conflict (Zadeh's paradox). To support the ablation
//! benchmarks called out in DESIGN.md, this module provides the three
//! classical alternatives:
//!
//! * **Yager's rule** — conflict mass is moved to Ω (ignorance)
//!   instead of being normalized away;
//! * **Dubois–Prade's rule** — the product mass of disjoint focal
//!   pairs `X ∩ Y = ∅` is assigned to the *union* `X ∪ Y`;
//! * **Mixing (averaging)** — the arithmetic mean of the two mass
//!   functions; no interaction, never conflicts.
//!
//! All rules share frame-checking and the conjunctive core with
//! [`crate::combine`].

use crate::combine::{conjunctive_raw, Entries};
use crate::error::EvidenceError;
use crate::focal::FocalSet;
use crate::mass::MassFunction;
use crate::weight::Weight;
use std::collections::HashMap;

/// Which combination rule to use — the ablation switch used by the
/// extended union and the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CombinationRule {
    /// Dempster's rule with normalization by `1 − κ` (the paper's
    /// choice).
    #[default]
    Dempster,
    /// Yager's rule: conflict mass accrues to Ω.
    Yager,
    /// Dubois–Prade: disjoint products accrue to the union of the pair.
    DuboisPrade,
    /// Mixing: pointwise average of the two assignments.
    Mixing,
}

impl CombinationRule {
    /// Apply the rule.
    ///
    /// # Errors
    /// * [`EvidenceError::FrameMismatch`] if the frames differ;
    /// * [`EvidenceError::TotalConflict`] only for
    ///   [`CombinationRule::Dempster`] with κ = 1.
    pub fn combine<W: Weight>(
        &self,
        a: &MassFunction<W>,
        b: &MassFunction<W>,
    ) -> Result<MassFunction<W>, EvidenceError> {
        match self {
            CombinationRule::Dempster => Ok(crate::combine::dempster(a, b)?.mass),
            CombinationRule::Yager => yager(a, b),
            CombinationRule::DuboisPrade => dubois_prade(a, b),
            CombinationRule::Mixing => mixing(a, b),
        }
    }

    /// Apply the rule and also report the κ Dempster would have seen —
    /// the accounting the merge layers (∪̃'s per-attribute combination,
    /// the integrate method registry) record per conflict report.
    ///
    /// Dempster's rule reports κ from its single conjunctive pass; the
    /// alternative rules absorb conflict internally, so κ is computed
    /// separately for them.
    ///
    /// # Errors
    /// As [`CombinationRule::combine`].
    pub fn combine_reporting<W: Weight>(
        &self,
        a: &MassFunction<W>,
        b: &MassFunction<W>,
    ) -> Result<(MassFunction<W>, W), EvidenceError> {
        self.combine_reporting_with(a, b, &mut crate::combine::Scratch::new())
    }

    /// [`CombinationRule::combine_reporting`] reusing a caller-held
    /// [`crate::combine::Scratch`] — merge passes hold one scratch for
    /// the whole pass instead of allocating a memo table per
    /// combination. Results are bit-for-bit identical.
    ///
    /// # Errors
    /// As [`CombinationRule::combine`].
    pub fn combine_reporting_with<W: Weight>(
        &self,
        a: &MassFunction<W>,
        b: &MassFunction<W>,
        scratch: &mut crate::combine::Scratch<W>,
    ) -> Result<(MassFunction<W>, W), EvidenceError> {
        match self {
            CombinationRule::Dempster => {
                let c = crate::combine::dempster_with(a, b, scratch)?;
                Ok((c.mass, c.conflict))
            }
            rule => {
                let kappa = crate::combine::conflict_with(a, b, scratch)?;
                Ok((rule.combine(a, b)?, kappa))
            }
        }
    }

    /// What [`CombinationRule::combine_reporting_with`] reports of a
    /// pair, without the combination: the κ it would return, or the
    /// [`EvidenceError::TotalConflict`] it would fail with (Dempster's
    /// rule only — the alternatives absorb any conflict).
    ///
    /// # Errors
    /// As [`CombinationRule::combine`].
    pub fn observe_with<W: Weight, E: Entries<W>>(
        &self,
        a: &E,
        b: &E,
        scratch: &mut crate::combine::Scratch<W>,
    ) -> Result<W, EvidenceError> {
        let seen = crate::combine::observe_with(a, b, scratch)?;
        if seen.total && *self == CombinationRule::Dempster {
            return Err(EvidenceError::TotalConflict);
        }
        Ok(seen.conflict)
    }

    /// All rules, for sweep-style benchmarks.
    pub const ALL: [CombinationRule; 4] = [
        CombinationRule::Dempster,
        CombinationRule::Yager,
        CombinationRule::DuboisPrade,
        CombinationRule::Mixing,
    ];

    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CombinationRule::Dempster => "dempster",
            CombinationRule::Yager => "yager",
            CombinationRule::DuboisPrade => "dubois-prade",
            CombinationRule::Mixing => "mixing",
        }
    }
}

/// Yager's rule: the conjunctive combination with the conflict mass
/// `κ` added to `m(Ω)` instead of normalizing.
pub fn yager<W: Weight>(
    a: &MassFunction<W>,
    b: &MassFunction<W>,
) -> Result<MassFunction<W>, EvidenceError> {
    let (mut acc, conflict) = conjunctive_raw(a, b)?;
    if !conflict.is_zero() {
        let omega = a.frame().omega();
        match acc.iter_mut().find(|(s, _)| *s == omega) {
            Some((_, w)) => *w = w.add(&conflict)?,
            None => acc.push((omega, conflict)),
        }
    }
    MassFunction::from_entries(a.frame().clone(), acc)
}

/// Dubois–Prade's rule: products of disjoint focal pairs accrue to the
/// union of the pair (disjunctive repair of the conjunctive core).
pub fn dubois_prade<W: Weight>(
    a: &MassFunction<W>,
    b: &MassFunction<W>,
) -> Result<MassFunction<W>, EvidenceError> {
    if a.frame() != b.frame() {
        return Err(EvidenceError::FrameMismatch {
            left: a.frame().name().to_owned(),
            right: b.frame().name().to_owned(),
        });
    }
    let mut acc: HashMap<FocalSet, W> = HashMap::new();
    for (x, wx) in a.iter() {
        for (y, wy) in b.iter() {
            let product = wx.mul(wy)?;
            if product.is_zero() {
                continue;
            }
            let inter = x.intersect(y);
            let target = if inter.is_empty() { x.union(y) } else { inter };
            match acc.get_mut(&target) {
                Some(w) => *w = w.add(&product)?,
                None => {
                    acc.insert(target, product);
                }
            }
        }
    }
    MassFunction::from_entries(a.frame().clone(), acc)
}

/// Mixing (averaging): `m(Z) = (m1(Z) + m2(Z)) / 2`.
pub fn mixing<W: Weight>(
    a: &MassFunction<W>,
    b: &MassFunction<W>,
) -> Result<MassFunction<W>, EvidenceError> {
    if a.frame() != b.frame() {
        return Err(EvidenceError::FrameMismatch {
            left: a.frame().name().to_owned(),
            right: b.frame().name().to_owned(),
        });
    }
    let two = W::from_ratio(2, 1);
    let mut acc: HashMap<FocalSet, W> = HashMap::new();
    for source in [a, b] {
        for (s, w) in source.iter() {
            let half = w.div(&two)?;
            match acc.get_mut(s) {
                Some(acc_w) => *acc_w = acc_w.add(&half)?,
                None => {
                    acc.insert(s.clone(), half);
                }
            }
        }
    }
    MassFunction::from_entries(a.frame().clone(), acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use std::sync::Arc;

    fn frame() -> Arc<Frame> {
        Arc::new(Frame::new("f", ["a", "b", "c"]))
    }

    fn m(entries: &[(&[&str], f64)]) -> MassFunction<f64> {
        let mut b = MassFunction::<f64>::builder(frame());
        for (labels, w) in entries {
            b = b.add(labels.iter().copied(), *w).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn yager_moves_conflict_to_omega() {
        let a = m(&[(&["a"], 0.8), (&["b"], 0.2)]);
        let b = m(&[(&["b"], 1.0)]);
        // Conjunctive: a∩b=∅ (0.8), b∩b={b} (0.2). Yager: m({b})=0.2, m(Ω)=0.8.
        let y = yager(&a, &b).unwrap();
        assert!(y.mass_of(&frame().subset(["b"]).unwrap()).approx_eq(&0.2));
        assert!(y.mass_of(&frame().omega()).approx_eq(&0.8));
    }

    #[test]
    fn yager_handles_total_conflict() {
        let a = m(&[(&["a"], 1.0)]);
        let b = m(&[(&["b"], 1.0)]);
        // Dempster fails here; Yager yields total ignorance.
        let y = yager(&a, &b).unwrap();
        assert!(y.is_vacuous());
    }

    #[test]
    fn dubois_prade_unions_disjoint_pairs() {
        let a = m(&[(&["a"], 1.0)]);
        let b = m(&[(&["b"], 1.0)]);
        let dp = dubois_prade(&a, &b).unwrap();
        assert!(dp
            .mass_of(&frame().subset(["a", "b"]).unwrap())
            .approx_eq(&1.0));
    }

    #[test]
    fn mixing_averages() {
        let a = m(&[(&["a"], 1.0)]);
        let b = m(&[(&["b"], 1.0)]);
        let mix = mixing(&a, &b).unwrap();
        assert!(mix.mass_of(&frame().subset(["a"]).unwrap()).approx_eq(&0.5));
        assert!(mix.mass_of(&frame().subset(["b"]).unwrap()).approx_eq(&0.5));
    }

    #[test]
    fn all_rules_agree_without_conflict() {
        let a = m(&[(&["a", "b"], 0.5), (&["a", "b", "c"], 0.5)]);
        let b = m(&[(&["a", "b"], 1.0)]);
        let expected = CombinationRule::Dempster.combine(&a, &b).unwrap();
        for rule in [CombinationRule::Yager, CombinationRule::DuboisPrade] {
            assert!(
                rule.combine(&a, &b).unwrap().approx_eq(&expected),
                "{rule:?}"
            );
        }
        // Mixing differs by design (no interaction).
    }

    #[test]
    fn rule_enum_dispatch() {
        let a = m(&[(&["a"], 0.5), (&["a", "b"], 0.5)]);
        let b = m(&[(&["a"], 1.0)]);
        for rule in CombinationRule::ALL {
            let out = rule.combine(&a, &b).unwrap();
            assert!(!out.frame().is_empty());
            assert!(!rule.name().is_empty());
        }
        assert_eq!(CombinationRule::default(), CombinationRule::Dempster);
    }

    #[test]
    fn mismatched_frames_rejected_by_all_rules() {
        let other = Arc::new(Frame::new("g", ["x"]));
        let a = m(&[(&["a"], 1.0)]);
        let b = MassFunction::<f64>::vacuous(other).unwrap();
        for rule in CombinationRule::ALL {
            assert!(matches!(
                rule.combine(&a, &b),
                Err(EvidenceError::FrameMismatch { .. })
            ));
        }
    }

    /// Zadeh's paradox: two sources almost certain of different values.
    /// Dempster concentrates everything on the sliver of agreement;
    /// Yager concedes near-total ignorance. Both must still normalize.
    #[test]
    fn zadeh_paradox_behaviour() {
        let a = m(&[(&["a"], 0.99), (&["c"], 0.01)]);
        let b = m(&[(&["b"], 0.99), (&["c"], 0.01)]);
        let d = CombinationRule::Dempster.combine(&a, &b).unwrap();
        let c_set = frame().subset(["c"]).unwrap();
        assert!(d.mass_of(&c_set).approx_eq(&1.0));
        let y = CombinationRule::Yager.combine(&a, &b).unwrap();
        assert!(y.mass_of(&frame().omega()) > 0.99);
    }
}
