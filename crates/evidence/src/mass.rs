//! Mass functions (basic probability assignments) and the belief
//! functionals derived from them.

use crate::error::EvidenceError;
use crate::focal::FocalSet;
use crate::frame::Frame;
use crate::weight::Weight;
use std::fmt;
use std::sync::Arc;

/// A Dempster–Shafer mass function `m : 2^Ω → [0,1]` over a frame Ω,
/// satisfying `m(∅) = 0` and `Σ_A m(A) = 1` (§2.1 of the paper).
///
/// Focal elements (subsets with `m > 0`) are stored sorted by the
/// canonical [`FocalSet`] order, which makes equality, display, and
/// iteration deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct MassFunction<W: Weight> {
    frame: Arc<Frame>,
    focal: Vec<(FocalSet, W)>,
}

impl<W: Weight> MassFunction<W> {
    /// Start building a mass function over `frame`.
    pub fn builder(frame: Arc<Frame>) -> MassBuilder<W> {
        MassBuilder {
            frame,
            entries: Vec::new(),
        }
    }

    /// The *vacuous* mass function `m(Ω) = 1` — total ignorance.
    ///
    /// # Errors
    /// [`EvidenceError::EmptyFocalElement`] if the frame is empty.
    pub fn vacuous(frame: Arc<Frame>) -> Result<Self, EvidenceError> {
        let omega = frame.omega();
        if omega.is_empty() {
            return Err(EvidenceError::EmptyFocalElement);
        }
        Ok(MassFunction {
            frame,
            focal: vec![(omega, W::one())],
        })
    }

    /// The *certain* mass function `m({label}) = 1` — a definite value.
    ///
    /// # Errors
    /// [`EvidenceError::UnknownLabel`] if `label` is not in the frame.
    pub fn certain(frame: Arc<Frame>, label: &str) -> Result<Self, EvidenceError> {
        let s = frame.singleton(label)?;
        Ok(MassFunction {
            frame,
            focal: vec![(s, W::one())],
        })
    }

    /// Construct directly from `(set, mass)` pairs; validates all mass
    /// function invariants, exactly as adding them one by one with
    /// [`MassBuilder::add_set`] and building would. Used by the
    /// combination rules, which produce already-aggregated maps, and
    /// by the record decoder — once per stored evidence set — so the
    /// entries are collected once (a `Vec` argument is taken over as
    /// it stands) and become the focal list without another copy.
    pub fn from_entries(
        frame: Arc<Frame>,
        entries: impl IntoIterator<Item = (FocalSet, W)>,
    ) -> Result<Self, EvidenceError> {
        let entries: Vec<(FocalSet, W)> = entries.into_iter().collect();
        for (set, _) in &entries {
            check_in_frame(set, &frame)?;
        }
        MassBuilder { frame, entries }.build()
    }

    /// Trusted constructor for the combination engine's output: the
    /// entries are known to have distinct, non-empty, in-frame focal
    /// sets and valid masses (products and quotients of valid masses),
    /// so per-entry validation and the duplicate scan are skipped —
    /// only the sort into canonical order and the normalization
    /// rescale (sub-epsilon products dropped during accumulation can
    /// leave the total within [`MassBuilder::NORMALIZE_SLACK`] of 1)
    /// are performed. Invariants are `debug_assert`ed.
    pub(crate) fn from_combination(
        frame: Arc<Frame>,
        mut focal: Vec<(FocalSet, W)>,
    ) -> Result<Self, EvidenceError> {
        focal.retain(|(_, w)| !w.is_zero());
        debug_assert!(focal
            .iter()
            .all(|(s, w)| !s.is_empty() && w.is_valid_mass()));
        let mut sum = W::zero();
        for (_, w) in &focal {
            sum = sum.add(w).expect("mass sum overflow");
        }
        if focal.is_empty() {
            return Err(EvidenceError::NotNormalized {
                sum: sum.to_string(),
            });
        }
        if !sum.approx_eq(&W::one()) {
            if (sum.to_f64() - 1.0).abs() < MassBuilder::<W>::NORMALIZE_SLACK {
                for (_, w) in &mut focal {
                    *w = w.div(&sum)?;
                }
            } else {
                return Err(EvidenceError::NotNormalized {
                    sum: sum.to_string(),
                });
            }
        }
        focal.sort_by(|(a, _), (b, _)| a.cmp(b));
        debug_assert!(focal.windows(2).all(|w| w[0].0 != w[1].0));
        Ok(MassFunction { frame, focal })
    }

    /// The frame of discernment.
    pub fn frame(&self) -> &Arc<Frame> {
        &self.frame
    }

    /// Number of focal elements.
    pub fn focal_count(&self) -> usize {
        self.focal.len()
    }

    /// Iterate over `(focal element, mass)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&FocalSet, &W)> {
        self.focal.iter().map(|(s, w)| (s, w))
    }

    /// The mass assigned to exactly `set` (zero if not focal).
    pub fn mass_of(&self, set: &FocalSet) -> W {
        match self.focal.binary_search_by(|(s, _)| s.cmp(set)) {
            Ok(i) => self.focal[i].1.clone(),
            Err(_) => W::zero(),
        }
    }

    /// Belief: `Bel(A) = Σ_{X ⊆ A} m(X)` — the minimum support
    /// committed to `A` (§2.1).
    pub fn bel(&self, set: &FocalSet) -> W {
        self.sum_where(|x| x.is_subset_of(set))
    }

    /// Plausibility: `Pls(A) = Σ_{X ∩ A ≠ ∅} m(X) = 1 − Bel(Ā)` — the
    /// degree to which the evidence fails to refute `A` (§2.1).
    pub fn pls(&self, set: &FocalSet) -> W {
        self.sum_where(|x| x.intersects(set))
    }

    /// Commonality: `Q(A) = Σ_{A ⊆ X} m(X)`.
    pub fn commonality(&self, set: &FocalSet) -> W {
        self.sum_where(|x| set.is_subset_of(x))
    }

    /// Doubt: `Dou(A) = Bel(Ā) = 1 − Pls(A)`.
    pub fn doubt(&self, set: &FocalSet) -> W {
        self.bel(&set.complement(self.frame.len()))
    }

    /// The uncertainty interval width `Pls(A) − Bel(A)`: the degree to
    /// which the evidence cannot decide between `A` and its complement.
    pub fn ignorance(&self, set: &FocalSet) -> W {
        // Pls ≥ Bel always holds, so the subtraction cannot go negative.
        self.pls(set).sub(&self.bel(set)).expect("Pls(A) >= Bel(A)")
    }

    fn sum_where(&self, mut pred: impl FnMut(&FocalSet) -> bool) -> W {
        let mut acc = W::zero();
        for (s, w) in &self.focal {
            if pred(s) {
                // Sums of masses stay within [0, 1]; rational overflow
                // cannot occur for valid mass functions.
                acc = acc.add(w).expect("mass sum overflow");
            }
        }
        acc
    }

    /// If this function represents a definite value (a single singleton
    /// focal element with mass 1), return its element index.
    pub fn as_definite(&self) -> Option<usize> {
        if self.focal.len() == 1 && self.focal[0].0.len() == 1 {
            self.focal[0].0.min_index()
        } else {
            None
        }
    }

    /// `true` when the only focal element is Ω (total ignorance).
    pub fn is_vacuous(&self) -> bool {
        self.focal.len() == 1 && self.focal[0].0.len() == self.frame.len()
    }

    /// `true` when every focal element is a singleton — i.e. the mass
    /// function is an ordinary (Bayesian) probability distribution.
    /// O(1): the focal list is sorted by cardinality first, so it is
    /// all-singleton exactly when its *last* element is one. The
    /// combination engine branches on this to take its singleton-only
    /// fast path.
    pub fn is_bayesian(&self) -> bool {
        self.focal.last().is_some_and(|(s, _)| s.len() == 1)
    }

    /// The *core*: the union of all focal elements.
    pub fn core(&self) -> FocalSet {
        self.focal
            .iter()
            .fold(FocalSet::empty(), |acc, (s, _)| acc.union(s))
    }

    /// Weighted structural equality with the representation's
    /// tolerance: same focal elements, approximately equal masses.
    pub fn approx_eq(&self, other: &MassFunction<W>) -> bool {
        self.frame == other.frame
            && self.focal.len() == other.focal.len()
            && self
                .focal
                .iter()
                .zip(other.focal.iter())
                .all(|((sa, wa), (sb, wb))| sa == sb && wa.approx_eq(wb))
    }

    /// Render in the paper's superscript notation, e.g.
    /// `[{cantonese}^1/2, {hunan, sichuan}^1/3, Ω^1/6]`. Singleton
    /// braces are dropped as in the paper: `[si^0.5, …]`.
    pub fn render(&self) -> String {
        let mut out = String::from("[");
        for (k, (s, w)) in self.focal.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            if s.len() == 1 {
                let i = s.min_index().expect("singleton has a member");
                out.push_str(self.frame.label(i).unwrap_or("?"));
            } else {
                out.push_str(&self.frame.render(s));
            }
            out.push('^');
            out.push_str(&w.to_string());
        }
        out.push(']');
        out
    }
}

impl<W: Weight> fmt::Display for MassFunction<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Incremental builder for [`MassFunction`]; validates every invariant
/// at [`MassBuilder::build`] time.
#[derive(Debug, Clone)]
pub struct MassBuilder<W: Weight> {
    frame: Arc<Frame>,
    entries: Vec<(FocalSet, W)>,
}

impl<W: Weight> MassBuilder<W> {
    /// Assign `mass` to the subset named by `labels`.
    ///
    /// # Errors
    /// [`EvidenceError::UnknownLabel`] for labels outside the frame.
    pub fn add<I, L>(self, labels: I, mass: W) -> Result<Self, EvidenceError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<str>,
    {
        let set = self.frame.subset(labels)?;
        self.add_set(set, mass)
    }

    /// Assign `mass` to an already-constructed focal set.
    ///
    /// # Errors
    /// [`EvidenceError::IndexOutOfBounds`] if the set has members
    /// outside the frame.
    pub fn add_set(mut self, set: FocalSet, mass: W) -> Result<Self, EvidenceError> {
        check_in_frame(&set, &self.frame)?;
        self.entries.push((set, mass));
        Ok(self)
    }

    /// Assign `mass` to Ω — the paper's "nonbelief" remainder.
    pub fn add_omega(mut self, mass: W) -> Self {
        let omega = self.frame.omega();
        self.entries.push((omega, mass));
        self
    }

    /// Assign whatever mass remains (to reach a total of 1) to Ω.
    /// A no-op if the entries already sum to 1.
    ///
    /// # Errors
    /// [`EvidenceError::NotNormalized`] if the entries already exceed 1.
    pub fn fill_omega(self) -> Result<Self, EvidenceError> {
        let mut sum = W::zero();
        for (_, w) in &self.entries {
            sum = sum.add(w).expect("mass sum overflow");
        }
        if sum > W::one() && !sum.approx_eq(&W::one()) {
            return Err(EvidenceError::NotNormalized {
                sum: sum.to_string(),
            });
        }
        let rest = W::one().sub(&sum).expect("sum <= 1");
        if rest.is_zero() {
            Ok(self)
        } else {
            Ok(self.add_omega(rest))
        }
    }

    /// Slack within which a slightly-off total is silently rescaled to
    /// 1 rather than rejected. Long Dempster chains drop many
    /// sub-epsilon focal masses (each below the `f64` zero tolerance),
    /// and the removed mass can add up to well above the equality
    /// tolerance while still being numerically negligible; genuine
    /// normalization bugs miss by whole focal masses and still error.
    pub const NORMALIZE_SLACK: f64 = 1e-6;

    /// Validate and produce the mass function.
    ///
    /// Totals within [`MassBuilder::NORMALIZE_SLACK`] of 1 are rescaled
    /// exactly to 1 (compensating for dropped negligible masses in
    /// long combination chains); anything farther off is rejected.
    ///
    /// # Errors
    /// * [`EvidenceError::EmptyFocalElement`] — a focal element was ∅;
    /// * [`EvidenceError::InvalidMass`] — non-finite or negative mass;
    /// * [`EvidenceError::DuplicateFocalElement`] — the same subset
    ///   appeared twice;
    /// * [`EvidenceError::NotNormalized`] — masses do not sum to 1.
    pub fn build(self) -> Result<MassFunction<W>, EvidenceError> {
        let mut kept = 0usize;
        let mut sum = W::zero();
        for (set, w) in &self.entries {
            if !w.is_valid_mass() {
                return Err(EvidenceError::InvalidMass {
                    mass: w.to_string(),
                });
            }
            if w.is_zero() {
                // Zero-mass entries are simply not focal; drop them.
                continue;
            }
            if set.is_empty() {
                return Err(EvidenceError::EmptyFocalElement);
            }
            sum = sum.add(w).expect("mass sum overflow");
            kept += 1;
        }
        if kept == 0 {
            return Err(EvidenceError::NotNormalized {
                sum: sum.to_string(),
            });
        }
        // The focal list is always exactly sized. Entries that arrived
        // that way (a decoded record's, pre-sized by its count) are the
        // list as they stand; entries grown push by push are copied
        // once into an exact allocation rather than kept with their
        // slack — long-lived relations are built through `add_set`,
        // and the slack of every evidence set they hold adds up.
        let mut focal = if self.entries.capacity() == kept {
            self.entries
        } else {
            let mut exact = Vec::with_capacity(kept);
            exact.extend(self.entries.into_iter().filter(|(_, w)| !w.is_zero()));
            exact
        };
        if !sum.approx_eq(&W::one()) {
            if (sum.to_f64() - 1.0).abs() < Self::NORMALIZE_SLACK {
                for (_, w) in &mut focal {
                    *w = w.div(&sum)?;
                }
            } else {
                return Err(EvidenceError::NotNormalized {
                    sum: sum.to_string(),
                });
            }
        }
        focal.sort_by(|(a, _), (b, _)| a.cmp(b));
        if focal.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(EvidenceError::DuplicateFocalElement);
        }
        Ok(MassFunction {
            frame: self.frame,
            focal,
        })
    }
}

/// `set ⊆ frame`, by its largest member.
fn check_in_frame(set: &FocalSet, frame: &Frame) -> Result<(), EvidenceError> {
    match set.max_index() {
        Some(max) if max >= frame.len() => Err(EvidenceError::IndexOutOfBounds {
            index: max,
            frame_size: frame.len(),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;

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

    /// The paper's §2.1 evidence set ES1 for restaurant `wok`:
    /// m({cantonese}) = 1/2, m({hunan, sichuan}) = 1/3, m(Ω) = 1/6.
    fn es1() -> MassFunction<Ratio> {
        MassFunction::<Ratio>::builder(speciality())
            .add(["cantonese"], Ratio::new(1, 2).unwrap())
            .unwrap()
            .add(["hunan", "sichuan"], Ratio::new(1, 3).unwrap())
            .unwrap()
            .add_omega(Ratio::new(1, 6).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn paper_belief_example() {
        // Bel({cantonese, hunan, sichuan}) = 5/6 (§2.1).
        let m = es1();
        let chs = m.frame().subset(["cantonese", "hunan", "sichuan"]).unwrap();
        assert_eq!(m.bel(&chs), Ratio::new(5, 6).unwrap());
    }

    #[test]
    fn paper_plausibility_example() {
        // Pls({cantonese, hunan, sichuan}) = 1 (§2.1).
        let m = es1();
        let chs = m.frame().subset(["cantonese", "hunan", "sichuan"]).unwrap();
        assert_eq!(m.pls(&chs), Ratio::ONE);
        // And Bel <= Pls with the gap being the Ω mass here.
        assert_eq!(m.ignorance(&chs), Ratio::new(1, 6).unwrap());
    }

    #[test]
    fn mass_independent_of_set_size() {
        // §2.1: m({cantonese}) > m({cantonese, hunan}) since the latter
        // is not focal.
        let m = es1();
        let ca = m.frame().subset(["cantonese"]).unwrap();
        let cahu = m.frame().subset(["cantonese", "hunan"]).unwrap();
        assert!(m.mass_of(&ca) > m.mass_of(&cahu));
        assert_eq!(m.mass_of(&cahu), Ratio::ZERO);
    }

    #[test]
    fn normalization_enforced() {
        let half = Ratio::new(1, 2).unwrap();
        let err = MassFunction::<Ratio>::builder(speciality())
            .add(["hunan"], half)
            .unwrap()
            .build();
        assert!(matches!(err, Err(EvidenceError::NotNormalized { .. })));
    }

    #[test]
    fn empty_focal_rejected() {
        let err = MassFunction::<f64>::builder(speciality())
            .add(Vec::<&str>::new(), 1.0)
            .unwrap()
            .build();
        assert_eq!(err, Err(EvidenceError::EmptyFocalElement));
    }

    #[test]
    fn duplicate_focal_rejected() {
        let err = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], 0.5)
            .unwrap()
            .add(["hunan"], 0.5)
            .unwrap()
            .build();
        assert_eq!(err, Err(EvidenceError::DuplicateFocalElement));
    }

    #[test]
    fn invalid_mass_rejected() {
        let err = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], -0.5)
            .unwrap()
            .build();
        assert!(matches!(err, Err(EvidenceError::InvalidMass { .. })));
        let err = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], f64::NAN)
            .unwrap()
            .build();
        assert!(matches!(err, Err(EvidenceError::InvalidMass { .. })));
    }

    #[test]
    fn zero_mass_entries_dropped() {
        let m = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], 1.0)
            .unwrap()
            .add(["sichuan"], 0.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(m.focal_count(), 1);
    }

    #[test]
    fn fill_omega() {
        let m = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], 0.4)
            .unwrap()
            .fill_omega()
            .unwrap()
            .build()
            .unwrap();
        assert!(m.mass_of(&m.frame().omega()).approx_eq(&0.6));
        // Exactly-1 case: fill_omega is a no-op.
        let m = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], 1.0)
            .unwrap()
            .fill_omega()
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(m.focal_count(), 1);
        // Over-1 case errors.
        let err = MassFunction::<f64>::builder(speciality())
            .add(["hunan"], 1.5)
            .unwrap()
            .fill_omega();
        assert!(matches!(err, Err(EvidenceError::NotNormalized { .. })));
    }

    #[test]
    fn vacuous_and_certain() {
        let v = MassFunction::<f64>::vacuous(speciality()).unwrap();
        assert!(v.is_vacuous());
        assert!(v.as_definite().is_none());
        let c = MassFunction::<f64>::certain(speciality(), "italian").unwrap();
        assert_eq!(c.as_definite(), Some(5));
        assert!(c.is_bayesian());
        assert!(!v.is_bayesian());
        assert!(MassFunction::<f64>::certain(speciality(), "thai").is_err());
        let empty = Arc::new(Frame::new("none", Vec::<String>::new()));
        assert!(MassFunction::<f64>::vacuous(empty).is_err());
    }

    #[test]
    fn commonality_and_doubt() {
        let m = es1();
        let hu = m.frame().subset(["hunan"]).unwrap();
        // Q({hunan}) = m({hunan,sichuan}) + m(Ω) = 1/2.
        assert_eq!(m.commonality(&hu), Ratio::new(1, 2).unwrap());
        // Dou({hunan}) = Bel(complement) = m({cantonese}) = 1/2.
        assert_eq!(m.doubt(&hu), Ratio::new(1, 2).unwrap());
    }

    #[test]
    fn core_is_union_of_focals() {
        let m = es1();
        assert_eq!(m.core(), m.frame().omega());
        let c = MassFunction::<f64>::certain(speciality(), "hunan").unwrap();
        assert_eq!(c.core(), FocalSet::singleton(1));
    }

    #[test]
    fn render_matches_paper_notation() {
        let m = es1();
        assert_eq!(m.render(), "[cantonese^1/2, {hunan, sichuan}^1/3, Ω^1/6]");
    }

    /// The parent's construction, kept as the oracle: `add_set` entry
    /// by entry into a growing vector, then one validating pass that
    /// pushes the kept entries into a second one.
    fn entry_by_entry(
        frame: &Arc<Frame>,
        entries: &[(FocalSet, f64)],
    ) -> Result<Vec<(FocalSet, f64)>, EvidenceError> {
        let mut pushed = Vec::new();
        for (set, w) in entries {
            if let Some(max) = set.max_index() {
                if max >= frame.len() {
                    return Err(EvidenceError::IndexOutOfBounds {
                        index: max,
                        frame_size: frame.len(),
                    });
                }
            }
            pushed.push((set.clone(), *w));
        }
        let mut focal = Vec::new();
        let mut sum = 0.0f64;
        for (set, w) in pushed {
            if !w.is_valid_mass() {
                return Err(EvidenceError::InvalidMass {
                    mass: w.to_string(),
                });
            }
            if w.is_zero() {
                continue;
            }
            if set.is_empty() {
                return Err(EvidenceError::EmptyFocalElement);
            }
            sum = sum.add(&w).expect("mass sum overflow");
            focal.push((set, w));
        }
        if focal.is_empty() {
            return Err(EvidenceError::NotNormalized {
                sum: sum.to_string(),
            });
        }
        if !sum.approx_eq(&1.0) {
            if (sum - 1.0).abs() < MassBuilder::<f64>::NORMALIZE_SLACK {
                for (_, w) in &mut focal {
                    *w = w.div(&sum)?;
                }
            } else {
                return Err(EvidenceError::NotNormalized {
                    sum: sum.to_string(),
                });
            }
        }
        focal.sort_by(|(a, _), (b, _)| a.cmp(b));
        if focal.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(EvidenceError::DuplicateFocalElement);
        }
        Ok(focal)
    }

    /// `from_entries` (over an exactly sized `Vec`, an over-sized one,
    /// and a lazy iterator) and the `add_set` builder against the
    /// oracle: same focal list bit for bit, or the same error; and the
    /// focal list never carries slack.
    fn assert_matches_oracle(entries: &[(FocalSet, f64)]) {
        let frame = speciality();
        let expected = entry_by_entry(&frame, entries);
        let exact = entries.to_vec();
        let mut slack = Vec::with_capacity(entries.len() + 7);
        slack.extend(entries.iter().cloned());
        let built = MassFunction::<f64>::builder(Arc::clone(&frame));
        let built = entries
            .iter()
            .try_fold(built, |b, (set, w)| b.add_set(set.clone(), *w))
            .and_then(MassBuilder::build);
        for (how, got) in [
            ("vec", MassFunction::from_entries(Arc::clone(&frame), exact)),
            (
                "slack",
                MassFunction::from_entries(Arc::clone(&frame), slack),
            ),
            (
                "iter",
                MassFunction::from_entries(Arc::clone(&frame), entries.iter().cloned()),
            ),
            ("builder", built),
        ] {
            match (&expected, got) {
                (Ok(focal), Ok(m)) => {
                    assert_eq!(focal.len(), m.focal.len(), "{how}: {entries:?}");
                    for ((es, ew), (gs, gw)) in focal.iter().zip(&m.focal) {
                        assert_eq!(es, gs, "{how}: {entries:?}");
                        assert_eq!(ew.to_bits(), gw.to_bits(), "{how}: {entries:?}");
                    }
                    assert_eq!(m.focal.capacity(), m.focal.len(), "{how}: {entries:?}");
                }
                (Err(e), Err(g)) => assert_eq!(e, &g, "{how}: {entries:?}"),
                (e, g) => panic!("{how}: oracle {e:?} vs {g:?} for {entries:?}"),
            }
        }
    }

    /// Every way an entry list can be invalid, alone and mixed: the
    /// error is the one the entry-by-entry loop raised, and where two
    /// apply the same one wins — an out-of-frame index anywhere before
    /// any mass is looked at, then per entry invalid mass before ∅
    /// (a zero mass excuses ∅), then the sum, then duplicates.
    #[test]
    fn invalid_entries_fail_as_the_entry_by_entry_loop_did() {
        let s = |i: usize| FocalSet::singleton(i);
        let (out, empty) = (FocalSet::singleton(17), FocalSet::empty());
        let table: Vec<(Vec<(FocalSet, f64)>, &str)> = vec![
            (vec![(s(0), f64::NAN), (s(1), 1.0)], "InvalidMass"),
            (vec![(s(0), -0.5), (s(1), 1.5)], "InvalidMass"),
            (vec![(s(0), f64::INFINITY)], "InvalidMass"),
            (vec![(empty.clone(), 0.5), (s(1), 0.5)], "EmptyFocalElement"),
            (vec![(s(1), 0.5), (s(1), 0.5)], "DuplicateFocalElement"),
            (vec![(s(0), 0.5), (s(1), 0.5 + 2e-6)], "NotNormalized"),
            (vec![(s(0), 0.5), (s(1), 0.5 - 2e-6)], "NotNormalized"),
            (vec![(s(0), 0.0), (empty.clone(), 0.0)], "NotNormalized"),
            (vec![], "NotNormalized"),
            (vec![(out.clone(), 1.0)], "IndexOutOfBounds"),
            // Mixed: the first error in the loop's order wins.
            (
                vec![(s(0), f64::NAN), (out.clone(), 1.0)],
                "IndexOutOfBounds",
            ),
            (
                vec![(empty.clone(), 0.5), (s(0), -1.0)],
                "EmptyFocalElement",
            ),
            (vec![(empty.clone(), -1.0), (s(0), 1.0)], "InvalidMass"),
            (vec![(s(1), 0.7), (s(1), 0.7)], "NotNormalized"),
            (
                vec![(s(1), 0.5), (s(1), 0.5), (empty, 1.0)],
                "EmptyFocalElement",
            ),
        ];
        for (entries, variant) in table {
            let err = MassFunction::<f64>::from_entries(speciality(), entries.clone())
                .expect_err("invalid by construction");
            let name = format!("{err:?}");
            assert!(name.starts_with(variant), "{entries:?}: {name}");
            assert_matches_oracle(&entries);
        }
        // Valid: ∅ and a repeated set excused by zero mass, a sum
        // inside the slack rescaled, zero entries dropped.
        for entries in [
            vec![(FocalSet::empty(), 0.0), (s(2), 1.0), (s(2), 0.0)],
            vec![(s(3), 0.5), (s(0), 0.5 + 5e-7)],
            vec![(s(1), 0.25), (s(0), 0.0), (s(4), 0.75)],
        ] {
            assert!(MassFunction::<f64>::from_entries(speciality(), entries.clone()).is_ok());
            assert_matches_oracle(&entries);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `from_entries` ≡ `builder().add_set(..)*.build()` ≡ the
        /// oracle, bit for bit or error for error, over entry lists
        /// that are mostly valid and sometimes not: sets drawn from a
        /// 7-bit mask (bit 6 is outside the 6-element frame, 0 is ∅),
        /// weights normalized and then perturbed.
        #[test]
        fn from_entries_is_the_builder_bit_for_bit(
            raw in proptest::collection::vec((0u32..128, 0u32..40), 1..=6),
            perturb in 0u32..8,
        ) {
            let total: u32 = raw.iter().map(|(_, w)| *w).sum();
            let entries: Vec<(FocalSet, f64)> = raw
                .iter()
                .enumerate()
                .map(|(at, (bits, w))| {
                    let set = FocalSet::from_indices((0..7).filter(|i| bits & (1 << i) != 0));
                    let mass = f64::from(*w) / f64::from(total.max(1));
                    let mass = match (at, perturb) {
                        (0, 1) => mass + 5e-7, // inside the slack: rescaled
                        (0, 2) => mass + 5e-6, // outside it: rejected
                        (0, 3) => -mass,
                        (0, 4) => f64::NAN,
                        _ => mass,
                    };
                    (set, mass)
                })
                .collect();
            assert_matches_oracle(&entries);
        }
    }

    #[test]
    fn builder_rejects_out_of_frame_set() {
        let b = MassFunction::<f64>::builder(speciality());
        let err = b.add_set(FocalSet::singleton(17), 1.0);
        assert!(matches!(err, Err(EvidenceError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn bel_pls_bounds() {
        let m = es1();
        let sets = [
            m.frame().subset(["cantonese"]).unwrap(),
            m.frame().subset(["hunan", "italian"]).unwrap(),
            m.frame().omega(),
        ];
        for s in &sets {
            assert!(m.bel(s) <= m.pls(s));
        }
        assert_eq!(m.bel(&m.frame().omega()), Ratio::ONE);
        assert_eq!(m.pls(&m.frame().omega()), Ratio::ONE);
        assert_eq!(m.bel(&FocalSet::empty()), Ratio::ZERO);
        assert_eq!(m.pls(&FocalSet::empty()), Ratio::ZERO);
    }
}
