//! Equivalence suite: the optimized bitset combination engine and the
//! Bel/Pls/Q measures against the retained `BTreeSet` reference
//! implementation (`evirel_evidence::reference`), over random frames —
//! including frames wider than 128 values, which exercise the
//! boxed-words `FocalSet` representation — plus exact regression
//! checks that the κ (conflict) values printed in the paper's tables
//! are unchanged by the rework.

use evirel_evidence::reference::{self, RefMass, RefSet};
use evirel_evidence::{
    combine, EvidenceError, FocalSet, FocalView, Frame, MassFunction, Ratio, Weight,
};
use proptest::prelude::*;
use std::sync::Arc;

/// 8 values: every focal set is inline, singleton fast path reachable.
const NARROW: usize = 8;
/// 200 values: focal sets with members ≥ 128 take the boxed-words
/// representation and the combination engine's boxed fallback.
const WIDE: usize = 200;

fn frame(n: usize) -> Arc<Frame> {
    Arc::new(Frame::new("equiv", (0..n).map(|i| format!("v{i}"))))
}

/// A non-empty subset with up to 5 members drawn from the whole frame.
fn subset(n: usize) -> impl Strategy<Value = FocalSet> {
    proptest::collection::vec(0usize..n, 1..=5).prop_map(FocalSet::from_indices)
}

/// 1..=6 raw focal elements — up to five members each, drawn from the
/// wide frame — with integer weights.
fn raw_focal() -> impl Strategy<Value = Vec<(Vec<usize>, u32)>> {
    proptest::collection::vec(
        (proptest::collection::vec(0usize..WIDE, 1..=5), 1u32..1000),
        1..=6,
    )
}

/// `raw` as distinct focal elements of `frame(n)` (members folded into
/// the frame). `singleton_only` keeps one member per element, so the
/// Bayesian fast path is exercised deliberately, not by luck.
fn focal_of(raw: &[(Vec<usize>, u32)], n: usize, singleton_only: bool) -> Focal {
    let mut entries = Focal::new();
    for (members, w) in raw {
        let kept = if singleton_only { 1 } else { members.len() };
        let set = FocalSet::from_indices(members[..kept].iter().map(|m| m % n));
        match entries.iter_mut().find(|(s, _)| *s == set) {
            Some((_, acc)) => *acc += w,
            None => entries.push((set, *w)),
        }
    }
    entries
}

/// `entries` normalized into a mass function over `frame(n)`, in
/// either weight type.
fn normalized<W: Weight>(n: usize, entries: &[(FocalSet, u32)]) -> MassFunction<W> {
    let total: u32 = entries.iter().map(|(_, w)| *w).sum();
    MassFunction::from_entries(
        frame(n),
        entries
            .iter()
            .map(|(s, w)| (s.clone(), W::from_ratio(*w, total))),
    )
    .expect("normalized by construction")
}

/// A valid mass function with 1..=6 focal elements.
fn mass(n: usize, singleton_only: bool) -> impl Strategy<Value = MassFunction<f64>> {
    raw_focal().prop_map(move |raw| normalized(n, &focal_of(&raw, n, singleton_only)))
}

/// Focal elements over `frame(n)`, before normalization.
type Focal = Vec<(FocalSet, u32)>;

/// The observing pass against the full rule on the pair `(a, b)` over
/// `frame(n)`, in weight type `W`, with a fresh scratch and with one
/// that has served the full combination of `warm`: the `same` κ (bits
/// for `f64`, exact for `Ratio`), and `total` exactly when the rule
/// refuses the pair.
fn check_observation<W: Weight + std::fmt::Debug>(
    n: usize,
    a: &Focal,
    b: &Focal,
    warm: &(Focal, Focal),
    same: impl Fn(&W, &W) -> bool,
) -> Result<(), String> {
    let (a, b) = (&normalized::<W>(n, a), &normalized::<W>(n, b));
    let mut shared = combine::Scratch::new();
    let (x, y) = (normalized(NARROW, &warm.0), normalized(NARROW, &warm.1));
    let _ = combine::dempster_with(&x, &y, &mut shared);
    let full = combine::dempster_with(a, b, &mut combine::Scratch::new());
    for scratch in [&mut combine::Scratch::new(), &mut shared] {
        let seen = combine::observe_with(a, b, scratch).map_err(|e| e.to_string())?;
        match &full {
            Ok(c) if !seen.total && same(&c.conflict, &seen.conflict) => {}
            Err(EvidenceError::TotalConflict) if seen.total => {}
            _ => return Err(format!("observed {seen:?}, the rule says {full:?}")),
        }
        let kappa = combine::conflict_with(a, b, scratch).map_err(|e| e.to_string())?;
        if !same(&kappa, &seen.conflict) {
            return Err(format!("conflict_with {kappa:?} vs {seen:?}"));
        }
    }
    Ok(())
}

/// Core equivalence check: optimized vs reference Dempster.
fn check_dempster_equivalence(a: &MassFunction<f64>, b: &MassFunction<f64>) -> Result<(), String> {
    let fast = combine::dempster(a, b);
    let slow = reference::dempster(a, b);
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            if !f.mass.approx_eq(&s.0) {
                return Err(format!("masses differ: fast {} vs ref {}", f.mass, s.0));
            }
            if (f.conflict - s.1).abs() > 1e-9 {
                return Err(format!("κ differs: fast {} vs ref {}", f.conflict, s.1));
            }
            Ok(())
        }
        (Err(ef), Err(es)) => {
            if ef == es {
                Ok(())
            } else {
                Err(format!("errors differ: fast {ef:?} vs ref {es:?}"))
            }
        }
        (f, s) => Err(format!("disagreement: fast {f:?} vs ref {s:?}")),
    }
}

/// Measures equivalence: Bel/Pls/Q computed by the bitset engine vs
/// the reference definitions.
fn check_measures_equivalence(m: &MassFunction<f64>, s: &FocalSet) -> Result<(), String> {
    let r = RefMass::of(m);
    let rs: RefSet = s.iter().collect();
    let pairs = [
        ("Bel", m.bel(s), r.bel(&rs).unwrap()),
        ("Pls", m.pls(s), r.pls(&rs).unwrap()),
        ("Q", m.commonality(s), r.commonality(&rs).unwrap()),
    ];
    for (name, fast, slow) in pairs {
        if (fast - slow).abs() > 1e-9 {
            return Err(format!("{name} differs: fast {fast} vs ref {slow}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn dempster_matches_reference_narrow(
        a in mass(NARROW, false), b in mass(NARROW, false)
    ) {
        prop_assert!(check_dempster_equivalence(&a, &b).is_ok(),
            "{:?}", check_dempster_equivalence(&a, &b));
    }

    #[test]
    fn dempster_matches_reference_singleton_fast_path(
        a in mass(NARROW, true), b in mass(NARROW, true)
    ) {
        prop_assert!(check_dempster_equivalence(&a, &b).is_ok(),
            "{:?}", check_dempster_equivalence(&a, &b));
    }

    #[test]
    fn dempster_matches_reference_mixed_shapes(
        a in mass(NARROW, true), b in mass(NARROW, false)
    ) {
        prop_assert!(check_dempster_equivalence(&a, &b).is_ok(),
            "{:?}", check_dempster_equivalence(&a, &b));
    }

    #[test]
    fn dempster_matches_reference_wide_frames(
        a in mass(WIDE, false), b in mass(WIDE, false)
    ) {
        prop_assert!(check_dempster_equivalence(&a, &b).is_ok(),
            "{:?}", check_dempster_equivalence(&a, &b));
    }

    #[test]
    fn dempster_matches_reference_wide_singletons(
        a in mass(WIDE, true), b in mass(WIDE, true)
    ) {
        prop_assert!(check_dempster_equivalence(&a, &b).is_ok(),
            "{:?}", check_dempster_equivalence(&a, &b));
    }

    #[test]
    fn measures_match_reference_narrow(m in mass(NARROW, false), s in subset(NARROW)) {
        prop_assert!(check_measures_equivalence(&m, &s).is_ok(),
            "{:?}", check_measures_equivalence(&m, &s));
    }

    #[test]
    fn measures_match_reference_wide(m in mass(WIDE, false), s in subset(WIDE)) {
        prop_assert!(check_measures_equivalence(&m, &s).is_ok(),
            "{:?}", check_measures_equivalence(&m, &s));
    }

    /// The observing pass — the conjunctive dispatch without a sink —
    /// reports the κ and the total-conflict verdict of the full rule on
    /// every path of the dispatch (Bayesian × Bayesian, inline, boxed),
    /// in both weight types, whether or not the scratch it is handed
    /// has served other pairs (a full combination among them).
    #[test]
    fn observing_pass_reports_what_the_rule_does(
        shape in 0usize..5,
        raw_a in raw_focal(),
        raw_b in raw_focal(),
    ) {
        let (n, single_a, single_b) = match shape {
            0 => (NARROW, true, true),   // Bayesian × Bayesian
            1 => (NARROW, false, false), // inline
            2 => (NARROW, true, false),  // inline, one side Bayesian
            3 => (WIDE, false, false),   // boxed
            _ => (WIDE, true, true),     // Bayesian, boxed sets
        };
        let (a, b) = (&focal_of(&raw_a, n, single_a), &focal_of(&raw_b, n, single_b));
        // The shared scratch arrives used, by a full inline combination.
        let warm = (focal_of(&raw_a, NARROW, false), focal_of(&raw_b, NARROW, false));
        let same_bits = |x: &f64, y: &f64| x.to_bits() == y.to_bits();
        let checked = check_observation(n, a, b, &warm, same_bits);
        prop_assert!(checked.is_ok(), "f64, shape {shape}: {checked:?}");
        let exact = |x: &Ratio, y: &Ratio| x == y;
        let checked = check_observation(n, a, b, &warm, exact);
        prop_assert!(checked.is_ok(), "Ratio, shape {shape}: {checked:?}");
    }

    #[test]
    fn kappa_matches_reference(a in mass(NARROW, false), b in mass(NARROW, false)) {
        // combine::conflict has its own summation-only path; it must
        // agree with the κ the reference combination reports.
        let kappa = combine::conflict(&a, &b).unwrap();
        match reference::dempster(&a, &b) {
            Ok((_, ref_kappa)) => prop_assert!((kappa - ref_kappa).abs() < 1e-9),
            Err(_) => prop_assert!((kappa - 1.0).abs() < 1e-9),
        }
    }
}

// ---------------------------------------------------------------------
// Paper-table κ regressions: the printed conflict values must survive
// any rework of the combination engine.
// ---------------------------------------------------------------------

fn r(n: i128, d: i128) -> Ratio {
    Ratio::new(n, d).unwrap()
}

/// §2.2 worked example: κ = 1/8 exactly, all combined masses as
/// printed.
#[test]
fn paper_section_2_2_kappa_exact() {
    let f = Arc::new(Frame::new(
        "speciality",
        [
            "american",
            "hunan",
            "sichuan",
            "cantonese",
            "mughalai",
            "italian",
        ],
    ));
    let m1 = MassFunction::builder(Arc::clone(&f))
        .add(["cantonese"], r(1, 2))
        .unwrap()
        .add(["hunan", "sichuan"], r(1, 3))
        .unwrap()
        .add_omega(r(1, 6))
        .build()
        .unwrap();
    let m2 = MassFunction::builder(Arc::clone(&f))
        .add(["cantonese", "hunan"], r(1, 2))
        .unwrap()
        .add(["hunan"], r(1, 4))
        .unwrap()
        .add_omega(r(1, 4))
        .build()
        .unwrap();
    let c = combine::dempster(&m1, &m2).unwrap();
    assert_eq!(c.conflict, r(1, 8));
    assert_eq!(c.mass.mass_of(&f.subset(["cantonese"]).unwrap()), r(3, 7));
    assert_eq!(c.mass.mass_of(&f.subset(["hunan"]).unwrap()), r(1, 3));
    assert_eq!(c.mass.mass_of(&f.omega()), r(1, 21));
    // And the reference agrees exactly.
    let (ref_mass, ref_kappa) = reference::dempster(&m1, &m2).unwrap();
    assert_eq!(ref_mass, c.mass);
    assert_eq!(ref_kappa, c.conflict);
}

/// Table 4's garden rating row: [ex^0.33, gd^0.5, avg^0.17] ⊕
/// [ex^0.2, gd^0.8] has κ = 0.534. Both operands are Bayesian, so
/// this pins the singleton-only fast path to the printed value.
#[test]
fn paper_table4_garden_kappa() {
    let f = Arc::new(Frame::new("rating", ["avg", "gd", "ex"]));
    let m1 = MassFunction::<f64>::builder(Arc::clone(&f))
        .add(["ex"], 0.33)
        .unwrap()
        .add(["gd"], 0.5)
        .unwrap()
        .add(["avg"], 0.17)
        .unwrap()
        .build()
        .unwrap();
    let m2 = MassFunction::<f64>::builder(Arc::clone(&f))
        .add(["ex"], 0.2)
        .unwrap()
        .add(["gd"], 0.8)
        .unwrap()
        .build()
        .unwrap();
    let c = combine::dempster(&m1, &m2).unwrap();
    assert!((c.conflict - 0.534).abs() < 1e-9);
    assert!((c.mass.mass_of(&f.subset(["ex"]).unwrap()) - 0.066 / 0.466).abs() < 1e-9);
    assert!((c.mass.mass_of(&f.subset(["gd"]).unwrap()) - 0.4 / 0.466).abs() < 1e-9);
    assert!((combine::conflict(&m1, &m2).unwrap() - 0.534).abs() < 1e-9);
}

/// Table 4's mehl membership row: the paper's F over Ψ = {in, out}
/// combines (sn, sp) = (0.5, 0.5) with (0.8, 1.0) at κ = 0.4 into
/// (5/6, 5/6) ≈ (0.83, 0.83).
#[test]
fn paper_table4_membership_kappa() {
    let psi = Arc::new(Frame::new("Ψ", ["in", "out"]));
    let m1 = MassFunction::<f64>::builder(Arc::clone(&psi))
        .add(["in"], 0.5)
        .unwrap()
        .add(["out"], 0.5)
        .unwrap()
        .build()
        .unwrap();
    let m2 = MassFunction::<f64>::builder(Arc::clone(&psi))
        .add(["in"], 0.8)
        .unwrap()
        .add_omega(0.2)
        .build()
        .unwrap();
    let c = combine::dempster(&m1, &m2).unwrap();
    assert!((c.conflict - 0.4).abs() < 1e-9);
    let sn = c.mass.mass_of(&psi.subset(["in"]).unwrap());
    let sp = 1.0 - c.mass.mass_of(&psi.subset(["out"]).unwrap());
    assert!((sn - 5.0 / 6.0).abs() < 1e-9);
    assert!((sp - 5.0 / 6.0).abs() < 1e-9);
}

/// Deterministic boxed-path regression: a frame of 200 values whose
/// focal sets straddle the 128-bit inline boundary combines
/// identically in both engines.
#[test]
fn wide_frame_straddling_inline_boundary() {
    let f = frame(200);
    let m1 = MassFunction::<f64>::from_entries(
        Arc::clone(&f),
        [
            (FocalSet::from_indices([5, 127, 128]), 0.5),
            (FocalSet::from_indices([127, 128, 199]), 0.3),
            (FocalSet::full(200), 0.2),
        ],
    )
    .unwrap();
    let m2 = MassFunction::<f64>::from_entries(
        Arc::clone(&f),
        [
            (FocalSet::from_indices([5, 128]), 0.6),
            (FocalSet::from_indices([199]), 0.4),
        ],
    )
    .unwrap();
    let fast = combine::dempster(&m1, &m2).unwrap();
    let (ref_mass, ref_kappa) = reference::dempster(&m1, &m2).unwrap();
    assert!(fast.mass.approx_eq(&ref_mass));
    assert!((fast.conflict - ref_kappa).abs() < 1e-12);
}

// ---------------------------------------------------------------------
// Focal views: a stored mass function's entries, read where they lie.
// ---------------------------------------------------------------------

/// `entries` laid out as a stored record holds a mass function's focal
/// entries: per entry the set's trimmed word count, its little-endian
/// words, then the weight's bits.
fn stored_entries(entries: &[(FocalSet, f64)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (set, w) in entries {
        let mut words = vec![0u64; set.max_index().map_or(0, |max| max / 64 + 1)];
        for i in set.iter() {
            words[i / 64] |= 1 << (i % 64);
        }
        out.extend_from_slice(&(words.len() as u16).to_le_bytes());
        for word in words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out
}

/// `m`'s focal list as [`stored_entries`] lays it out.
fn stored(m: &MassFunction<f64>) -> Vec<u8> {
    stored_entries(&m.iter().map(|(s, w)| (s.clone(), *w)).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Over [`FocalView`]s of two stored mass functions the observing
    /// pass is the pass over the decoded mass functions: κ the same
    /// bits and the same total-conflict verdict — Bayesian × Bayesian,
    /// inline, one side Bayesian — with a fresh scratch and with one a
    /// full combination has used.
    #[test]
    fn observing_views_is_observing_the_decoded_mass_functions(
        shape in 0usize..3,
        raw_a in raw_focal(),
        raw_b in raw_focal(),
    ) {
        let (single_a, single_b) = [(true, true), (false, false), (true, false)][shape];
        let a = normalized::<f64>(NARROW, &focal_of(&raw_a, NARROW, single_a));
        let b = normalized::<f64>(NARROW, &focal_of(&raw_b, NARROW, single_b));
        let (bytes_a, bytes_b) = (stored(&a), stored(&b));
        let view_a = FocalView::new(a.frame(), a.focal_count(), &bytes_a);
        let view_b = FocalView::new(b.frame(), b.focal_count(), &bytes_b);
        prop_assert!(view_a.is_some() && view_b.is_some(), "shape {}", shape);
        let (view_a, view_b) = (view_a.unwrap(), view_b.unwrap());
        let want = combine::observe_with(&a, &b, &mut combine::Scratch::new()).unwrap();
        let mut used = combine::Scratch::new();
        let _ = combine::dempster_with(&b, &a, &mut used);
        for scratch in [&mut combine::Scratch::new(), &mut used] {
            let got = combine::observe_with(&view_a, &view_b, scratch).unwrap();
            prop_assert_eq!(got.conflict.to_bits(), want.conflict.to_bits(), "shape {}", shape);
            prop_assert_eq!(got.total, want.total, "shape {}", shape);
        }
    }
}

/// A view refuses exactly what the full decode would not keep as it
/// stands: entries out of canonical order (which it sorts), a set twice,
/// an empty set, a set outside the frame, an invalid weight (which it
/// refuses), a zero weight (which it drops), a total off 1 by less than
/// the rescale slack (which it rescales) — and any frame wider than 128
/// values. A refused value is decoded in full by the record's reader,
/// so each lands on the full path's result or error.
#[test]
fn a_view_refuses_what_the_full_decode_would_change_or_refuse() {
    let set = |members: &[usize]| FocalSet::from_indices(members.iter().copied());
    let cases = [
        (
            "out of canonical order",
            NARROW,
            vec![(set(&[1, 2]), 0.5), (set(&[0]), 0.5)],
        ),
        (
            "out of order among equals",
            NARROW,
            vec![(set(&[2]), 0.5), (set(&[1]), 0.5)],
        ),
        (
            "a set twice",
            NARROW,
            vec![(set(&[3]), 0.5), (set(&[3]), 0.5)],
        ),
        (
            "a zero weight",
            NARROW,
            vec![(set(&[0]), 1.0), (set(&[1]), 0.0)],
        ),
        (
            "an invalid weight",
            NARROW,
            vec![(set(&[0]), -0.5), (set(&[1]), 1.5)],
        ),
        (
            "an empty set",
            NARROW,
            vec![(FocalSet::empty(), 0.5), (set(&[0]), 0.5)],
        ),
        (
            "a member outside the frame",
            NARROW,
            vec![(set(&[NARROW]), 1.0)],
        ),
        (
            "a total inside the rescale slack",
            NARROW,
            vec![(set(&[0]), 0.5), (set(&[1]), 0.5 + 1e-7)],
        ),
        (
            "a frame wider than 128 values",
            WIDE,
            vec![(set(&[0]), 1.0)],
        ),
    ];
    for (case, n, entries) in cases {
        let bytes = stored_entries(&entries);
        assert!(
            FocalView::new(&frame(n), entries.len(), &bytes).is_none(),
            "{case}"
        );
        let full = MassFunction::from_entries(frame(n), entries.clone());
        let as_it_stands = full.as_ref().is_ok_and(|m| {
            m.iter()
                .map(|(s, w)| (s.clone(), *w))
                .eq(entries.iter().cloned())
        });
        assert_eq!(as_it_stands, n == WIDE, "{case}: {full:?}");
    }
    // What the full decode keeps as it stands is a view; cut short or
    // run on, its bytes are refused, never read past.
    let canonical = [(set(&[1]), 0.25), (set(&[2]), 0.25), (set(&[0, 1]), 0.5)];
    let bytes = stored_entries(&canonical);
    assert!(FocalView::new(&frame(NARROW), 3, &bytes).is_some());
    for cut in 0..bytes.len() {
        assert!(
            FocalView::new(&frame(NARROW), 3, &bytes[..cut]).is_none(),
            "cut at {cut}"
        );
    }
    let mut long = bytes.clone();
    long.push(0);
    assert!(FocalView::new(&frame(NARROW), 3, &long).is_none());
}

/// 120 values: inline sets that take both words of a stored entry.
const TWO_WORDS: usize = 120;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The one Bel/Pls walk ([`combine::bel_pls`]) over a [`FocalView`]
    /// of a stored mass function is the walk over the decoded mass
    /// function, bit for bit, and that is [`MassFunction::bel`] and
    /// [`MassFunction::pls`] — over one-word and two-word frames. A view
    /// is refused for entries out of canonical order, whose full decode
    /// (sorted) walks to the same bits, and for any frame over 128
    /// values, which only the built path reads.
    #[test]
    fn bel_pls_over_a_view_is_bel_pls_over_the_decoded_mass_function(
        n in prop_oneof![Just(NARROW), Just(TWO_WORDS), Just(WIDE)],
        raw in raw_focal(),
        members in proptest::collection::vec(0usize..WIDE, 1..=12),
    ) {
        let m = normalized::<f64>(n, &focal_of(&raw, n, false));
        let target = FocalSet::from_indices(members.iter().map(|i| i % n));
        let bits = |(bel, pls): (f64, f64)| (bel.to_bits(), pls.to_bits());
        let built = bits(combine::bel_pls(&m, &target));
        prop_assert_eq!(built, bits((m.bel(&target), m.pls(&target))));
        let bytes = stored(&m);
        match FocalView::new(m.frame(), m.focal_count(), &bytes) {
            Some(view) => {
                prop_assert!(n <= 128);
                prop_assert_eq!(bits(combine::bel_pls(&view, &target)), built);
            }
            None => prop_assert_eq!(n, WIDE),
        }

        let mut reversed: Vec<(FocalSet, f64)> = m.iter().map(|(s, w)| (s.clone(), *w)).collect();
        reversed.reverse();
        let bytes = stored_entries(&reversed);
        let refused = FocalView::new(m.frame(), reversed.len(), &bytes);
        prop_assert_eq!(refused.is_none(), n == WIDE || reversed.len() > 1);
        let decoded = MassFunction::from_entries(Arc::clone(m.frame()), reversed).unwrap();
        prop_assert_eq!(bits(combine::bel_pls(&decoded, &target)), built);
    }
}
