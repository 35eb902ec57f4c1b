//! Extended union ∪̃ (§3.2) — the attribute-value conflict resolution
//! operation.
//!
//! For two union-compatible extended relations `R`, `S` with common
//! key `K̃` and non-key attributes `Ñ`:
//!
//! * a tuple of `R` whose key matches no tuple of `S` (or vice versa)
//!   is retained as-is — the other relation is totally ignorant about
//!   that entity, and combining with total ignorance is the identity;
//! * matched tuples are merged: every common non-key attribute is
//!   combined with Dempster's rule (`t.C = r.C ⊕ s.C`), and the
//!   membership pairs are combined with the paper's `F` — Dempster's
//!   rule over Ψ = {true, false}.
//!
//! Like the ordinary union, ∪̃ is commutative and associative (checked
//! by the property suite). Conflicts are recorded per
//! [`crate::conflict`]; total conflict on an attribute or on
//! membership is resolved by the configured [`ConflictPolicy`].

use crate::conflict::{AttributeConflict, ConflictPolicy, ConflictReport, PairKey};
use crate::error::AlgebraError;
use crate::support::Row;
use evirel_evidence::{rules::CombinationRule, Entries, EvidenceError, MassFunction};
use evirel_relation::{
    AttrDomain, AttrType, AttrValue, ExtendedRelation, RelationError, SupportPair, Tuple, Value,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Options for the extended union.
#[derive(Debug, Clone, Default)]
pub struct UnionOptions {
    /// How to resolve total conflict (κ = 1) on an attribute or on
    /// tuple membership.
    pub on_total_conflict: ConflictPolicy,
    /// Combination rule for attribute evidence. The paper uses
    /// Dempster's rule; the alternatives exist for ablation studies.
    /// Membership pairs always use the paper's `F` (Dempster over Ψ).
    pub rule: CombinationRule,
    /// If set, summarize each combined attribute evidence set to at
    /// most this many focal elements (see
    /// [`evirel_evidence::approx::summarize`]).
    pub max_focal: Option<usize>,
}

/// The result of an extended union: the integrated relation plus the
/// conflict report for the data administrator.
#[derive(Debug, Clone)]
pub struct UnionOutcome {
    /// `R ∪̃ S`.
    pub relation: ExtendedRelation,
    /// Attribute- and membership-level conflict observations.
    pub report: ConflictReport,
}

/// Compute `left ∪̃ right` with default options (Dempster's rule,
/// error on total conflict).
///
/// # Errors
/// * [`AlgebraError::Relation`] if the schemas are not
///   union-compatible;
/// * [`AlgebraError::TotalConflict`] under
///   [`ConflictPolicy::Error`].
pub fn union_extended(
    left: &ExtendedRelation,
    right: &ExtendedRelation,
) -> Result<UnionOutcome, AlgebraError> {
    union_with(left, right, &UnionOptions::default())
}

/// Compute `left ∪̃ right` with explicit options.
///
/// # Errors
/// See [`union_extended`].
pub fn union_with(
    left: &ExtendedRelation,
    right: &ExtendedRelation,
    options: &UnionOptions,
) -> Result<UnionOutcome, AlgebraError> {
    let ls = left.schema();
    let rs = right.schema();
    ls.check_union_compatible(rs)?;

    let out_schema = Arc::new(ls.renamed(format!("{}∪{}", ls.name(), rs.name())));
    let mut out = ExtendedRelation::new(Arc::clone(&out_schema));
    let mut report = ConflictReport::new();

    // Matched keys and left-only tuples, in left insertion order.
    // Unmatched tuples pass through as shared `Arc<Tuple>` handles —
    // zero deep copies, exactly like the streaming `MergeOp` in
    // `evirel-plan`.
    let mut scratch = MergeScratch::new(); // one memo table for the whole pass
    for (key, l_tuple) in left.iter_keyed_shared() {
        match right.get_by_key(&key) {
            None => {
                // Closure: zero-support tuples (possible when the input
                // is an augmented complement relation) are not stored.
                if l_tuple.membership().is_positive() {
                    out.insert_shared(Arc::clone(l_tuple))?;
                }
            }
            Some(r_tuple) => {
                if let Some(merged) = merge_tuples_with(
                    ls,
                    &key,
                    l_tuple,
                    r_tuple,
                    options,
                    &mut report,
                    &mut scratch,
                )? {
                    out.insert(merged)?;
                }
            }
        }
    }
    // Right-only tuples, in right insertion order.
    for (key, r_tuple) in right.iter_keyed_shared() {
        if !left.contains_key(&key) && r_tuple.membership().is_positive() {
            out.insert_shared(Arc::clone(r_tuple))?;
        }
    }
    Ok(UnionOutcome {
        relation: out,
        report,
    })
}

/// Reusable per-pass scratch for [`merge_tuples_with`]: the
/// combination engine's memo table, held once per merge pass instead
/// of allocated per Dempster call (the remaining hot-path headroom
/// the ROADMAP's Dempster item named).
pub type MergeScratch = evirel_evidence::combine::Scratch<f64>;

/// Merge one matched tuple pair. Returns `None` when the combined
/// membership has `sn = 0` (the merged tuple is then not stored,
/// consistent with CWA_ER). This is the per-pair kernel of ∪̃, shared
/// with the streaming merge operator in `evirel-plan`.
pub fn merge_tuples(
    schema: &evirel_relation::Schema,
    key: &[Value],
    l: &Tuple,
    r: &Tuple,
    options: &UnionOptions,
    report: &mut ConflictReport,
) -> Result<Option<Tuple>, AlgebraError> {
    merge_tuples_with(schema, key, l, r, options, report, &mut MergeScratch::new())
}

/// [`merge_tuples`] reusing a caller-held [`MergeScratch`] across a
/// whole merge pass — bit-for-bit the same result, minus one memo
/// table allocation per attribute combination. The kernel
/// ([`merge_pair`]) with every position read and every pair kept.
#[allow(clippy::too_many_arguments)]
pub fn merge_tuples_with(
    schema: &evirel_relation::Schema,
    key: &[Value],
    l: &Tuple,
    r: &Tuple,
    options: &UnionOptions,
    report: &mut ConflictReport,
    scratch: &mut MergeScratch,
) -> Result<Option<Tuple>, AlgebraError> {
    merge_pair(schema, key, l, r, options, report, scratch, &KeepAll)
}

/// A σ̃ applied to a matched pair *inside* the kernel, between the
/// pair's observations and its merged tuple: what a selection directly
/// above a ∪̃/∩̃ is to the pairs that merge computes.
pub trait PairSelection {
    /// Does the predicate read schema position `pos`? A position it
    /// does not read is only *observed* until the pair is known to be
    /// kept.
    fn reads(&self, pos: usize) -> bool;

    /// `F_SS` of the predicate on `row` — the merged pair, holding the
    /// positions [`PairSelection::reads`] names — then `F_TM` with the
    /// pair's combined `membership`, then the threshold `Q`: the
    /// revised membership of a kept pair, `None` for a rejected one.
    ///
    /// # Errors
    /// As [`crate::support::BoundPredicate::support`].
    fn decide(
        &self,
        row: &impl Row,
        membership: SupportPair,
    ) -> Result<Option<SupportPair>, AlgebraError>;
}

/// No selection: every position read, every pair kept.
struct KeepAll;

impl PairSelection for KeepAll {
    fn reads(&self, _pos: usize) -> bool {
        true
    }

    fn decide(
        &self,
        _row: &impl Row,
        membership: SupportPair,
    ) -> Result<Option<SupportPair>, AlgebraError> {
        Ok(Some(membership))
    }
}

/// One side of a matched pair, as far as it is decoded when the kernel
/// decides: a [`Tuple`], or a stored record the plan layer decoded under
/// a column mask — the positions the selection reads built, the rest
/// checked and borrowed where they lie.
pub trait PairSide {
    /// What an evidential attribute the selection does not read is
    /// observed through.
    type Evidence<'a>: Entries<f64>
    where
        Self: 'a;
    /// What building the side in full can fail with.
    type Error: From<AlgebraError>;
    /// The side's `(sn, sp)`.
    fn membership(&self) -> SupportPair;
    /// The value at `pos`, a position the selection reads.
    fn value(&self, pos: usize) -> &AttrValue;
    /// Do `self` and `other` hold equal definite values at `pos`?
    fn same(&self, other: &Self, pos: usize) -> bool;
    /// The evidence at `pos`, an evidential position the selection does
    /// not read, over `domain`.
    ///
    /// # Errors
    /// A value that is not evidence over `domain`.
    fn evidence(
        &self,
        pos: usize,
        domain: &Arc<AttrDomain>,
    ) -> Result<Self::Evidence<'_>, AlgebraError>;
    /// The side in full, validated as a tuple — what a kept pair is
    /// built from.
    ///
    /// # Errors
    /// What the full decode and [`Tuple::new`] refuse.
    fn tuple(&self) -> Result<Cow<'_, Tuple>, Self::Error>;
}

impl PairSide for Tuple {
    type Evidence<'a> = Cow<'a, MassFunction<f64>>;
    type Error = AlgebraError;

    fn membership(&self) -> SupportPair {
        Tuple::membership(self)
    }

    fn value(&self, pos: usize) -> &AttrValue {
        Tuple::value(self, pos)
    }

    fn same(&self, other: &Tuple, pos: usize) -> bool {
        self.value(pos) == other.value(pos)
    }

    fn evidence(
        &self,
        pos: usize,
        domain: &Arc<AttrDomain>,
    ) -> Result<Cow<'_, MassFunction<f64>>, AlgebraError> {
        Ok(self.value(pos).to_evidence(domain)?)
    }

    fn tuple(&self) -> Result<Cow<'_, Tuple>, AlgebraError> {
        Ok(Cow::Borrowed(self))
    }
}

/// A pair's merged values as far as the kernel has built them when it
/// decides: `None` at the deferred positions, which the selection
/// declared it does not read.
struct Decided<'a>(&'a [Option<AttrValue>]);

impl Row for Decided<'_> {
    fn value(&self, pos: usize) -> &AttrValue {
        self.0[pos]
            .as_ref()
            .expect("a selection reads only the positions it names")
    }
}

/// The value a definite attribute merges to: the common value, or on a
/// total conflict the side `policy` keeps (left when there is no
/// vacuous definite value).
fn definite(lv: &AttrValue, rv: &AttrValue, policy: ConflictPolicy) -> AttrValue {
    match policy {
        ConflictPolicy::KeepRight if lv != rv => rv.clone(),
        _ => lv.clone(),
    }
}

/// The per-pair kernel: merge one matched pair under `selection`,
/// deciding before materializing. The attributes are walked in schema
/// order. Definite attributes are compared where they stand — unequal
/// values are a total conflict — and an evidential attribute the
/// selection reads is combined *in full*; any other evidential attribute
/// is only *observed* — its κ and its total-conflict verdict, from the
/// combination engine's own pass run without a sink. Every observation
/// is recorded, and every total conflict raised under
/// [`ConflictPolicy::Error`], exactly where the full combination would
/// have; then the membership pairs are combined, the selection decides,
/// and only a kept pair pays for its sides in full, the deferred
/// positions and its tuple. Under CWA_ER a pair with `sn = 0`, or one
/// the selection rejects, is not stored — all it is owed is the decision
/// and the report — so this is the σ̃ of the merged pair bit for bit:
/// same tuples, same report, same errors. A side is a [`Tuple`] or a
/// partly decoded stored record ([`PairSide`]); the walk is the same.
///
/// # Errors
/// As [`merge_tuples`], plus the selection's own and a side's.
#[allow(clippy::too_many_arguments)]
pub fn merge_pair<S: PairSide>(
    schema: &evirel_relation::Schema,
    key: &[Value],
    l: &S,
    r: &S,
    options: &UnionOptions,
    report: &mut ConflictReport,
    scratch: &mut MergeScratch,
    selection: &impl PairSelection,
) -> Result<Option<Tuple>, S::Error> {
    let mut key = PairKey::new(key);
    let policy = options.on_total_conflict;
    let mut values: Vec<Option<AttrValue>> = Vec::with_capacity(schema.arity());
    for (pos, attr) in schema.attrs().iter().enumerate() {
        let read = selection.reads(pos);
        let name = attr.shared_name();
        values.push(match attr.ty() {
            _ if attr.is_key() => read.then(|| l.value(pos).clone()),
            // Open-domain definite attributes cannot be combined
            // evidentially; equal values merge trivially, unequal
            // values are a total conflict.
            AttrType::Definite(_) => {
                if !l.same(r, pos) {
                    total_conflict(&mut key, name, policy, report)?;
                }
                read.then(|| definite(l.value(pos), r.value(pos), policy))
            }
            AttrType::Evidential(domain) if read => Some(combine_evidence(
                name,
                domain,
                &mut key,
                l.value(pos),
                r.value(pos),
                options,
                report,
                scratch,
            )?),
            AttrType::Evidential(domain) => {
                let (lm, rm) = (l.evidence(pos, domain)?, r.evidence(pos, domain)?);
                observe_evidence(name, &mut key, &lm, &rm, options, report, scratch)?;
                None
            }
        });
    }
    let Some(membership) = combine_membership(&mut key, l, r, policy, report)? else {
        return Ok(None);
    };
    let Some(membership) = selection.decide(&Decided(&values), membership)? else {
        return Ok(None);
    };
    // Kept: the deferred positions are merged in full now. What they
    // observe was reported above, so this pass reports to nobody.
    let (l, r) = (l.tuple()?, r.tuple()?);
    let mut unheard = ConflictReport::new();
    for (pos, attr) in schema.attrs().iter().enumerate() {
        if values[pos].is_some() {
            continue;
        }
        let (lv, rv) = (l.value(pos), r.value(pos));
        values[pos] = Some(match attr.ty() {
            _ if attr.is_key() => lv.clone(),
            AttrType::Definite(_) => definite(lv, rv, policy),
            AttrType::Evidential(domain) => combine_evidence(
                attr.shared_name(),
                domain,
                &mut key,
                lv,
                rv,
                options,
                &mut unheard,
                scratch,
            )?,
        });
    }
    // Same layout with and without the `Option`: collected in place.
    let values = values
        .into_iter()
        .map(|value| value.expect("every deferred position is merged above"))
        .collect();
    Ok(Some(
        Tuple::new(schema, values, membership).map_err(AlgebraError::from)?,
    ))
}

/// Record a total conflict (κ = 1) on `attr`; an error under
/// [`ConflictPolicy::Error`], else the caller resolves it by `policy`.
fn total_conflict(
    key: &mut PairKey<'_>,
    attr: &Arc<str>,
    policy: ConflictPolicy,
    report: &mut ConflictReport,
) -> Result<(), AlgebraError> {
    report.record(AttributeConflict {
        key: key.shared(),
        attr: Arc::clone(attr),
        kappa: 1.0,
        total: true,
    });
    match policy {
        ConflictPolicy::Error => Err(AlgebraError::TotalConflict {
            key: Value::render_key(key.values()),
            attr: attr.to_string(),
        }),
        _ => Ok(()),
    }
}

/// Report what the rule's step saw of one attribute pair — κ > 0 as an
/// observation, a total conflict as one (raised under
/// [`ConflictPolicy::Error`]) — and hand back what the step built,
/// `None` on a total conflict.
#[inline]
fn reported<T>(
    step: Result<(T, f64), EvidenceError>,
    attr: &Arc<str>,
    key: &mut PairKey<'_>,
    policy: ConflictPolicy,
    report: &mut ConflictReport,
) -> Result<Option<T>, AlgebraError> {
    match step {
        Ok((built, kappa)) => {
            if kappa > 0.0 {
                report.record(AttributeConflict {
                    key: key.shared(),
                    attr: Arc::clone(attr),
                    kappa,
                    total: false,
                });
            }
            Ok(Some(built))
        }
        Err(EvidenceError::TotalConflict) => {
            total_conflict(key, attr, policy, report)?;
            Ok(None)
        }
        Err(e) => Err(AlgebraError::Evidence(e)),
    }
}

/// The per-pair kernel's evidential step — one implementation for ∪̃
/// and the integration pipeline's registry merge: combine attribute
/// `attr`'s two values under `options.rule`, record κ > 0 in `report`,
/// and resolve a total conflict by `options.on_total_conflict`. `key`
/// is the pair's, made once by the caller and passed to every step of
/// the pair's merge so its observations share one handle.
///
/// # Errors
/// [`AlgebraError::TotalConflict`] under [`ConflictPolicy::Error`];
/// values that are not evidence over `domain`.
#[allow(clippy::too_many_arguments)]
pub fn combine_evidence(
    attr: &Arc<str>,
    domain: &Arc<AttrDomain>,
    key: &mut PairKey<'_>,
    lv: &AttrValue,
    rv: &AttrValue,
    options: &UnionOptions,
    report: &mut ConflictReport,
    scratch: &mut MergeScratch,
) -> Result<AttrValue, AlgebraError> {
    let lm = lv.to_evidence(domain)?;
    let rm = rv.to_evidence(domain)?;
    let step = options.rule.combine_reporting_with(&lm, &rm, scratch);
    let mass = match reported(step, attr, key, options.on_total_conflict, report)? {
        Some(mass) => match options.max_focal {
            Some(k) => evirel_evidence::approx::summarize(&mass, k).map_err(RelationError::from)?,
            None => mass,
        },
        None => match options.on_total_conflict {
            ConflictPolicy::KeepRight => rm.into_owned(),
            ConflictPolicy::Vacuous => {
                MassFunction::vacuous(Arc::clone(domain.frame())).map_err(RelationError::from)?
            }
            _ => lm.into_owned(),
        },
    };
    Ok(AttrValue::Evidential(mass))
}

/// [`combine_evidence`] for an attribute whose combined value nobody
/// reads yet: the same observations into `report` and the same errors,
/// from the rule's observing pass over the two sides' evidence — no
/// combined mass function.
fn observe_evidence<E: Entries<f64>>(
    attr: &Arc<str>,
    key: &mut PairKey<'_>,
    lm: &E,
    rm: &E,
    options: &UnionOptions,
    report: &mut ConflictReport,
    scratch: &mut MergeScratch,
) -> Result<(), AlgebraError> {
    let step = options.rule.observe_with(lm, rm, scratch);
    let combinable = reported(
        step.map(|kappa| ((), kappa)),
        attr,
        key,
        options.on_total_conflict,
        report,
    )?;
    // `summarize` refuses a cap of 0 whatever it is handed; so does the
    // step that hands it nothing.
    if combinable.is_some() && options.max_focal == Some(0) {
        return Err(RelationError::from(EvidenceError::EmptyFocalElement).into());
    }
    Ok(())
}

/// The per-pair kernel's membership step, shared like
/// [`combine_evidence`]: the paper's `F` (Dempster over Ψ) on the two
/// `(sn, sp)` pairs, a total conflict resolved by `policy`, and
/// `None` when the result has `sn = 0` — under CWA_ER the merged tuple
/// is then not stored.
///
/// # Errors
/// [`AlgebraError::TotalConflict`] under [`ConflictPolicy::Error`].
pub fn combine_membership(
    key: &mut PairKey<'_>,
    l: &impl PairSide,
    r: &impl PairSide,
    policy: ConflictPolicy,
    report: &mut ConflictReport,
) -> Result<Option<SupportPair>, AlgebraError> {
    let membership = match l.membership().combine_dempster(&r.membership()) {
        Ok(m) => m,
        Err(RelationError::Evidence(EvidenceError::TotalConflict)) => {
            total_conflict(key, &Arc::from("(sn,sp)"), policy, report)?;
            match policy {
                ConflictPolicy::KeepRight => r.membership(),
                ConflictPolicy::Vacuous => SupportPair::unknown(),
                _ => l.membership(),
            }
        }
        Err(e) => return Err(AlgebraError::Relation(e)),
    };
    Ok(membership.is_positive().then_some(membership))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, RelationBuilder, Schema, ValueKind};

    fn rating_domain() -> Arc<AttrDomain> {
        Arc::new(AttrDomain::categorical("rating", ["avg", "gd", "ex"]).unwrap())
    }

    fn schema(name: &str) -> Arc<Schema> {
        Arc::new(
            Schema::builder(name)
                .key_str("rname")
                .definite("phone", ValueKind::Str)
                .evidential("rating", rating_domain())
                .build()
                .unwrap(),
        )
    }

    fn garden_a() -> ExtendedRelation {
        RelationBuilder::new(schema("RA"))
            .tuple(|t| {
                t.set_str("rname", "garden")
                    .set_str("phone", "371-2155")
                    .set_evidence(
                        "rating",
                        [
                            (&["ex"][..], 0.33),
                            (&["gd"][..], 0.5),
                            (&["avg"][..], 0.17),
                        ],
                    )
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("rname", "ashiana")
                    .set_str("phone", "371-0824")
                    .set_evidence("rating", [(&["ex"][..], 1.0)])
            })
            .unwrap()
            .build()
    }

    fn garden_b() -> ExtendedRelation {
        RelationBuilder::new(schema("RB"))
            .tuple(|t| {
                t.set_str("rname", "garden")
                    .set_str("phone", "371-2155")
                    .set_evidence("rating", [(&["ex"][..], 0.2), (&["gd"][..], 0.8)])
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("rname", "wok")
                    .set_str("phone", "382-4165")
                    .set_evidence("rating", [(&["gd"][..], 1.0)])
            })
            .unwrap()
            .build()
    }

    /// Table 4's garden rating: [ex^0.33, gd^0.5, avg^0.17] ⊕
    /// [ex^0.2, gd^0.8] = [ex^0.143, gd^0.857] (κ = 0.534).
    #[test]
    fn paper_table4_garden_rating() {
        let out = union_extended(&garden_a(), &garden_b()).unwrap();
        assert_eq!(out.relation.len(), 3);
        let garden = out.relation.get_by_key(&[Value::str("garden")]).unwrap();
        let rating = garden.value(2).as_evidential().unwrap();
        let ex = rating_domain()
            .subset_of_values([&Value::str("ex")])
            .unwrap();
        let gd = rating_domain()
            .subset_of_values([&Value::str("gd")])
            .unwrap();
        assert!((rating.mass_of(&ex) - 0.066 / 0.466).abs() < 1e-9);
        assert!((rating.mass_of(&gd) - 0.4 / 0.466).abs() < 1e-9);
        assert!(garden.membership().is_certain());
        // Conflict κ = 0.534 was reported.
        assert_eq!(out.report.len(), 1);
        assert!((out.report.conflicts()[0].kappa - 0.534).abs() < 1e-9);
    }

    /// Unmatched tuples pass through unchanged — the other relation is
    /// totally ignorant about them.
    #[test]
    fn unmatched_tuples_retained() {
        let out = union_extended(&garden_a(), &garden_b()).unwrap();
        let ashiana = out.relation.get_by_key(&[Value::str("ashiana")]).unwrap();
        let orig = garden_a();
        let orig_ashiana = orig.get_by_key(&[Value::str("ashiana")]).unwrap();
        assert!(ashiana.approx_eq(orig_ashiana));
        assert!(out.relation.contains_key(&[Value::str("wok")]));
    }

    /// ∪̃ is commutative (up to tuple order, which approx_eq ignores).
    #[test]
    fn union_commutative() {
        let ab = union_extended(&garden_a(), &garden_b()).unwrap();
        let ba = union_extended(&garden_b(), &garden_a()).unwrap();
        assert!(ab.relation.approx_eq(&ba.relation));
    }

    #[test]
    fn union_requires_compatibility() {
        let other_schema = Arc::new(
            Schema::builder("X")
                .key_str("id")
                .evidential("rating", rating_domain())
                .build()
                .unwrap(),
        );
        let other = ExtendedRelation::new(other_schema);
        assert!(matches!(
            union_extended(&garden_a(), &other),
            Err(AlgebraError::Relation(
                RelationError::NotUnionCompatible { .. }
            ))
        ));
    }

    #[test]
    fn definite_attr_conflict_policies() {
        let mk = |phone: &str| {
            RelationBuilder::new(schema("R"))
                .tuple(|t| {
                    t.set_str("rname", "wok")
                        .set_str("phone", phone)
                        .set_evidence("rating", [(&["gd"][..], 1.0)])
                })
                .unwrap()
                .build()
        };
        let a = mk("111");
        let b = mk("222");
        // Default policy errors.
        assert!(matches!(
            union_extended(&a, &b),
            Err(AlgebraError::TotalConflict { .. })
        ));
        // KeepLeft keeps 111 and records the conflict.
        let out = union_with(
            &a,
            &b,
            &UnionOptions {
                on_total_conflict: ConflictPolicy::KeepLeft,
                ..Default::default()
            },
        )
        .unwrap();
        let t = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        assert_eq!(t.value(1).as_definite().unwrap(), &Value::str("111"));
        assert_eq!(out.report.total_conflicts().count(), 1);
        // KeepRight keeps 222.
        let out = union_with(
            &a,
            &b,
            &UnionOptions {
                on_total_conflict: ConflictPolicy::KeepRight,
                ..Default::default()
            },
        )
        .unwrap();
        let t = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        assert_eq!(t.value(1).as_definite().unwrap(), &Value::str("222"));
    }

    #[test]
    fn evidential_total_conflict_policies() {
        let mk = |label: &str| {
            RelationBuilder::new(schema("R"))
                .tuple(|t| {
                    t.set_str("rname", "wok")
                        .set_str("phone", "111")
                        .set_evidence("rating", [(&[label][..], 1.0)])
                })
                .unwrap()
                .build()
        };
        let a = mk("ex");
        let b = mk("avg");
        assert!(matches!(
            union_extended(&a, &b),
            Err(AlgebraError::TotalConflict { .. })
        ));
        let out = union_with(
            &a,
            &b,
            &UnionOptions {
                on_total_conflict: ConflictPolicy::Vacuous,
                ..Default::default()
            },
        )
        .unwrap();
        let t = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        assert!(t.value(2).as_evidential().unwrap().is_vacuous());
        assert_eq!(out.report.total_conflicts().count(), 1);
    }

    /// Membership combination mirrors Table 4's mehl row:
    /// (0.5, 0.5) ⊕ (0.8, 1) = (0.83, 0.83).
    #[test]
    fn membership_combined_with_paper_f() {
        let a = RelationBuilder::new(schema("RA"))
            .tuple(|t| {
                t.set_str("rname", "mehl")
                    .set_str("phone", "333-4035")
                    .set_evidence("rating", [(&["ex"][..], 0.8), (&["gd"][..], 0.2)])
                    .membership_pair(0.5, 0.5)
            })
            .unwrap()
            .build();
        let b = RelationBuilder::new(schema("RB"))
            .tuple(|t| {
                t.set_str("rname", "mehl")
                    .set_str("phone", "333-4035")
                    .set_evidence("rating", [(&["ex"][..], 1.0)])
                    .membership_pair(0.8, 1.0)
            })
            .unwrap()
            .build();
        let out = union_extended(&a, &b).unwrap();
        let mehl = out.relation.get_by_key(&[Value::str("mehl")]).unwrap();
        assert!((mehl.membership().sn() - 5.0 / 6.0).abs() < 1e-9);
        assert!((mehl.membership().sp() - 5.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn alternative_rule_still_reports_dempster_kappa() {
        let out = union_with(
            &garden_a(),
            &garden_b(),
            &UnionOptions {
                rule: CombinationRule::Yager,
                ..Default::default()
            },
        )
        .unwrap();
        // Yager absorbs the conflict into Ω but the report still shows κ.
        assert!((out.report.conflicts()[0].kappa - 0.534).abs() < 1e-9);
        let garden = out.relation.get_by_key(&[Value::str("garden")]).unwrap();
        let rating = garden.value(2).as_evidential().unwrap();
        let omega = rating.frame().omega();
        assert!(rating.mass_of(&omega) > 0.5);
    }

    #[test]
    fn max_focal_summarizes() {
        let out = union_with(
            &garden_a(),
            &garden_b(),
            &UnionOptions {
                max_focal: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        let garden = out.relation.get_by_key(&[Value::str("garden")]).unwrap();
        assert!(garden.value(2).as_evidential().unwrap().focal_count() <= 1);
    }

    #[test]
    fn union_result_is_cwa_consistent() {
        let out = union_extended(&garden_a(), &garden_b()).unwrap();
        assert!(out.relation.validate().is_ok());
    }
}
