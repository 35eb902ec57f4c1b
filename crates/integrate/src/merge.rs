//! Tuple merging (Figure 1): combine matched tuples into the
//! integrated relation, driven by the attribute integration methods.
//!
//! This generalizes the extended union ∪̃ of the algebra layer: where
//! ∪̃ applies Dempster's rule to *every* non-key attribute, the merger
//! dispatches per attribute through the [`MethodRegistry`], so
//! evidential combination, Dayal aggregates, and trust policies
//! coexist — the §1.3 coexistence claim, executable.
//!
//! Execution is `evirel-plan`'s [`execute_merge`]: the Figure 1 merge
//! stage is lowered exactly like EQL's `UNION` — one streaming merge
//! operator (right side key-indexed once, left side streamed), N
//! hash-sharded copies under an exchange when the thread budget and
//! the pairing's size warrant it, spill scans for stored inputs — with
//! `RegistryMerger` plugged in where ∪̃ uses Dempster's rule on
//! everything. Its evidential and membership steps are ∪̃'s own
//! ([`combine_evidence`], [`combine_membership`]): Dempster's rule and
//! the paper's `F`, a total conflict resolved by the registry's
//! [`MethodRegistry::on_total_conflict`]. So where every non-key
//! attribute is evidential, the registry merge of two relations is
//! their ∪̃, tuples, report and errors alike.

use crate::entity_id::MatchOutcome;
use crate::error::IntegrateError;
use crate::methods::{IntegrationMethod, MethodRegistry};
use evirel_algebra::union::{combine_evidence, combine_membership};
use evirel_algebra::{AlgebraError, ConflictReport, PairKey};
use evirel_plan::{
    execute_merge, BoundRelation, Config, ExecContext, MergePairing, PlanError, TupleMerger,
};
use evirel_relation::{AttrDef, AttrType, AttrValue, ExtendedRelation, Schema, Tuple, Value};
use std::collections::{HashMap, HashSet};

/// The result of tuple merging.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The integrated relation.
    pub relation: ExtendedRelation,
    /// Conflict observations for the data administrator.
    pub report: ConflictReport,
}

/// Merge two preprocessed relations — in memory or stored — according
/// to `matching` and `registry`, under `config`: its worker threads and
/// a pool of its buffer budget for spilled build sides.
/// The result, its tuple order and the conflict report are the same
/// bit for bit at every thread count and for stored and in-memory
/// copies of the same inputs.
///
/// Matcher validation needs key membership for both sides; a stored
/// side pays one extra streaming pass for it (keys only are retained).
///
/// # Errors
/// * [`IntegrateError::Relation`] for union-incompatible schemas;
/// * [`IntegrateError::MethodMismatch`] from registry validation;
/// * [`IntegrateError::BadMatch`] for an inconsistent matching, or a
///   storage failure while scanning a segment;
/// * [`IntegrateError::Algebra`] wrapping a total conflict under
///   [`evirel_algebra::ConflictPolicy::Error`].
pub fn merge_relations(
    left: &BoundRelation,
    right: &BoundRelation,
    matching: &MatchOutcome,
    registry: &MethodRegistry,
    config: &Config,
) -> Result<MergeOutcome, IntegrateError> {
    let schema = left.schema();
    schema
        .check_union_compatible(right.schema())
        .map_err(IntegrateError::Relation)?;
    registry.validate(schema)?;
    let pairing = validated_pairing(matching, &*key_probe(left)?, &*key_probe(right)?)?;
    let mut ctx = ExecContext::new(config);
    let merger = || Box::new(RegistryMerger::new(registry.clone())) as Box<dyn TupleMerger>;
    let relation =
        execute_merge(left, right, pairing, &merger, &mut ctx).map_err(from_plan_error)?;
    Ok(MergeOutcome {
        relation,
        report: ctx.into_conflict_report(),
    })
}

/// "Does this side hold `key`?"
type KeyProbe<'a> = Box<dyn Fn(&[Value]) -> bool + 'a>;

/// The relation's own index in memory; one streaming pass collecting
/// the key set for a stored side.
fn key_probe(side: &BoundRelation) -> Result<KeyProbe<'_>, IntegrateError> {
    Ok(match side {
        BoundRelation::Memory(rel) => Box::new(|key| rel.contains_key(key)),
        BoundRelation::Stored(stored) => {
            let mut keys = HashSet::with_capacity(stored.len());
            for tuple in stored.iter() {
                let tuple = tuple.map_err(|e| IntegrateError::BadMatch {
                    reason: format!("stored scan failed: {e}"),
                })?;
                keys.insert(tuple.key(stored.schema()));
            }
            Box::new(move |key| keys.contains(key))
        }
    })
}

/// Check matcher consistency up front and build the operator pairing:
/// the streaming operator silently skips keys it never encounters, so
/// every listed key must exist (per the membership predicates), and a
/// key may be claimed at most once across `matched` and the `*_only`
/// lists of its side (the old materializing merger made such mistakes
/// loud via duplicate-key insert failures or silently produced extra
/// rows).
fn validated_pairing(
    matching: &MatchOutcome,
    left_has: &dyn Fn(&[Value]) -> bool,
    right_has: &dyn Fn(&[Value]) -> bool,
) -> Result<MergePairing, IntegrateError> {
    let require =
        |has: &dyn Fn(&[Value]) -> bool, key: &[Value], side: &str| -> Result<(), IntegrateError> {
            if has(key) {
                Ok(())
            } else {
                Err(IntegrateError::BadMatch {
                    reason: format!("{side} key {} not found", Value::render_key(key)),
                })
            }
        };
    let mut matched = HashMap::with_capacity(matching.matched.len());
    let mut matched_right = HashSet::with_capacity(matching.matched.len());
    for (lk, rk) in &matching.matched {
        require(left_has, lk, "left")?;
        require(right_has, rk, "right")?;
        if !matched_right.insert(rk.clone()) {
            return Err(IntegrateError::BadMatch {
                reason: format!("right key {} matched twice", Value::render_key(rk)),
            });
        }
        if matched.insert(lk.clone(), rk.clone()).is_some() {
            return Err(IntegrateError::BadMatch {
                reason: format!("left key {} matched twice", Value::render_key(lk)),
            });
        }
    }
    for key in &matching.left_only {
        require(left_has, key, "left")?;
        if matched.contains_key(key.as_slice()) {
            return Err(IntegrateError::BadMatch {
                reason: format!(
                    "left key {} is both matched and left-only",
                    Value::render_key(key)
                ),
            });
        }
    }
    for key in &matching.right_only {
        require(right_has, key, "right")?;
        if matched_right.contains(key.as_slice()) {
            return Err(IntegrateError::BadMatch {
                reason: format!(
                    "right key {} is both matched and right-only",
                    Value::render_key(key)
                ),
            });
        }
    }
    Ok(MergePairing {
        matched,
        left_only: matching.left_only.iter().cloned().collect(),
        right_only: matching.right_only.iter().cloned().collect(),
    })
}

/// [`TupleMerger`] adapter: per-attribute method dispatch through the
/// [`MethodRegistry`], riding the plan layer's streaming merge
/// operator.
struct RegistryMerger {
    registry: MethodRegistry,
    /// Combination-memo scratch, reused across the whole merge pass
    /// (one allocation per pass instead of one per Dempster call).
    scratch: evirel_algebra::MergeScratch,
}

impl RegistryMerger {
    fn new(registry: MethodRegistry) -> RegistryMerger {
        RegistryMerger {
            registry,
            scratch: evirel_algebra::MergeScratch::new(),
        }
    }
}

impl TupleMerger for RegistryMerger {
    fn merge(
        &mut self,
        schema: &Schema,
        key: &[Value],
        l: &Tuple,
        r: &Tuple,
        report: &mut ConflictReport,
    ) -> Result<Option<Tuple>, PlanError> {
        let registry = &self.registry;
        let scratch = &mut self.scratch;
        let mut key = PairKey::new(key);
        let mismatch = |attr: &AttrDef, reason: String| PlanError::Merge {
            attr: attr.name().to_owned(),
            reason,
        };
        let policy = registry.on_total_conflict;
        let mut values = Vec::with_capacity(schema.arity());
        for (pos, attr) in schema.attrs().iter().enumerate() {
            let lv = l.value(pos);
            let rv = r.value(pos);
            if attr.is_key() {
                // Left key is canonical (matchers may pair unequal keys).
                values.push(lv.clone());
                continue;
            }
            values.push(match registry.method_for_attr(attr) {
                IntegrationMethod::KeepLeft => lv.clone(),
                IntegrationMethod::KeepRight => rv.clone(),
                IntegrationMethod::Aggregate(f) => {
                    let (Some(a), Some(b)) = (lv.as_definite(), rv.as_definite()) else {
                        return Err(mismatch(
                            attr,
                            "aggregate method requires definite values".to_owned(),
                        ));
                    };
                    AttrValue::Definite(f.resolve_values(a, b).ok_or_else(|| {
                        mismatch(attr, format!("aggregate {f} cannot resolve {a} and {b}"))
                    })?)
                }
                IntegrationMethod::Evidential => {
                    let AttrType::Evidential(domain) = attr.ty() else {
                        return Err(mismatch(
                            attr,
                            "evidential merge needs an evidential attribute".to_owned(),
                        ));
                    };
                    let name = attr.shared_name();
                    combine_evidence(name, domain, &mut key, lv, rv, policy, report, scratch)?
                }
            });
        }
        match combine_membership(&mut key, l, r, policy, report)? {
            Some(membership) => Ok(Some(Tuple::new(schema, values, membership)?)),
            None => Ok(None),
        }
    }

    fn describe(&self) -> String {
        "method registry".to_owned()
    }
}

/// Hand a plan-layer failure back in this crate's terms; the merger's
/// own refusals ([`PlanError::Merge`]) come back as the
/// [`IntegrateError::MethodMismatch`] they are.
fn from_plan_error(e: PlanError) -> IntegrateError {
    match e {
        PlanError::Algebra(AlgebraError::Evidence(ev)) => IntegrateError::Evidence(ev),
        PlanError::Algebra(AlgebraError::Relation(r)) | PlanError::Relation(r) => {
            IntegrateError::Relation(r)
        }
        PlanError::Algebra(a) => IntegrateError::Algebra(a),
        PlanError::Merge { attr, reason } => IntegrateError::MethodMismatch { attr, reason },
        other => IntegrateError::BadMatch {
            reason: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity_id::{EntityMatcher, KeyMatcher};
    use evirel_algebra::ConflictPolicy;
    use evirel_baselines::AggregateFn;
    use evirel_relation::{AttrDomain, RelationBuilder, ValueKind};
    use std::sync::Arc;

    /// The suite's config (CI's buffer budget) at `threads` threads.
    fn config(threads: usize) -> Config {
        Config {
            threads,
            ..Config::from_env()
        }
    }

    fn domain() -> Arc<AttrDomain> {
        Arc::new(AttrDomain::categorical("rating", ["avg", "gd", "ex"]).unwrap())
    }

    fn schema(name: &str) -> Arc<Schema> {
        Arc::new(
            Schema::builder(name)
                .key_str("k")
                .definite("seats", ValueKind::Int)
                .evidential("rating", domain())
                .build()
                .unwrap(),
        )
    }

    fn left() -> ExtendedRelation {
        RelationBuilder::new(schema("L"))
            .tuple(|t| {
                t.set_str("k", "wok")
                    .set_int("seats", 40)
                    .set_evidence("rating", [(&["gd"][..], 0.6), (&["ex"][..], 0.4)])
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("k", "solo-left")
                    .set_int("seats", 10)
                    .set_evidence("rating", [(&["avg"][..], 1.0)])
            })
            .unwrap()
            .build()
    }

    fn right() -> ExtendedRelation {
        RelationBuilder::new(schema("R"))
            .tuple(|t| {
                t.set_str("k", "wok")
                    .set_int("seats", 50)
                    .set_evidence("rating", [(&["gd"][..], 1.0)])
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("k", "solo-right")
                    .set_int("seats", 20)
                    .set_evidence("rating", [(&["ex"][..], 1.0)])
            })
            .unwrap()
            .build()
    }

    fn memory(rel: &ExtendedRelation) -> BoundRelation {
        BoundRelation::Memory(Arc::new(rel.clone()))
    }

    /// The sequential in-memory merge most tests exercise.
    fn merge(
        l: &ExtendedRelation,
        r: &ExtendedRelation,
        matching: &MatchOutcome,
        registry: &MethodRegistry,
    ) -> Result<MergeOutcome, IntegrateError> {
        merge_relations(&memory(l), &memory(r), matching, registry, &config(1))
    }

    fn registry() -> MethodRegistry {
        MethodRegistry::new()
            .with_default(IntegrationMethod::KeepLeft)
            .assign("rating", IntegrationMethod::Evidential)
            .assign("seats", IntegrationMethod::Aggregate(AggregateFn::Average))
    }

    /// Merging straight from on-disk segments (both sides streamed by
    /// spill scans, the right side indexed off its segment in one
    /// pass) reproduces the in-memory merge: relation, insertion
    /// order, and conflict report.
    #[test]
    fn merge_stored_matches_in_memory() {
        let (l, r) = (left(), right());
        let matching = KeyMatcher.match_tuples(&l, &r).unwrap();
        let mem = merge(&l, &r, &matching, &registry()).unwrap();

        let pool = Arc::new(evirel_plan::BufferPool::new(1024));
        let store = |rel: &ExtendedRelation| {
            let path = evirel_store::spill_path("integrate");
            evirel_store::write_segment(rel, &path, 256).unwrap();
            let s = evirel_plan::StoredRelation::open(&path, Arc::clone(&pool)).unwrap();
            std::fs::remove_file(&path).ok();
            BoundRelation::Stored(Arc::new(s))
        };
        let (sl, sr) = (store(&l), store(&r));
        for threads in [1usize, 4] {
            let out = merge_relations(&sl, &sr, &matching, &registry(), &config(threads)).unwrap();
            assert!(mem.relation.approx_eq(&out.relation));
            assert_eq!(
                mem.relation.keys().collect::<Vec<_>>(),
                out.relation.keys().collect::<Vec<_>>()
            );
            assert_eq!(mem.report.conflicts(), out.report.conflicts());
        }

        // Matcher validation still fires against segment key sets.
        let bad = MatchOutcome {
            matched: vec![(vec![Value::str("ghost")], vec![Value::str("wok")])],
            left_only: Vec::new(),
            right_only: Vec::new(),
        };
        assert!(matches!(
            merge_relations(&sl, &sr, &bad, &registry(), &config(1)),
            Err(IntegrateError::BadMatch { .. })
        ));
    }

    #[test]
    fn methods_coexist_in_one_merge() {
        let (l, r) = (left(), right());
        let matching = KeyMatcher.match_tuples(&l, &r).unwrap();
        let out = merge(&l, &r, &matching, &registry()).unwrap();
        assert_eq!(out.relation.len(), 3);
        let wok = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        // Dayal average on seats.
        assert_eq!(wok.value(1).as_definite(), Some(&Value::int(45)));
        // Dempster on rating: gd = 0.6 / (1 - 0.4) = 1.0 after the ex
        // mass conflicts away… compute: products gd∩gd 0.6, ex∩gd ∅
        // 0.4 → κ = 0.4, gd = 1.0.
        let rating = wok.value(2).as_evidential().unwrap();
        let gd = domain().subset_of_values([&Value::str("gd")]).unwrap();
        assert!((rating.mass_of(&gd) - 1.0).abs() < 1e-9);
        // Conflict recorded.
        assert_eq!(out.report.len(), 1);
        assert!((out.report.conflicts()[0].kappa - 0.4).abs() < 1e-9);
    }

    /// A matcher that pairs one left key twice (or lists a key as
    /// both matched and left-only) is invalid and must fail loudly,
    /// not silently drop a pairing.
    #[test]
    fn inconsistent_matchings_rejected() {
        let (l, r) = (left(), right());
        let wok = vec![Value::str("wok")];
        let solo = vec![Value::str("solo-right")];
        let matching = MatchOutcome {
            matched: vec![(wok.clone(), wok.clone()), (wok.clone(), solo)],
            left_only: Vec::new(),
            right_only: Vec::new(),
        };
        assert!(matches!(
            merge(&l, &r, &matching, &registry()),
            Err(IntegrateError::BadMatch { .. })
        ));
        let matching = MatchOutcome {
            matched: vec![(wok.clone(), wok.clone())],
            left_only: vec![wok.clone()],
            right_only: Vec::new(),
        };
        assert!(matches!(
            merge(&l, &r, &matching, &registry()),
            Err(IntegrateError::BadMatch { .. })
        ));
        // Right-side double claims are rejected symmetrically.
        let solo_left = vec![Value::str("solo-left")];
        let matching = MatchOutcome {
            matched: vec![(wok.clone(), wok.clone()), (solo_left, wok.clone())],
            left_only: Vec::new(),
            right_only: Vec::new(),
        };
        assert!(matches!(
            merge(&l, &r, &matching, &registry()),
            Err(IntegrateError::BadMatch { .. })
        ));
        let matching = MatchOutcome {
            matched: vec![(wok.clone(), wok.clone())],
            left_only: Vec::new(),
            right_only: vec![wok],
        };
        assert!(matches!(
            merge(&l, &r, &matching, &registry()),
            Err(IntegrateError::BadMatch { .. })
        ));
    }

    /// The sharded merge stage must reproduce the sequential outcome
    /// exactly — relation, insertion order, and conflict report — at
    /// every thread count, including when the matcher pairs *unequal*
    /// keys (which forces the canonical-key shard routing).
    #[test]
    fn sharded_merge_matches_sequential() {
        let mk = |name: &str, prefix: &str, label_offset: usize, n: usize| {
            let mut b = RelationBuilder::new(schema(name));
            for i in 0..n {
                let label = ["avg", "gd", "ex"][(i + label_offset) % 3];
                b = b
                    .tuple(|t| {
                        t.set_str("k", format!("{prefix}{i}"))
                            .set_int("seats", i as i64)
                            .set_evidence_with_omega("rating", [(&[label][..], 0.6)], 0.4)
                    })
                    .unwrap();
            }
            BoundRelation::Memory(Arc::new(b.build()))
        };
        // Left keys "l-i", right keys "r-i": every match pairs unequal
        // keys; half the right side stays unmatched. The offset label
        // cycle makes every matched rating combination partially
        // conflict (κ > 0), so the reports are non-trivial.
        let l = mk("L", "l-", 0, 300);
        let r = mk("R", "r-", 1, 300);
        let matching = MatchOutcome {
            matched: (0..150)
                .map(|i| {
                    (
                        vec![Value::str(format!("l-{i}"))],
                        vec![Value::str(format!("r-{i}"))],
                    )
                })
                .collect(),
            left_only: (150..300)
                .map(|i| vec![Value::str(format!("l-{i}"))])
                .collect(),
            right_only: (150..300)
                .map(|i| vec![Value::str(format!("r-{i}"))])
                .collect(),
        };
        let reg = registry().with_conflict_policy(ConflictPolicy::Vacuous);
        let seq = merge_relations(&l, &r, &matching, &reg, &config(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let par = merge_relations(&l, &r, &matching, &reg, &config(threads)).unwrap();
            assert_eq!(seq.relation.len(), par.relation.len());
            for (s, p) in seq.relation.iter().zip(par.relation.iter()) {
                assert_eq!(
                    s.key(seq.relation.schema()),
                    p.key(par.relation.schema()),
                    "order diverged at {threads} threads"
                );
                assert!(s.approx_eq(p), "contents diverged at {threads} threads");
            }
            assert!(!seq.report.is_empty());
            assert_eq!(
                seq.report.conflicts(),
                par.report.conflicts(),
                "report diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn unmatched_tuples_pass_through() {
        let (l, r) = (left(), right());
        let matching = KeyMatcher.match_tuples(&l, &r).unwrap();
        let out = merge(&l, &r, &matching, &registry()).unwrap();
        assert!(out.relation.contains_key(&[Value::str("solo-left")]));
        assert!(out.relation.contains_key(&[Value::str("solo-right")]));
    }

    #[test]
    fn keep_right_policy() {
        let reg = MethodRegistry::new()
            .with_default(IntegrationMethod::KeepRight)
            .assign("rating", IntegrationMethod::Evidential);
        let (l, r) = (left(), right());
        let matching = KeyMatcher.match_tuples(&l, &r).unwrap();
        let out = merge(&l, &r, &matching, &reg).unwrap();
        let wok = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        assert_eq!(wok.value(1).as_definite(), Some(&Value::int(50)));
    }

    #[test]
    fn registry_validated_upfront() {
        // Force the evidential method onto the definite "seats".
        let reg = MethodRegistry::new().with_default(IntegrationMethod::Evidential);
        let (l, r) = (left(), right());
        let matching = KeyMatcher.match_tuples(&l, &r).unwrap();
        assert!(matches!(
            merge(&l, &r, &matching, &reg),
            Err(IntegrateError::MethodMismatch { .. })
        ));
        // The zero-config registry merges mixed schemas out of the box.
        let out = merge(&l, &r, &matching, &MethodRegistry::new()).unwrap();
        assert_eq!(out.relation.len(), 3);
        let wok = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        // Definite fallback keeps the left seats value.
        assert_eq!(wok.value(1).as_definite(), Some(&Value::int(40)));
    }

    #[test]
    fn total_conflict_respects_policy() {
        let mk = |label: &str| {
            RelationBuilder::new(schema("X"))
                .tuple(|t| {
                    t.set_str("k", "wok")
                        .set_int("seats", 1)
                        .set_evidence("rating", [(&[label][..], 1.0)])
                })
                .unwrap()
                .build()
        };
        let l = mk("ex");
        let r = mk("avg");
        let matching = KeyMatcher.match_tuples(&l, &r).unwrap();
        let err = merge(&l, &r, &matching, &registry());
        assert!(matches!(err, Err(IntegrateError::Algebra(_))));
        let reg = registry().with_conflict_policy(ConflictPolicy::Vacuous);
        let out = merge(&l, &r, &matching, &reg).unwrap();
        let wok = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        assert!(wok.value(2).as_evidential().unwrap().is_vacuous());
    }
}
