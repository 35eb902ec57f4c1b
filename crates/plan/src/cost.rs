//! Cardinality and cost estimation over [`RelStats`] blocks — the
//! planner-side half of the statistics subsystem.
//!
//! Every size-sensitive planning decision reads estimates from here:
//! the chain reorderer picks the cheapest ×̃/⋈̃ exploration order,
//! [`crate::ops::MergeOp`] sizes (or eagerly spills) its build side,
//! and physical planning ([`crate::exec`]) places exchanges by estimated
//! fragment cost. Estimates are **advisory only**: they pick which of
//! several result-identical executions runs (proptest pinned against
//! [`crate::reference`]), never what it returns. Every bound relation
//! has a [`RelStats`] block ([`crate::logical::Binding`]), so the only
//! way an estimate fails is an unbound name.
//!
//! Formulas (documented in ARCHITECTURE.md):
//!
//! * σ̃ selectivity — per-conjunct: `IS {c…}` uses the evidential
//!   plausibility profile (Σ pls of the target singletons / tuples);
//!   definite `=` literal uses `1/distinct(attr)`; other θ
//!   comparisons default to ⅓; `AND` multiplies, `OR` adds with the
//!   independence correction, `NOT` complements.
//! * ×̃ output = |L|·|R|; ⋈̃ output = |L|·|R| · Π over definite `=`
//!   conjuncts of `1/max(distinct_L, distinct_R)`.
//! * ∪̃/∩̃/−̃ output via distinct-key overlap: the two key sketches'
//!   union estimate gives `|keys_L ∪ keys_R|`, hence the expected
//!   number of merged pairs.
//! * Merge cost inflates pairings by the product of average focal
//!   widths (memo-table growth) and by `1 + mean κ` when an
//!   observed-conflict summary is present — low-conflict, narrow
//!   inputs merge cheaper, which is what makes the chain ordering
//!   κ-aware.

use crate::error::PlanError;
use crate::logical::{binding_of, LogicalPlan, RelationSource};
use evirel_algebra::{Operand, Predicate, ThetaOp};
use evirel_relation::{AttrType, Schema, Value};
use evirel_store::RelStats;
use std::sync::Arc;

/// Default selectivity for predicates the model cannot resolve
/// against a profile.
const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;
/// Default selectivity of an unresolvable equality conjunct.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.15;
/// Pass fraction assumed for a bare membership threshold.
const THRESHOLD_SELECTIVITY: f64 = 0.9;
/// Memo-growth weight for a merge with no focal-width information.
pub(crate) const DEFAULT_MERGE_WEIGHT: f64 = 2.0;

/// Cardinality/cost estimator over a [`RelationSource`]'s statistics.
///
/// Estimates fail only with [`PlanError::UnknownRelation`] — the same
/// error lowering the scan reports.
pub struct CostModel<'a> {
    source: &'a dyn RelationSource,
}

impl<'a> CostModel<'a> {
    /// A model reading statistics (and schemas) from `source`.
    pub fn new(source: &'a dyn RelationSource) -> CostModel<'a> {
        CostModel { source }
    }

    /// The base-relation stats + schema a unary chain bottoms out in:
    /// `Select`/`ThresholdFilter`/`RenameRelation` pass through,
    /// `Scan` resolves. Projections and attribute renames decline
    /// (positions/names would no longer line up with the block).
    fn leaf_stats(&self, plan: &LogicalPlan) -> Option<(&Arc<RelStats>, &Arc<Schema>)> {
        match plan {
            LogicalPlan::Scan { name } => {
                let binding = self.source.resolve(name)?;
                Some((&binding.stats, binding.relation.schema()))
            }
            LogicalPlan::Select { input, .. }
            | LogicalPlan::ThresholdFilter { input, .. }
            | LogicalPlan::RenameRelation { input, .. } => self.leaf_stats(input),
            _ => None,
        }
    }

    /// Estimated output rows of `plan`.
    ///
    /// # Errors
    /// [`PlanError::UnknownRelation`] for a scan of an unbound name.
    pub fn est_rows(&self, plan: &LogicalPlan) -> Result<f64, PlanError> {
        Ok(match plan {
            LogicalPlan::Scan { name } => binding_of(self.source, name)?.stats.tuples as f64,
            LogicalPlan::Select {
                input, predicate, ..
            } => self.est_rows(input)? * self.selectivity(input, predicate),
            LogicalPlan::ThresholdFilter { input, .. } => {
                self.est_rows(input)? * THRESHOLD_SELECTIVITY
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::RenameRelation { input, .. }
            | LogicalPlan::RenameAttribute { input, .. } => self.est_rows(input)?,
            LogicalPlan::Product { left, right } => self.est_rows(left)? * self.est_rows(right)?,
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                l * r * self.join_selectivity(left, right, on)
            }
            LogicalPlan::Union { left, right } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                let overlap = self.key_overlap(left, right, l, r);
                (l + r - overlap).max(l.max(r))
            }
            LogicalPlan::Intersect { left, right } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                self.key_overlap(left, right, l, r)
            }
            LogicalPlan::Difference { left, right } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                (l - self.key_overlap(left, right, l, r)).max(0.0)
            }
        })
    }

    /// Estimated total work (rows touched, with merges inflated by
    /// memo growth) of executing `plan`. This is the quantity the
    /// exchange placement compares against its per-worker floor.
    ///
    /// # Errors
    /// As [`CostModel::est_rows`].
    pub fn est_cost(&self, plan: &LogicalPlan) -> Result<f64, PlanError> {
        Ok(match plan {
            LogicalPlan::Scan { .. } => self.est_rows(plan)?,
            LogicalPlan::Select { input, .. }
            | LogicalPlan::ThresholdFilter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::RenameRelation { input, .. }
            | LogicalPlan::RenameAttribute { input, .. } => {
                self.est_cost(input)? + self.est_rows(input)?
            }
            LogicalPlan::Product { left, right } => {
                let (cl, cr) = (self.est_cost(left)?, self.est_cost(right)?);
                cl + cr + self.est_rows(left)? * self.est_rows(right)?
            }
            LogicalPlan::Join { left, right, .. } => {
                let (cl, cr) = (self.est_cost(left)?, self.est_cost(right)?);
                let (l, r) = (self.est_rows(left)?, self.est_rows(right)?);
                cl + cr + l + r + self.est_rows(plan)?
            }
            LogicalPlan::Union { left, right }
            | LogicalPlan::Intersect { left, right }
            | LogicalPlan::Difference { left, right } => {
                let (cl, cr) = (self.est_cost(left)?, self.est_cost(right)?);
                let (l, r) = (self.est_rows(left)?, self.est_rows(right)?);
                let pairs = self.key_overlap(left, right, l, r);
                cl + cr + merge_cost(l, r, pairs, self.merge_weight(left, right))
            }
        })
    }

    /// Estimated `(bytes, rows)` of `plan`'s output, for sizing a
    /// merge build side. Bytes scale the leaf relation's encoded
    /// size by the estimated surviving-row fraction; `None` when
    /// `plan` is not a filter chain over one base relation (the merge
    /// then sizes its build side as it drains it).
    pub fn build_estimate(&self, plan: &LogicalPlan) -> Option<(u64, u64)> {
        let (stats, _) = self.leaf_stats(plan)?;
        let rows = self.est_rows(plan).ok()?;
        if stats.tuples == 0 {
            return Some((0, 0));
        }
        let fraction = (rows / stats.tuples as f64).clamp(0.0, 1.0);
        Some(((stats.bytes as f64 * fraction) as u64, rows.max(0.0) as u64))
    }

    /// Memo-growth weight for merging `left` with `right`: the
    /// product of average focal widths, inflated by observed mean κ
    /// when either input carries a conflict summary.
    fn merge_weight(&self, left: &LogicalPlan, right: &LogicalPlan) -> f64 {
        let mut weight = match (self.leaf_stats(left), self.leaf_stats(right)) {
            (Some((l, _)), Some((r, _))) => l.avg_focal_width() * r.avg_focal_width(),
            _ => DEFAULT_MERGE_WEIGHT,
        };
        for side in [left, right] {
            if let Some((stats, _)) = self.leaf_stats(side) {
                if let Some(k) = &stats.kappa {
                    if k.observations > 0 {
                        weight *= 1.0 + k.sum / k.observations as f64;
                    }
                }
            }
        }
        weight
    }

    /// Expected number of key-matched pairs between two inputs, from
    /// the leaves' distinct-key sketches (inclusion–exclusion over
    /// the sketch union); a conservative `min/2` when either input is
    /// not a filter chain over one base relation, whose sketch it
    /// could read.
    fn key_overlap(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        l_rows: f64,
        r_rows: f64,
    ) -> f64 {
        let fallback = l_rows.min(r_rows) / 2.0;
        let (Some((ls, _)), Some((rs, _))) = (self.leaf_stats(left), self.leaf_stats(right)) else {
            return fallback;
        };
        let dl = ls.distinct_keys();
        let dr = rs.distinct_keys();
        let union = ls.key_sketch.union_estimate(&rs.key_sketch);
        let overlap_keys = (dl + dr - union).clamp(0.0, dl.min(dr));
        // Scale the key overlap by how much of each leaf survives to
        // the merge (filters thin the match probability).
        let l_frac = if ls.tuples > 0 {
            (l_rows / ls.tuples as f64).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let r_frac = if rs.tuples > 0 {
            (r_rows / rs.tuples as f64).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (overlap_keys * l_frac * r_frac).min(l_rows.min(r_rows))
    }

    /// Estimated pass fraction of `predicate` over `input`'s tuples.
    /// Always returns a usable number — unresolvable conjuncts take
    /// defaults — because selectivity only ever *scales* an estimate
    /// that already required real statistics.
    pub fn selectivity(&self, input: &LogicalPlan, predicate: &Predicate) -> f64 {
        match predicate {
            Predicate::And(a, b) => self.selectivity(input, a) * self.selectivity(input, b),
            Predicate::Or(a, b) => {
                let (sa, sb) = (self.selectivity(input, a), self.selectivity(input, b));
                (sa + sb - sa * sb).clamp(0.0, 1.0)
            }
            Predicate::Not(inner) => (1.0 - self.selectivity(input, inner)).max(0.05),
            Predicate::Is { attr, values } => self
                .is_selectivity(input, attr, values)
                .unwrap_or(DEFAULT_SELECTIVITY),
            Predicate::Theta { left, op, right } => match (left, op, right) {
                (Operand::Attr(attr), ThetaOp::Eq, Operand::Value(_))
                | (Operand::Value(_), ThetaOp::Eq, Operand::Attr(attr)) => self
                    .attr_distinct(input, attr)
                    .map(|d| 1.0 / d.max(1.0))
                    .unwrap_or(DEFAULT_EQ_SELECTIVITY),
                (Operand::Attr(a), ThetaOp::Eq, Operand::Attr(b)) => {
                    match (self.attr_distinct(input, a), self.attr_distinct(input, b)) {
                        (Some(da), Some(db)) => 1.0 / da.max(db).max(1.0),
                        _ => DEFAULT_EQ_SELECTIVITY,
                    }
                }
                _ => DEFAULT_SELECTIVITY,
            },
        }
    }

    /// Join selectivity: the product over definite `=` conjuncts of
    /// `1/max(distinct_L, distinct_R)`, with defaults for everything
    /// else.
    fn join_selectivity(&self, left: &LogicalPlan, right: &LogicalPlan, on: &Predicate) -> f64 {
        let mut conjuncts = Vec::new();
        flatten_and(on, &mut conjuncts);
        let mut sel = 1.0;
        for c in conjuncts {
            sel *= match c {
                Predicate::Theta {
                    left: Operand::Attr(a),
                    op: ThetaOp::Eq,
                    right: Operand::Attr(b),
                } => {
                    // One attribute per side, in either order.
                    let combos = [
                        (self.attr_distinct(left, a), self.attr_distinct(right, b)),
                        (self.attr_distinct(left, b), self.attr_distinct(right, a)),
                    ];
                    combos
                        .iter()
                        .find_map(|(l, r)| match (l, r) {
                            (Some(dl), Some(dr)) => Some(1.0 / dl.max(*dr).max(1.0)),
                            _ => None,
                        })
                        .unwrap_or(DEFAULT_EQ_SELECTIVITY)
                }
                other => self.selectivity(left, other),
            };
        }
        sel
    }

    /// Distinct-value estimate for a (possibly dot-qualified)
    /// definite attribute resolved against `plan`'s leaf relation.
    fn attr_distinct(&self, plan: &LogicalPlan, attr: &str) -> Option<f64> {
        let (stats, schema) = self.leaf_stats(plan)?;
        let pos = resolve_attr(schema, attr)?;
        stats.distinct_at(pos)
    }

    /// Plausibility-profile selectivity for `attr IS {values}`.
    fn is_selectivity(&self, plan: &LogicalPlan, attr: &str, values: &[Value]) -> Option<f64> {
        let (stats, schema) = self.leaf_stats(plan)?;
        let pos = resolve_attr(schema, attr)?;
        match schema.attr(pos).ty() {
            AttrType::Evidential(domain) => {
                let mut sel = 0.0;
                for v in values {
                    let idx = domain.index_of(v).ok()?;
                    sel += stats.plausibility_fraction(pos, idx)?;
                }
                Some(sel.clamp(0.0, 1.0))
            }
            AttrType::Definite(_) => stats
                .distinct_at(pos)
                .map(|d| (values.len() as f64 / d.max(1.0)).clamp(0.0, 1.0)),
        }
    }
}

/// Work of one key-indexed merge over `l` and `r` input rows: each
/// side is read once and each of the `pairs` key-matched pairs costs
/// its memo-growth `weight`. Shared by the ∪̃/∩̃/−̃ estimate (estimated
/// counts) and the integration merge (exact ones).
pub(crate) fn merge_cost(l: f64, r: f64, pairs: f64, weight: f64) -> f64 {
    l + r + weight * pairs
}

/// Resolve a predicate attribute name against a leaf schema: the
/// plain name first, then (for names the product qualified as
/// `rel.attr`) the suffix after the last dot.
fn resolve_attr(schema: &Schema, attr: &str) -> Option<usize> {
    if let Ok(pos) = schema.position(attr) {
        return Some(pos);
    }
    let suffix = attr.rsplit('.').next()?;
    schema.position(suffix).ok()
}

/// Flatten nested `And` nodes into a conjunct list.
pub(crate) fn flatten_and<'p>(pred: &'p Predicate, out: &mut Vec<&'p Predicate>) {
    match pred {
        Predicate::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{scan, Bindings};
    use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};

    fn bindings() -> Bindings {
        let (a, b) = generate_pair(&PairConfig {
            base: GeneratorConfig {
                tuples: 300,
                seed: 11,
                ..Default::default()
            },
            key_overlap: 0.5,
            conflict_bias: 0.2,
        })
        .unwrap();
        let mut bind = Bindings::new();
        bind.bind("ga", a);
        bind.bind("gb", b);
        bind
    }

    #[test]
    fn scan_and_filter_estimates() {
        let bind = bindings();
        let model = CostModel::new(&bind);
        let scan_plan = scan("ga").build();
        assert_eq!(model.est_rows(&scan_plan).unwrap(), 300.0);
        let filtered = scan("ga")
            .select(evirel_algebra::Predicate::is("e0", ["v0"]))
            .build();
        let rows = model.est_rows(&filtered).unwrap();
        assert!(rows > 0.0 && rows < 300.0, "selective estimate: {rows}");
        assert!(model.est_cost(&filtered).unwrap() >= 300.0);
        // Unknown relation → the lowering's typed error, never a panic.
        assert!(matches!(
            model.est_rows(&scan("ghost").build()),
            Err(PlanError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn union_overlap_uses_sketches() {
        let bind = bindings();
        let model = CostModel::new(&bind);
        let union = scan("ga").union(scan("gb")).build();
        let rows = model.est_rows(&union).unwrap();
        // 50% key overlap: the merged extension is well under l + r
        // but at least max(l, r).
        assert!(
            (300.0..=560.0).contains(&rows),
            "union estimate tracks overlap: {rows}"
        );
        let inter = scan("ga").intersect(scan("gb")).build();
        let pairs = model.est_rows(&inter).unwrap();
        assert!(
            (60.0..=240.0).contains(&pairs),
            "intersect estimate tracks overlap: {pairs}"
        );
    }

    #[test]
    fn build_estimate_scales_bytes() {
        let bind = bindings();
        let model = CostModel::new(&bind);
        let (full_bytes, full_rows) = model.build_estimate(&scan("ga").build()).unwrap();
        assert_eq!(full_rows, 300);
        assert!(full_bytes > 0);
        let filtered = scan("ga")
            .select(evirel_algebra::Predicate::is("e0", ["v0"]))
            .build();
        let (some_bytes, some_rows) = model.build_estimate(&filtered).unwrap();
        assert!(some_rows < full_rows);
        assert!(some_bytes < full_bytes);
    }
}
