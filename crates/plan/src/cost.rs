//! Cardinality and cost estimation over [`RelStats`] blocks — the
//! planner-side half of the statistics subsystem.
//!
//! Every size-sensitive planning decision reads estimates from here:
//! the chain reorderer picks the cheapest ×̃/⋈̃ exploration order,
//! [`crate::ops::MergeOp`] sizes (or eagerly spills) its build side,
//! and physical planning ([`crate::exec`]) places exchanges by estimated
//! fragment cost. Estimates are **advisory only**: every consumer is
//! bit-for-bit result-identical with and without them (proptest
//! pinned), so a missing [`RelStats`] block — a v2 segment, a
//! pre-stats file, or `EVIREL_NO_STATS=1` — just reinstates the old
//! fixed heuristics.
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

use crate::logical::{LogicalPlan, RelationSource};
use evirel_algebra::{Operand, Predicate, ThetaOp};
use evirel_relation::{AttrType, Schema, Value};
use evirel_store::{EnvKnob, RelStats};
use std::sync::Arc;

/// Environment knob disabling statistics-driven planning: `1` means
/// every stats lookup reports "none", so all consumers take their
/// heuristic fallback paths. CI runs the plan and query suites under
/// `EVIREL_NO_STATS=1` to keep those paths exercised end-to-end.
pub const NO_STATS_ENV: &str = "EVIREL_NO_STATS";

/// `0` (the default) or `1`; anything else is rejected loudly, see
/// [`EnvKnob::get`].
pub(crate) const NO_STATS: EnvKnob = EnvKnob {
    var: NO_STATS_ENV,
    range: 0..=1,
    default: 0,
};

/// `false` when [`NO_STATS_ENV`] disables statistics. Read per call:
/// planning happens once per query, and tests toggle the knob.
pub fn stats_enabled() -> bool {
    NO_STATS.get() == 0
}

/// Default selectivity for predicates the model cannot resolve
/// against a profile.
const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;
/// Default selectivity of an unresolvable equality conjunct.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.15;
/// Pass fraction assumed for a bare membership threshold.
const THRESHOLD_SELECTIVITY: f64 = 0.9;
/// Memo-growth weight for a merge with no focal-width information.
const DEFAULT_MERGE_WEIGHT: f64 = 2.0;

/// Cardinality/cost estimator over a [`RelationSource`]'s statistics.
///
/// All entry points return `Option`: `None` means "some required
/// statistic is missing" and instructs the caller to fall back to
/// its heuristic. No estimate is ever fabricated from thin air — a
/// chain with one stats-less leaf plans exactly like a pre-stats
/// build.
pub struct CostModel<'a> {
    source: &'a dyn RelationSource,
}

impl<'a> CostModel<'a> {
    /// A model reading statistics (and schemas) from `source`.
    pub fn new(source: &'a dyn RelationSource) -> CostModel<'a> {
        CostModel { source }
    }

    /// Statistics for a scan of `name`, honoring [`NO_STATS_ENV`].
    pub fn rel_stats(&self, name: &str) -> Option<Arc<RelStats>> {
        if !stats_enabled() {
            return None;
        }
        self.source.stats(name)
    }

    /// The base-relation stats + schema a unary chain bottoms out in:
    /// `Select`/`ThresholdFilter`/`RenameRelation` pass through,
    /// `Scan` resolves. Projections and attribute renames decline
    /// (positions/names would no longer line up with the block).
    fn leaf_stats(&self, plan: &LogicalPlan) -> Option<(Arc<RelStats>, Arc<Schema>)> {
        match plan {
            LogicalPlan::Scan { name } => {
                let stats = self.rel_stats(name)?;
                let schema = crate::logical::source_schema(self.source, name)?;
                Some((stats, schema))
            }
            LogicalPlan::Select { input, .. }
            | LogicalPlan::ThresholdFilter { input, .. }
            | LogicalPlan::RenameRelation { input, .. } => self.leaf_stats(input),
            _ => None,
        }
    }

    /// Estimated output rows of `plan`; `None` when any required
    /// statistic is missing.
    pub fn est_rows(&self, plan: &LogicalPlan) -> Option<f64> {
        match plan {
            LogicalPlan::Scan { name } => Some(self.rel_stats(name)?.tuples as f64),
            LogicalPlan::Select {
                input, predicate, ..
            } => {
                let rows = self.est_rows(input)?;
                Some(rows * self.selectivity(input, predicate))
            }
            LogicalPlan::ThresholdFilter { input, .. } => {
                Some(self.est_rows(input)? * THRESHOLD_SELECTIVITY)
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::RenameRelation { input, .. }
            | LogicalPlan::RenameAttribute { input, .. } => self.est_rows(input),
            LogicalPlan::Product { left, right } => {
                Some(self.est_rows(left)? * self.est_rows(right)?)
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                Some(l * r * self.join_selectivity(left, right, on))
            }
            LogicalPlan::Union { left, right } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                let overlap = self.key_overlap(left, right, l, r);
                Some((l + r - overlap).max(l.max(r)))
            }
            LogicalPlan::Intersect { left, right } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                Some(self.key_overlap(left, right, l, r))
            }
            LogicalPlan::Difference { left, right } => {
                let l = self.est_rows(left)?;
                let r = self.est_rows(right)?;
                Some((l - self.key_overlap(left, right, l, r)).max(0.0))
            }
        }
    }

    /// Estimated total work (rows touched, with merges inflated by
    /// memo growth) of executing `plan`; `None` when any required
    /// statistic is missing. This is the quantity the exchange
    /// placement compares against its per-worker floor.
    pub fn est_cost(&self, plan: &LogicalPlan) -> Option<f64> {
        match plan {
            LogicalPlan::Scan { .. } => self.est_rows(plan),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::ThresholdFilter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::RenameRelation { input, .. }
            | LogicalPlan::RenameAttribute { input, .. } => {
                Some(self.est_cost(input)? + self.est_rows(input)?)
            }
            LogicalPlan::Product { left, right } => {
                let (cl, cr) = (self.est_cost(left)?, self.est_cost(right)?);
                Some(cl + cr + self.est_rows(left)? * self.est_rows(right)?)
            }
            LogicalPlan::Join { left, right, .. } => {
                let (cl, cr) = (self.est_cost(left)?, self.est_cost(right)?);
                let (l, r) = (self.est_rows(left)?, self.est_rows(right)?);
                Some(cl + cr + l + r + self.est_rows(plan)?)
            }
            LogicalPlan::Union { left, right }
            | LogicalPlan::Intersect { left, right }
            | LogicalPlan::Difference { left, right } => {
                let (cl, cr) = (self.est_cost(left)?, self.est_cost(right)?);
                let (l, r) = (self.est_rows(left)?, self.est_rows(right)?);
                let pairs = self.key_overlap(left, right, l, r);
                Some(cl + cr + l + r + self.merge_weight(left, right) * pairs)
            }
        }
    }

    /// Estimated `(bytes, rows)` of `plan`'s output, for sizing a
    /// merge build side. Bytes scale the leaf relation's encoded
    /// size by the estimated surviving-row fraction.
    pub fn build_estimate(&self, plan: &LogicalPlan) -> Option<(u64, u64)> {
        let (stats, _) = self.leaf_stats(plan)?;
        let rows = self.est_rows(plan)?;
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
    /// the sketch union); conservative `min/2` fallback when either
    /// sketch is unavailable.
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
        let pos = resolve_attr(&schema, attr)?;
        stats.distinct_at(pos)
    }

    /// Plausibility-profile selectivity for `attr IS {values}`.
    fn is_selectivity(&self, plan: &LogicalPlan, attr: &str, values: &[Value]) -> Option<f64> {
        let (stats, schema) = self.leaf_stats(plan)?;
        let pos = resolve_attr(&schema, attr)?;
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

    /// The tests below assert the *enabled* estimator; under the
    /// `EVIREL_NO_STATS=1` CI pass the whole model declines to
    /// estimate, so they have nothing to check.
    fn stats_off() -> bool {
        !stats_enabled()
    }

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
        if stats_off() {
            return;
        }
        let bind = bindings();
        let model = CostModel::new(&bind);
        let scan_plan = scan("ga").build();
        assert_eq!(model.est_rows(&scan_plan), Some(300.0));
        let filtered = scan("ga")
            .select(evirel_algebra::Predicate::is("e0", ["v0"]))
            .build();
        let rows = model.est_rows(&filtered).unwrap();
        assert!(rows > 0.0 && rows < 300.0, "selective estimate: {rows}");
        assert!(model.est_cost(&filtered).unwrap() >= 300.0);
        // Unknown relation → no estimate, never a panic.
        assert!(model.est_rows(&scan("ghost").build()).is_none());
    }

    #[test]
    fn union_overlap_uses_sketches() {
        if stats_off() {
            return;
        }
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
    fn no_stats_env_disables_estimates() {
        let bind = bindings();
        let model = CostModel::new(&bind);
        let plan = scan("ga").build();
        assert_eq!(model.est_rows(&plan).is_some(), stats_enabled());
        // Exercised end-to-end by the `EVIREL_NO_STATS=1` CI pass —
        // here only the parse contract: "0"/"" keep stats on.
        assert!(stats_enabled() || std::env::var(NO_STATS_ENV).is_ok());
    }

    #[test]
    fn build_estimate_scales_bytes() {
        if stats_off() {
            return;
        }
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
