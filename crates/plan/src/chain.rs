//! Cost-ordered evaluation of ≥3-way ⋈̃/×̃ chains.
//!
//! The rewrite pass leaves multi-way joins as left-deep spines of
//! `σ̃(×̃)` / `⋈̃` nodes. Lowered naively, each level materializes the
//! full intermediate of everything below it — a bad join order pays
//! for the largest intermediate even when a later equality conjunct
//! would have discarded most of it. [`ChainOp`] flattens such a spine
//! into its inputs plus per-level predicates, explores candidate
//! combinations **cheapest-first** (statistics-ordered, probing hash
//! indexes on the definite equality conjuncts), and then re-evaluates
//! every surviving combination in the *original* left-deep order.
//!
//! That last step is what keeps the operator bit-for-bit identical to
//! sequential execution: `f64` support multiplication is not
//! associative, so survivors are recombined strictly left-to-right —
//! the exact sequence of [`SupportPair::and_independent`] calls the
//! left-deep operator tree would have issued — and emitted in
//! lexicographic order of their input insertion indices, which *is*
//! the left-deep emission order (products stream the left side and
//! replay the buffered right side per left tuple). The hash-equality
//! pruning is sound for the same reason [`crate::ops::JoinOp`]'s
//! is: a combination failing a top-level `=` conjunct gets predicate
//! support `(0, 0)`, which zeroes the revised membership and can
//! never pass a (positivity-ensuring) threshold.

use crate::cost::{flatten_and, CostModel};
use crate::error::PlanError;
use crate::logical::{LogicalPlan, RelationSource};
use crate::ops::{ExecContext, Operator};
use evirel_algebra::predicate::Predicate;
use evirel_algebra::support::BoundPredicate;
use evirel_algebra::threshold::Threshold;
use evirel_algebra::{Operand, ThetaOp};
use evirel_relation::{AttrType, Schema, SupportPair, Tuple, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One level of the flattened spine: joining input `j + 1` onto the
/// running prefix applies `predicate` (revising membership by its
/// support) and/or `threshold`; both `None` means a bare ×̃ level.
struct Level {
    /// The level's predicate, bound to `schema`.
    predicate: Option<BoundPredicate>,
    /// `None` for a bare product level (only the implicit
    /// positive-support check applies); `Some` for σ̃/⋈̃/membership
    /// filter levels.
    threshold: Option<Threshold>,
    /// Product schema of inputs `0..=j + 1` — what the level's
    /// predicate is evaluated against, and the schema of the tuples
    /// this level emits.
    schema: Arc<Schema>,
}

/// A definite `=` conjunct connecting two *different* inputs, in
/// input-local coordinates. Used both to prune the exploration (hash
/// index probes) and to pick a connected exploration order.
struct Edge {
    a_input: usize,
    a_pos: usize,
    b_input: usize,
    b_pos: usize,
}

impl Edge {
    /// The `(pos in `input`, pos in other, other input)` view of this
    /// edge from `input`'s side, or `None` if the edge does not touch
    /// `input`.
    fn from(&self, input: usize) -> Option<(usize, usize, usize)> {
        if self.a_input == input {
            Some((self.a_pos, self.b_pos, self.b_input))
        } else if self.b_input == input {
            Some((self.b_pos, self.a_pos, self.a_input))
        } else {
            None
        }
    }
}

/// Flattened spine: leaf plans (left to right) and the level applied
/// when each input past the first joins the prefix.
struct Spine<'p> {
    leaves: Vec<&'p LogicalPlan>,
    /// `levels[j]` = (predicate, threshold) applied when joining
    /// input `j + 1`.
    levels: Vec<(Option<&'p Predicate>, Option<Threshold>)>,
}

/// Decompose a left-deep ⋈̃/σ̃(×̃)/×̃ spine. Returns `None` for plans
/// that are not spine-shaped at the top.
fn flatten_spine(plan: &LogicalPlan) -> Option<Spine<'_>> {
    fn walk<'p>(plan: &'p LogicalPlan, spine: &mut Spine<'p>) {
        match plan {
            LogicalPlan::Select {
                input,
                predicate,
                threshold,
            } if matches!(**input, LogicalPlan::Product { .. }) => {
                let LogicalPlan::Product { left, right } = &**input else {
                    unreachable!("guarded by the match arm");
                };
                walk(left, spine);
                spine.leaves.push(right);
                spine.levels.push((Some(predicate), Some(*threshold)));
            }
            LogicalPlan::ThresholdFilter { input, threshold }
                if matches!(**input, LogicalPlan::Product { .. }) =>
            {
                let LogicalPlan::Product { left, right } = &**input else {
                    unreachable!("guarded by the match arm");
                };
                walk(left, spine);
                spine.leaves.push(right);
                spine.levels.push((None, Some(*threshold)));
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                threshold,
            } => {
                walk(left, spine);
                spine.leaves.push(right);
                spine.levels.push((Some(on), Some(*threshold)));
            }
            LogicalPlan::Product { left, right } => {
                walk(left, spine);
                spine.leaves.push(right);
                spine.levels.push((None, None));
            }
            other => spine.leaves.push(other),
        }
    }
    let mut spine = Spine {
        leaves: Vec::new(),
        levels: Vec::new(),
    };
    walk(plan, &mut spine);
    if spine.leaves.len() < 3 {
        return None;
    }
    Some(spine)
}

/// What lowering one chain leaf produces.
pub(crate) type LoweredLeaf = Result<Box<dyn Operator>, PlanError>;

/// Try to lower `plan` as a cost-ordered chain. `Ok(None)` when the
/// plan is not an eligible spine (fewer than three inputs, no
/// cross-input definite `=` conjunct, or a shape the flattener cannot
/// prove equivalent) — the caller then lowers it left-deep. `build_leaf` lowers one leaf subplan.
pub(crate) fn try_build_chain(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    build_leaf: &mut dyn FnMut(&LogicalPlan) -> LoweredLeaf,
) -> Result<Option<Box<dyn Operator>>, PlanError> {
    let Some(spine) = flatten_spine(plan) else {
        return Ok(None);
    };
    // Thresholds that could admit zero support would be rejected by
    // the level operators' constructors; decline so the left-deep
    // path surfaces the identical error.
    for (_, threshold) in &spine.levels {
        if let Some(t) = threshold {
            if !t.ensures_positive_support() {
                return Ok(None);
            }
        }
    }
    let inputs = spine
        .leaves
        .iter()
        .map(|leaf| build_leaf(leaf))
        .collect::<Result<Vec<_>, _>>()?;
    // Input-arity prefix sums map a global position in a level schema
    // back to (input, local position).
    let mut offsets = Vec::with_capacity(inputs.len() + 1);
    let mut total = 0usize;
    for input in &inputs {
        offsets.push(total);
        total += input.schema().arity();
    }
    offsets.push(total);
    let to_local = |global: usize| -> (usize, usize) {
        let input = offsets.iter().rposition(|&o| o <= global).unwrap_or(0);
        let input = input.min(inputs.len() - 1);
        (input, global - offsets[input])
    };
    // Level schemas: schema of the left-deep intermediate after each
    // level, built exactly like the operator tree would build them.
    let mut levels = Vec::with_capacity(spine.levels.len());
    let mut prefix = Arc::clone(inputs[0].schema());
    for (j, (predicate, threshold)) in spine.levels.iter().enumerate() {
        let schema = Arc::new(
            evirel_algebra::product::product_schema(&prefix, inputs[j + 1].schema())
                .map_err(PlanError::Algebra)?,
        );
        prefix = Arc::clone(&schema);
        levels.push(Level {
            predicate: predicate.map(|p| BoundPredicate::bind(&schema, p)),
            threshold: *threshold,
            schema,
        });
    }
    // Cross-input definite = conjuncts become pruning edges.
    let mut edges = Vec::new();
    for (j, (level, (predicate, _))) in levels.iter().zip(&spine.levels).enumerate() {
        let Some(predicate) = predicate else {
            continue;
        };
        let mut conjuncts = Vec::new();
        flatten_and(predicate, &mut conjuncts);
        for conjunct in conjuncts {
            let Predicate::Theta {
                left: Operand::Attr(a),
                op: ThetaOp::Eq,
                right: Operand::Attr(b),
            } = conjunct
            else {
                continue;
            };
            let (Ok(pa), Ok(pb)) = (level.schema.position(a), level.schema.position(b)) else {
                continue;
            };
            let (a_input, a_pos) = to_local(pa);
            let (b_input, b_pos) = to_local(pb);
            if a_input == b_input {
                continue;
            }
            let definite = |input: usize, pos: usize| {
                matches!(inputs[input].schema().attr(pos).ty(), AttrType::Definite(_))
            };
            if definite(a_input, a_pos) && definite(b_input, b_pos) {
                edges.push(Edge {
                    a_input,
                    a_pos,
                    b_input,
                    b_pos,
                });
            }
        }
        // Conjuncts evaluated at level j must only reference inputs
        // 0..=j + 1; positions past the level arity cannot resolve,
        // so no extra guard is needed.
        let _ = j;
    }
    if edges.is_empty() {
        return Ok(None);
    }
    let order = exploration_order(&spine.leaves, &edges, source)?;
    Ok(Some(Box::new(ChainOp {
        inputs,
        levels,
        edges,
        order,
        buffer: VecDeque::new(),
    })))
}

/// Cheapest-first exploration order: start from the input with the
/// fewest estimated rows, then repeatedly take the cheapest input
/// connected (by an edge) to the set already placed, falling back to
/// the cheapest unconnected one. Deterministic: ties break on input
/// index, and estimates come from published statistics.
fn exploration_order(
    leaves: &[&LogicalPlan],
    edges: &[Edge],
    source: &dyn RelationSource,
) -> Result<Vec<usize>, PlanError> {
    let model = CostModel::new(source);
    let sizes = leaves
        .iter()
        .map(|leaf| model.est_rows(leaf))
        .collect::<Result<Vec<f64>, _>>()?;
    let n = leaves.len();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let cheapest = |placed: &[bool], connected_only: bool, order: &[usize]| -> Option<usize> {
        (0..n)
            .filter(|&i| !placed[i])
            .filter(|&i| {
                !connected_only
                    || edges.iter().any(|e| {
                        e.from(i)
                            .is_some_and(|(_, _, other)| order.contains(&other))
                    })
            })
            .min_by(|&a, &b| sizes[a].total_cmp(&sizes[b]).then(a.cmp(&b)))
    };
    while order.len() < n {
        let next = cheapest(&placed, true, &order)
            .or_else(|| cheapest(&placed, false, &order))
            .expect("an unplaced input always remains");
        placed[next] = true;
        order.push(next);
    }
    Ok(order)
}

/// The cost-ordered chain operator. See the module docs for the
/// equivalence argument; mechanically, `open`:
///
/// 1. drains every input exactly once (so scan counters match the
///    left-deep tree, which also scans each leaf once);
/// 2. enumerates candidate combinations in the cheapest-first order,
///    probing hash indexes built on the pruning edges;
/// 3. sorts survivors lexicographically by input insertion indices
///    (= left-deep emission order) and re-evaluates each strictly
///    left-to-right through the level predicates/thresholds,
///    reproducing the exact `and_independent` sequence.
pub struct ChainOp {
    inputs: Vec<Box<dyn Operator>>,
    levels: Vec<Level>,
    edges: Vec<Edge>,
    order: Vec<usize>,
    buffer: VecDeque<Arc<Tuple>>,
}

impl ChainOp {
    /// The chosen exploration order, as input indices (for tests).
    pub fn exploration_order(&self) -> &[usize] {
        &self.order
    }
}

/// Per-step probe plan for the candidate enumeration.
struct Step {
    input: usize,
    /// `(local pos, partner pos, partner input)` of the primary probe
    /// edge — `None` when no edge connects this input to the placed
    /// prefix (full range; a cross-product step).
    probe: Option<(usize, usize, usize)>,
    /// Residual connecting edges, checked by direct value equality.
    filters: Vec<(usize, usize, usize)>,
}

fn enumerate(
    steps: &[Step],
    indexes: &HashMap<(usize, usize), HashMap<Value, Vec<u32>>>,
    tuples: &[Vec<Arc<Tuple>>],
    assignment: &mut Vec<u32>,
    depth: usize,
    out: &mut Vec<Vec<u32>>,
) {
    let Some(step) = steps.get(depth) else {
        out.push(assignment.clone());
        return;
    };
    fn matches_filters(
        step: &Step,
        tuples: &[Vec<Arc<Tuple>>],
        assignment: &[u32],
        candidate: &Arc<Tuple>,
    ) -> bool {
        step.filters.iter().all(|&(pos, other_pos, other)| {
            let partner = &tuples[other][assignment[other] as usize];
            candidate.value(pos).as_definite() == partner.value(other_pos).as_definite()
        })
    }
    match step.probe {
        Some((pos, other_pos, other)) => {
            let partner = &tuples[other][assignment[other] as usize];
            let Some(value) = partner.value(other_pos).as_definite() else {
                return;
            };
            let Some(bucket) = indexes[&(step.input, pos)].get(value) else {
                return;
            };
            for &i in bucket {
                if matches_filters(step, tuples, assignment, &tuples[step.input][i as usize]) {
                    assignment[step.input] = i;
                    enumerate(steps, indexes, tuples, assignment, depth + 1, out);
                }
            }
        }
        None => {
            for i in 0..tuples[step.input].len() as u32 {
                if matches_filters(step, tuples, assignment, &tuples[step.input][i as usize]) {
                    assignment[step.input] = i;
                    enumerate(steps, indexes, tuples, assignment, depth + 1, out);
                }
            }
        }
    }
}

impl Operator for ChainOp {
    fn schema(&self) -> &Arc<Schema> {
        &self
            .levels
            .last()
            .expect("a chain has at least two levels")
            .schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        // 1. Drain every input exactly once.
        let mut tuples: Vec<Vec<Arc<Tuple>>> = Vec::with_capacity(self.inputs.len());
        for input in &mut self.inputs {
            input.open(ctx)?;
            let mut buf = Vec::new();
            while let Some(tuple) = input.next(ctx)? {
                buf.push(tuple);
            }
            tuples.push(buf);
        }

        // 2. Probe plans along the exploration order: the first
        //    connecting edge indexes, the rest filter.
        let mut steps = Vec::with_capacity(self.order.len());
        for (depth, &input) in self.order.iter().enumerate() {
            let placed = &self.order[..depth];
            let mut connecting = self.edges.iter().filter_map(|edge| {
                edge.from(input)
                    .filter(|&(_, _, other)| placed.contains(&other))
            });
            let probe = connecting.next();
            let filters = connecting.collect();
            steps.push(Step {
                input,
                probe,
                filters,
            });
        }
        let mut indexes: HashMap<(usize, usize), HashMap<Value, Vec<u32>>> = HashMap::new();
        for step in &steps {
            let Some((pos, _, _)) = step.probe else {
                continue;
            };
            indexes.entry((step.input, pos)).or_insert_with(|| {
                let mut index: HashMap<Value, Vec<u32>> = HashMap::new();
                for (i, tuple) in tuples[step.input].iter().enumerate() {
                    if let Some(v) = tuple.value(pos).as_definite() {
                        index.entry(v.clone()).or_default().push(i as u32);
                    }
                }
                index
            });
        }

        // 3. Enumerate, order canonically, re-evaluate left-deep.
        let mut survivors = Vec::new();
        let mut assignment = vec![0u32; self.inputs.len()];
        if tuples.iter().all(|t| !t.is_empty()) {
            enumerate(
                &steps,
                &indexes,
                &tuples,
                &mut assignment,
                0,
                &mut survivors,
            );
        }
        survivors.sort_unstable();
        'combo: for assignment in survivors {
            let first = &tuples[0][assignment[0] as usize];
            let mut membership: SupportPair = first.membership();
            let mut values = first.values().to_vec();
            for (j, level) in self.levels.iter().enumerate() {
                let next = &tuples[j + 1][assignment[j + 1] as usize];
                // F_TM, exactly as ×̃ / ⋈̃ issue it left-to-right.
                membership = membership.and_independent(&next.membership());
                values.extend(next.values().iter().cloned());
                match &level.predicate {
                    Some(predicate) => {
                        // The fused σ̃(×̃) path: build the pair, revise
                        // by predicate support, test the threshold.
                        let pair = Tuple::new(&level.schema, values.clone(), membership)?;
                        let fss = predicate.support(&pair)?;
                        let revised = pair.membership().and_independent(&fss);
                        let admits = match level.threshold {
                            Some(t) => t.admits(&revised),
                            None => true,
                        };
                        if !(admits && revised.is_positive()) {
                            continue 'combo;
                        }
                        membership = revised;
                    }
                    None => {
                        // Bare ×̃: zero-support pairs are not stored
                        // (CWA_ER), then any membership filter.
                        if !membership.is_positive() {
                            continue 'combo;
                        }
                        if let Some(t) = level.threshold {
                            if !t.admits(&membership) {
                                continue 'combo;
                            }
                        }
                    }
                }
            }
            let schema = Arc::clone(self.schema());
            self.buffer
                .push_back(Arc::new(Tuple::new(&schema, values, membership)?));
        }
        Ok(())
    }

    fn next(&mut self, _ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        Ok(self.buffer.pop_front())
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.buffer.clear();
        for input in &mut self.inputs {
            input.close(ctx)?;
        }
        Ok(())
    }

    fn describe(&self) -> String {
        let order: Vec<String> = self
            .order
            .iter()
            .map(|&i| self.inputs[i].schema().name().to_owned())
            .collect();
        format!(
            "⋈̃ chain ({} inputs, {} eq edges, cost-ordered: {})",
            self.inputs.len(),
            self.edges.len(),
            order.join(" → "),
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        self.inputs.iter().map(|op| op.as_ref()).collect()
    }
}
