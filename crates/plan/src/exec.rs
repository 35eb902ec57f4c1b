//! Physical planning and execution.
//!
//! One lowering turns an optimized [`LogicalPlan`] into an
//! [`Operator`] tree: `physical` decides per node whether it becomes
//! an exchange, a chain or a plain operator and puts it behind a row
//! meter; `physical_node` is the one `match` that builds operators.
//! [`execute_optimized_metered`] — the live path — builds that tree
//! and drives it to a materialized relation; [`execute_plan`] is the
//! same run with the rewrite pass in front; [`explain_plan`] renders
//! the stages — logical tree, fired rewrite rules, optimized tree,
//! physical tree — and, for `ANALYZE`, runs the tree it renders.
//! [`execute_merge`] runs the integration pipeline's paired merge,
//! which has no logical node, over the same leaves and the same
//! exchange floor.
//!
//! Physical fusion: a σ̃ directly above a ×̃ whose predicate carries an
//! equality conjunct between definite attributes of opposite sides
//! becomes a [`JoinOp`] — the streaming ⋈̃ that builds its key
//! index once and probes it per left tuple. A σ̃ directly above the
//! scan of a stored relation becomes that scan with the selection
//! inside it ([`SpillScanOp::filtered`]). A σ̃ directly above a ∪̃ or
//! ∩̃ becomes that merge with the selection inside it
//! ([`MergeOp::selecting`]) — sequentially and in an exchange shard,
//! whatever the sides are bound as: the merge decides each candidate
//! before it builds it, and no lowering puts a [`SelectOp`] directly
//! over a [`MergeOp`].
//!
//! Parallelism: when [`ExecContext::parallelism`] > 1, the largest
//! subtrees whose operators pair tuples by key equality (σ̃, member-
//! ship threshold, π̃, ∪̃, ∩̃, −̃, ρ over scans) and that contain at
//! least one ∪̃/∩̃ merge are wrapped in an
//! [`crate::exchange::ExchangeOp`]: each worker thread runs an
//! identical copy of the subtree over one hash-shard of the scans and
//! the outputs re-merge deterministically — see [`crate::exchange`].

use crate::cost::{merge_cost, CostModel, DEFAULT_MERGE_WEIGHT};
use crate::error::PlanError;
use crate::exchange::{compute_slots, rank_keys, ExchangeOp, OrderMap, ShardScanOp};
use crate::logical::{binding_of, BoundRelation, LogicalPlan, RelationSource};
use crate::ops::{
    run, DempsterMerger, DifferenceOp, JoinOp, MergeEmit, MergeOp, MergePairing, MeteredOp,
    Operator, ProjectOp, RenameOp, ScanOp, SelectOp, ThresholdOp, TupleMerger,
};
use crate::rewrite::optimize;
use crate::spill::SpillScanOp;
use crate::ExecContext;
use evirel_algebra::partition::Partitioner;
use evirel_algebra::predicate::Predicate;
use evirel_algebra::threshold::Threshold;
use evirel_algebra::union::UnionOptions;
use evirel_relation::{ExtendedRelation, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Cost-model floor per exchange worker, in [`CostModel::est_cost`]
/// units (≈ rows touched: a scanned tuple costs 1, a merged pair its
/// κ-inflated memo weight) — about 64 tuples each scanned and touched
/// once more downstream. Below it an exchange cannot pay for its
/// partitioning and re-merge, so a highly selective fragment over a
/// large scan is not sharded for nothing.
const MIN_COST_PER_SHARD: f64 = 128.0;

/// Is `cost` worth `parallelism` exchange workers?
fn exchange_pays_off(cost: f64, parallelism: usize) -> bool {
    parallelism > 1 && cost >= parallelism as f64 * MIN_COST_PER_SHARD
}

/// Lower an optimized logical plan into a physical operator tree,
/// every node behind its row meter ([`MeteredOp`], tagged with the
/// cost model's row estimate). Metering is observation only — tuples
/// pass through untouched — which is what lets production queries,
/// the slow-query log and `EXPLAIN ANALYZE` share one tree.
/// Parallelizable subtrees are wrapped in an exchange when
/// `parallelism > 1` and their estimated cost amortizes it.
fn physical(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    options: &UnionOptions,
    parallelism: usize,
) -> Result<Box<dyn Operator>, PlanError> {
    let model = CostModel::new(source);
    let mut op = None;
    if parallelism > 1
        && shardable(plan)
        && contains_merge(plan)
        && exchange_pays_off(model.est_cost(plan)?, parallelism)
    {
        op = build_exchange(plan, source, options, parallelism)?;
    }
    if op.is_none() {
        // ≥3-way ⋈̃/×̃ spines run through the cost-ordered chain
        // operator (bit-identical to the left-deep lowering below —
        // see `crate::chain`).
        let mut build_leaf = |leaf: &LogicalPlan| physical(leaf, source, options, parallelism);
        op = crate::chain::try_build_chain(plan, source, &mut build_leaf)?;
    }
    let op = match op {
        Some(op) => op,
        None => physical_node(plan, source, options, &mut Leaves::Whole { parallelism })?,
    };
    Ok(Box::new(MeteredOp::new(op, model.est_rows(plan)?)))
}

/// One slot table per scanned relation name — see [`Leaves::Shard`].
type SlotTables = HashMap<String, Arc<Vec<u32>>>;

/// What [`physical_node`] — the one lowering — puts at scan leaves,
/// and how it lowers a node's inputs.
enum Leaves<'a> {
    /// Whole relations (in-memory or stored scans); inputs go back
    /// through [`physical`], so each is metered and may itself become
    /// an exchange or a chain.
    Whole { parallelism: usize },
    /// Shard `shard` of an exchange fragment: [`ShardScanOp`] leaves,
    /// inputs lowered bare (the exchange is metered as one node).
    /// `slots` caches one precomputed slot table per scanned relation
    /// so N shards hash every key once, not N times; a caller may seed
    /// it to route a relation by something other than its key.
    Shard {
        partitioner: Partitioner,
        shard: usize,
        slots: &'a mut SlotTables,
    },
}

impl Leaves<'_> {
    /// The thread budget for lowering a ×̃/⋈̃ — which pair tuples
    /// *across* keys, so they exist only outside exchange fragments.
    fn parallelism(&self) -> Result<usize, PlanError> {
        match self {
            Leaves::Whole { parallelism } => Ok(*parallelism),
            Leaves::Shard { .. } => Err(PlanError::Pairing {
                reason: "×̃/⋈̃ cannot appear inside an exchange fragment".to_owned(),
            }),
        }
    }

    /// The scan leaf for `relation`, displayed as `name`.
    fn scan(
        &mut self,
        name: &str,
        relation: &BoundRelation,
    ) -> Result<Box<dyn Operator>, PlanError> {
        Ok(match (self, relation) {
            (Leaves::Whole { .. }, BoundRelation::Memory(rel)) => {
                Box::new(ScanOp::new(name, Arc::clone(rel)))
            }
            // Disk-backed binding: stream pages through the buffer
            // pool instead of requiring a materialized relation.
            (Leaves::Whole { .. }, BoundRelation::Stored(stored)) => {
                Box::new(SpillScanOp::new(name, Arc::clone(stored)))
            }
            (
                Leaves::Shard {
                    partitioner,
                    shard,
                    slots,
                },
                BoundRelation::Memory(rel),
            ) => {
                let slots = slots
                    .entry(name.to_owned())
                    .or_insert_with(|| compute_slots(rel, *partitioner, None));
                Box::new(ShardScanOp::with_slots(
                    name,
                    Arc::clone(rel),
                    *partitioner,
                    *shard,
                    Arc::clone(slots),
                ))
            }
            (Leaves::Shard { .. }, BoundRelation::Stored(_)) => {
                return Err(PlanError::Pairing {
                    reason: format!("stored relation {name} cannot be sharded"),
                })
            }
        })
    }
}

/// The one place a [`LogicalPlan`] node becomes an operator. `leaves`
/// says what the node's scans and inputs are built from; everything
/// else is the same sequentially and inside an exchange shard.
fn physical_node(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    options: &UnionOptions,
    leaves: &mut Leaves<'_>,
) -> Result<Box<dyn Operator>, PlanError> {
    let lower = |input: &LogicalPlan, leaves: &mut Leaves<'_>| match leaves {
        Leaves::Whole { parallelism } => physical(input, source, options, *parallelism),
        Leaves::Shard { .. } => physical_node(input, source, options, leaves),
    };
    // Only a whole-relation merge is sized from the cost model's
    // build-side estimate: it picks the build path (eager spill vs
    // pre-sized map, see [`MergeOp::with_build_estimate`]); a shard's
    // build side is a fraction of it and sizes itself as it drains.
    let sized = |op: MergeOp, right: &LogicalPlan, leaves: &Leaves<'_>| match leaves {
        Leaves::Whole { .. } => match CostModel::new(source).build_estimate(right) {
            Some((bytes, rows)) => op.with_build_estimate(bytes, rows),
            None => op,
        },
        Leaves::Shard { .. } => op,
    };
    let merger = || Box::new(DempsterMerger::new(options.clone()));
    Ok(match plan {
        LogicalPlan::Scan { name } => leaves.scan(name, &binding_of(source, name)?.relation)?,
        LogicalPlan::Select {
            input,
            predicate,
            threshold,
        } => {
            if let LogicalPlan::Product { left, right } = &**input {
                let parallelism = leaves.parallelism()?;
                return build_join(
                    left,
                    right,
                    predicate,
                    threshold,
                    source,
                    options,
                    parallelism,
                );
            }
            // σ̃ directly over a whole stored relation runs inside the
            // scan: one operator (and one meter, the σ̃'s) that decodes
            // in full only the records the selection keeps.
            if let (LogicalPlan::Scan { name }, Leaves::Whole { .. }) = (&**input, &*leaves) {
                if let BoundRelation::Stored(stored) = &binding_of(source, name)?.relation {
                    return Ok(Box::new(SpillScanOp::filtered(
                        name,
                        Arc::clone(stored),
                        predicate.clone(),
                        *threshold,
                    )?));
                }
            }
            // σ̃ directly over a ∪̃/∩̃ runs inside the merge — for every
            // input size and side combination, sequentially and in a
            // shard: one operator (and one meter, the σ̃'s) that
            // decides each candidate before it materializes it.
            let merge = match &**input {
                LogicalPlan::Union { left, right } => Some((MergeEmit::Union, left, right)),
                LogicalPlan::Intersect { left, right } => Some((MergeEmit::Intersect, left, right)),
                _ => None,
            };
            if let Some((emit, left, right)) = merge {
                let op = MergeOp::selecting(
                    emit,
                    lower(left, leaves)?,
                    lower(right, leaves)?,
                    options.clone(),
                    predicate.clone(),
                    *threshold,
                )?;
                return Ok(Box::new(sized(op, right, leaves)));
            }
            Box::new(SelectOp::new(
                lower(input, leaves)?,
                predicate.clone(),
                *threshold,
            )?)
        }
        LogicalPlan::ThresholdFilter { input, threshold } => {
            Box::new(ThresholdOp::new(lower(input, leaves)?, *threshold)?)
        }
        LogicalPlan::Project { input, attrs } => {
            Box::new(ProjectOp::new(lower(input, leaves)?, attrs)?)
        }
        LogicalPlan::Product { left, right } => {
            leaves.parallelism()?;
            Box::new(JoinOp::product(
                lower(left, leaves)?,
                lower(right, leaves)?,
            )?)
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            threshold,
        } => {
            let parallelism = leaves.parallelism()?;
            return build_join(left, right, on, threshold, source, options, parallelism);
        }
        LogicalPlan::Union { left, right } => {
            let op = MergeOp::union(lower(left, leaves)?, lower(right, leaves)?, merger())?;
            Box::new(sized(op, right, leaves))
        }
        LogicalPlan::Intersect { left, right } => {
            let op = MergeOp::intersect(lower(left, leaves)?, lower(right, leaves)?, merger())?;
            Box::new(sized(op, right, leaves))
        }
        LogicalPlan::Difference { left, right } => Box::new(DifferenceOp::new(
            lower(left, leaves)?,
            lower(right, leaves)?,
        )?),
        LogicalPlan::RenameRelation { input, name } => {
            Box::new(RenameOp::relation(lower(input, leaves)?, name))
        }
        LogicalPlan::RenameAttribute { input, from, to } => {
            Box::new(RenameOp::attribute(lower(input, leaves)?, from, to)?)
        }
    })
}

/// Can this whole subtree execute over hash-shards of its scans?
/// True for the key-preserving family: every operator pairs or
/// filters tuples by full-key equality, so routing each key to one
/// shard is semantics-preserving. ×̃/⋈̃ pair *across* keys and stay
/// outside exchange fragments.
fn shardable(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Select { input, .. }
        | LogicalPlan::ThresholdFilter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::RenameRelation { input, .. }
        | LogicalPlan::RenameAttribute { input, .. } => shardable(input),
        LogicalPlan::Union { left, right }
        | LogicalPlan::Intersect { left, right }
        | LogicalPlan::Difference { left, right } => shardable(left) && shardable(right),
        LogicalPlan::Product { .. } | LogicalPlan::Join { .. } => false,
    }
}

/// Does the subtree contain a ∪̃/∩̃ merge? Dempster combination is
/// what dominates merge cost, so only fragments that merge are worth
/// an exchange.
fn contains_merge(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Union { .. } | LogicalPlan::Intersect { .. } => true,
        LogicalPlan::Scan { .. } => false,
        LogicalPlan::Select { input, .. }
        | LogicalPlan::ThresholdFilter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::RenameRelation { input, .. }
        | LogicalPlan::RenameAttribute { input, .. } => contains_merge(input),
        LogicalPlan::Difference { left, right } | LogicalPlan::Product { left, right } => {
            contains_merge(left) || contains_merge(right)
        }
        LogicalPlan::Join { left, right, .. } => contains_merge(left) || contains_merge(right),
    }
}

/// The static emission-order domain of a shardable fragment: every
/// key it can emit, in sequential emission order, plus whether the
/// key *set* is exact (no data-dependent filtering below).
struct EmitDomain {
    /// Keys in the order the sequential plan would emit them.
    order: Vec<Vec<evirel_relation::Value>>,
    /// The same keys, for membership tests.
    set: std::collections::HashSet<Vec<evirel_relation::Value>>,
    /// `false` when a σ̃/threshold below makes the emitted key set a
    /// data-dependent subset of `order`.
    exact: bool,
}

/// Compute the emit domain, or `None` when no static order can be
/// guaranteed to match sequential emission — then the fragment is not
/// exchanged (the planner recurses and may still exchange a subtree):
///
/// * a ∪̃ whose *left* subtree has an inexact key set: a left key
///   dropped at runtime but present on the right would be emitted in
///   the right-only phase, while any static map ranks it in the left
///   block (filters on the *right* subtree are fine — dropped right
///   keys are simply absent, which cannot reorder survivors);
/// * a π̃ that permutes key attributes: the re-merge ranks tuples by
///   their emitted key, which must align positionally with the scan
///   keys the map was built from.
fn emit_domain(plan: &LogicalPlan, source: &dyn RelationSource) -> Option<EmitDomain> {
    match plan {
        LogicalPlan::Scan { name } => {
            // Stored (disk-backed) bindings decline the exchange:
            // computing their emit domain would require a full scan up
            // front, defeating the point of paging. They run through
            // the sequential spill scan instead (still streaming).
            let BoundRelation::Memory(rel) = &source.resolve(name)?.relation else {
                return None;
            };
            let order: Vec<_> = rel.iter_keyed().map(|(key, _)| key).collect();
            let set = order.iter().cloned().collect();
            Some(EmitDomain {
                order,
                set,
                exact: true,
            })
        }
        LogicalPlan::Select { input, .. } | LogicalPlan::ThresholdFilter { input, .. } => {
            let mut domain = emit_domain(input, source)?;
            domain.exact = false;
            Some(domain)
        }
        LogicalPlan::Project { input, .. } => {
            let key_names = |schema: &evirel_relation::Schema| -> Vec<String> {
                schema
                    .key_positions()
                    .iter()
                    .map(|&p| schema.attr(p).name().to_owned())
                    .collect()
            };
            let in_schema = crate::logical::schema_of(input, source).ok()?;
            let out_schema = crate::logical::schema_of(plan, source).ok()?;
            if key_names(&in_schema) != key_names(&out_schema) {
                return None;
            }
            emit_domain(input, source)
        }
        LogicalPlan::RenameRelation { input, .. } | LogicalPlan::RenameAttribute { input, .. } => {
            emit_domain(input, source)
        }
        LogicalPlan::Union { left, right } => {
            let l = emit_domain(left, source)?;
            if !l.exact {
                return None;
            }
            let r = emit_domain(right, source)?;
            let mut order = l.order;
            order.extend(r.order.into_iter().filter(|k| !l.set.contains(k)));
            let mut set = l.set;
            set.extend(r.set);
            Some(EmitDomain {
                order,
                set,
                exact: r.exact,
            })
        }
        LogicalPlan::Intersect { left, right } => {
            let l = emit_domain(left, source)?;
            let r = emit_domain(right, source)?;
            let order: Vec<_> = l.order.into_iter().filter(|k| r.set.contains(k)).collect();
            let set = order.iter().cloned().collect();
            Some(EmitDomain {
                order,
                set,
                exact: l.exact && r.exact,
            })
        }
        LogicalPlan::Difference { left, right } => {
            let l = emit_domain(left, source)?;
            let r = emit_domain(right, source)?;
            // An inexact right set under −̃ *adds* emitted keys
            // relative to the static order: a right key dropped at
            // runtime no longer subtracts its left partner, which the
            // map below never ranked. No static order can cover that,
            // so decline the exchange here (the planner recurses and
            // may still exchange the subtrees). An inexact LEFT only
            // removes emitted keys, which cannot reorder survivors.
            if !r.exact {
                return None;
            }
            let order: Vec<_> = l.order.into_iter().filter(|k| !r.set.contains(k)).collect();
            let set = order.iter().cloned().collect();
            Some(EmitDomain {
                order,
                set,
                exact: l.exact,
            })
        }
        LogicalPlan::Product { .. } | LogicalPlan::Join { .. } => None,
    }
}

/// Wrap a shardable fragment in an exchange: N identical shard plans
/// ([`physical_node`] over [`Leaves::Shard`], sharing one precomputed
/// slot table per scanned relation) plus the emit-domain order map.
/// `Ok(None)` when [`emit_domain`] cannot guarantee sequential emission
/// order — the caller then plans this node sequentially and recurses.
fn build_exchange(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    options: &UnionOptions,
    threads: usize,
) -> Result<Option<Box<dyn Operator>>, PlanError> {
    let Some(domain) = emit_domain(plan, source) else {
        return Ok(None);
    };
    let order: OrderMap = domain
        .order
        .into_iter()
        .enumerate()
        .map(|(rank, key)| (key, rank))
        .collect();
    let partitioner = Partitioner::new(threads);
    let mut slots = SlotTables::new();
    let shards = (0..threads)
        .map(|shard| {
            let mut leaves = Leaves::Shard {
                partitioner,
                shard,
                slots: &mut slots,
            };
            physical_node(plan, source, options, &mut leaves)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some(Box::new(ExchangeOp::new(shards, order)?)))
}

fn build_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    predicate: &Predicate,
    threshold: &Threshold,
    source: &dyn RelationSource,
    options: &UnionOptions,
    parallelism: usize,
) -> Result<Box<dyn Operator>, PlanError> {
    if parallelism > 1 {
        if let Some(op) = build_partitioned_join(
            left,
            right,
            predicate,
            threshold,
            source,
            options,
            parallelism,
        )? {
            return Ok(op);
        }
    }
    let left_op = physical(left, source, options, parallelism)?;
    let right_op = physical(right, source, options, parallelism)?;
    let product_schema =
        evirel_algebra::product::product_schema(left_op.schema(), right_op.schema())?;
    match JoinOp::indexable_conjunct(
        predicate,
        left_op.schema(),
        right_op.schema(),
        &product_schema,
    ) {
        Some((lp, rp)) => Ok(Box::new(JoinOp::new(
            left_op,
            right_op,
            predicate.clone(),
            *threshold,
            lp,
            rp,
        )?)),
        None => Ok(Box::new(SelectOp::new(
            Box::new(JoinOp::product(left_op, right_op)?),
            predicate.clone(),
            *threshold,
        )?)),
    }
}

/// The base in-memory relation under a pure filter chain (σ̃ /
/// membership thresholds over a scan — the shapes that commute with
/// per-tuple sharding), or `None` for anything else.
fn filter_chain_base(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { name } => Some(name),
        LogicalPlan::Select { input, .. } | LogicalPlan::ThresholdFilter { input, .. } => {
            filter_chain_base(input)
        }
        _ => None,
    }
}

/// Partitioned ⋈̃: when both join sides are filter chains over
/// in-memory scans, the predicate has a hashable equality conjunct,
/// and the estimated cost amortizes `parallelism` workers, shard **both** sides by the join attribute's value —
/// equal values land in the same shard, so each worker's hash join
/// sees every matching pair — and re-merge worker outputs in
/// sequential emission order (left insertion order × matching right
/// insertion order, which is exactly how the sequential hash join
/// emits). `Ok(None)` declines to the sequential lowering.
fn build_partitioned_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    predicate: &Predicate,
    threshold: &Threshold,
    source: &dyn RelationSource,
    options: &UnionOptions,
    parallelism: usize,
) -> Result<Option<Box<dyn Operator>>, PlanError> {
    let (Some(l_name), Some(r_name)) = (filter_chain_base(left), filter_chain_base(right)) else {
        return Ok(None);
    };
    let (BoundRelation::Memory(l_rel), BoundRelation::Memory(r_rel)) = (
        &binding_of(source, l_name)?.relation,
        &binding_of(source, r_name)?.relation,
    ) else {
        return Ok(None);
    };
    let l_schema = crate::logical::schema_of(left, source)?;
    let r_schema = crate::logical::schema_of(right, source)?;
    let product_schema = Arc::new(evirel_algebra::product::product_schema(
        &l_schema, &r_schema,
    )?);
    let Some((lp, rp)) =
        JoinOp::indexable_conjunct(predicate, &l_schema, &r_schema, &product_schema)
    else {
        return Ok(None);
    };
    let join_plan = LogicalPlan::Join {
        left: Box::new(left.clone()),
        right: Box::new(right.clone()),
        on: predicate.clone(),
        threshold: *threshold,
    };
    if !exchange_pays_off(CostModel::new(source).est_cost(&join_plan)?, parallelism) {
        return Ok(None);
    }
    // Rank every join-value-matching pair in sequential emission
    // order. Filters above the scans only *remove* emissions, so the
    // map is a superset of what the workers emit — supersets cannot
    // reorder survivors.
    let mut r_index: HashMap<&evirel_relation::Value, Vec<usize>> = HashMap::new();
    for (i, tuple) in r_rel.iter().enumerate() {
        if let Some(v) = tuple.value(rp).as_definite() {
            r_index.entry(v).or_default().push(i);
        }
    }
    let r_tuples: Vec<_> = r_rel.iter().collect();
    let mut order: OrderMap = HashMap::new();
    for l_tuple in l_rel.iter() {
        let Some(v) = l_tuple.value(lp).as_definite() else {
            continue;
        };
        let Some(bucket) = r_index.get(v) else {
            continue;
        };
        let l_key = l_tuple.key(&l_schema);
        for &ri in bucket {
            let mut key = l_key.clone();
            key.extend(r_tuples[ri].key(&r_schema));
            let rank = order.len();
            order.entry(key).or_insert(rank);
        }
    }
    drop(r_index);
    drop(r_tuples);
    let partitioner = Partitioner::new(parallelism);
    let slot_by_attr = |rel: &Arc<ExtendedRelation>, pos: usize| -> Arc<Vec<u32>> {
        Arc::new(
            rel.iter()
                .map(|t| match t.value(pos).as_definite() {
                    Some(v) => partitioner.slot_for_key(std::slice::from_ref(v)) as u32,
                    // A non-definite join attribute cannot match any
                    // probe; the shard it lands in is irrelevant.
                    None => 0,
                })
                .collect(),
        )
    };
    // One slot table per side (a self-join shards the same relation
    // by two different attributes), seeded so the shard lowering
    // routes by join value instead of hashing keys.
    let mut l_slots = HashMap::from([(l_name.to_owned(), slot_by_attr(l_rel, lp))]);
    let mut r_slots = HashMap::from([(r_name.to_owned(), slot_by_attr(r_rel, rp))]);
    let shards = (0..parallelism)
        .map(|shard| -> Result<Box<dyn Operator>, PlanError> {
            let side = |plan, slots| {
                let mut leaves = Leaves::Shard {
                    partitioner,
                    shard,
                    slots,
                };
                physical_node(plan, source, options, &mut leaves)
            };
            Ok(Box::new(JoinOp::new(
                side(left, &mut l_slots)?,
                side(right, &mut r_slots)?,
                predicate.clone(),
                *threshold,
                lp,
                rp,
            )?))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some(Box::new(ExchangeOp::with_partition_label(
        shards,
        order,
        format!(
            "hash({} = {}) partition",
            l_schema.attr(lp).name(),
            r_schema.attr(rp).name()
        ),
    )?)))
}

/// Optimize and execute a plan, materializing the result — the
/// convenience for callers holding an un-rewritten plan (tests,
/// benches, examples); prepared plans go straight to
/// [`execute_optimized_metered`], which this calls after the rewrite
/// pass.
///
/// # Errors
/// Plan-build and operator errors.
pub fn execute_plan(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    ctx: &mut ExecContext,
) -> Result<ExtendedRelation, PlanError> {
    let (optimized, _) = optimize(plan, source);
    Ok(execute_optimized_metered(&optimized, source, ctx)?.0)
}

/// Execute a union-style merge of `left` and `right` under an explicit
/// tuple `pairing` — the integration pipeline's Figure 1 merge stage,
/// lowered like a ∪̃ of two scans: one [`MergeOp`] over whole-relation
/// (or stored) scans, or, when both sides are in memory and the merge's
/// cost amortizes [`ExecContext::parallelism`] workers, N hash-sharded
/// `MergeOp`s under an exchange. The pairing may match *unequal* keys,
/// so a matched right tuple is routed and ranked under its partner's
/// (canonical) left key and both land in one shard. The cost is the
/// ∪̃ formula fed with the pairing's exact counts, against the same
/// floor; either lowering emits the same tuples in the same order with
/// the same conflict report. `merger` is called once per `MergeOp`.
///
/// # Errors
/// Union-incompatible schemas; merger and scan errors.
pub fn execute_merge(
    left: &BoundRelation,
    right: &BoundRelation,
    pairing: MergePairing,
    merger: &dyn Fn() -> Box<dyn TupleMerger>,
    ctx: &mut ExecContext,
) -> Result<ExtendedRelation, PlanError> {
    let (l_name, r_name) = (left.schema().name(), right.schema().name());
    let name = format!("{l_name}⊎{r_name}");
    let (l, r) = (left.len() as f64, right.len() as f64);
    let cost = l + r + merge_cost(l, r, pairing.matched.len() as f64, DEFAULT_MERGE_WEIGHT);
    let pairing = Arc::new(pairing);
    let merge = |l_leaves: &mut Leaves<'_>, r_leaves: &mut Leaves<'_>| {
        MergeOp::with_shared_pairing(
            l_leaves.scan(l_name, left)?,
            r_leaves.scan(r_name, right)?,
            merger(),
            Arc::clone(&pairing),
            name.clone(),
        )
    };
    let threads = ctx.parallelism;
    let mut op: Box<dyn Operator> = match (left, right) {
        (BoundRelation::Memory(l_rel), BoundRelation::Memory(r_rel))
            if exchange_pays_off(cost, threads) =>
        {
            let canonical: HashMap<Vec<Value>, Vec<Value>> = pairing
                .matched
                .iter()
                .map(|(lk, rk)| (rk.clone(), lk.clone()))
                .collect();
            let mut order = OrderMap::new();
            rank_keys(&mut order, l_rel, None);
            rank_keys(&mut order, r_rel, Some(&canonical));
            let partitioner = Partitioner::new(threads);
            // One slot table per side (both schemas may share a name),
            // the right one seeded with the canonical routing.
            let mut l_slots = SlotTables::new();
            let mut r_slots = SlotTables::from([(
                r_name.to_owned(),
                compute_slots(r_rel, partitioner, Some(&canonical)),
            )]);
            let shards = (0..threads)
                .map(|shard| -> Result<Box<dyn Operator>, PlanError> {
                    let leaves = |slots| Leaves::Shard {
                        partitioner,
                        shard,
                        slots,
                    };
                    Ok(Box::new(merge(
                        &mut leaves(&mut l_slots),
                        &mut leaves(&mut r_slots),
                    )?))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Box::new(ExchangeOp::new(shards, order)?)
        }
        _ => {
            let whole = || Leaves::Whole { parallelism: 1 };
            Box::new(merge(&mut whole(), &mut whole())?)
        }
    };
    run(op.as_mut(), ctx)
}

/// One operator's row accounting from an execution: what the cost
/// model predicted vs what the operator actually emitted. The
/// slow-query log attaches these so planner mis-estimates are visible
/// in production, not just under `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMeter {
    /// The operator's `describe()` line.
    pub describe: String,
    /// Cost-model row estimate.
    pub est_rows: u64,
    /// Rows the operator actually emitted.
    pub actual_rows: u64,
}

/// Collect every metered node under `op`, pre-order (root first).
fn collect_meters(op: &dyn Operator, out: &mut Vec<OpMeter>) {
    if let Some((est_rows, actual_rows)) = op.metered() {
        out.push(OpMeter {
            describe: op.describe(),
            est_rows,
            actual_rows,
        });
    }
    for child in op.children() {
        collect_meters(child, out);
    }
}

/// Execute an **already optimized** plan — the one way a plan runs.
/// Callers that cached the output of [`crate::optimize`] (keyed by
/// catalog generation, so the plan still matches the bindings) lower
/// and execute it directly, amortizing the optimizer across
/// re-executions. Side outputs (conflict reports, κ stats) accumulate
/// in `ctx`, whose [`ExecContext::parallelism`] governs whether
/// shardable fragments run through an exchange; the per-operator
/// est-vs-actual row counts come back alongside the result.
///
/// # Errors
/// Plan-build and operator errors.
pub fn execute_optimized_metered(
    optimized: &LogicalPlan,
    source: &dyn RelationSource,
    ctx: &mut ExecContext,
) -> Result<(ExtendedRelation, Vec<OpMeter>), PlanError> {
    let mut op = physical(optimized, source, &ctx.union_options, ctx.parallelism)?;
    let rel = run(op.as_mut(), ctx)?;
    let mut meters = Vec::new();
    collect_meters(op.as_ref(), &mut meters);
    Ok((rel, meters))
}

/// Render the full `EXPLAIN`: logical tree, fired rewrites, optimized
/// tree, and the physical operator tree exactly as
/// [`execute_optimized_metered`] would build it under `ctx` (its
/// union options and parallelism — exchange nodes included).
///
/// With `analyze`, the tree also **runs** to completion (side outputs
/// land in `ctx` as an execution's would) and every physical line
/// carries an `[est≈N act=M]` suffix — estimates from the cost
/// model, actuals from the meters. When that execution fails the tree is still rendered
/// (meters show rows emitted up to the failure) with the error
/// appended.
///
/// # Errors
/// Plan-build errors (the physical tree must be constructible);
/// *execution* errors are folded into the rendered text instead, so a
/// failing query still explains itself.
pub fn explain_plan(
    plan: &LogicalPlan,
    source: &dyn RelationSource,
    ctx: &mut ExecContext,
    analyze: bool,
) -> Result<String, PlanError> {
    let (optimized, fired) = optimize(plan, source);
    let mut op = physical(&optimized, source, &ctx.union_options, ctx.parallelism)?;
    let run_error = if analyze {
        run(op.as_mut(), ctx).err()
    } else {
        None
    };
    let mut out = String::new();
    out.push_str("logical:\n");
    push_indented(&mut out, &plan.render());
    out.push_str("rewrites:\n");
    if fired.is_empty() {
        out.push_str("  (none)\n");
    } else {
        for rewrite in &fired {
            out.push_str(&format!("  - {rewrite}\n"));
        }
    }
    out.push_str("optimized:\n");
    push_indented(&mut out, &optimized.render());
    out.push_str("physical:\n");
    push_indented(&mut out, &crate::ops::render_physical(op.as_ref(), analyze));
    if let Some(e) = run_error {
        out.push_str(&format!("execution failed: {e}\n"));
    }
    Ok(out)
}

fn push_indented(out: &mut String, text: &str) {
    for line in text.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{scan, Bindings};
    use evirel_algebra::{Operand, ThetaOp};
    use evirel_relation::{AttrDomain, RelationBuilder, Schema, Value, ValueKind};
    use std::sync::Arc;

    /// Plain `EXPLAIN` of `plan` at an explicit thread budget.
    fn explain(
        plan: &LogicalPlan,
        b: &Bindings,
        options: &UnionOptions,
        parallelism: usize,
    ) -> String {
        let mut ctx = ExecContext::with_options(options.clone());
        ctx.parallelism = parallelism;
        explain_plan(plan, b, &mut ctx, false).unwrap()
    }

    fn bindings() -> Bindings {
        let d = Arc::new(AttrDomain::categorical("spec", ["mu", "it"]).unwrap());
        let r_schema = Arc::new(
            Schema::builder("R")
                .key_str("rname")
                .evidential("spec", d)
                .build()
                .unwrap(),
        );
        let r = RelationBuilder::new(r_schema)
            .tuple(|t| {
                t.set_str("rname", "mehl")
                    .set_evidence("spec", [(&["mu"][..], 0.8), (&["it"][..], 0.2)])
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("rname", "olive")
                    .set_evidence("spec", [(&["it"][..], 1.0)])
            })
            .unwrap()
            .build();
        let m_schema = Arc::new(
            Schema::builder("RM")
                .key_str("rname")
                .definite("mname", ValueKind::Str)
                .build()
                .unwrap(),
        );
        let m = RelationBuilder::new(m_schema)
            .tuple(|t| {
                t.set_str("rname", "mehl")
                    .set_str("mname", "alice")
                    .membership_pair(0.9, 1.0)
            })
            .unwrap()
            .tuple(|t| t.set_str("rname", "wok").set_str("mname", "bob"))
            .unwrap()
            .build();
        let mut b = Bindings::new();
        b.bind("r", r).bind("rm", m);
        b
    }

    #[test]
    fn join_runs_as_hash_join() {
        let b = bindings();
        let on = Predicate::theta(
            Operand::attr("R.rname"),
            ThetaOp::Eq,
            Operand::attr("RM.rname"),
        );
        let plan = scan("r").join(scan("rm"), on).build();
        let text = explain(&plan, &b, &UnionOptions::default(), 1);
        assert!(text.contains("hash rname = rname"), "{text}");
        assert!(text.contains("join-expansion"), "{text}");
        let mut ctx = ExecContext::new();
        let out = execute_plan(&plan, &b, &mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        let t = out
            .get_by_key(&[Value::str("mehl"), Value::str("mehl")])
            .unwrap();
        assert!((t.membership().sn() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn non_equi_join_falls_back_to_product_select() {
        let b = bindings();
        let on = Predicate::theta(
            Operand::attr("R.rname"),
            ThetaOp::Ne,
            Operand::attr("RM.rname"),
        );
        let plan = scan("r").join(scan("rm"), on).build();
        let text = explain(&plan, &b, &UnionOptions::default(), 1);
        assert!(!text.contains("hash"), "{text}");
        assert!(text.contains("×̃"), "{text}");
        let mut ctx = ExecContext::new();
        let out = execute_plan(&plan, &b, &mut ctx).unwrap();
        // mehl–wok, olive–mehl, olive–wok survive the ≠ predicate.
        assert_eq!(out.len(), 3);
    }

    /// End to end through the planner: at parallelism 4 a ∪̃ pipeline
    /// is wrapped in an exchange, EXPLAIN renders the exchange node,
    /// and execution at 2/4/8 threads reproduces the sequential
    /// result bit for bit — relation, insertion order, stats, and
    /// conflict-report observation order.
    #[test]
    fn parallel_union_builds_exchange_and_matches_sequential() {
        use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
        let (ga, gb) = generate_pair(&PairConfig {
            base: GeneratorConfig {
                tuples: 600,
                seed: 7,
                ..Default::default()
            },
            key_overlap: 0.5,
            conflict_bias: 0.3,
        })
        .unwrap();
        let mut b = Bindings::new();
        b.bind("ga", ga).bind("gb", gb);
        let plan = scan("ga")
            .union(scan("gb"))
            .select(Predicate::is("e0", ["v0", "v1"]))
            .project(["k", "e0"])
            .build();
        let options = UnionOptions {
            on_total_conflict: evirel_algebra::ConflictPolicy::Vacuous,
            ..Default::default()
        };

        let text = explain(&plan, &b, &options, 4);
        assert!(text.contains("⇄ exchange (4 threads"), "{text}");
        assert!(text.contains("shard 0/4"), "{text}");
        // At parallelism 1 the same plan has no exchange node.
        let text = explain(&plan, &b, &options, 1);
        assert!(!text.contains("exchange"), "{text}");

        let mut seq_ctx = ExecContext::with_options(options.clone());
        seq_ctx.parallelism = 1;
        let seq = execute_plan(&plan, &b, &mut seq_ctx).unwrap();
        assert!(!seq_ctx.conflict_report().is_empty());
        for threads in [2usize, 4, 8] {
            let mut ctx = ExecContext::with_options(options.clone());
            ctx.parallelism = threads;
            let par = execute_plan(&plan, &b, &mut ctx).unwrap();
            assert!(
                seq.approx_eq(&par),
                "relation diverged at {threads} threads"
            );
            for (s, p) in seq.iter().zip(par.iter()) {
                assert_eq!(s.key(seq.schema()), p.key(par.schema()));
            }
            assert_eq!(
                seq_ctx.stats, ctx.stats,
                "stats diverged at {threads} threads"
            );
            assert_eq!(
                seq_ctx.conflict_report().conflicts(),
                ctx.conflict_report().conflicts(),
                "report diverged at {threads} threads"
            );
        }
    }

    /// A σ̃ below a ∪̃'s *left* subtree makes the left key set
    /// data-dependent: a dropped left key present on the right is
    /// emitted in the right-only phase, which no static order map can
    /// rank. Such fragments must decline the exchange (and stay
    /// sequential-correct); a σ̃ below the *right* subtree only
    /// removes tuples, so it still exchanges.
    #[test]
    fn filter_below_union_left_declines_exchange() {
        use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
        let (ga, gb) = generate_pair(&PairConfig {
            base: GeneratorConfig {
                tuples: 600,
                seed: 11,
                ..Default::default()
            },
            key_overlap: 0.5,
            conflict_bias: 0.0,
        })
        .unwrap();
        let mut b = Bindings::new();
        b.bind("ga", ga).bind("gb", gb);
        let options = UnionOptions::default();

        // Filter on the left: no exchange node anywhere.
        let left_filtered = scan("ga")
            .select(Predicate::is("e0", ["v0", "v1", "v2"]))
            .union(scan("gb"))
            .build();
        let text = explain(&left_filtered, &b, &options, 4);
        assert!(!text.contains("exchange"), "{text}");
        // Parallel execution (sequential fallback) still matches.
        let mut seq_ctx = ExecContext::with_parallelism(1);
        let seq = execute_plan(&left_filtered, &b, &mut seq_ctx).unwrap();
        let mut par_ctx = ExecContext::with_parallelism(4);
        let par = execute_plan(&left_filtered, &b, &mut par_ctx).unwrap();
        assert!(seq.approx_eq(&par));
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.key(seq.schema()), p.key(par.schema()));
        }

        // The same filter on the right subtree keeps the exchange and
        // stays bit-for-bit with sequential.
        let right_filtered = scan("ga")
            .union(scan("gb").select(Predicate::is("e0", ["v0", "v1", "v2"])))
            .build();
        let text = explain(&right_filtered, &b, &options, 4);
        assert!(text.contains("⇄ exchange (4 threads"), "{text}");
        let mut seq_ctx = ExecContext::with_parallelism(1);
        let seq = execute_plan(&right_filtered, &b, &mut seq_ctx).unwrap();
        let mut par_ctx = ExecContext::with_parallelism(4);
        let par = execute_plan(&right_filtered, &b, &mut par_ctx).unwrap();
        assert!(seq.approx_eq(&par));
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.key(seq.schema()), p.key(par.schema()));
        }
    }

    /// A π̃ that permutes a composite key's attribute order would make
    /// emitted keys miss the order map, so the exchange is built
    /// *below* the projection instead of above it — parallel order
    /// stays sequential-exact either way.
    #[test]
    fn key_permuting_projection_pushes_exchange_below() {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
        let schema = |name: &str| {
            Arc::new(
                Schema::builder(name)
                    .key_str("k1")
                    .key_str("k2")
                    .evidential("d", Arc::clone(&d))
                    .build()
                    .unwrap(),
            )
        };
        let mut a = RelationBuilder::new(schema("A"));
        let mut b = RelationBuilder::new(schema("B"));
        for i in 0..400 {
            let label = ["x", "y", "z"][i % 3];
            a = a
                .tuple(|t| {
                    t.set_str("k1", format!("a-{i}"))
                        .set_str("k2", format!("b-{}", i / 2))
                        .set_evidence_with_omega("d", [(&[label][..], 0.6)], 0.4)
                })
                .unwrap();
            if i % 2 == 0 {
                b = b
                    .tuple(|t| {
                        t.set_str("k1", format!("a-{i}"))
                            .set_str("k2", format!("b-{}", i / 2))
                            .set_evidence_with_omega("d", [(&["x"][..], 0.5)], 0.5)
                    })
                    .unwrap();
            }
        }
        let mut bindings = Bindings::new();
        bindings.bind("a", a.build()).bind("b", b.build());
        let plan = scan("a")
            .union(scan("b"))
            .project(["k2", "k1", "d"]) // key attrs swapped
            .build();
        let options = UnionOptions::default();
        let text = explain(&plan, &bindings, &options, 4);
        // Exchange present, but *under* the projection.
        let pi_line = text.lines().position(|l| l.contains("π̃")).unwrap();
        let ex_line = text
            .lines()
            .position(|l| l.contains("⇄ exchange"))
            .expect("exchange still built below the projection");
        assert!(ex_line > pi_line, "{text}");
        let mut seq_ctx = ExecContext::with_parallelism(1);
        let seq = execute_plan(&plan, &bindings, &mut seq_ctx).unwrap();
        let mut par_ctx = ExecContext::with_parallelism(4);
        let par = execute_plan(&plan, &bindings, &mut par_ctx).unwrap();
        assert!(seq.approx_eq(&par));
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.key(seq.schema()), p.key(par.schema()));
        }
        assert_eq!(seq_ctx.stats, par_ctx.stats);
    }

    /// A large equality ⋈̃ at parallelism 4 runs through the
    /// join-attribute-partitioned exchange and reproduces
    /// the sequential output bit for bit, stats included.
    #[test]
    fn parallel_join_partitions_by_join_attribute() {
        use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
        let (ga, gb) = generate_pair(&PairConfig {
            base: GeneratorConfig {
                tuples: 600,
                seed: 13,
                ..Default::default()
            },
            key_overlap: 0.5,
            conflict_bias: 0.0,
        })
        .unwrap();
        let mut b = Bindings::new();
        b.bind("ga", ga).bind("gb", gb);
        let on = Predicate::theta(Operand::attr("GA.k"), ThetaOp::Eq, Operand::attr("GB.k"));
        let plan = scan("ga").join(scan("gb"), on).build();
        let options = UnionOptions::default();
        let text = explain(&plan, &b, &options, 4);
        assert!(
            text.contains("⇄ exchange (4 threads, hash(k = k) partition"),
            "{text}"
        );
        let mut seq_ctx = ExecContext::with_parallelism(1);
        let seq = execute_plan(&plan, &b, &mut seq_ctx).unwrap();
        assert!(!seq.is_empty());
        let mut par_ctx = ExecContext::with_parallelism(4);
        let par = execute_plan(&plan, &b, &mut par_ctx).unwrap();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.values(), p.values());
            assert_eq!(s.membership().sn().to_bits(), p.membership().sn().to_bits());
        }
        assert_eq!(seq_ctx.stats, par_ctx.stats);
    }

    /// `EXPLAIN`-analyze executes the plan and annotates every
    /// physical line with estimated vs actual row counts.
    #[test]
    fn explain_analyze_shows_estimates_and_actuals() {
        let b = bindings();
        let plan = scan("r")
            .select(Predicate::is("spec", ["mu"]))
            .project(["rname", "spec"])
            .build();
        let mut ctx = ExecContext::new();
        let text = explain_plan(&plan, &b, &mut ctx, true).unwrap();
        assert!(text.contains("physical:"), "{text}");
        assert!(text.contains("act="), "{text}");
        assert!(text.contains("[est≈"), "{text}");
        // The analyze pass really executed: emitted rows were counted.
        assert!(ctx.stats.tuples_emitted > 0, "{:?}", ctx.stats);
        // The root line shows the actual row count of the result.
        let root = text
            .lines()
            .skip_while(|l| !l.starts_with("physical:"))
            .nth(1)
            .unwrap();
        assert!(root.contains("act=1"), "{root}");

        // A stored scan whose segment its parent reads itself — no
        // tuple is pulled through the scan's meter — still reports the
        // records that parent visited: a ∪̃'s build side, both sides
        // of a ∪̃ with a selection inside it, and a −̃'s right side,
        // of which the key index is all that is read.
        let BoundRelation::Memory(r) = &b.resolve("r").unwrap().relation else {
            unreachable!("bound in memory");
        };
        let pool = Arc::new(evirel_store::BufferPool::new(4096));
        let mut stored = Bindings::new();
        for name in ["sa", "sb"] {
            let path = evirel_store::spill_path("explain-merge");
            evirel_store::write_segment(r, &path, 512).unwrap();
            let rel = evirel_store::StoredRelation::open(&path, Arc::clone(&pool)).unwrap();
            std::fs::remove_file(&path).ok();
            stored.bind_stored(name, Arc::new(rel));
        }
        let scans = |plan: &LogicalPlan| {
            let text = explain_plan(plan, &stored, &mut ExecContext::new(), true).unwrap();
            let physical = text.lines().skip_while(|l| !l.starts_with("physical:"));
            let scans = physical.filter(|l| l.trim_start().starts_with("scan s"));
            scans.map(|l| l.trim().to_owned()).collect::<Vec<_>>()
        };
        let read = |name: &str, suffix: &str| {
            format!("scan {name} [stored: 2 tuples, 1 pages × 512 B target]{suffix}")
        };
        let union = scan("sa").union(scan("sb"));
        let both_read = [read("sa", " [est≈2 act=2]"), read("sb", " [est≈2 act=2]")];
        assert_eq!(scans(&union.clone().build()), both_read);
        let selected = union.select(Predicate::is("spec", ["it"])).build();
        assert_eq!(scans(&selected), both_read);
        // σ̃ and ∪̃ are one line, under the σ̃'s meter.
        let text = explain_plan(&selected, &stored, &mut ExecContext::new(), true).unwrap();
        let physical: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("physical:"))
            .skip(1)
            .collect();
        assert_eq!(physical.len(), 3, "{text}");
        assert!(
            physical[0].starts_with(
                "  σ̃[spec is {it}] with sn > 0 ⟵ ∪̃ (index right, stream left; pairing: key equality;"
            ) && physical[0].ends_with("build: stored index (cached)) [est≈1 act=2]"),
            "{text}"
        );
        assert_eq!(
            scans(&scan("sa").difference(scan("sb")).build()),
            [
                read("sa", " [est≈2 act=2]"),
                read("sb", " (key index only) [est≈2 act=0]")
            ]
        );
    }

    /// A σ̃ over a stored scan is one physical line naming both halves,
    /// under the σ̃'s estimate and actual; the same relation bound in
    /// memory keeps its two lines, and a bare stored scan its own.
    #[test]
    fn explain_analyze_shows_the_fused_scan_as_one_line() {
        let mem = bindings();
        let BoundRelation::Memory(r) = &mem.resolve("r").unwrap().relation else {
            unreachable!("bound in memory");
        };
        let path = evirel_store::spill_path("explain-fused");
        evirel_store::write_segment(r, &path, 512).unwrap();
        let pool = Arc::new(evirel_store::BufferPool::new(4096));
        let stored = evirel_store::StoredRelation::open(&path, pool).unwrap();
        std::fs::remove_file(&path).ok();
        let mut b = Bindings::new();
        b.bind_stored("r", Arc::new(stored));

        let plan = scan("r")
            .select_where(Predicate::is("spec", ["mu"]), Threshold::SnGreater(0.5))
            .project(["rname"])
            .build();
        let physical = |b: &Bindings, plan: &LogicalPlan| {
            let text = explain_plan(plan, b, &mut ExecContext::new(), true).unwrap();
            let lines = text.lines().skip_while(|l| !l.starts_with("physical:"));
            lines.skip(1).map(str::to_owned).collect::<Vec<_>>()
        };
        let fused = physical(&b, &plan);
        assert_eq!(fused.len(), 2, "{fused:?}");
        assert!(
            fused[1].trim_start().starts_with(
                "σ̃[spec is {mu}] with sn > 0.5 ⟵ scan r [stored: 2 tuples, 1 pages × 512 B target] [est≈"
            ) && fused[1].ends_with("act=1]"),
            "{fused:?}"
        );
        let unfused = physical(&mem, &plan);
        assert_eq!(unfused.len(), 3, "{unfused:?}");
        assert!(unfused[1].contains("σ̃[spec is {mu}] with sn > 0.5 [est≈"));
        assert!(unfused[2].contains("scan r (2 tuples)"));
        let bare = physical(&b, &scan("r").build());
        assert!(
            bare[0].starts_with("  scan r [stored: 2 tuples,") && bare[0].ends_with("act=2]"),
            "{bare:?}"
        );
    }

    #[test]
    fn explain_sections_present() {
        let b = bindings();
        let plan = scan("r")
            .select(Predicate::is("spec", ["mu"]))
            .threshold(Threshold::SnAtLeast(0.5))
            .project(["rname", "spec"])
            .build();
        let text = explain(&plan, &b, &UnionOptions::default(), 1);
        for section in ["logical:", "rewrites:", "optimized:", "physical:"] {
            assert!(text.contains(section), "{text}");
        }
        assert!(text.contains("threshold-fusion"), "{text}");
    }
}
