//! Volcano-style exchange: encapsulated hash-partitioned parallelism.
//!
//! [`ExchangeOp`] runs N structurally identical copies of an operator
//! subtree — each reading only its hash-shard of the scanned
//! relations via [`ShardScanOp`] — on N `std::thread` workers, then
//! re-merges the shard outputs deterministically. Because the
//! extended operators pair tuples by *key equality* and every key is
//! routed to exactly one shard by the shared
//! [`evirel_algebra::partition::Partitioner`], the existing streaming
//! operators (σ̃, membership threshold, π̃, ∪̃, ∩̃, −̃, ρ) execute
//! sharded **unchanged** — parallelism is encapsulated in this one
//! operator, exactly Graefe's exchange design.
//!
//! ## Determinism
//!
//! Parallel execution reproduces the sequential streaming result bit
//! for bit:
//!
//! * **Tuples** are re-merged in the fragment's static *emit-domain
//!   order* (computed per node by the physical planner: scans in
//!   insertion order; ∪̃ = left order then right-only keys in right
//!   order; ∩̃/−̃ filter the left order by the right key set; unary
//!   operators preserve order), which equals the sequential emission
//!   order. Fragments for which no static order can match — a ∪̃ with
//!   a σ̃/threshold below its *left* subtree, a π̃ permuting composite
//!   key attributes — are not exchanged at that node; the planner
//!   recurses and may shard an inner fragment instead.
//! * **Side outputs**: each worker drives its shard plan with a
//!   private [`ExecContext`]; the per-worker conflict reports are
//!   re-merged slot-by-slot (the shard plans are structurally
//!   identical, so report slot *i* of every worker belongs to the
//!   same merging operator) with observations ordered by the same key
//!   rank — left-insertion order, matching what the sequential
//!   operator records. κ statistics and scan/merge counters are
//!   summed, so [`crate::ops::ExecStats`] is identical too.
//!
//! Workers own disjoint tuple sets, so no locks are needed; the only
//! synchronization is the scoped join at `open`.

use crate::error::PlanError;
use crate::ops::{ExecContext, Operator};
use evirel_algebra::conflict::ConflictReport;
use evirel_algebra::partition::Partitioner;
use evirel_relation::{ExtendedRelation, Schema, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A deterministic key → merge-rank map: the order in which the
/// re-merge emits tuples (and orders conflict observations).
///
/// The physical planner derives it from the fragment's static emit
/// domain; [`rank_keys`] builds the single-merge case directly. See
/// [`ExchangeOp`] for why the ranks must equal sequential emission
/// order.
pub type OrderMap = HashMap<Vec<Value>, usize>;

/// Assign ranks to `rel`'s keys in insertion order, skipping keys
/// already ranked. `canonical` (used by [`crate::exec::execute_merge`],
/// whose pairing may match *unequal* keys) maps a tuple's own key to
/// the key it is emitted and partitioned under.
pub fn rank_keys(
    map: &mut OrderMap,
    rel: &ExtendedRelation,
    canonical: Option<&HashMap<Vec<Value>, Vec<Value>>>,
) {
    for (key, _) in rel.iter_keyed() {
        let key = match canonical.and_then(|m| m.get(&key)) {
            Some(mapped) => mapped.clone(),
            None => key,
        };
        let next = map.len();
        map.entry(key).or_insert(next);
    }
}

// ---------------------------------------------------------- shard scan

/// Precompute the shard slot of every tuple of `rel` (optionally
/// routing via `canonical` keys — see [`rank_keys`]). All N shard
/// scans of one exchange share the result, so the relation is keyed
/// and hashed **once**, not once per worker.
pub fn compute_slots(
    rel: &ExtendedRelation,
    partitioner: Partitioner,
    canonical: Option<&HashMap<Vec<Value>, Vec<Value>>>,
) -> Arc<Vec<u32>> {
    Arc::new(
        rel.iter_keyed()
            .map(|(key, _)| {
                let route = match canonical.and_then(|m| m.get(&key)) {
                    Some(mapped) => mapped,
                    None => &key,
                };
                partitioner.slot_for_key(route) as u32
            })
            .collect(),
    )
}

/// Leaf: stream the tuples of one hash-shard of a relation, in
/// insertion order. The shard of a tuple is decided by its key (or by
/// a remapped *canonical* key — see [`rank_keys`]), so operators that
/// pair tuples by key equality see every partner in their own shard.
pub struct ShardScanOp {
    name: String,
    rel: Arc<ExtendedRelation>,
    partitioner: Partitioner,
    shard: usize,
    slots: Arc<Vec<u32>>,
    pos: usize,
}

impl ShardScanOp {
    /// Scan shard `shard` of `rel` under `partitioner`, hashing every
    /// key here; prefer [`ShardScanOp::with_slots`] when several
    /// shard scans cover one relation.
    pub fn new(
        name: impl Into<String>,
        rel: Arc<ExtendedRelation>,
        partitioner: Partitioner,
        shard: usize,
    ) -> ShardScanOp {
        let slots = compute_slots(&rel, partitioner, None);
        ShardScanOp::with_slots(name, rel, partitioner, shard, slots)
    }

    /// Scan shard `shard` of `rel` using slots precomputed by
    /// [`compute_slots`] — the zero-rehash constructor every exchange
    /// builder uses (one slot table shared across all N shards).
    pub fn with_slots(
        name: impl Into<String>,
        rel: Arc<ExtendedRelation>,
        partitioner: Partitioner,
        shard: usize,
        slots: Arc<Vec<u32>>,
    ) -> ShardScanOp {
        ShardScanOp {
            name: name.into(),
            rel,
            partitioner,
            shard,
            slots,
            pos: 0,
        }
    }
}

impl Operator for ShardScanOp {
    fn schema(&self) -> &Arc<Schema> {
        self.rel.schema()
    }

    fn open(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        while let Some(&slot) = self.slots.get(self.pos) {
            if slot as usize != self.shard {
                self.pos += 1;
                continue;
            }
            let tuple = self
                .rel
                .get_shared(self.pos)
                .ok_or_else(|| PlanError::Pairing {
                    reason: "relation shrank under a shard scan".to_owned(),
                })?;
            self.pos += 1;
            // Each tuple is scanned by exactly one shard, so the
            // per-shard counts sum to the sequential scan count.
            ctx.stats.tuples_scanned += 1;
            return Ok(Some(tuple));
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "scan {} shard {}/{} ({} tuples)",
            self.name,
            self.shard,
            self.partitioner.shards(),
            self.rel.len(),
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }
}

// ------------------------------------------------------------ exchange

/// Hash-partition → N worker threads → deterministic re-merge.
///
/// Holds N structurally identical shard plans. `open` drives each to
/// completion on its own scoped thread with a private [`ExecContext`],
/// then re-merges tuples and side outputs in the order given by the
/// [`OrderMap`]; `next` streams the merged buffer; `close` flushes
/// the re-merged conflict reports into the caller's context.
pub struct ExchangeOp {
    shards: Vec<Box<dyn Operator>>,
    schema: Arc<Schema>,
    order: OrderMap,
    buffer: Vec<Arc<Tuple>>,
    pos: usize,
    merged_reports: Vec<ConflictReport>,
    /// How tuples were routed to shards, for `EXPLAIN` (`hash(key)
    /// partition` for the shardable family; the partitioned ⋈̃ names
    /// its join attributes).
    partition_desc: String,
}

impl ExchangeOp {
    /// Build an exchange over `shards` (all must emit the same
    /// schema; tuple re-merge follows `order`).
    ///
    /// # Errors
    /// [`PlanError::Pairing`] when `shards` is empty or the shard
    /// schemas disagree.
    pub fn new(shards: Vec<Box<dyn Operator>>, order: OrderMap) -> Result<ExchangeOp, PlanError> {
        ExchangeOp::with_partition_label(shards, order, "hash(key) partition".to_owned())
    }

    /// As [`ExchangeOp::new`], with an explicit partition description
    /// for `EXPLAIN` (the partitioned ⋈̃ routes by join attribute, not
    /// by key).
    ///
    /// # Errors
    /// As [`ExchangeOp::new`].
    pub fn with_partition_label(
        shards: Vec<Box<dyn Operator>>,
        order: OrderMap,
        partition_desc: String,
    ) -> Result<ExchangeOp, PlanError> {
        let first = shards.first().ok_or_else(|| PlanError::Pairing {
            reason: "exchange needs at least one shard".to_owned(),
        })?;
        let schema = Arc::clone(first.schema());
        for shard in &shards[1..] {
            let same = shard.schema().arity() == schema.arity()
                && shard
                    .schema()
                    .attrs()
                    .iter()
                    .zip(schema.attrs())
                    .all(|(a, b)| a.name() == b.name());
            if !same {
                return Err(PlanError::Pairing {
                    reason: "exchange shards disagree on schema".to_owned(),
                });
            }
        }
        Ok(ExchangeOp {
            shards,
            schema,
            order,
            buffer: Vec::new(),
            pos: 0,
            merged_reports: Vec::new(),
            partition_desc,
        })
    }

    fn rank_of(&self, key: &[Value]) -> usize {
        // Unknown keys (a projection that reordered a multi-attribute
        // key, say) sort after all ranked ones; the stable sort keeps
        // them in shard order, so the output stays deterministic.
        self.order.get(key).copied().unwrap_or(usize::MAX)
    }
}

impl Operator for ExchangeOp {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        let options = ctx.union_options.clone();
        let pool = Arc::clone(&ctx.pool);
        let spill_threshold = ctx.spill_threshold_bytes;
        // Drive every shard plan to completion, one scoped thread per
        // shard, each with a private context for side outputs — but
        // ONE shared buffer pool, so N workers spill and page under a
        // single byte budget.
        type WorkerOut = Result<(Vec<Arc<Tuple>>, ExecContext), PlanError>;
        let results: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| {
                    let mut wctx = ExecContext::with_options(options.clone());
                    wctx.parallelism = 1;
                    wctx.pool = Arc::clone(&pool);
                    wctx.spill_threshold_bytes = spill_threshold;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        shard.open(&mut wctx)?;
                        while let Some(tuple) = shard.next(&mut wctx)? {
                            out.push(tuple);
                        }
                        shard.close(&mut wctx)?;
                        Ok((out, wctx))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("exchange worker panicked"))
                .collect()
        });

        let mut contexts = Vec::with_capacity(results.len());
        let mut merged: Vec<(usize, Arc<Tuple>)> = Vec::new();
        for result in results {
            let (tuples, wctx) = result?;
            for tuple in tuples {
                let rank = self.rank_of(&tuple.key(&self.schema));
                merged.push((rank, tuple));
            }
            contexts.push(wctx);
        }
        merged.sort_by_key(|(rank, _)| *rank);
        self.buffer = merged.into_iter().map(|(_, t)| t).collect();
        self.pos = 0;

        // Counters sum; conflicts/κ flow in via the re-merged reports
        // at close, exactly like a sequential merging operator.
        for wctx in &contexts {
            ctx.stats.tuples_scanned += wctx.stats.tuples_scanned;
            ctx.stats.pairs_merged += wctx.stats.pairs_merged;
        }
        // Slot-by-slot report re-merge: the shard plans are copies of
        // one tree, so every worker closes the same merging operators
        // in the same order.
        let slots = contexts
            .iter()
            .map(|c| c.reports().len())
            .max()
            .unwrap_or(0);
        self.merged_reports = (0..slots)
            .map(|slot| {
                let mut observations: Vec<(usize, &evirel_algebra::AttributeConflict)> = contexts
                    .iter()
                    .flat_map(|c| c.reports().get(slot).into_iter())
                    .flat_map(|report| report.conflicts())
                    .map(|c| (self.rank_of(&c.key), c))
                    .collect();
                observations.sort_by_key(|(rank, _)| *rank);
                let mut report = ConflictReport::new();
                for (_, c) in observations {
                    report.record(c.clone());
                }
                report
            })
            .collect();
        Ok(())
    }

    fn next(&mut self, _ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        match self.buffer.get(self.pos) {
            Some(tuple) => {
                self.pos += 1;
                Ok(Some(Arc::clone(tuple)))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        for report in self.merged_reports.drain(..) {
            ctx.record_report(report);
        }
        self.buffer.clear();
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "⇄ exchange ({} threads, {}; identical shard plans, shard 0 shown)",
            self.shards.len(),
            self.partition_desc,
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        // All shard plans are structurally identical; rendering one
        // representative keeps EXPLAIN readable.
        self.shards
            .first()
            .map(|s| s.as_ref())
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{run, DempsterMerger, MergeOp};
    use evirel_algebra::union::UnionOptions;
    use evirel_relation::{AttrDomain, RelationBuilder};

    fn pair(n: usize) -> (Arc<ExtendedRelation>, Arc<ExtendedRelation>) {
        let domain = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
        let schema = |name: &str| {
            Arc::new(
                Schema::builder(name)
                    .key_str("k")
                    .evidential("d", Arc::clone(&domain))
                    .build()
                    .unwrap(),
            )
        };
        let mut a = RelationBuilder::new(schema("A"));
        let mut b = RelationBuilder::new(schema("B"));
        for i in 0..n {
            let k = format!("key-{i}");
            a = a
                .tuple(|t| {
                    t.set_str("k", k.clone())
                        .set_evidence_with_omega("d", [(&["x"][..], 0.6)], 0.4)
                })
                .unwrap();
            if i % 2 == 0 {
                b = b
                    .tuple(|t| {
                        t.set_str("k", k.clone()).set_evidence_with_omega(
                            "d",
                            [(&["x"][..], 0.3), (&["y"][..], 0.3)],
                            0.4,
                        )
                    })
                    .unwrap();
            }
        }
        (Arc::new(a.build()), Arc::new(b.build()))
    }

    fn union_over_shards(
        a: &Arc<ExtendedRelation>,
        b: &Arc<ExtendedRelation>,
        threads: usize,
    ) -> ExchangeOp {
        let partitioner = Partitioner::new(threads);
        let shards = (0..threads)
            .map(|s| {
                Box::new(
                    MergeOp::union(
                        Box::new(ShardScanOp::new("a", Arc::clone(a), partitioner, s)),
                        Box::new(ShardScanOp::new("b", Arc::clone(b), partitioner, s)),
                        Box::new(DempsterMerger::new(UnionOptions::default())),
                    )
                    .unwrap(),
                ) as Box<dyn Operator>
            })
            .collect();
        let mut order = OrderMap::new();
        rank_keys(&mut order, a, None);
        rank_keys(&mut order, b, None);
        ExchangeOp::new(shards, order).unwrap()
    }

    #[test]
    fn exchange_union_matches_sequential_merge() {
        let (a, b) = pair(256);
        let mut seq_ctx = ExecContext::new();
        let mut seq_op = MergeOp::union(
            Box::new(crate::ops::ScanOp::new("a", Arc::clone(&a))),
            Box::new(crate::ops::ScanOp::new("b", Arc::clone(&b))),
            Box::new(DempsterMerger::new(UnionOptions::default())),
        )
        .unwrap();
        let seq = run(&mut seq_op, &mut seq_ctx).unwrap();

        for threads in [2usize, 4] {
            let mut par_ctx = ExecContext::new();
            let mut exchange = union_over_shards(&a, &b, threads);
            let par = run(&mut exchange, &mut par_ctx).unwrap();
            assert!(seq.approx_eq(&par));
            // Bit-for-bit: same insertion order, same stats, same
            // report observation order.
            for (s, p) in seq.iter().zip(par.iter()) {
                assert_eq!(s.key(seq.schema()), p.key(par.schema()));
            }
            assert_eq!(seq_ctx.stats, par_ctx.stats);
            assert_eq!(
                seq_ctx.conflict_report().conflicts(),
                par_ctx.conflict_report().conflicts()
            );
        }
    }

    #[test]
    fn shard_scans_partition_the_relation() {
        let (a, _) = pair(100);
        let partitioner = Partitioner::new(4);
        let mut seen = 0usize;
        for s in 0..4 {
            let mut op = ShardScanOp::new("a", Arc::clone(&a), partitioner, s);
            let mut ctx = ExecContext::new();
            op.open(&mut ctx).unwrap();
            let mut shard_count = 0usize;
            while op.next(&mut ctx).unwrap().is_some() {
                shard_count += 1;
            }
            op.close(&mut ctx).unwrap();
            assert_eq!(ctx.stats.tuples_scanned, shard_count);
            seen += shard_count;
        }
        assert_eq!(seen, a.len());
    }

    #[test]
    fn empty_exchange_rejected() {
        assert!(matches!(
            ExchangeOp::new(Vec::new(), OrderMap::new()),
            Err(PlanError::Pairing { .. })
        ));
    }
}
