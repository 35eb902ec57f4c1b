//! Pull-based physical operators.
//!
//! Every operator implements [`Operator`] — `open` / `next` / `close`
//! over [`Tuple`]s — so composed queries stream tuple-at-a-time
//! instead of materializing an [`ExtendedRelation`] between every
//! algebra step. The binary operators ([`MergeOp`], [`JoinOp`],
//! [`DifferenceOp`]) keep their right input as one `BuildSide` each
//! (`crate::spill`), built exactly once, at `open`, and stream the left
//! input against it.
//!
//! A build side is addressed by *ordinal* — a tuple's position in the
//! right input's order: a probe hashes a key once and yields an
//! ordinal, a fetch takes the ordinal, "consumed" is one flag per
//! ordinal, and walking the ordinals *is* right insertion order. It
//! spills to a temp segment past [`ExecContext::spill_threshold_bytes`].
//! When the right input of a ∪̃/∩̃/−̃ is a bare stored scan nothing is
//! built at all: the segment is the build side under the key index its
//! [`StoredRelation`] keeps ([`StoredRelation::key_index`]).
//!
//! A σ̃ directly above a ∪̃/∩̃ is part of the merge
//! ([`MergeOp::selecting`]), not an operator over it: the merge decides
//! each candidate from the least it needs — an unmatched stored record
//! from a masked decode, an unmatched tuple where it stands, a matched
//! pair inside the per-pair kernel, which combines in full only what
//! the predicate reads — and materializes only what survives. Every
//! other σ̃ is a [`SelectOp`].
//!
//! Side outputs do not vanish: conflict reports and κ statistics from
//! merging operators flow into the shared [`ExecContext`] instead of
//! being discarded with the intermediate relation (the ∪̃ report the
//! old `evirel-query` executor dropped). The caller that owns the
//! context takes the reports out of it
//! ([`ExecContext::into_conflict_report`]) — an observation is
//! recorded once and moved, never copied.

use crate::config::Config;
use crate::error::PlanError;
use crate::spill::{BuildSide, RecordCursor, ScanFilter};
use evirel_algebra::conflict::ConflictReport;
use evirel_algebra::predicate::Predicate;
use evirel_algebra::support::BoundPredicate;
use evirel_algebra::threshold::Threshold;
use evirel_algebra::union::{MergeScratch, PairSelection, PairSide, UnionOptions};
use evirel_algebra::AlgebraError;
use evirel_relation::{ExtendedRelation, Schema, Tuple, Value};
use evirel_store::codec::{decode_key, decode_record};
use evirel_store::{BufferPool, StoredRelation};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Counters accumulated over one plan execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Tuples produced by scan leaves — every record a stored scan
    /// visits counts, whether or not a fused σ̃ keeps it.
    pub tuples_scanned: usize,
    /// Records of *stored relations* — a bare stored scan, with a σ̃
    /// fused into it or read by a merge with a σ̃ fused into that —
    /// that were visited and never decoded in full. A temp segment a
    /// merge spilled its build side to is an in-memory input's
    /// implementation detail and counts nothing, so the counters do
    /// not depend on the spill threshold or the thread count.
    pub records_skipped: usize,
    /// Key indexes this execution built over stored relations — 0 when
    /// every stored build side it probed was already indexed (see
    /// [`StoredRelation::key_index`]).
    pub key_index_builds: usize,
    /// Tuples emitted by the plan root.
    pub tuples_emitted: usize,
    /// Matched pairs handed to a tuple merger.
    pub pairs_merged: usize,
    /// Attribute/membership conflicts observed while merging.
    pub conflicts: usize,
    /// Largest Dempster conflict mass κ observed (0.0 when none).
    pub max_kappa: f64,
}

/// Shared execution state: union options for ∪̃-family operators,
/// conflict reports collected from every merging operator, counters,
/// and the physical-planning parallelism knob.
#[derive(Debug)]
pub struct ExecContext {
    /// Options used by [`DempsterMerger`]: the total-conflict policy
    /// of every ∪̃/∩̃ the context executes.
    pub union_options: UnionOptions,
    /// Worker threads available to physical planning: subtrees whose
    /// operators pair tuples by key equality are wrapped in a
    /// [`crate::exchange::ExchangeOp`] over this many hash shards
    /// when the inputs are large enough. `1` keeps execution
    /// single-threaded.
    pub parallelism: usize,
    /// The buffer pool spilled build sides page through. One
    /// pool is shared by a whole execution — the exchange operator
    /// hands the same `Arc` to every worker context, so N workers
    /// page under one budget. (Stored-relation scans use the pool
    /// their [`StoredRelation`] was opened with.)
    pub pool: Arc<BufferPool>,
    /// A ∪̃, ∩̃, −̃, ×̃ or ⋈̃ spills its right (build) side to a temp
    /// segment once the side's exact encoded size exceeds this many
    /// bytes. Starts at the pool budget, so under a tiny pool every
    /// build side exercises the spill path.
    pub spill_threshold_bytes: usize,
    /// Execution counters.
    pub stats: ExecStats,
    reports: Vec<ConflictReport>,
}

impl ExecContext {
    /// A context under `config`: its thread count, a fresh pool of its
    /// buffer budget, and default union options.
    pub fn new(config: &Config) -> ExecContext {
        let pool = Arc::new(BufferPool::new(config.buffer_bytes));
        ExecContext::with_pool(pool, config.threads, UnionOptions::default())
    }

    /// A context over an existing `pool` — build sides spill once they
    /// outgrow its whole budget — with `parallelism` threads (at least
    /// one). What a catalog derives per query and an exchange per
    /// worker: it reads nothing and allocates no pool.
    pub fn with_pool(
        pool: Arc<BufferPool>,
        parallelism: usize,
        union_options: UnionOptions,
    ) -> ExecContext {
        ExecContext {
            union_options,
            parallelism: parallelism.max(1),
            spill_threshold_bytes: pool.budget_bytes(),
            pool,
            stats: ExecStats::default(),
            reports: Vec::new(),
        }
    }

    /// A context with explicit union options under
    /// [`Config::default`] — for a caller that sets the pool, the
    /// thread count and the spill threshold itself.
    pub fn with_options(union_options: UnionOptions) -> ExecContext {
        let config = Config::default();
        let pool = Arc::new(BufferPool::new(config.buffer_bytes));
        ExecContext::with_pool(pool, config.threads, union_options)
    }

    /// Record one merging operator's conflict report.
    pub fn record_report(&mut self, report: ConflictReport) {
        self.stats.conflicts += report.len();
        self.stats.max_kappa = self.stats.max_kappa.max(report.max_kappa());
        self.reports.push(report);
    }

    /// Reports in operator-close order.
    pub fn reports(&self) -> &[ConflictReport] {
        &self.reports
    }

    /// A copy of all observations as a single report, for callers
    /// that go on using the context (tests, mostly); the owner of a
    /// finished context takes them with
    /// [`ExecContext::into_conflict_report`] instead.
    pub fn conflict_report(&self) -> ConflictReport {
        let mut merged = ConflictReport::new();
        for report in &self.reports {
            merged.append(report.clone());
        }
        merged
    }

    /// All observations as a single report — the artifact for the data
    /// administrator — moved out of the finished context: a single
    /// report (the common case) is returned as it stands, several are
    /// concatenated in operator-close order.
    pub fn into_conflict_report(self) -> ConflictReport {
        let mut reports = self.reports.into_iter();
        let mut merged = reports.next().unwrap_or_default();
        for report in reports {
            merged.append(report);
        }
        merged
    }
}

/// A pull-based physical operator over extended tuples.
///
/// `Send` so an operator subtree can be handed to an exchange worker
/// thread ([`crate::exchange::ExchangeOp`]); all state is owned or
/// behind [`Arc`], so this costs implementors nothing.
pub trait Operator: Send {
    /// The schema of emitted tuples (available before `open`).
    fn schema(&self) -> &Arc<Schema>;
    /// Acquire resources; stateful operators build their index/buffer
    /// here.
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError>;
    /// The next tuple, or `None` when exhausted. Tuples travel as
    /// [`Arc`] handles so pass-through operators (and the final
    /// materialization) never deep-copy attribute values.
    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError>;
    /// Release resources and flush side outputs into `ctx`.
    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError>;
    /// One-line description for physical `EXPLAIN`.
    fn describe(&self) -> String;
    /// Direct inputs, for `EXPLAIN` tree rendering.
    fn children(&self) -> Vec<&dyn Operator>;
    /// The stored relation this operator scans directly, if it is a
    /// bare stored scan. [`MergeOp`] and [`DifferenceOp`] use this to
    /// take the relation's own key index instead of draining the scan
    /// — for a merge the segment *is* the build side, with no
    /// materialized tuples and no re-spill.
    fn stored_relation(&self) -> Option<&Arc<StoredRelation>> {
        None
    }
    /// `(estimated rows, rows emitted so far)` when this node is
    /// wrapped by the row meter ([`MeteredOp`]); `None` for unmetered
    /// operators. `EXPLAIN ANALYZE` renders it as the line's
    /// estimate/actual suffix.
    fn metered(&self) -> Option<(u64, u64)> {
        None
    }
    /// Told by a parent that reads this operator's stored relation
    /// itself ([`Operator::stored_relation`]) instead of pulling its
    /// tuples: the parent visited `records` more of its records, so
    /// the meter of a scan nobody pulls still says what was read of
    /// it. `how` names a way of reading that visits no record at all.
    fn read_directly(&mut self, _records: u64, _how: Option<&'static str>) {}
}

/// Drive an operator to completion, materializing the result.
///
/// # Errors
/// Operator errors; insertion errors for duplicate keys.
pub fn run(op: &mut dyn Operator, ctx: &mut ExecContext) -> Result<ExtendedRelation, PlanError> {
    op.open(ctx)?;
    let mut out = ExtendedRelation::new(Arc::clone(op.schema()));
    while let Some(tuple) = op.next(ctx)? {
        ctx.stats.tuples_emitted += 1;
        out.insert_shared(tuple)?;
    }
    op.close(ctx)?;
    Ok(out)
}

/// Render a physical operator tree; with `analyze`, metered nodes
/// carry their estimated-vs-actual row suffix.
pub(crate) fn render_physical(op: &dyn Operator, analyze: bool) -> String {
    fn walk(op: &dyn Operator, depth: usize, analyze: bool, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&op.describe());
        if let Some((est, act)) = op.metered().filter(|_| analyze) {
            out.push_str(&format!(" [est\u{2248}{est} act={act}]"));
        }
        out.push('\n');
        for child in op.children() {
            walk(child, depth + 1, analyze, out);
        }
    }
    let mut out = String::new();
    walk(op, 0, analyze, &mut out);
    out
}

// --------------------------------------------------------------- meter

/// Transparent row counter: records how many tuples the wrapped
/// operator actually emitted next to the cost model's pre-execution
/// estimate (read by `EXPLAIN ANALYZE` and the slow-query log).
/// Delegates everything else — including `children()` (so it adds no level to the rendered tree)
/// and `stored_relation()` (so [`MergeOp`]'s stored fast path still
/// fires through the meter). A parent that takes that fast path pulls
/// no tuple through the meter; it reports the records it visited
/// instead ([`Operator::read_directly`]), and they are this node's
/// actual rows.
pub struct MeteredOp {
    inner: Box<dyn Operator>,
    est: u64,
    emitted: u64,
    /// How a parent read the stored relation without visiting a
    /// record, appended to the node's line.
    read_how: Option<&'static str>,
}

impl MeteredOp {
    /// Wrap `inner`, tagging it with the cost model's row estimate.
    pub fn new(inner: Box<dyn Operator>, est: f64) -> MeteredOp {
        MeteredOp {
            inner,
            est: est.round().max(0.0) as u64,
            emitted: 0,
            read_how: None,
        }
    }
}

impl Operator for MeteredOp {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.inner.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        let tuple = self.inner.next(ctx)?;
        if tuple.is_some() {
            self.emitted += 1;
        }
        Ok(tuple)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.inner.close(ctx)
    }

    fn describe(&self) -> String {
        match self.read_how {
            Some(how) => format!("{} ({how})", self.inner.describe()),
            None => self.inner.describe(),
        }
    }

    fn children(&self) -> Vec<&dyn Operator> {
        self.inner.children()
    }

    fn stored_relation(&self) -> Option<&Arc<StoredRelation>> {
        self.inner.stored_relation()
    }

    fn metered(&self) -> Option<(u64, u64)> {
        Some((self.est, self.emitted))
    }

    fn read_directly(&mut self, records: u64, how: Option<&'static str>) {
        self.emitted += records;
        self.read_how = how;
    }
}

// ---------------------------------------------------------------- scan

/// Leaf: stream a bound relation's tuples in insertion order.
pub struct ScanOp {
    name: String,
    rel: Arc<ExtendedRelation>,
    pos: usize,
}

impl ScanOp {
    /// Scan `rel`, displayed as `name`.
    pub fn new(name: impl Into<String>, rel: Arc<ExtendedRelation>) -> ScanOp {
        ScanOp {
            name: name.into(),
            rel,
            pos: 0,
        }
    }
}

impl Operator for ScanOp {
    fn schema(&self) -> &Arc<Schema> {
        self.rel.schema()
    }

    fn open(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        match self.rel.get_shared(self.pos) {
            Some(tuple) => {
                self.pos += 1;
                ctx.stats.tuples_scanned += 1;
                Ok(Some(tuple))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        Ok(())
    }

    fn describe(&self) -> String {
        format!("scan {} ({} tuples)", self.name, self.rel.len())
    }

    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }
}

// -------------------------------------------------------------- select

/// Streaming σ̃: revise each tuple's membership by `F_SS` support and
/// keep it iff the threshold admits the revision. Preserves the input
/// schema (including its name — see the naming convention in
/// [`crate::logical`]).
pub struct SelectOp {
    child: Box<dyn Operator>,
    predicate: Predicate,
    /// `predicate` bound to the child's schema once, at construction.
    bound: BoundPredicate,
    threshold: Threshold,
}

impl SelectOp {
    /// Wrap `child` in a selection.
    ///
    /// # Errors
    /// [`AlgebraError::ThresholdNotPositive`] for thresholds that
    /// could admit `sn = 0`.
    pub fn new(
        child: Box<dyn Operator>,
        predicate: Predicate,
        threshold: Threshold,
    ) -> Result<SelectOp, PlanError> {
        check_threshold(&threshold)?;
        Ok(SelectOp {
            bound: BoundPredicate::bind(child.schema(), &predicate),
            child,
            predicate,
            threshold,
        })
    }
}

/// Replace a shared tuple's membership, copying attribute values only
/// when the tuple is actually shared (copy-on-write).
fn with_membership_shared(
    tuple: Arc<Tuple>,
    membership: evirel_relation::SupportPair,
) -> Arc<Tuple> {
    Arc::new(match Arc::try_unwrap(tuple) {
        Ok(owned) => owned.with_membership_owned(membership),
        Err(shared) => shared.with_membership(membership),
    })
}

pub(crate) fn check_threshold(threshold: &Threshold) -> Result<(), PlanError> {
    if threshold.ensures_positive_support() {
        Ok(())
    } else {
        Err(PlanError::Algebra(AlgebraError::ThresholdNotPositive {
            threshold: threshold.to_string(),
        }))
    }
}

impl Operator for SelectOp {
    fn schema(&self) -> &Arc<Schema> {
        self.child.schema()
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        while let Some(tuple) = self.child.next(ctx)? {
            let fss = self.bound.support(&*tuple)?;
            let revised = tuple.membership().and_independent(&fss);
            if self.threshold.admits(&revised) && revised.is_positive() {
                return Ok(Some(with_membership_shared(tuple, revised)));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.close(ctx)
    }

    fn describe(&self) -> String {
        format!("σ̃[{}] with {}", self.predicate, self.threshold)
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

// ----------------------------------------------------------- threshold

/// Streaming membership filter: admit tuples whose *stored* `(sn, sp)`
/// satisfies `Q` — the bare `WITH` clause.
pub struct ThresholdOp {
    child: Box<dyn Operator>,
    threshold: Threshold,
}

impl ThresholdOp {
    /// Wrap `child` in a membership filter.
    ///
    /// # Errors
    /// As [`SelectOp::new`].
    pub fn new(child: Box<dyn Operator>, threshold: Threshold) -> Result<ThresholdOp, PlanError> {
        check_threshold(&threshold)?;
        Ok(ThresholdOp { child, threshold })
    }
}

impl Operator for ThresholdOp {
    fn schema(&self) -> &Arc<Schema> {
        self.child.schema()
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        while let Some(tuple) = self.child.next(ctx)? {
            if self.threshold.admits(&tuple.membership()) {
                return Ok(Some(tuple));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.close(ctx)
    }

    fn describe(&self) -> String {
        format!("σ̃[membership] with {}", self.threshold)
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

// ------------------------------------------------------------- project

/// Streaming π̃: reorder/drop attribute positions, membership carried
/// over unchanged.
pub struct ProjectOp {
    child: Box<dyn Operator>,
    positions: Vec<usize>,
    schema: Arc<Schema>,
}

impl ProjectOp {
    /// Project `child` onto `attrs` (keys must be kept).
    ///
    /// # Errors
    /// As the free function: duplicates, missing keys, unknown
    /// attributes.
    pub fn new(child: Box<dyn Operator>, attrs: &[String]) -> Result<ProjectOp, PlanError> {
        let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let positions = evirel_algebra::project::projection_positions(child.schema(), &names)?;
        let schema = Arc::new(evirel_algebra::project::projected_schema(
            child.schema(),
            &positions,
        )?);
        Ok(ProjectOp {
            child,
            positions,
            schema,
        })
    }
}

impl Operator for ProjectOp {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        while let Some(tuple) = self.child.next(ctx)? {
            if tuple.membership().is_positive() {
                return Ok(Some(Arc::new(tuple.project(&self.positions))));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.close(ctx)
    }

    fn describe(&self) -> String {
        let names: Vec<&str> = self.schema.attrs().iter().map(|a| a.name()).collect();
        format!("π̃[{}]", names.join(", "))
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

// ---------------------------------------------------------------- join

/// Streaming ×̃ and ⋈̃: keep the right input as a `BuildSide` at
/// `open`, stream the left, and pair each left tuple with right tuples
/// in right insertion order — every one for ×̃ ([`JoinOp::product`]),
/// for ⋈̃ ([`JoinOp::new`]) the ones under its equality value. A pair's
/// membership is the product of its tuples' (`F_TM`), and ⋈̃ then
/// decides it as σ̃ would. The right input is always drained, a bare
/// stored scan too: read in place, a ×̃ would decode every right record
/// once per left tuple.
pub struct JoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    schema: Arc<Schema>,
    /// ⋈̃'s predicate and its hashed equality; `None` for ×̃.
    on: Option<JoinOn>,
    build: BuildSide,
    current_left: Option<Arc<Tuple>>,
    /// ⋈̃: the ordinals under the current left tuple's equality value.
    matches: Vec<u32>,
    /// The next candidate: an ordinal for ×̃, an index into `matches`
    /// for ⋈̃.
    match_pos: usize,
}

/// What makes a [`JoinOp`] a ⋈̃.
struct JoinOn {
    predicate: Predicate,
    /// `predicate` bound to the product schema once, at construction.
    bound: BoundPredicate,
    threshold: Threshold,
    left_eq_pos: usize,
    right_eq_pos: usize,
    /// Right ordinals by their `right_eq_pos` value, filled while the
    /// build side drains.
    index: HashMap<Value, Vec<u32>>,
}

impl JoinOp {
    /// `left ×̃ right`.
    ///
    /// # Errors
    /// [`AlgebraError::AmbiguousAttribute`] when qualification cannot
    /// disambiguate the combined schema.
    pub fn product(left: Box<dyn Operator>, right: Box<dyn Operator>) -> Result<JoinOp, PlanError> {
        let schema = Arc::new(evirel_algebra::product::product_schema(
            left.schema(),
            right.schema(),
        )?);
        Ok(JoinOp {
            left,
            right,
            schema,
            on: None,
            build: BuildSide::empty(),
            current_left: None,
            matches: Vec::new(),
            match_pos: 0,
        })
    }

    /// The hashable equality conjunct of `predicate` over a product of
    /// `ls × rs`, as `(left position, right position)` — `None` when
    /// no conjunct qualifies (the caller falls back to σ̃ ∘ ×̃).
    pub fn indexable_conjunct(
        predicate: &Predicate,
        ls: &Schema,
        rs: &Schema,
        product: &Schema,
    ) -> Option<(usize, usize)> {
        use evirel_algebra::{Operand, ThetaOp};
        let l_arity = ls.arity();
        for conjunct in predicate.conjuncts() {
            let Predicate::Theta {
                left: Operand::Attr(a),
                op: ThetaOp::Eq,
                right: Operand::Attr(b),
            } = conjunct
            else {
                continue;
            };
            let (Ok(pa), Ok(pb)) = (product.position(a), product.position(b)) else {
                continue;
            };
            let (lp, rp) = if pa < l_arity && pb >= l_arity {
                (pa, pb - l_arity)
            } else if pb < l_arity && pa >= l_arity {
                (pb, pa - l_arity)
            } else {
                continue;
            };
            let definite = |attr: &evirel_relation::AttrDef| {
                matches!(attr.ty(), evirel_relation::AttrType::Definite(_))
            };
            if definite(ls.attr(lp)) && definite(rs.attr(rp)) {
                return Some((lp, rp));
            }
        }
        None
    }

    /// ⋈̃ ≡ σ̃(×̃) fused, over the `(left_eq_pos, right_eq_pos)`
    /// equality found by [`JoinOp::indexable_conjunct`]: each left
    /// tuple meets only the right tuples with its value there. Sound
    /// because a non-matching pair gives the equality conjunct support
    /// `(0, 0)`, which zeroes the conjunction support and can never
    /// pass a legal threshold. The full predicate is still evaluated on
    /// every candidate pair, so residual conjuncts and evidential
    /// conditions keep the paper's exact support semantics.
    ///
    /// # Errors
    /// Product-schema and threshold validation, as σ̃ ∘ ×̃.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        predicate: Predicate,
        threshold: Threshold,
        left_eq_pos: usize,
        right_eq_pos: usize,
    ) -> Result<JoinOp, PlanError> {
        check_threshold(&threshold)?;
        let mut op = JoinOp::product(left, right)?;
        op.on = Some(JoinOn {
            bound: BoundPredicate::bind(&op.schema, &predicate),
            predicate,
            threshold,
            left_eq_pos,
            right_eq_pos,
            index: HashMap::new(),
        });
        Ok(op)
    }

    /// The ordinal of the current left tuple's next candidate partner.
    fn candidate(&self) -> Option<u32> {
        match &self.on {
            None => (self.match_pos < self.build.len()).then_some(self.match_pos as u32),
            Some(_) => self.matches.get(self.match_pos).copied(),
        }
    }
}

impl Operator for JoinOp {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.left.open(ctx)?;
        self.right.open(ctx)?;
        let mut index = self.on.as_mut().map(|on| (on.right_eq_pos, &mut on.index));
        (self.build, _) = BuildSide::open(self.right.as_mut(), ctx, false, None, |ordinal, r| {
            if let Some((pos, index)) = &mut index {
                if let Some(v) = r.value(*pos).as_definite() {
                    index.entry(v.clone()).or_default().push(ordinal);
                }
            }
        })?;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        loop {
            if let Some(l) = &self.current_left {
                while let Some(ordinal) = self.candidate() {
                    self.match_pos += 1;
                    let r = self.build.tuple(ordinal)?;
                    // F_TM: memberships of independent tuples multiply.
                    let membership = l.membership().and_independent(&r.membership());
                    if self.on.is_none() && !membership.is_positive() {
                        continue; // CWA_ER: zero-support pairs are not stored.
                    }
                    let values = l.values().iter().chain(r.values()).cloned().collect();
                    let pair = Tuple::new(&self.schema, values, membership)?;
                    let Some(on) = &self.on else {
                        return Ok(Some(Arc::new(pair)));
                    };
                    let fss = on.bound.support(&pair)?;
                    let revised = pair.membership().and_independent(&fss);
                    if on.threshold.admits(&revised) && revised.is_positive() {
                        return Ok(Some(Arc::new(pair.with_membership_owned(revised))));
                    }
                }
                self.current_left = None;
            }
            let Some(l) = self.left.next(ctx)? else {
                return Ok(None);
            };
            if let Some(on) = &self.on {
                // Reuse the probe buffer — no per-tuple allocation.
                self.matches.clear();
                let value = l.value(on.left_eq_pos).as_definite();
                if let Some(bucket) = value.and_then(|v| on.index.get(v)) {
                    self.matches.extend_from_slice(bucket);
                }
            }
            self.match_pos = 0;
            self.current_left = Some(l);
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        // Drops a segment-backed side's page pin with it.
        self.build = BuildSide::empty();
        if let Some(on) = &mut self.on {
            on.index.clear();
        }
        self.left.close(ctx)?;
        self.right.close(ctx)
    }

    fn describe(&self) -> String {
        match &self.on {
            None => "×̃ (buffer right, stream left)".to_owned(),
            Some(on) => format!(
                "⋈̃[{}] with {} (hash {} = {})",
                on.predicate,
                on.threshold,
                self.left.schema().attr(on.left_eq_pos).name(),
                self.right.schema().attr(on.right_eq_pos).name(),
            ),
        }
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }
}

// --------------------------------------------------------------- merge

/// How a matched tuple pair is combined by [`MergeOp`]. The ∪̃ family
/// uses [`DempsterMerger`]; the integration pipeline plugs in its
/// method-registry merger. `Send` so merge operators can run inside
/// exchange workers.
pub trait TupleMerger: Send {
    /// Merge one matched pair; `None` drops the pair (zero combined
    /// support), conflicts go into `report`. Takes `&mut self` so
    /// mergers can keep per-pass scratch state (e.g. the combination
    /// engine's memo table) across every pair of a merge.
    ///
    /// # Errors
    /// Merger-specific; total conflicts under a strict policy.
    fn merge(
        &mut self,
        schema: &Schema,
        key: &[Value],
        left: &Tuple,
        right: &Tuple,
        report: &mut ConflictReport,
    ) -> Result<Option<Tuple>, PlanError>;

    /// Short label for `EXPLAIN`.
    fn describe(&self) -> String {
        "dempster".to_owned()
    }

    /// This merger as the paper's Dempster merge, which can also decide
    /// a matched pair of stored records from views; `None` for any
    /// other.
    fn as_dempster(&mut self) -> Option<&mut DempsterMerger> {
        None
    }
}

/// The paper's ∪̃ merge: Dempster's rule per common attribute, `F`
/// over Ψ for the membership pairs. Holds one [`MergeScratch`] for
/// its whole pass, so the combination engine's memo table is
/// allocated once per merge instead of once per Dempster call.
pub struct DempsterMerger {
    /// The total-conflict policy.
    pub options: UnionOptions,
    scratch: MergeScratch,
    /// The σ̃ fused into the merge this merger serves
    /// ([`MergeOp::selecting`]): the per-pair kernel decides each pair
    /// by it before materializing the merged tuple.
    select: Filter,
}

impl DempsterMerger {
    /// A merger with the given union options.
    pub fn new(options: UnionOptions) -> DempsterMerger {
        DempsterMerger {
            options,
            scratch: MergeScratch::new(),
            select: None,
        }
    }
}

impl DempsterMerger {
    /// Merge one matched pair under the fused σ̃ by the per-pair kernel
    /// ([`evirel_algebra::union::merge_pair`]): two tuples, or two stored
    /// records decoded only as far as the decision needs.
    pub(crate) fn merge_selected<S: PairSide>(
        &mut self,
        schema: &Schema,
        key: &[Value],
        left: &S,
        right: &S,
        report: &mut ConflictReport,
    ) -> Result<Option<Tuple>, PlanError>
    where
        PlanError: From<S::Error>,
    {
        let select = self.select.as_deref().expect("a merger serving a fused σ̃");
        let (options, scratch) = (&self.options, &mut self.scratch);
        let merged = evirel_algebra::union::merge_pair(
            schema, key, left, right, options, report, scratch, select,
        )?;
        Ok(merged)
    }
}

impl TupleMerger for DempsterMerger {
    fn merge(
        &mut self,
        schema: &Schema,
        key: &[Value],
        left: &Tuple,
        right: &Tuple,
        report: &mut ConflictReport,
    ) -> Result<Option<Tuple>, PlanError> {
        if self.select.is_some() {
            return self.merge_selected(schema, key, left, right, report);
        }
        let (options, scratch) = (&self.options, &mut self.scratch);
        evirel_algebra::union::merge_tuples_with(schema, key, left, right, options, report, scratch)
            .map_err(PlanError::Algebra)
    }

    fn describe(&self) -> String {
        format!("dempster, on κ=1: {}", self.options.on_total_conflict)
    }

    fn as_dempster(&mut self) -> Option<&mut DempsterMerger> {
        Some(self)
    }
}

/// An explicit tuple pairing for [`MergeOp`] — produced by an entity
/// matcher when keys alone do not identify entities. Without one, the
/// operator pairs by key equality (∪̃'s semantics).
#[derive(Debug, Clone, Default)]
pub struct MergePairing {
    /// Left key → right key for matched pairs.
    pub matched: HashMap<Vec<Value>, Vec<Value>>,
    /// Left keys that pass through unmatched.
    pub left_only: HashSet<Vec<Value>>,
    /// Right keys that pass through unmatched.
    pub right_only: HashSet<Vec<Value>>,
}

/// Which unmatched tuples a [`MergeOp`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeEmit {
    /// ∪̃: merged pairs plus both sides' unmatched tuples.
    Union,
    /// ∩̃: merged pairs only.
    Intersect,
}

/// The σ̃ fused into a merge, if any — see [`MergeOp::selecting`].
type Filter = Option<Arc<ScanFilter>>;

/// An unmatched in-memory tuple under a fused selection, decided where
/// it stands — the ∪̃'s positive-support test, then `select` as
/// [`SelectOp`] applies it.
pub(crate) fn decide_unmatched(
    tuple: Arc<Tuple>,
    select: &ScanFilter,
) -> Result<Option<Arc<Tuple>>, PlanError> {
    if !tuple.membership().is_positive() {
        return Ok(None);
    }
    let revised = select.decide(&*tuple, tuple.membership())?;
    Ok(revised.map(|revised| with_membership_shared(tuple, revised)))
}

/// Streaming binary merge: index the right input by key once at
/// `open`, stream the left input probing it, then emit unconsumed
/// right tuples. Serves ∪̃, ∩̃, and the integration pipeline's
/// method-registry merge; the conflict report flows into the
/// [`ExecContext`] at `close`.
///
/// The right input is a `BuildSide`: spill-aware, and when the right
/// child is a bare stored scan, the on-disk segment itself under the
/// key index the relation keeps — built by the first execution that
/// needs it, reused by every later one — with no materialized tuples
/// and no re-spill.
///
/// A σ̃ directly above a ∪̃/∩̃ runs *inside* the merge
/// ([`MergeOp::selecting`]): every candidate is decided from the least
/// it needs, and only survivors are materialized. A record of a bare
/// stored left input is decoded once, to its membership pair and the
/// predicate's attributes with every other position *viewed* — checked
/// and borrowed on the pinned page, not built — and its key's encoding
/// probes the build side. An unmatched one, like an unmatched record of
/// a segment-backed build side (decoded to the predicate's attributes),
/// is decided from that and decoded in full (and validated) only if
/// kept; an unmatched in-memory tuple is decided where it stands. A
/// matched pair is decided inside the per-pair kernel
/// ([`evirel_algebra::union::merge_pair`]), which combines in full only
/// what the predicate reads and observes κ for the rest. When both of
/// its sides are stored records — a bare stored left input against a
/// segment-backed build side whose frames agree with it, checked once
/// at `open` — the right record is decoded like the left, and κ is
/// observed from the viewed focal entries: only a kept pair is decoded
/// in full. A record whose views cannot stand for its full decode sends
/// its pair through the full decode of both; any other matched pair is
/// two tuples. The emitted tuples, their order, the conflict report and
/// every error are [`SelectOp`]'s over the unfused merge.
pub struct MergeOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    merger: Box<dyn TupleMerger>,
    pairing: Option<Arc<MergePairing>>,
    emit: MergeEmit,
    schema: Arc<Schema>,
    /// The σ̃ fused into this merge; its matched pairs are decided by
    /// the same filter inside `merger`.
    select: Filter,
    /// The left input's records, when a fused selection reads a bare
    /// stored left side itself instead of pulling decoded tuples.
    left_records: Option<RecordCursor>,
    /// Set at `open` when the left records and a segment-backed build
    /// side agree on every frame: a matched pair may then be decided
    /// from views.
    pair_views: bool,
    /// Where a left record's key is assembled when it is not one
    /// borrowed attribute.
    key_buf: Vec<u8>,
    build: BuildSide,
    /// One flag per build-side ordinal: merged with a left tuple.
    consumed: Vec<bool>,
    /// `Some(built)` once `open` took a stored relation's key index
    /// for the build side — `EXPLAIN ANALYZE` says which it was.
    stored_index_built: Option<bool>,
    report: ConflictReport,
    right_pos: usize,
    left_done: bool,
    /// Cost-model estimate of the build side as `(bytes, rows)`, from
    /// [`MergeOp::with_build_estimate`]. Picks the build *path* up
    /// front (eager spill vs pre-sized map) — never the results.
    build_estimate: Option<(u64, u64)>,
}

impl MergeOp {
    /// `left ∪̃ right` (key-equality pairing).
    ///
    /// # Errors
    /// Union-incompatible schemas.
    pub fn union(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        merger: Box<dyn TupleMerger>,
    ) -> Result<MergeOp, PlanError> {
        let name = format!("{}∪{}", left.schema().name(), right.schema().name());
        MergeOp::build(
            left,
            right,
            |_| Ok((merger, None)),
            None,
            MergeEmit::Union,
            name,
        )
    }

    /// `left ∩̃ right` (key-equality pairing, matched merges only).
    ///
    /// # Errors
    /// Union-incompatible schemas.
    pub fn intersect(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        merger: Box<dyn TupleMerger>,
    ) -> Result<MergeOp, PlanError> {
        let name = format!("{}∩{}", left.schema().name(), right.schema().name());
        let emit = MergeEmit::Intersect;
        MergeOp::build(left, right, |_| Ok((merger, None)), None, emit, name)
    }

    /// `σ̃[predicate, threshold](left ∪̃ right)` — or of `∩̃`, by `emit`
    /// — with the selection evaluated inside the merge (see the type's
    /// docs), under Dempster's rule with `options`.
    ///
    /// # Errors
    /// Union-incompatible schemas, then as [`SelectOp::new`].
    pub fn selecting(
        emit: MergeEmit,
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        options: UnionOptions,
        predicate: Predicate,
        threshold: Threshold,
    ) -> Result<MergeOp, PlanError> {
        let symbol = match emit {
            MergeEmit::Union => '∪',
            MergeEmit::Intersect => '∩',
        };
        let name = format!("{}{symbol}{}", left.schema().name(), right.schema().name());
        // One filter, bound to the merge's output schema: the operator
        // decides unmatched tuples by it, its merger matched pairs.
        let filtered = |schema: &Schema| {
            let select = Arc::new(ScanFilter::new(schema, predicate, threshold)?);
            let merger = DempsterMerger {
                select: Some(Arc::clone(&select)),
                ..DempsterMerger::new(options)
            };
            Ok((Box::new(merger) as Box<dyn TupleMerger>, Some(select)))
        };
        MergeOp::build(left, right, filtered, None, emit, name)
    }

    /// A union-style merge driven by an explicit [`MergePairing`] —
    /// the integration pipeline's merge stage
    /// ([`crate::exec::execute_merge`]). `name` becomes the output
    /// relation name. The pairing is a shared handle: the parallel
    /// merge stage builds one shard `MergeOp` per worker, and a pairing
    /// can hold an entry per input key, so per-shard deep copies would
    /// multiply its footprint by the thread count.
    ///
    /// # Errors
    /// Union-incompatible schemas.
    pub fn with_shared_pairing(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        merger: Box<dyn TupleMerger>,
        pairing: Arc<MergePairing>,
        name: impl Into<String>,
    ) -> Result<MergeOp, PlanError> {
        let (pairing, emit) = (Some(pairing), MergeEmit::Union);
        MergeOp::build(
            left,
            right,
            |_| Ok((merger, None)),
            pairing,
            emit,
            name.into(),
        )
    }

    /// `merger` is made for the output schema: the merger, and the
    /// selection it and the operator share, if there is one.
    fn build(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        merger: impl FnOnce(&Schema) -> Result<(Box<dyn TupleMerger>, Filter), PlanError>,
        pairing: Option<Arc<MergePairing>>,
        emit: MergeEmit,
        name: String,
    ) -> Result<MergeOp, PlanError> {
        left.schema()
            .check_union_compatible(right.schema())
            .map_err(|e| PlanError::Algebra(AlgebraError::Relation(e)))?;
        let schema = Arc::new(left.schema().renamed(name));
        let (merger, select) = merger(&schema)?;
        Ok(MergeOp {
            left,
            right,
            merger,
            pairing,
            emit,
            schema,
            select,
            left_records: None,
            pair_views: false,
            key_buf: Vec::new(),
            build: BuildSide::empty(),
            consumed: Vec::new(),
            stored_index_built: None,
            report: ConflictReport::new(),
            right_pos: 0,
            left_done: false,
            build_estimate: None,
        })
    }

    /// Attach a cost-model estimate of the build (right) side. An
    /// estimated footprint over the spill budget starts the build in a
    /// temp segment immediately (skipping the buffer-then-migrate
    /// copy); one under it pre-sizes the hash map. Either way the
    /// emitted tuples, their order, and the conflict report are
    /// identical — the estimate only picks which (proptest-pinned
    /// equivalent) build path runs.
    #[must_use]
    pub fn with_build_estimate(mut self, bytes: u64, rows: u64) -> MergeOp {
        self.build_estimate = Some((bytes, rows));
        self
    }

    /// Merge left tuple `l` with its partner, build-side tuple
    /// `ordinal`; `None` when the merger drops the pair.
    fn merge_matched(
        &mut self,
        ctx: &mut ExecContext,
        key: &[Value],
        l: &Tuple,
        ordinal: u32,
    ) -> Result<Option<Arc<Tuple>>, PlanError> {
        // Ordinals come from `probe`. A segment-backed partner is
        // decoded for this merge only and never shared.
        let r = self.build.tuple(ordinal)?;
        if self.stored_index_built.is_some() {
            self.right.read_directly(1, None);
        }
        self.consumed[ordinal as usize] = true;
        ctx.stats.pairs_merged += 1;
        let merged = self
            .merger
            .merge(&self.schema, key, l, &r, &mut self.report)?;
        Ok(merged.map(Arc::new))
    }

    /// Phase 1 over pulled left tuples: the next emitted tuple, `None`
    /// when the left input is exhausted.
    fn next_of_left_tuples(
        &mut self,
        ctx: &mut ExecContext,
    ) -> Result<Option<Arc<Tuple>>, PlanError> {
        while let Some(l) = self.left.next(ctx)? {
            let key = l.key(self.left.schema());
            let ordinal = match &self.pairing {
                Some(p) => match p.matched.get(&key) {
                    Some(rk) => Some(self.build.probe(rk).ok_or_else(|| PlanError::Pairing {
                        reason: format!("right key {} not found", Value::render_key(rk)),
                    })?),
                    None => None,
                },
                None => self.build.probe(&key),
            };
            let emitted = match ordinal {
                Some(ordinal) => self.merge_matched(ctx, &key, &l, ordinal)?,
                None => {
                    let passes = match &self.pairing {
                        Some(p) => p.left_only.contains(&key),
                        None => true,
                    };
                    match &self.select {
                        _ if self.emit != MergeEmit::Union || !passes => None,
                        Some(select) => decide_unmatched(l, select)?,
                        None => Some(l).filter(|l| l.membership().is_positive()),
                    }
                }
            };
            if emitted.is_some() {
                return Ok(emitted);
            }
        }
        Ok(None)
    }

    /// Phase 1 over the records of a bare stored left side, under a
    /// fused selection: each record is decoded once under the filter's
    /// viewed mask — enough to probe with its key's encoding and to
    /// decide — and a matched one is decided from views where both
    /// records allow it, in full otherwise (see the type's docs).
    fn next_of_left_records(
        &mut self,
        ctx: &mut ExecContext,
    ) -> Result<Option<Arc<Tuple>>, PlanError> {
        let select = Arc::clone(self.select.as_ref().expect("a cursor serves a selection"));
        let stored_right = usize::from(self.stored_index_built.is_some());
        loop {
            let records = self.left_records.as_mut().expect("checked by `next`");
            let Some((record, segment)) = records.next()? else {
                return Ok(None);
            };
            ctx.stats.tuples_scanned += 1;
            self.left.read_directly(1, None);
            let partial = select.viewed_record(record, segment)?;
            let key = select.key_of(&partial, segment.schema(), &mut self.key_buf)?;
            let Some(ordinal) = self.build.probe_encoded(key)? else {
                if self.emit == MergeEmit::Union && partial.membership.is_positive() {
                    let kept = select.keep(&select.viewed, &partial, record, segment)?;
                    if let Some(tuple) = kept {
                        return Ok(Some(Arc::new(tuple)));
                    }
                }
                ctx.stats.records_skipped += 1;
                continue;
            };
            let key = decode_key(key)?;
            self.consumed[ordinal as usize] = true;
            ctx.stats.pairs_merged += 1;
            if stored_right == 1 {
                self.right.read_directly(1, None);
            }
            let (schema, report) = (&self.schema, &mut self.report);
            let viewed = match (&mut self.build, self.merger.as_dempster()) {
                (BuildSide::Spilled(side), Some(merger)) if self.pair_views => {
                    side.record(ordinal).ok().and_then(|right| {
                        select.with_pair((record, segment, &partial), right, |l, r| {
                            merger.merge_selected(schema, &key, l, r, report)
                        })
                    })
                }
                _ => None,
            };
            let merged = match viewed {
                Some(merged) => {
                    let merged = merged?;
                    // Both records were visited, neither decoded in full.
                    if merged.is_none() {
                        ctx.stats.records_skipped += 1 + stored_right;
                    }
                    merged
                }
                None => {
                    let l = decode_record(record, segment.domains(), segment.all_columns())?
                        .into_tuple(segment.schema())?;
                    let r = self.build.tuple(ordinal)?;
                    self.merger
                        .merge(&self.schema, &key, &l, &r, &mut self.report)?
                }
            };
            if let Some(tuple) = merged {
                return Ok(Some(Arc::new(tuple)));
            }
        }
    }
}

impl Operator for MergeOp {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.left.open(ctx)?;
        self.right.open(ctx)?;
        let estimate = self.build_estimate;
        (self.build, self.stored_index_built) =
            BuildSide::open(self.right.as_mut(), ctx, true, estimate, |_, _| ())?;
        self.consumed = vec![false; self.build.len()];
        // A fused selection reads a bare stored left side's records
        // itself: it decides what to decode of each.
        self.left_records = match (&self.select, self.left.stored_relation()) {
            (Some(_), Some(stored)) => Some(RecordCursor::new(Arc::clone(stored))),
            _ => None,
        };
        // Frames are checked here, once per (left segment, right
        // segment, attribute), not once per viewed pair.
        self.pair_views = match (&self.left_records, &self.build) {
            (Some(records), BuildSide::Spilled(side)) => side.same_frames(records.segment()),
            _ => false,
        };
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        // Phase 1: stream the left input; merged and left-only tuples
        // interleave in left insertion order (exactly like ∪̃'s free
        // function).
        if !self.left_done {
            let emitted = match self.left_records {
                Some(_) => self.next_of_left_records(ctx)?,
                None => self.next_of_left_tuples(ctx)?,
            };
            if emitted.is_some() {
                return Ok(emitted);
            }
            self.left_done = true;
        }
        // Phase 2: unconsumed right tuples, in right insertion order —
        // which is ordinal order.
        if self.emit == MergeEmit::Union {
            while self.right_pos < self.consumed.len() {
                let ordinal = self.right_pos;
                self.right_pos += 1;
                if self.consumed[ordinal] {
                    continue;
                }
                // `consumed` has one flag per u32 ordinal.
                let kept = match &self.select {
                    Some(select) => self.build.fetch_kept(ordinal as u32, select)?,
                    None => {
                        let tuple = self.build.fetch(ordinal as u32)?;
                        let passes = match &self.pairing {
                            Some(p) => p.right_only.contains(&tuple.key(self.right.schema())),
                            None => true,
                        };
                        Some(tuple).filter(|t| passes && t.membership().is_positive())
                    }
                };
                if self.stored_index_built.is_some() {
                    self.right.read_directly(1, None);
                    // Only a fused selection rejects a record without
                    // decoding it in full.
                    if self.select.is_some() && kept.is_none() {
                        ctx.stats.records_skipped += 1;
                    }
                }
                if kept.is_some() {
                    return Ok(kept);
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        ctx.record_report(std::mem::take(&mut self.report));
        // Drops a segment-backed side's page pin with it.
        self.build = BuildSide::empty();
        self.left_records = None;
        self.consumed = Vec::new();
        self.left.close(ctx)?;
        self.right.close(ctx)
    }

    fn describe(&self) -> String {
        let symbol = match self.emit {
            MergeEmit::Union => "∪̃",
            MergeEmit::Intersect => "∩̃",
        };
        let pairing = match &self.pairing {
            Some(p) => format!("{} matched pairs", p.matched.len()),
            None => "key equality".to_owned(),
        };
        let build = match self.stored_index_built {
            Some(true) => "; build: stored index (built)",
            Some(false) => "; build: stored index (cached)",
            None => "",
        };
        let merge = format!(
            "{symbol} (index right, stream left; pairing: {pairing}; merge: {}{build})",
            self.merger.describe()
        );
        match &self.select {
            Some(select) => select.describe(&merge),
            None => merge,
        }
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }
}

// ---------------------------------------------------------- difference

/// Streaming −̃: keep the right input as a `BuildSide` at `open`,
/// emit left tuples whose key it does not hold. The side is only
/// probed: a right input that is a bare stored scan is not read at all
/// — its relation's key index answers.
pub struct DifferenceOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    schema: Arc<Schema>,
    build: BuildSide,
}

impl DifferenceOp {
    /// `left −̃ right`.
    ///
    /// # Errors
    /// Union-incompatible schemas.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
    ) -> Result<DifferenceOp, PlanError> {
        left.schema()
            .check_union_compatible(right.schema())
            .map_err(|e| PlanError::Algebra(AlgebraError::Relation(e)))?;
        let name = format!("{}−{}", left.schema().name(), right.schema().name());
        let schema = Arc::new(left.schema().renamed(name));
        Ok(DifferenceOp {
            left,
            right,
            schema,
            build: BuildSide::empty(),
        })
    }
}

impl Operator for DifferenceOp {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.left.open(ctx)?;
        self.right.open(ctx)?;
        let stored;
        (self.build, stored) = BuildSide::open(self.right.as_mut(), ctx, true, None, |_, _| ())?;
        if stored.is_some() {
            self.right.read_directly(0, Some("key index only"));
        }
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        while let Some(tuple) = self.left.next(ctx)? {
            let key = tuple.key(self.left.schema());
            if self.build.probe(&key).is_none() && tuple.membership().is_positive() {
                return Ok(Some(tuple));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.build = BuildSide::empty();
        self.left.close(ctx)?;
        self.right.close(ctx)
    }

    fn describe(&self) -> String {
        "−̃ (index right keys, stream left)".to_owned()
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }
}

// -------------------------------------------------------------- rename

/// ρ: revalidate tuples against a renamed schema (relation or
/// attribute names — values are positionally identical).
pub struct RenameOp {
    child: Box<dyn Operator>,
    schema: Arc<Schema>,
    label: String,
}

impl RenameOp {
    /// Rename the relation.
    pub fn relation(child: Box<dyn Operator>, name: &str) -> RenameOp {
        let schema = Arc::new(child.schema().renamed(name.to_owned()));
        RenameOp {
            child,
            schema,
            label: format!("ρ[{name}]"),
        }
    }

    /// Rename one attribute.
    ///
    /// # Errors
    /// Unknown `from`, clashing `to`.
    pub fn attribute(
        child: Box<dyn Operator>,
        from: &str,
        to: &str,
    ) -> Result<RenameOp, PlanError> {
        let schema = Arc::new(evirel_algebra::rename::attribute_renamed_schema(
            child.schema(),
            from,
            to,
        )?);
        Ok(RenameOp {
            child,
            schema,
            label: format!("ρ[{from}→{to}]"),
        })
    }
}

impl Operator for RenameOp {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        // Values are positionally identical and the renamed schema
        // preserves every attribute type, so tuples pass through.
        self.child.next(ctx)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.child.close(ctx)
    }

    fn describe(&self) -> String {
        self.label.clone()
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, RelationBuilder};

    fn config() -> Config {
        Config::from_env()
    }

    fn rel(name: &str, rows: &[(&str, &str, f64)]) -> Arc<ExtendedRelation> {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
        let schema = Arc::new(
            Schema::builder(name)
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for (k, label, sn) in rows {
            b = b
                .tuple(|t| {
                    t.set_str("k", *k)
                        .set_evidence("d", [(&[*label][..], 1.0)])
                        .membership_pair(*sn, 1.0)
                })
                .unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn scan_select_project_stream() {
        let r = rel("R", &[("a", "x", 1.0), ("b", "y", 0.5), ("c", "x", 0.9)]);
        let mut ctx = ExecContext::new(&config());
        let scan = Box::new(ScanOp::new("r", Arc::clone(&r)));
        let select =
            Box::new(SelectOp::new(scan, Predicate::is("d", ["x"]), Threshold::POSITIVE).unwrap());
        let mut project = ProjectOp::new(select, &["k".to_owned()]).unwrap();
        let out = run(&mut project, &mut ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().arity(), 1);
        assert_eq!(ctx.stats.tuples_scanned, 3);
        assert_eq!(ctx.stats.tuples_emitted, 2);
        // Bad threshold rejected at build time.
        let scan = Box::new(ScanOp::new("r", r));
        assert!(matches!(
            SelectOp::new(scan, Predicate::is("d", ["x"]), Threshold::SnAtLeast(0.0)),
            Err(PlanError::Algebra(
                AlgebraError::ThresholdNotPositive { .. }
            ))
        ));
    }

    #[test]
    fn threshold_filters_stored_membership() {
        let r = rel("R", &[("a", "x", 1.0), ("b", "y", 0.5)]);
        let mut ctx = ExecContext::new(&config());
        let scan = Box::new(ScanOp::new("r", r));
        let mut op = ThresholdOp::new(scan, Threshold::SnAtLeast(0.9)).unwrap();
        let out = run(&mut op, &mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_key(&[Value::str("a")]));
    }

    #[test]
    fn union_merge_streams_and_reports() {
        let a = rel("A", &[("a", "x", 1.0), ("solo-a", "z", 1.0)]);
        let b = rel("B", &[("a", "y", 1.0), ("solo-b", "z", 1.0)]);
        let mut ctx = ExecContext::new(&config());
        ctx.union_options.on_total_conflict = evirel_algebra::ConflictPolicy::Vacuous;
        let merger = Box::new(DempsterMerger::new(ctx.union_options));
        let mut op = MergeOp::union(
            Box::new(ScanOp::new("a", Arc::clone(&a))),
            Box::new(ScanOp::new("b", Arc::clone(&b))),
            merger,
        )
        .unwrap();
        let out = run(&mut op, &mut ctx).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().name(), "A∪B");
        // x vs y is a total conflict, resolved vacuously and REPORTED
        // through the context (the report the old executor dropped).
        let report = ctx.conflict_report();
        assert_eq!(report.total_conflicts().count(), 1);
        assert_eq!(ctx.stats.pairs_merged, 1);
        assert!(ctx.stats.max_kappa >= 1.0);

        // Intersection keeps only the matched merge.
        let mut ctx2 = ExecContext::new(&config());
        let merger = Box::new(DempsterMerger::new(UnionOptions {
            on_total_conflict: evirel_algebra::ConflictPolicy::Vacuous,
        }));
        let mut op = MergeOp::intersect(
            Box::new(ScanOp::new("a", Arc::clone(&a))),
            Box::new(ScanOp::new("b", b)),
            merger,
        )
        .unwrap();
        let out = run(&mut op, &mut ctx2).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_key(&[Value::str("a")]));

        // Difference drops matched keys.
        let c = rel("C", &[("a", "x", 1.0)]);
        let mut op =
            DifferenceOp::new(Box::new(ScanOp::new("a", a)), Box::new(ScanOp::new("c", c)))
                .unwrap();
        let out = run(&mut op, &mut ExecContext::new(&config())).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_key(&[Value::str("solo-a")]));
    }

    #[test]
    fn rename_ops() {
        let r = rel("R", &[("a", "x", 1.0)]);
        let op = Box::new(ScanOp::new("r", Arc::clone(&r)));
        let mut op = RenameOp::relation(op, "T");
        let out = run(&mut op, &mut ExecContext::new(&config())).unwrap();
        assert_eq!(out.schema().name(), "T");
        let op = Box::new(ScanOp::new("r", r));
        let mut op = RenameOp::attribute(op, "d", "e").unwrap();
        let out = run(&mut op, &mut ExecContext::new(&config())).unwrap();
        assert!(out.schema().position("e").is_ok());
    }
}
