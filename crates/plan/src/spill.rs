//! Spill-to-disk execution: stored-relation scans and the build side
//! every binary operator keeps its right input in.
//!
//! Three pieces let the streaming operators run over data that never
//! fully fits in memory:
//!
//! * [`SpillScanOp`] — the [`Operator`] for a disk-backed
//!   [`StoredRelation`]: it decodes one page at a time through the
//!   shared [`evirel_store::BufferPool`], so a scan's
//!   working set is a single page regardless of relation size.
//!   Records keep insertion order and `f64` payloads round-trip as
//!   raw bits, so a stored scan is *bit-for-bit* equivalent to an
//!   in-memory [`crate::ops::ScanOp`] over the same tuples — the
//!   determinism contract the equivalence property suite checks.
//!   A σ̃ directly above the scan is evaluated *inside* it
//!   ([`SpillScanOp::filtered`]): per record the one record decoder
//!   materializes the membership pair and the predicate's attributes
//!   only, an evidential one read only by `is` as a [`FocalView`] (a
//!   refused view or a definite value: decoded again, built) — `F_SS`
//!   and the threshold decide, and a record is decoded in
//!   full (and validated as a tuple) only if it survives. Under
//!   CWA_ER a rejected record is a dropped one — nothing downstream
//!   ever sees it — so the emitted tuples, their order and their
//!   memberships are exactly [`crate::ops::SelectOp`]'s over the bare
//!   scan.
//! * `BuildSide` / `SpillBuild` / `SpilledRight` (crate-private) — the
//!   one build side: the right input of [`crate::ops::MergeOp`] (∪̃/∩̃),
//!   [`crate::ops::DifferenceOp`] (−̃) and [`crate::ops::JoinOp`]
//!   (×̃/⋈̃), addressed by ordinal. While draining the right input it
//!   tracks the *exact encoded size* of what it has buffered
//!   (`codec::record_len`); past [`ExecContext::spill_threshold_bytes`]
//!   it migrates the buffer into a temp segment and keeps only that
//!   segment's [`KeyIndex`] (`key → ordinal → (page, slot)`) in
//!   memory. A probe is one hash lookup that yields an ordinal; a
//!   fetch decodes that ordinal's record from its page, which stays
//!   pinned for the next fetch, so consecutive fetches on one page
//!   cost one `pool.get`. Spill files are
//!   unlinked as soon as the segment is open, so the kernel reclaims
//!   them when the operator closes — nothing leaks even on panic. When
//!   the right input of a ∪̃/∩̃/−̃ is a bare stored scan its segment is
//!   the build side as it stands, under the index the relation itself
//!   keeps ([`StoredRelation::key_index`]: built by the first query
//!   that needs it, shared by every later one); a ×̃/⋈̃ drains it —
//!   read in place, a ×̃ would decode every record once per left
//!   tuple. A pinned page's
//!   records are located once, when it is pinned, so a fetch — full or
//!   masked — is served by slot without walking the length prefixes
//!   before it.
//! * `ScanFilter` / `RecordCursor` / `RecordSide` (crate-private) — the
//!   record-level σ̃ every fused selection decides with, the
//!   record-at-a-time read of a stored relation, and a stored record as
//!   one side of a matched pair. [`crate::ops::MergeOp`] with a
//!   selection inside it reads a bare stored left side through the
//!   cursor: the predicate's attributes built, the rest viewed (checked
//!   and borrowed on the page), the key's encoding probing the build
//!   side. A matched pair of two stored records is decided from views,
//!   with κ observed from the focal entries; a record whose views cannot
//!   stand for its full decode sends its pair through the full decode.
//!   A rejected record's skipped attributes are length-, tag- and
//!   CRC-checked, not semantically validated, and its viewed ones are
//!   checked by [`FocalView::new`]; every kept pair and every emitted
//!   tuple is decoded in full and validated by `Tuple::new`.

use crate::error::PlanError;
use crate::ops::{check_threshold, decide_unmatched, ExecContext, ExecStats, Operator};
use evirel_algebra::predicate::Predicate;
use evirel_algebra::support::{BoundPredicate, Row};
use evirel_algebra::threshold::Threshold;
use evirel_algebra::union::{PairSelection, PairSide};
use evirel_algebra::AlgebraError;
use evirel_relation::{AttrType, AttrValue, Schema, SupportPair, Tuple, Value};
use evirel_store::codec::{
    decode_key, decode_record, encode_key, encode_value, Column, FocalView, Record, View,
};
use evirel_store::segment::PageRecords;
use evirel_store::{
    BufferPool, KeyIndex, PageGuard, Segment, SegmentWriter, StoreError, StoredRelation,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------- spill scan

/// Leaf operator: stream a stored relation's tuples in insertion
/// order, one decoded page at a time through the buffer pool —
/// all of them, or with a fused σ̃ only the ones it keeps.
pub struct SpillScanOp {
    name: String,
    stored: Arc<StoredRelation>,
    filter: Option<ScanFilter>,
    page: u64,
    buf: std::vec::IntoIter<Tuple>,
}

/// A column mask for the one record decoder, with the way back from a
/// schema position to a value or a view of a record decoded under it.
pub(crate) struct Mask {
    /// `columns[pos]`: what becomes of position `pos`.
    pub(crate) columns: Vec<Column>,
    /// Schema position → index into the decoded record's dense values
    /// (a built position) or views (a viewed one).
    slots: Vec<usize>,
}

impl Mask {
    /// The `view` positions viewed, the other `read` positions built,
    /// every other position `rest`.
    fn of(read: &[bool], view: &[bool], rest: Column) -> Mask {
        let column = |(&read, &view)| match (view, read) {
            (true, _) => Column::View,
            (false, true) => Column::Full,
            (false, false) => rest,
        };
        let columns: Vec<Column> = read.iter().zip(view).map(column).collect();
        let (mut built, mut viewed) = (0, 0);
        let slots = columns
            .iter()
            .map(|column| {
                let next = match column {
                    Column::Full => &mut built,
                    Column::View => &mut viewed,
                    Column::Skip => return usize::MAX,
                };
                *next += 1;
                *next - 1
            })
            .collect();
        Mask { columns, slots }
    }
}

/// The record-level σ̃ — the one evaluator every fused selection
/// decides with: `predicate` bound once, `F_SS` over whatever [`Row`]
/// holds the positions it reads (a tuple where it stands, a record
/// decoded under [`ScanFilter::reads`], a merged pair as far as the
/// per-pair kernel has built it), `F_TM`, then the threshold `Q` —
/// the same three steps as `SelectOp::next`. A stored record is
/// decoded in full, and validated as a tuple, only if it is kept.
pub(crate) struct ScanFilter {
    predicate: Predicate,
    /// `predicate` bound to the schema of the rows it decides.
    bound: BoundPredicate,
    threshold: Threshold,
    /// The positions `predicate` reads built, the rest skipped.
    pub(crate) reads: Mask,
    /// `reads` with the positions `predicate` reads only as an `is`
    /// predicate's evidence viewed (`None`: there are none) — what a
    /// record decided alone is decoded under first.
    decided: Option<Mask>,
    /// The positions `predicate` reads built, the rest viewed: a merge's
    /// left records and both records of a matched pair.
    pub(crate) viewed: Mask,
}

/// A record decoded under a [`Mask`], as the row `F_SS` evaluates: a
/// viewed position is read only through [`Row::focal_view`].
struct PartialRow<'a> {
    partial: &'a Record<'a>,
    mask: &'a Mask,
}

impl Row for PartialRow<'_> {
    fn value(&self, pos: usize) -> &AttrValue {
        &self.partial.values[self.mask.slots[pos]]
    }

    fn focal_view(&self, pos: usize) -> Option<FocalView<'_>> {
        match (
            self.mask.columns[pos],
            self.partial.views.get(self.mask.slots[pos]),
        ) {
            (Column::View, Some(View::Evidence(view))) => Some(*view),
            _ => None,
        }
    }
}

impl ScanFilter {
    /// σ̃ (`predicate`, `threshold`) over rows of `schema`.
    ///
    /// # Errors
    /// As [`crate::ops::SelectOp::new`].
    pub(crate) fn new(
        schema: &Schema,
        predicate: Predicate,
        threshold: Threshold,
    ) -> Result<ScanFilter, PlanError> {
        check_threshold(&threshold)?;
        let mut reads = vec![false; schema.arity()];
        // An unknown name reads nothing: its error is the bound
        // predicate's, raised at the first row like `SelectOp`'s.
        for pos in predicate
            .referenced_attrs()
            .into_iter()
            .filter_map(|attr| schema.position(attr).ok())
        {
            reads[pos] = true;
        }
        let bound = BoundPredicate::bind(schema, &predicate);
        let (views, none) = (bound.views(schema.arity()), vec![false; schema.arity()]);
        Ok(ScanFilter {
            bound,
            predicate,
            threshold,
            decided: views
                .contains(&true)
                .then(|| Mask::of(&reads, &views, Column::Skip)),
            reads: Mask::of(&reads, &none, Column::Skip),
            viewed: Mask::of(&reads, &none, Column::View),
        })
    }

    /// `σ̃[…] with … ⟵ input`: the `EXPLAIN` line of a selection
    /// evaluated inside `input`.
    pub(crate) fn describe(&self, input: &str) -> String {
        format!("σ̃[{}] with {} ⟵ {input}", self.predicate, self.threshold)
    }

    /// `record` — one of `segment`'s — decoded under
    /// [`ScanFilter::viewed`], as a merge's left side reads it.
    pub(crate) fn viewed_record<'a>(
        &self,
        record: &'a [u8],
        segment: &Segment,
    ) -> Result<Record<'a>, PlanError> {
        Ok(decode_record(
            record,
            segment.domains(),
            &self.viewed.columns,
        )?)
    }

    /// The encoded key of `partial`, a record of `schema` from
    /// [`ScanFilter::viewed_record`]: borrowed from the page when it is
    /// one viewed attribute, else assembled in `buf`.
    pub(crate) fn key_of<'k>(
        &self,
        partial: &'k Record<'k>,
        schema: &Schema,
        buf: &'k mut Vec<u8>,
    ) -> Result<&'k [u8], PlanError> {
        let mask = &self.viewed;
        if let [pos] = *schema.key_positions() {
            if mask.columns[pos] == Column::View {
                if let View::Definite(_, bytes) = partial.views[mask.slots[pos]] {
                    return Ok(bytes);
                }
            }
        }
        let evidential = || StoreError::corrupt("evidential value in a key position");
        buf.clear();
        for &pos in schema.key_positions() {
            let slot = mask.slots[pos];
            match mask.columns[pos] {
                Column::View => match partial.views[slot] {
                    View::Definite(_, bytes) => buf.extend_from_slice(bytes),
                    _ => return Err(evidential().into()),
                },
                _ => match &partial.values[slot] {
                    AttrValue::Definite(v) => encode_value(v, buf),
                    AttrValue::Evidential(_) => return Err(evidential().into()),
                },
            }
        }
        Ok(buf)
    }

    /// The matched pair of `left` (decoded by
    /// [`ScanFilter::viewed_record`]) and `right` (decoded here), handed
    /// to `decide` as two [`RecordSide`]s — `None`, nothing decided,
    /// when either holds what only its full decode can say.
    pub(crate) fn with_pair<R>(
        &self,
        (record, segment, partial): (&[u8], &Segment, &Record<'_>),
        right: (&[u8], &Segment),
        decide: impl for<'s> FnOnce(&RecordSide<'s>, &RecordSide<'s>) -> R,
    ) -> Option<R> {
        let decoded = decode_record(right.0, right.1.domains(), &self.viewed.columns).ok()?;
        let left = self.side(record, segment, partial)?;
        Some(decide(&left, &self.side(right.0, right.1, &decoded)?))
    }

    /// `partial` — `record` of `segment` decoded under
    /// [`ScanFilter::viewed`] — as a [`RecordSide`], if every position
    /// is what its full decode would build.
    fn side<'a>(
        &'a self,
        record: &'a [u8],
        segment: &'a Segment,
        partial: &'a Record<'a>,
    ) -> Option<RecordSide<'a>> {
        let mask = &self.viewed;
        let attrs = segment.schema().attrs();
        let fits = attrs.iter().enumerate().all(|(pos, attr)| {
            let slot = mask.slots[pos];
            match (mask.columns[pos], attr.ty()) {
                (Column::Skip, _) => true,
                (Column::Full, AttrType::Definite(kind)) => {
                    matches!(&partial.values[slot], AttrValue::Definite(v) if v.kind() == *kind)
                }
                (Column::Full, AttrType::Evidential(_)) => {
                    matches!(partial.values[slot], AttrValue::Evidential(_))
                }
                (Column::View, AttrType::Definite(kind)) => {
                    matches!(partial.views[slot], View::Definite(k, _) if k == *kind)
                }
                (Column::View, AttrType::Evidential(_)) => {
                    matches!(partial.views[slot], View::Evidence(_))
                }
            }
        });
        fits.then_some(RecordSide {
            record,
            segment,
            partial,
            mask,
        })
    }

    /// Decide `partial` — `record` decoded under `mask` — and decode
    /// the record in full, as a tuple of `segment`'s schema with its
    /// revised membership, only if it is kept. (Inlined: rejecting is
    /// the hot path, and it returns nothing of a tuple's size.)
    #[inline(always)]
    pub(crate) fn keep(
        &self,
        mask: &Mask,
        partial: &Record<'_>,
        record: &[u8],
        segment: &Segment,
    ) -> Result<Option<Tuple>, PlanError> {
        let row = PartialRow { partial, mask };
        match self.decide(&row, partial.membership)? {
            Some(revised) => Ok(Some(revised_tuple(record, segment, revised)?)),
            None => Ok(None),
        }
    }

    /// Decide `record` — one of `segment`'s — alone, and decode it in
    /// full only if kept; with `positive`, one without positive support
    /// is dropped before the predicate sees it. Decoded under `decided`
    /// if every view there is [`View::Evidence`], else — a refused view,
    /// a definite value, a decode error — under `reads`, as it always was.
    fn keep_record(
        &self,
        record: &[u8],
        segment: &Segment,
        positive: bool,
    ) -> Result<Option<Tuple>, PlanError> {
        let domains = segment.domains();
        let viewed = self.decided.as_ref().and_then(|mask| {
            let partial = decode_record(record, domains, &mask.columns).ok()?;
            let evidence = partial.views.iter().all(|v| matches!(v, View::Evidence(_)));
            evidence.then_some((mask, partial))
        });
        let (mask, partial) = match viewed {
            Some(viewed) => viewed,
            None => (
                &self.reads,
                decode_record(record, domains, &self.reads.columns)?,
            ),
        };
        if positive && !partial.membership.is_positive() {
            return Ok(None);
        }
        self.keep(mask, &partial, record, segment)
    }

    /// Visit every record of `page`: count it, decide it from its
    /// membership pair and the predicate's attributes, and keep the
    /// survivors.
    fn survivors(
        &self,
        stored: &StoredRelation,
        page: u64,
        stats: &mut ExecStats,
    ) -> Result<Vec<Tuple>, PlanError> {
        let segment = stored.segment();
        let guard = stored.pool().get(segment, page)?;
        let mut out = Vec::new();
        for record in PageRecords::new(&guard)? {
            let record = record?;
            stats.tuples_scanned += 1;
            match self.keep_record(record, segment, false)? {
                Some(tuple) => out.push(tuple),
                None => stats.records_skipped += 1,
            }
        }
        Ok(out)
    }
}

/// A kept record decoded in full and validated, with its revised
/// membership.
fn revised_tuple(
    record: &[u8],
    segment: &Segment,
    revised: SupportPair,
) -> Result<Tuple, PlanError> {
    let tuple = decode_record(record, segment.domains(), segment.all_columns())?
        .into_tuple(segment.schema())?;
    Ok(tuple.with_membership_owned(revised))
}

/// One stored record of a matched pair, decoded under
/// [`ScanFilter::viewed`] — made only when every position is what its
/// full decode would build and [`Tuple::new`] accept.
pub(crate) struct RecordSide<'a> {
    record: &'a [u8],
    segment: &'a Segment,
    partial: &'a Record<'a>,
    mask: &'a Mask,
}

impl RecordSide<'_> {
    fn view(&self, pos: usize) -> Option<&View<'_>> {
        (self.mask.columns[pos] == Column::View).then(|| &self.partial.views[self.mask.slots[pos]])
    }
}

impl PairSide for RecordSide<'_> {
    type Evidence<'b>
        = FocalView<'b>
    where
        Self: 'b;
    type Error = PlanError;

    fn membership(&self) -> SupportPair {
        self.partial.membership
    }

    fn value(&self, pos: usize) -> &AttrValue {
        &self.partial.values[self.mask.slots[pos]]
    }

    fn same(&self, other: &Self, pos: usize) -> bool {
        match (self.view(pos), other.view(pos)) {
            (Some(View::Definite(_, a)), Some(View::Definite(_, b))) => a == b,
            _ => self.value(pos) == other.value(pos),
        }
    }

    fn evidence(
        &self,
        pos: usize,
        _domain: &Arc<evirel_relation::AttrDomain>,
    ) -> Result<Self::Evidence<'_>, AlgebraError> {
        match self.view(pos) {
            Some(View::Evidence(view)) => Ok(*view),
            _ => unreachable!("ScanFilter::side checked every viewed position"),
        }
    }

    fn tuple(&self) -> Result<Cow<'_, Tuple>, PlanError> {
        let segment = self.segment;
        let record = decode_record(self.record, segment.domains(), segment.all_columns())?;
        Ok(Cow::Owned(record.into_tuple(segment.schema())?))
    }
}

impl PairSelection for ScanFilter {
    fn reads(&self, pos: usize) -> bool {
        self.reads.columns[pos] == Column::Full
    }

    #[inline]
    fn decide(
        &self,
        row: &impl Row,
        membership: SupportPair,
    ) -> Result<Option<SupportPair>, AlgebraError> {
        let fss = self.bound.support(row)?;
        let revised = membership.and_independent(&fss);
        Ok((self.threshold.admits(&revised) && revised.is_positive()).then_some(revised))
    }
}

impl SpillScanOp {
    /// Scan `stored`, displayed as `name`.
    pub fn new(name: impl Into<String>, stored: Arc<StoredRelation>) -> SpillScanOp {
        SpillScanOp {
            name: name.into(),
            stored,
            filter: None,
            page: 0,
            buf: Vec::new().into_iter(),
        }
    }

    /// Scan `stored` with σ̃ (`predicate`, `threshold`) evaluated
    /// inside the scan — see the module docs.
    ///
    /// # Errors
    /// As [`crate::ops::SelectOp::new`].
    pub fn filtered(
        name: impl Into<String>,
        stored: Arc<StoredRelation>,
        predicate: Predicate,
        threshold: Threshold,
    ) -> Result<SpillScanOp, PlanError> {
        let filter = ScanFilter::new(stored.schema(), predicate, threshold)?;
        Ok(SpillScanOp {
            filter: Some(filter),
            ..SpillScanOp::new(name, stored)
        })
    }
}

impl Operator for SpillScanOp {
    fn schema(&self) -> &Arc<Schema> {
        self.stored.schema()
    }

    fn open(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.page = 0;
        self.buf = Vec::new().into_iter();
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Arc<Tuple>>, PlanError> {
        loop {
            if let Some(tuple) = self.buf.next() {
                return Ok(Some(Arc::new(tuple)));
            }
            if self.page >= self.stored.segment().page_count() {
                return Ok(None);
            }
            // Either way the page is pinned only while it decodes, and
            // every record on it counts as a tuple scanned.
            let tuples = match &self.filter {
                None => {
                    let tuples = self.stored.page_tuples(self.page)?;
                    ctx.stats.tuples_scanned += tuples.len();
                    tuples
                }
                Some(filter) => filter.survivors(&self.stored, self.page, &mut ctx.stats)?,
            };
            self.page += 1;
            self.buf = tuples.into_iter();
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<(), PlanError> {
        self.buf = Vec::new().into_iter();
        Ok(())
    }

    fn describe(&self) -> String {
        let scan = format!(
            "scan {} [stored: {} tuples, {} pages × {} B target]",
            self.name,
            self.stored.len(),
            self.stored.segment().page_count(),
            self.stored.segment().page_size(),
        );
        match &self.filter {
            None => scan,
            Some(filter) => filter.describe(&scan),
        }
    }

    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }

    fn stored_relation(&self) -> Option<&Arc<StoredRelation>> {
        // Only a bare scan's segment can stand in for its output.
        self.filter.is_none().then_some(&self.stored)
    }
}

// ---------------------------------------------------------- build side

/// The right (build) input of a binary operator — ∪̃/∩̃, −̃, ×̃/⋈̃ —
/// addressed by ordinal: fully in memory, or a segment with only its
/// key index held.
pub(crate) enum BuildSide {
    /// In-memory (the small-build-side fast path): `tuples` in right
    /// insertion order, `by_key` their positions.
    Mem {
        by_key: HashMap<Vec<Value>, u32>,
        tuples: Vec<Arc<Tuple>>,
    },
    /// Segment-backed — a spilled temp segment or a stored relation's
    /// own: a fetch decodes one record through the buffer pool.
    Spilled(SpilledRight),
}

impl BuildSide {
    pub(crate) fn empty() -> BuildSide {
        BuildSide::Mem {
            by_key: HashMap::new(),
            tuples: Vec::new(),
        }
    }

    /// The build side of the opened `right`, and — when it is a stored
    /// relation's own segment — whether this call built its key index.
    ///
    /// With `in_place`, a bare stored scan is not drained: its segment
    /// already *is* the build side, and the relation keeps the key
    /// index. Otherwise the input is drained, `each` seeing every tuple
    /// with its ordinal, while the exact encoded size of what is
    /// buffered is tracked; past [`ExecContext::spill_threshold_bytes`]
    /// the buffer migrates to a temp segment and only that segment's
    /// key index stays in memory. A cost-model `estimate` of
    /// `(bytes, rows)` picks the path up front — an eager spill, or a
    /// pre-sized map — never the results.
    pub(crate) fn open(
        right: &mut dyn Operator,
        ctx: &mut ExecContext,
        in_place: bool,
        estimate: Option<(u64, u64)>,
        mut each: impl FnMut(u32, &Tuple),
    ) -> Result<(BuildSide, Option<bool>), PlanError> {
        if let Some(stored) = right.stored_relation().filter(|_| in_place) {
            // Building the index visits every stored tuple once, like
            // draining the scan would have, and a cached index stands
            // for that same pass — so the scan counter moves exactly as
            // in-memory execution moves it, whichever it was.
            let (index, built) = stored.key_index()?;
            ctx.stats.tuples_scanned += stored.len();
            ctx.stats.key_index_builds += usize::from(built);
            let side = SpilledRight::over(stored, index);
            return Ok((BuildSide::Spilled(side), Some(built)));
        }
        let right_schema = Arc::clone(right.schema());
        let mut by_key: HashMap<Vec<Value>, u32> = HashMap::new();
        let mut tuples: Vec<Arc<Tuple>> = Vec::new();
        let mut bytes = 0usize;
        let mut spill: Option<SpillBuild> = None;
        if let Some((est_bytes, est_rows)) = estimate {
            if est_bytes as usize > ctx.spill_threshold_bytes {
                spill = Some(SpillBuild::create(&right_schema)?);
            } else {
                // Cap the pre-size so a wild over-estimate cannot
                // balloon the empty map.
                let rows = est_rows.min(1 << 20) as usize;
                by_key.reserve(rows);
                tuples.reserve(rows);
            }
        }
        let mut drained = 0usize;
        while let Some(tuple) = right.next(ctx)? {
            let ordinal = u32::try_from(drained).map_err(|_| PlanError::Pairing {
                reason: "more right tuples than a build side addresses".to_owned(),
            })?;
            drained += 1;
            each(ordinal, &tuple);
            let key = tuple.key(&right_schema);
            match &mut spill {
                Some(build) => build.append(key, &tuple)?,
                None => {
                    bytes += evirel_store::codec::record_len(&tuple);
                    by_key.insert(key, ordinal);
                    tuples.push(tuple);
                    if bytes > ctx.spill_threshold_bytes {
                        // The build side outgrew its budget: migrate
                        // the buffered tuples to a temp segment (in
                        // right insertion order) and keep indexing
                        // there.
                        by_key = HashMap::new();
                        let mut build = SpillBuild::create(&right_schema)?;
                        for t in tuples.drain(..) {
                            build.append(t.key(&right_schema), &t)?;
                        }
                        spill = Some(build);
                    }
                }
            }
        }
        Ok((
            match spill {
                Some(build) => BuildSide::Spilled(build.finish(&ctx.pool)?),
                None => BuildSide::Mem { by_key, tuples },
            },
            None,
        ))
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            BuildSide::Mem { tuples, .. } => tuples.len(),
            BuildSide::Spilled(s) => s.len(),
        }
    }

    pub(crate) fn probe(&mut self, key: &[Value]) -> Option<u32> {
        match self {
            BuildSide::Mem { by_key, .. } => by_key.get(key).copied(),
            BuildSide::Spilled(s) => s.probe(key),
        }
    }

    /// The ordinal of the tuple under the key whose encoding is `key`
    /// ([`encode_key`]): a segment-backed side looks the bytes up as
    /// they stand, an in-memory one decodes them first.
    pub(crate) fn probe_encoded(&self, key: &[u8]) -> Result<Option<u32>, PlanError> {
        Ok(match self {
            BuildSide::Mem { by_key, .. } => by_key.get(&decode_key(key)?).copied(),
            BuildSide::Spilled(s) => s.index.ordinal(key),
        })
    }

    /// Tuple `ordinal` for the caller to read: an in-memory one
    /// borrowed where it stands, a segment-backed one decoded.
    pub(crate) fn tuple(&mut self, ordinal: u32) -> Result<Cow<'_, Tuple>, PlanError> {
        // Ordinals come from `probe` and from `0..len()`.
        Ok(match self {
            BuildSide::Mem { tuples, .. } => Cow::Borrowed(&*tuples[ordinal as usize]),
            BuildSide::Spilled(s) => Cow::Owned(s.fetch(ordinal)?),
        })
    }

    /// Tuple `ordinal` for the caller to emit.
    pub(crate) fn fetch(&mut self, ordinal: u32) -> Result<Arc<Tuple>, PlanError> {
        match self {
            BuildSide::Mem { tuples, .. } => Ok(Arc::clone(&tuples[ordinal as usize])),
            BuildSide::Spilled(s) => Ok(Arc::new(s.fetch(ordinal)?)),
        }
    }

    /// Tuple `ordinal` as an unmatched tuple under a fused selection:
    /// `None` unless it has positive support and `select` keeps it. An
    /// in-memory tuple is decided where it stands; a segment-backed one
    /// from a masked decode, and built only if kept.
    pub(crate) fn fetch_kept(
        &mut self,
        ordinal: u32,
        select: &ScanFilter,
    ) -> Result<Option<Arc<Tuple>>, PlanError> {
        match self {
            BuildSide::Mem { tuples, .. } => {
                decide_unmatched(Arc::clone(&tuples[ordinal as usize]), select)
            }
            BuildSide::Spilled(s) => Ok(s.fetch_kept(ordinal, select)?.map(Arc::new)),
        }
    }
}

// --------------------------------------------------------- spill build

/// A build side being written to a temp segment.
pub(crate) struct SpillBuild {
    writer: SegmentWriter,
    path: std::path::PathBuf,
    schema: Arc<Schema>,
    index: KeyIndex,
}

impl SpillBuild {
    /// Start a temp-segment build side for tuples over `schema`.
    pub(crate) fn create(schema: &Arc<Schema>) -> Result<SpillBuild, PlanError> {
        let path = evirel_store::spill_path("build-side");
        let writer = SegmentWriter::create(&path, schema, evirel_store::DEFAULT_PAGE_SIZE)?;
        Ok(SpillBuild {
            writer,
            path,
            schema: Arc::clone(schema),
            index: KeyIndex::default(),
        })
    }

    /// Append the next right tuple (ordinal = tuples appended so far)
    /// under its key.
    pub(crate) fn append(&mut self, key: Vec<Value>, tuple: &Tuple) -> Result<(), PlanError> {
        let id = self.writer.append(tuple)?;
        Ok(self.index.insert_values(&key, id)?)
    }

    /// Finish writing and open the segment for probing. The temp file
    /// is unlinked immediately — the open handle keeps the data alive
    /// until the operator drops it.
    pub(crate) fn finish(self, pool: &Arc<BufferPool>) -> Result<SpilledRight, PlanError> {
        let path = self.writer.finish()?;
        let segment = Arc::new(Segment::open_with_schema(&path, self.schema)?);
        // Reclaimed by the kernel when the last handle drops; on
        // filesystems where unlink-while-open is not allowed the file
        // merely lingers until the OS temp cleaner runs.
        let _ = std::fs::remove_file(&self.path);
        Ok(SpilledRight::new(
            segment,
            Arc::clone(pool),
            Arc::new(self.index),
        ))
    }
}

/// One pinned page of a segment with its records located: the
/// [`PageRecords`] walk, done once when the page is pinned, so a
/// record is addressed by slot without re-walking the length prefixes
/// before it. Unpins on drop.
struct PinnedPage {
    page: u64,
    guard: PageGuard,
    records: Vec<Range<usize>>,
}

impl PinnedPage {
    fn pin(pool: &Arc<BufferPool>, segment: &Segment, page: u64) -> Result<PinnedPage, StoreError> {
        let guard = pool.get(segment, page)?;
        let records = PageRecords::ranges(&guard)?;
        Ok(PinnedPage {
            page,
            guard,
            records,
        })
    }

    /// The bytes of record `slot`, as [`decode_record`] takes them.
    fn record(&self, slot: usize) -> Result<&[u8], StoreError> {
        let range = self.records.get(slot).ok_or_else(|| {
            StoreError::corrupt(format!(
                "slot {slot} out of range (page {} has {} records)",
                self.page,
                self.records.len()
            ))
        })?;
        Ok(&self.guard[range.clone()])
    }
}

/// A stored relation's records in insertion order, one pinned page at
/// a time — what a merge with a fused selection reads its left side
/// through instead of pulling decoded tuples, so that it decides what
/// to decode of each record.
pub(crate) struct RecordCursor {
    stored: Arc<StoredRelation>,
    /// The page being walked; `None` before the first and after the
    /// last.
    pinned: Option<PinnedPage>,
    next_page: u64,
    next_slot: usize,
}

impl RecordCursor {
    pub(crate) fn new(stored: Arc<StoredRelation>) -> RecordCursor {
        RecordCursor {
            stored,
            pinned: None,
            next_page: 0,
            next_slot: 0,
        }
    }

    /// The next record's bytes, beside the segment they decode
    /// against — or `None` past the last page (whose pin is dropped
    /// with it).
    /// The segment the records belong to.
    pub(crate) fn segment(&self) -> &Segment {
        self.stored.segment()
    }

    pub(crate) fn next(&mut self) -> Result<Option<(&[u8], &Segment)>, PlanError> {
        while !matches!(&self.pinned, Some(p) if self.next_slot < p.records.len()) {
            // Unpin the walked page before pinning the next.
            self.pinned = None;
            if self.next_page >= self.stored.segment().page_count() {
                return Ok(None);
            }
            self.pinned = Some(PinnedPage::pin(
                self.stored.pool(),
                self.stored.segment(),
                self.next_page,
            )?);
            self.next_page += 1;
            self.next_slot = 0;
        }
        let page = self.pinned.as_ref().expect("pinned just above");
        self.next_slot += 1;
        Ok(Some((
            page.record(self.next_slot - 1)?,
            self.stored.segment(),
        )))
    }
}

/// A segment-backed build side: a segment, its [`KeyIndex`], and the
/// page the last fetch decoded from, still pinned with its records
/// located — consecutive fetches on one page (a left input in the
/// right side's order, and all of the unmatched-right phase) are one
/// `pool.get` and one walk of the page. One pinned page per build
/// side; a pool smaller than that page overcommits rather than waits.
/// The pin is released when the operator closes.
pub(crate) struct SpilledRight {
    segment: Arc<Segment>,
    pool: Arc<BufferPool>,
    index: Arc<KeyIndex>,
    pinned: Option<PinnedPage>,
    /// The encoding of the last key probed with ([`SpilledRight::probe`]).
    key: Vec<u8>,
}

impl SpilledRight {
    fn new(segment: Arc<Segment>, pool: Arc<BufferPool>, index: Arc<KeyIndex>) -> SpilledRight {
        SpilledRight {
            segment,
            pool,
            index,
            pinned: None,
            key: Vec::new(),
        }
    }

    /// `stored`'s own segment as the build side, under the relation's
    /// shared key index — no materialized tuples and no re-spill.
    pub(crate) fn over(stored: &StoredRelation, index: Arc<KeyIndex>) -> SpilledRight {
        SpilledRight::new(
            Arc::clone(stored.segment()),
            Arc::clone(stored.pool()),
            index,
        )
    }

    /// Number of tuples on this side.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The ordinal of the tuple stored under `key`.
    pub(crate) fn probe(&mut self, key: &[Value]) -> Option<u32> {
        self.key.clear();
        encode_key(key, &mut self.key);
        self.index.ordinal(&self.key)
    }

    /// Do records of `left` and of this side agree on every evidential
    /// attribute's frame? Asked once, when a merge opens: a matched pair
    /// decided from views checks no frame of its own.
    pub(crate) fn same_frames(&self, left: &Segment) -> bool {
        let pairs = left.domains().iter().zip(self.segment.domains());
        pairs.into_iter().all(|pair| match pair {
            (Some(l), Some(r)) => l.frame() == r.frame(),
            (l, r) => l.is_none() && r.is_none(),
        })
    }

    /// The bytes of record `ordinal`, its page pinned (and left so),
    /// beside the segment they decode against.
    pub(crate) fn record(&mut self, ordinal: u32) -> Result<(&[u8], &Segment), PlanError> {
        let id = self
            .index
            .record(ordinal)
            .ok_or_else(|| PlanError::Pairing {
                reason: format!("right ordinal {ordinal} not indexed"),
            })?;
        if !matches!(&self.pinned, Some(p) if p.page == id.page) {
            // Unpin the old page before pinning the next.
            self.pinned = None;
            self.pinned = Some(PinnedPage::pin(&self.pool, &self.segment, id.page)?);
        }
        let page = self.pinned.as_ref().expect("pinned just above");
        Ok((page.record(id.slot as usize)?, &self.segment))
    }

    /// Decode tuple `ordinal` in full.
    pub(crate) fn fetch(&mut self, ordinal: u32) -> Result<Tuple, PlanError> {
        let (record, segment) = self.record(ordinal)?;
        Ok(
            decode_record(record, segment.domains(), segment.all_columns())?
                .into_tuple(segment.schema())?,
        )
    }

    /// Tuple `ordinal` as an unmatched tuple under a fused selection:
    /// decided from its membership pair and the predicate's attributes
    /// — a tuple without positive support is dropped before the
    /// predicate sees it, as the merge drops it — and decoded in full,
    /// with its revised membership, only if `filter` keeps it.
    pub(crate) fn fetch_kept(
        &mut self,
        ordinal: u32,
        filter: &ScanFilter,
    ) -> Result<Option<Tuple>, PlanError> {
        let (record, segment) = self.record(ordinal)?;
        filter.keep_record(record, segment, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{run, ScanOp, SelectOp};
    use evirel_algebra::{Operand, ThetaOp};
    use evirel_relation::{AttrDomain, ExtendedRelation, RelationBuilder};

    fn config() -> crate::Config {
        crate::Config::from_env()
    }

    fn rel(n: usize) -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
        let schema = Arc::new(
            Schema::builder("R")
                .key_str("k")
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for i in 0..n {
            let label = ["x", "y", "z"][i % 3];
            b = b
                .tuple(|t| {
                    t.set_str("k", format!("k{i:04}"))
                        .set_evidence_with_omega("d", [(&[label][..], 0.7)], 0.3)
                        .membership_pair(0.2 + 0.001 * (i as f64), 1.0)
                })
                .unwrap();
        }
        b.build()
    }

    fn store(rel: &ExtendedRelation, budget: usize) -> Arc<StoredRelation> {
        let path = evirel_store::spill_path("plan-test");
        evirel_store::write_segment(rel, &path, 512).unwrap();
        let stored = StoredRelation::open(&path, Arc::new(BufferPool::new(budget))).unwrap();
        std::fs::remove_file(&path).ok();
        Arc::new(stored)
    }

    #[test]
    fn spill_scan_matches_in_memory_scan_bit_for_bit() {
        let r = rel(300);
        let stored = store(&r, 1024); // ~2 pages of budget
        let mut mem_ctx = ExecContext::new(&config());
        let mem = run(&mut ScanOp::new("r", Arc::new(r.clone())), &mut mem_ctx).unwrap();
        let mut disk_ctx = ExecContext::new(&config());
        let disk = run(
            &mut SpillScanOp::new("r", Arc::clone(&stored)),
            &mut disk_ctx,
        )
        .unwrap();
        assert_eq!(mem.len(), disk.len());
        for (a, b) in mem.iter().zip(disk.iter()) {
            assert_eq!(a.values(), b.values());
            assert_eq!(a.membership().sn().to_bits(), b.membership().sn().to_bits());
            assert_eq!(a.membership().sp().to_bits(), b.membership().sp().to_bits());
        }
        assert_eq!(mem_ctx.stats.tuples_scanned, disk_ctx.stats.tuples_scanned);
        // The tiny budget forced evictions while scanning.
        let stats = stored.pool().stats();
        assert!(stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn spilled_build_side_fetches_exact_tuples() {
        let r = rel(600);
        // A pool with room for every page, and one smaller than any
        // page: holding the pin overcommits it, never wedges it.
        for budget in [1 << 20, 1] {
            let pool = Arc::new(BufferPool::new(budget));
            let mut build = SpillBuild::create(r.schema()).unwrap();
            for (key, tuple) in r.iter_keyed() {
                build.append(key, tuple).unwrap();
            }
            let mut spilled = build.finish(&pool).unwrap();
            assert_eq!(spilled.len(), 600);
            assert!(spilled.segment.page_count() > 2);
            // Ordinals are insertion positions.
            for (ordinal, (key, tuple)) in r.iter_keyed().enumerate() {
                assert_eq!(spilled.probe(&key), Some(ordinal as u32));
                let fetched = spilled.fetch(ordinal as u32).unwrap();
                assert_eq!(fetched.values(), tuple.values());
            }
            // Walking the ordinals pinned each page once: the page
            // stays pinned from one fetch to the next.
            let stats = pool.stats();
            assert_eq!(stats.hits + stats.misses, spilled.segment.page_count());
            assert_eq!(stats.overcommits > 0, budget == 1, "{stats:?}");
            assert_eq!(spilled.probe(&[Value::str("nope")]), None);
            assert!(spilled.fetch(600).is_err());
            // The pin goes with the side.
            drop(spilled);
            assert!(pool.stats().bytes_cached <= budget);
        }
        // A key appended twice is refused, not shadowed.
        let mut build = SpillBuild::create(r.schema()).unwrap();
        let (key, tuple) = r.iter_keyed().next().unwrap();
        build.append(key.clone(), tuple).unwrap();
        assert!(matches!(
            build.append(key, tuple),
            Err(PlanError::Store(evirel_store::StoreError::Corrupt { .. }))
        ));
    }

    /// A stored relation's own segment as the build side: the shared
    /// index, fetches by ordinal, out-of-order fetches repin.
    #[test]
    fn stored_build_side_uses_the_relations_index() {
        let r = rel(80);
        let stored = store(&r, 4096);
        let (index, built) = stored.key_index().unwrap();
        assert!(built);
        let mut side = SpilledRight::over(&stored, index);
        assert_eq!(side.len(), 80);
        for key in ["k0042", "k0003", "k0079", "k0042"] {
            let key = vec![Value::str(key)];
            let ordinal = side.probe(&key).unwrap();
            let fetched = side.fetch(ordinal).unwrap();
            assert_eq!(fetched.values(), r.get_by_key(&key).unwrap().values());
        }
    }

    /// Values and `(sn, sp)` bits, tuple by tuple, in order.
    fn assert_identical(a: &ExtendedRelation, b: &ExtendedRelation) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.values(), y.values());
            assert_eq!(x.membership().sn().to_bits(), y.membership().sn().to_bits());
            assert_eq!(x.membership().sp().to_bits(), y.membership().sp().to_bits());
        }
    }

    /// σ̃ inside the stored scan ≡ `SelectOp` over the bare stored
    /// scan ≡ `SelectOp` over the in-memory scan, for every predicate
    /// kind; every record visited is a tuple scanned, and every record
    /// not emitted was skipped.
    #[test]
    fn filtered_scan_is_select_over_scan_bit_for_bit() {
        let r = rel(300);
        let stored = store(&r, 1024);
        let is_x = Predicate::is("d", ["x"]);
        let predicates = [
            is_x.clone(),
            Predicate::theta(Operand::attr("d"), ThetaOp::Ge, Operand::value("y")),
            is_x.clone().and(Predicate::theta(
                Operand::attr("k"),
                ThetaOp::Gt,
                Operand::value("k0100"),
            )),
            is_x.clone().or(Predicate::is("k", ["k0007"])),
            is_x.negate(),
        ];
        for predicate in predicates {
            for threshold in [Threshold::POSITIVE, Threshold::SnAtLeast(0.3)] {
                let mut mem_ctx = ExecContext::new(&config());
                let mem_scan = Box::new(ScanOp::new("r", Arc::new(r.clone())));
                let mut mem_op = SelectOp::new(mem_scan, predicate.clone(), threshold).unwrap();
                let mem = run(&mut mem_op, &mut mem_ctx).unwrap();

                let bare = Box::new(SpillScanOp::new("r", Arc::clone(&stored)));
                let mut bare_op = SelectOp::new(bare, predicate.clone(), threshold).unwrap();
                let unfused = run(&mut bare_op, &mut ExecContext::new(&config())).unwrap();

                let mut fused_ctx = ExecContext::new(&config());
                let mut fused_op =
                    SpillScanOp::filtered("r", Arc::clone(&stored), predicate.clone(), threshold)
                        .unwrap();
                assert!(fused_op.stored_relation().is_none());
                let fused = run(&mut fused_op, &mut fused_ctx).unwrap();

                assert_identical(&mem, &fused);
                assert_identical(&unfused, &fused);
                assert!(!fused.is_empty() && fused.len() < 300, "{predicate}");
                assert_eq!(fused_ctx.stats.tuples_scanned, stored.len());
                assert_eq!(fused_ctx.stats.records_skipped, 300 - fused.len());
                assert_eq!(
                    ExecStats {
                        records_skipped: 0,
                        ..fused_ctx.stats
                    },
                    mem_ctx.stats
                );
                assert_eq!(
                    fused_op.describe(),
                    format!(
                        "σ̃[{predicate}] with {threshold} ⟵ {}",
                        SpillScanOp::new("r", Arc::clone(&stored)).describe()
                    )
                );
            }
        }
    }

    /// What `SelectOp` rejects per tuple, the fused scan rejects per
    /// record with the same text — and neither rejects anything when
    /// there is no tuple to evaluate.
    #[test]
    fn filtered_scan_fails_like_select() {
        let bad = [
            Predicate::is("nope", ["x"]),
            Predicate::is("d", ["not-a-label"]),
            Predicate::theta(Operand::attr("d"), ThetaOp::Le, Operand::value("w")),
            Predicate::is("d", ["x"]).and(Predicate::theta(
                Operand::attr("missing"),
                ThetaOp::Eq,
                Operand::value("x"),
            )),
        ];
        for n in [0, 40] {
            let r = rel(n);
            let stored = store(&r, 4096);
            for predicate in &bad {
                let scan = Box::new(ScanOp::new("r", Arc::new(r.clone())));
                let mem = SelectOp::new(scan, predicate.clone(), Threshold::POSITIVE)
                    .and_then(|mut op| run(&mut op, &mut ExecContext::new(&config())));
                let fused = SpillScanOp::filtered(
                    "r",
                    Arc::clone(&stored),
                    predicate.clone(),
                    Threshold::POSITIVE,
                )
                .and_then(|mut op| run(&mut op, &mut ExecContext::new(&config())));
                assert_eq!(mem.is_ok(), n == 0, "{predicate}");
                assert_eq!(
                    mem.map(|r| r.len()).map_err(|e| e.to_string()),
                    fused.map(|r| r.len()).map_err(|e| e.to_string()),
                    "{predicate}"
                );
            }
        }
        // A threshold that could admit sn = 0 is refused up front.
        let stored = store(&rel(3), 4096);
        let (p, q) = (Predicate::is("d", ["x"]), Threshold::SnAtLeast(0.0));
        let fused = SpillScanOp::filtered("r", Arc::clone(&stored), p.clone(), q).map(|_| ());
        let select = SelectOp::new(Box::new(SpillScanOp::new("r", stored)), p, q).map(|_| ());
        assert!(fused.is_err());
        assert_eq!(fused, select);
    }
}
