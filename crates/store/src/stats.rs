//! Per-relation statistics: the store-side half of cost-based
//! planning.
//!
//! A [`RelStats`] block summarizes one relation extension — tuple
//! count, total encoded bytes, a distinct-key estimate, and a
//! per-attribute profile (distinct-value sketch for definite
//! attributes; focal-set-cardinality histogram plus a plausibility
//! profile for evidential ones). [`StatsBuilder`] computes the block
//! incrementally, one [`observe`](StatsBuilder::observe) per tuple,
//! so [`crate::SegmentWriter`] collects it while the data is already
//! streaming through `append`; [`compute_stats`] runs the same
//! builder over an in-memory relation, so catalog binds get the same
//! block without a segment round trip.
//!
//! **Determinism contract.** A `RelStats` block is a *pure function
//! of the tuple sequence*: observing the same tuples in the same
//! order produces a bit-identical block (all floating-point
//! accumulation happens in observation order; the distinct sketches
//! hash the codec's canonical value encoding with a fixed FNV-1a —
//! never `DefaultHasher`, whose output may differ across Rust
//! releases). The stats written at segment-write time therefore
//! equal the stats recomputed from the decoded relation, bit for
//! bit — a property the store proptests pin.
//!
//! Stats never change query *results*, only the plan layer's cost
//! estimates, and every relation has them: a segment written before
//! the stats section existed gets its block computed by the same
//! builder when it is opened.

use crate::codec::{self, put_u32, put_u64};
use crate::error::StoreError;
use evirel_relation::{AttrType, ExtendedRelation, Schema, Tuple};

/// Version tag leading every encoded stats payload.
pub const STATS_VERSION: u32 = 1;

/// Bits in a [`DistinctSketch`] bitmap.
const SKETCH_BITS: usize = 2048;
/// 64-bit words backing the bitmap.
const SKETCH_WORDS: usize = SKETCH_BITS / 64;
/// Focal-cardinality histogram buckets: |focal| of 1, 2, 3–4, 5–8,
/// 9–16, and 17+.
pub const CARD_BUCKETS: usize = 6;
/// Frame values profiled per evidential attribute; wider frames
/// profile their first `PROFILE_CAP` values and estimate the rest
/// from the histogram.
pub const PROFILE_CAP: usize = 64;

/// FNV-1a over a byte slice — a fixed, portable 64-bit hash. The
/// sketches must hash identically across processes and Rust
/// versions (write-time stats are compared bit-for-bit against
/// recomputed stats), which rules out `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A linear-counting distinct estimator: a 2048-bit bitmap indexed
/// by a fixed hash of the canonical value encoding. Exact for small
/// cardinalities, within a few percent up to ~2k distinct values,
/// and saturates gracefully (the estimate is clamped by the caller's
/// tuple count).
#[derive(Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    words: [u64; SKETCH_WORDS],
}

impl std::fmt::Debug for DistinctSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DistinctSketch(≈{:.0})", self.estimate())
    }
}

impl Default for DistinctSketch {
    fn default() -> DistinctSketch {
        DistinctSketch {
            words: [0; SKETCH_WORDS],
        }
    }
}

impl DistinctSketch {
    /// Record a pre-hashed observation.
    pub fn insert_hash(&mut self, hash: u64) {
        let bit = (hash % SKETCH_BITS as u64) as usize;
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Record the canonical encoding of one value.
    pub fn insert_bytes(&mut self, bytes: &[u8]) {
        self.insert_hash(fnv1a(bytes));
    }

    /// Linear-counting estimate of the number of distinct
    /// observations: `-m · ln(z/m)` where `z` is the count of still
    /// empty bits out of `m`.
    pub fn estimate(&self) -> f64 {
        let m = SKETCH_BITS as f64;
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        let empty = (SKETCH_BITS as u32 - set).max(1) as f64;
        (m * (m / empty).ln()).max(f64::from(set))
    }

    /// Estimated distinct count of the *union* of two sketches —
    /// the basis for key-overlap estimates in ∪̃/∩̃/−̃ cardinality
    /// models.
    pub fn union_estimate(&self, other: &DistinctSketch) -> f64 {
        let mut set: u32 = 0;
        for (a, b) in self.words.iter().zip(other.words.iter()) {
            set += (a | b).count_ones();
        }
        let m = SKETCH_BITS as f64;
        let empty = (SKETCH_BITS as u32 - set).max(1) as f64;
        (m * (m / empty).ln()).max(f64::from(set))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for w in &self.words {
            put_u64(out, *w);
        }
    }

    fn decode(cur: &mut codec::Cursor<'_>) -> Result<DistinctSketch, StoreError> {
        let mut words = [0u64; SKETCH_WORDS];
        for w in &mut words {
            *w = cur.u64()?;
        }
        Ok(DistinctSketch { words })
    }
}

/// Per-attribute statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrStats {
    /// A definite attribute: a distinct-value sketch.
    Definite {
        /// Distinct-value estimator over the attribute's values.
        distinct: DistinctSketch,
    },
    /// An evidential attribute: shape statistics over its mass
    /// functions.
    Evidential {
        /// Frame cardinality (from the schema's attribute domain).
        frame_len: u32,
        /// Total focal-set entries observed across all tuples.
        focal_count: u64,
        /// Histogram over focal-set cardinality: |focal| of 1, 2,
        /// 3–4, 5–8, 9–16, 17+.
        card_hist: [u64; CARD_BUCKETS],
        /// Σ over tuples of the mass lent to each of the first
        /// [`PROFILE_CAP`] frame values (the plausibility of the
        /// singleton, summed) — the histogram selectivity source for
        /// `attr IS {…}` predicates.
        plaus_sum: Vec<f64>,
    },
}

impl AttrStats {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AttrStats::Definite { distinct } => {
                out.push(0);
                distinct.encode(out);
            }
            AttrStats::Evidential {
                frame_len,
                focal_count,
                card_hist,
                plaus_sum,
            } => {
                out.push(1);
                put_u32(out, *frame_len);
                put_u64(out, *focal_count);
                for b in card_hist {
                    put_u64(out, *b);
                }
                put_u32(out, plaus_sum.len() as u32);
                for p in plaus_sum {
                    put_u64(out, p.to_bits());
                }
            }
        }
    }

    fn decode(cur: &mut codec::Cursor<'_>) -> Result<AttrStats, StoreError> {
        match cur.u8()? {
            0 => Ok(AttrStats::Definite {
                distinct: DistinctSketch::decode(cur)?,
            }),
            1 => {
                let frame_len = cur.u32()?;
                let focal_count = cur.u64()?;
                let mut card_hist = [0u64; CARD_BUCKETS];
                for b in &mut card_hist {
                    *b = cur.u64()?;
                }
                let n = cur.u32()? as usize;
                if n > PROFILE_CAP {
                    return Err(StoreError::corrupt(format!(
                        "stats: plausibility profile of {n} exceeds cap {PROFILE_CAP}"
                    )));
                }
                let mut plaus_sum = Vec::with_capacity(n);
                for _ in 0..n {
                    plaus_sum.push(f64::from_bits(cur.u64()?));
                }
                Ok(AttrStats::Evidential {
                    frame_len,
                    focal_count,
                    card_hist,
                    plaus_sum,
                })
            }
            tag => Err(StoreError::corrupt(format!(
                "stats: unknown attribute-stats tag {tag}"
            ))),
        }
    }
}

/// Observed Dempster-conflict summary for a relation whose extension
/// was produced by an evidential merge (∪̃/∩̃). Segment writes never
/// produce one — the catalog stamps it when it publishes a merged
/// relation alongside its conflict report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KappaSummary {
    /// Merge observations summarized.
    pub observations: u64,
    /// Σ κ across observations (mean = sum / observations).
    pub sum: f64,
    /// Largest κ observed.
    pub max: f64,
}

/// Statistics for one relation extension. See the module docs for
/// the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RelStats {
    /// Tuples in the extension.
    pub tuples: u64,
    /// Total canonical-encoding bytes ([`codec::record_len`] summed).
    pub bytes: u64,
    /// Distinct-key estimator over canonical key encodings.
    pub key_sketch: DistinctSketch,
    /// Per-attribute statistics, in schema order.
    pub attrs: Vec<AttrStats>,
    /// Observed merge-conflict summary, when the extension came from
    /// an evidential merge. `None` for segment-written stats.
    pub kappa: Option<KappaSummary>,
}

impl RelStats {
    /// Distinct-key estimate, clamped by the tuple count.
    pub fn distinct_keys(&self) -> f64 {
        self.key_sketch.estimate().min(self.tuples as f64).max(0.0)
    }

    /// Distinct-value estimate for the definite attribute at `pos`,
    /// clamped by the tuple count. `None` for evidential attributes.
    pub fn distinct_at(&self, pos: usize) -> Option<f64> {
        match self.attrs.get(pos)? {
            AttrStats::Definite { distinct } => {
                Some(distinct.estimate().min(self.tuples as f64).max(1.0))
            }
            AttrStats::Evidential { .. } => None,
        }
    }

    /// Mean focal-set entries per tuple across evidential
    /// attributes — the memo-table growth factor a Dempster merge of
    /// this relation pays per pairing. 1.0 when there are no
    /// evidential attributes (or no tuples).
    pub fn avg_focal_width(&self) -> f64 {
        if self.tuples == 0 {
            return 1.0;
        }
        let mut width = 0.0;
        let mut seen = false;
        for attr in &self.attrs {
            if let AttrStats::Evidential { focal_count, .. } = attr {
                width += *focal_count as f64 / self.tuples as f64;
                seen = true;
            }
        }
        if seen {
            width.max(1.0)
        } else {
            1.0
        }
    }

    /// Estimated fraction of tuples whose mass function at `pos`
    /// lends positive plausibility to frame value `idx` — the
    /// selectivity source for singleton `IS` predicates. `None` when
    /// `pos` is definite or `idx` is beyond the profiled prefix.
    pub fn plausibility_fraction(&self, pos: usize, idx: usize) -> Option<f64> {
        if self.tuples == 0 {
            return Some(0.0);
        }
        match self.attrs.get(pos)? {
            AttrStats::Evidential { plaus_sum, .. } => {
                let p = plaus_sum.get(idx)?;
                Some((p / self.tuples as f64).clamp(0.0, 1.0))
            }
            AttrStats::Definite { .. } => None,
        }
    }

    /// Attach an observed-κ summary (catalog merge-publish path).
    #[must_use]
    pub fn with_kappa(mut self, kappa: KappaSummary) -> RelStats {
        self.kappa = Some(kappa);
        self
    }

    /// Append the versioned encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, STATS_VERSION);
        put_u64(out, self.tuples);
        put_u64(out, self.bytes);
        self.key_sketch.encode(out);
        put_u32(out, self.attrs.len() as u32);
        for attr in &self.attrs {
            attr.encode(out);
        }
        match &self.kappa {
            None => out.push(0),
            Some(k) => {
                out.push(1);
                put_u64(out, k.observations);
                put_u64(out, k.sum.to_bits());
                put_u64(out, k.max.to_bits());
            }
        }
    }

    /// Decode an encoded block.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on truncation, a bad tag, or an
    /// unsupported version.
    pub fn decode(bytes: &[u8]) -> Result<RelStats, StoreError> {
        let mut cur = codec::Cursor::new(bytes, "stats");
        let version = cur.u32()?;
        if version != STATS_VERSION {
            return Err(StoreError::corrupt(format!(
                "stats: unsupported version {version}"
            )));
        }
        let tuples = cur.u64()?;
        let bytes_total = cur.u64()?;
        let key_sketch = DistinctSketch::decode(&mut cur)?;
        let attr_count = cur.u32()? as usize;
        if attr_count > u16::MAX as usize {
            return Err(StoreError::corrupt(format!(
                "stats: implausible attribute count {attr_count}"
            )));
        }
        let mut attrs = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            attrs.push(AttrStats::decode(&mut cur)?);
        }
        let kappa = match cur.u8()? {
            0 => None,
            1 => Some(KappaSummary {
                observations: cur.u64()?,
                sum: f64::from_bits(cur.u64()?),
                max: f64::from_bits(cur.u64()?),
            }),
            tag => {
                return Err(StoreError::corrupt(format!(
                    "stats: unknown kappa tag {tag}"
                )))
            }
        };
        Ok(RelStats {
            tuples,
            bytes: bytes_total,
            key_sketch,
            attrs,
            kappa,
        })
    }

    /// One-line human rendering for `STATS` / `\stats`.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} tuples, {} bytes, ≈{:.0} distinct keys, avg focal width {:.2}",
            self.tuples,
            self.bytes,
            self.distinct_keys(),
            self.avg_focal_width()
        );
        if let Some(k) = &self.kappa {
            let mean = if k.observations > 0 {
                k.sum / k.observations as f64
            } else {
                0.0
            };
            s.push_str(&format!(
                ", κ mean {:.4} max {:.4} over {} merges",
                mean, k.max, k.observations
            ));
        }
        s
    }
}

/// Builds a [`RelStats`] block incrementally, one tuple at a time.
/// The block is a pure function of the observed tuple sequence — see
/// the module docs.
#[derive(Debug, Clone)]
pub struct StatsBuilder {
    key_positions: Vec<usize>,
    tuples: u64,
    bytes: u64,
    key_sketch: DistinctSketch,
    attrs: Vec<AttrStats>,
    scratch: Vec<u8>,
}

impl StatsBuilder {
    /// A builder shaped for `schema`.
    pub fn new(schema: &Schema) -> StatsBuilder {
        let attrs = schema
            .attrs()
            .iter()
            .map(|a| match a.ty() {
                AttrType::Definite(_) => AttrStats::Definite {
                    distinct: DistinctSketch::default(),
                },
                AttrType::Evidential(domain) => AttrStats::Evidential {
                    frame_len: domain.len() as u32,
                    focal_count: 0,
                    card_hist: [0; CARD_BUCKETS],
                    plaus_sum: vec![0.0; domain.len().min(PROFILE_CAP)],
                },
            })
            .collect();
        StatsBuilder {
            key_positions: schema.key_positions().to_vec(),
            tuples: 0,
            bytes: 0,
            key_sketch: DistinctSketch::default(),
            attrs,
            scratch: Vec::new(),
        }
    }

    /// Fold one tuple into the running statistics.
    pub fn observe(&mut self, tuple: &Tuple) {
        self.tuples += 1;
        self.bytes += codec::record_len(tuple) as u64;
        // Key sketch: hash the concatenated canonical encodings of
        // the key values (each encoding is length-prefixed, so the
        // concatenation is prefix-free).
        self.scratch.clear();
        for &pos in &self.key_positions {
            if let Some(v) = tuple.value(pos).as_definite() {
                codec::encode_value(v, &mut self.scratch);
            }
        }
        let key_hash = fnv1a(&self.scratch);
        self.key_sketch.insert_hash(key_hash);
        for (pos, stats) in self.attrs.iter_mut().enumerate() {
            match stats {
                AttrStats::Definite { distinct } => {
                    if let Some(v) = tuple.value(pos).as_definite() {
                        self.scratch.clear();
                        codec::encode_value(v, &mut self.scratch);
                        distinct.insert_bytes(&self.scratch);
                    }
                }
                AttrStats::Evidential {
                    focal_count,
                    card_hist,
                    plaus_sum,
                    ..
                } => {
                    if let Some(mass) = tuple.value(pos).as_evidential() {
                        for (set, w) in mass.iter() {
                            *focal_count += 1;
                            card_hist[card_bucket(set.len())] += 1;
                            for idx in set.iter() {
                                if idx < plaus_sum.len() {
                                    plaus_sum[idx] += *w;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The finished statistics block.
    pub fn finish(self) -> RelStats {
        RelStats {
            tuples: self.tuples,
            bytes: self.bytes,
            key_sketch: self.key_sketch,
            attrs: self.attrs,
            kappa: None,
        }
    }
}

/// Histogram bucket for a focal-set cardinality.
fn card_bucket(len: usize) -> usize {
    match len {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Statistics for an in-memory relation: the same pure fold a
/// [`crate::SegmentWriter`] performs, so write-time and bind-time
/// stats agree bit for bit.
pub fn compute_stats(rel: &ExtendedRelation) -> RelStats {
    let mut builder = StatsBuilder::new(rel.schema());
    for tuple in rel.iter() {
        builder.observe(tuple);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_relation::{AttrDomain, RelationBuilder, Schema, Value};
    use std::sync::Arc;

    fn sample() -> ExtendedRelation {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
        let schema = Arc::new(
            Schema::builder("r")
                .key_str("k")
                .definite("c", evirel_relation::ValueKind::Int)
                .evidential("d", d)
                .build()
                .unwrap(),
        );
        let mut b = RelationBuilder::new(schema);
        for i in 0..50i64 {
            b = b
                .tuple(|t| {
                    t.set_str("k", format!("k{i}"))
                        .set_int("c", i % 7)
                        .set_evidence(
                            "d",
                            [(&["x"][..], 0.6), (&["x", "y"][..], 0.3), (&["z"][..], 0.1)],
                        )
                })
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn counts_and_estimates() {
        let rel = sample();
        let stats = compute_stats(&rel);
        assert_eq!(stats.tuples, 50);
        assert!(stats.bytes > 0);
        let keys = stats.distinct_keys();
        assert!((45.0..=55.0).contains(&keys), "key estimate {keys}");
        let c = stats.distinct_at(1).unwrap();
        assert!((6.0..=9.0).contains(&c), "attr estimate {c}");
        assert!(stats.distinct_at(2).is_none());
        // Every tuple carries three focal entries.
        assert!((stats.avg_focal_width() - 3.0).abs() < 1e-9);
        // x is plausible in 0.9 of the mass of every tuple.
        let px = stats.plausibility_fraction(2, 0).unwrap();
        assert!((px - 0.9).abs() < 1e-9, "plausibility {px}");
        assert!(stats.kappa.is_none());
    }

    #[test]
    fn encode_round_trips_bit_exactly() {
        let stats = compute_stats(&sample()).with_kappa(KappaSummary {
            observations: 3,
            sum: 0.25,
            max: 0.125,
        });
        let mut buf = Vec::new();
        stats.encode(&mut buf);
        let back = RelStats::decode(&buf).unwrap();
        assert_eq!(stats, back);
        let mut buf2 = Vec::new();
        back.encode(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RelStats::decode(&[]).is_err());
        let mut buf = Vec::new();
        compute_stats(&sample()).encode(&mut buf);
        buf[0] = 99; // version
        assert!(RelStats::decode(&buf).is_err());
    }

    #[test]
    fn recompute_is_bit_identical_to_incremental() {
        let rel = sample();
        let mut b = StatsBuilder::new(rel.schema());
        for t in rel.iter() {
            b.observe(t);
        }
        let incremental = b.finish();
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        incremental.encode(&mut e1);
        compute_stats(&rel).encode(&mut e2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn union_estimate_tracks_overlap() {
        let mut a = DistinctSketch::default();
        let mut b = DistinctSketch::default();
        let mut buf = Vec::new();
        for i in 0..200i64 {
            buf.clear();
            codec::encode_value(&Value::int(i), &mut buf);
            a.insert_bytes(&buf);
        }
        for i in 100..300i64 {
            buf.clear();
            codec::encode_value(&Value::int(i), &mut buf);
            b.insert_bytes(&buf);
        }
        let union = a.union_estimate(&b);
        assert!((270.0..=330.0).contains(&union), "union estimate {union}");
        let overlap = a.estimate() + b.estimate() - union;
        assert!((70.0..=130.0).contains(&overlap), "overlap {overlap}");
    }
}
