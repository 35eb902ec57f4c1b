//! Binary encoding of schemas, tuples, and their parts.
//!
//! Everything is little-endian and length-prefixed; there are no
//! alignment requirements. Two properties drive the format:
//!
//! * **Bit-exact round-trips.** `f64` payloads (masses, membership
//!   supports, float values) are stored as their raw IEEE-754 bits,
//!   so `decode(encode(t)) == t` exactly — the determinism contract
//!   of the storage engine ("stored-scan execution ≡ in-memory
//!   execution bit for bit") reduces to byte equality, with no float
//!   printing/parsing in the loop. [`Ratio`] weights are stored as
//!   their canonical `i128` numerator/denominator, also exact.
//! * **Canonical focal sets.** Focal elements are serialized as their
//!   canonical bit patterns (a word count plus little-endian `u64`
//!   words), the same representation
//!   [`FocalSet`] uses in memory — inline
//!   sets write at most two words, wide (>128-value-frame) sets write
//!   their trimmed boxed words.
//!
//! The schema block interns attribute domains: each distinct domain
//! (frame dictionary) is written once and evidential attributes
//! reference it by index, so relations whose attributes share a
//! domain share one dictionary on disk too.
//!
//! **One record decoder.** [`decode_record`] is the only function that
//! reads a tuple record, and it takes a column mask that says, per
//! position, [`Column::Skip`], [`Column::View`] or [`Column::Full`].
//! Every value is self-delimiting (a tag, then a fixed size or its own
//! length/count fields), so a skipped position is walked without being
//! built: tags and bounds are checked exactly as for a built one, but
//! no string is UTF-8-checked, no mass function assembled, no tuple
//! validated. A viewed position is checked and borrowed where it lies
//! ([`View`]). A full scan passes the all-`Full` mask; a selection
//! fused into a stored scan builds the predicate's attributes and
//! decodes in full only what it keeps; a merge's key index views the
//! key positions, and a matched pair under a fused selection views
//! every attribute the predicate does not read. Whatever the mask, a
//! record must be consumed exactly.

use crate::error::StoreError;
pub use evirel_evidence::FocalView;
use evirel_evidence::{FocalSet, MassFunction, Ratio, Weight};
use evirel_relation::{
    AttrDomain, AttrType, AttrValue, Schema, SupportPair, Tuple, Value, ValueKind,
};
use std::sync::Arc;

// ------------------------------------------------------------- cursor

/// A bounds-checked read cursor over encoded bytes.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// Rendered into corruption errors.
    context: &'a str,
}

impl<'a> Cursor<'a> {
    /// A cursor over `data`; `context` labels corruption errors.
    pub fn new(data: &'a [u8], context: &'a str) -> Cursor<'a> {
        Cursor {
            data,
            pos: 0,
            context,
        }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Bytes left to read — the bound decode paths use to cap
    /// pre-allocations sized from untrusted counts.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn corrupt(&self, what: &str) -> StoreError {
        StoreError::corrupt(format!("{}: {what} at offset {}", self.context, self.pos))
    }

    /// The next `n` raw bytes.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| self.corrupt("truncated"))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    ///
    /// # Errors
    /// As [`Cursor::bytes`].
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u16`.
    ///
    /// # Errors
    /// As [`Cursor::bytes`].
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    /// As [`Cursor::bytes`].
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    /// As [`Cursor::bytes`].
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    ///
    /// # Errors
    /// As [`Cursor::bytes`].
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i128`.
    ///
    /// # Errors
    /// As [`Cursor::bytes`].
    pub fn i128(&mut self) -> Result<i128, StoreError> {
        Ok(i128::from_le_bytes(self.bytes(16)?.try_into().unwrap()))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("invalid utf-8"))
    }
}

// ------------------------------------------------------------ writers

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ------------------------------------------------------------ weights

/// A [`Weight`] the binary format can serialize. `f64` masses are the
/// raw IEEE-754 bits; [`Ratio`] masses are the canonical
/// numerator/denominator pair — both round-trip exactly.
pub trait WeightCodec: Weight + Sized {
    /// One-byte discriminant written once per mass function.
    const TAG: u8;

    /// Append the encoded weight.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one weight.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on truncation or invalid payloads.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, StoreError>;

    /// Encoded size in bytes (fixed per weight type).
    fn encoded_len(&self) -> usize;
}

impl WeightCodec for f64 {
    const TAG: u8 = 0;

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.to_bits());
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<f64, StoreError> {
        Ok(f64::from_bits(cur.u64()?))
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

impl WeightCodec for Ratio {
    const TAG: u8 = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.numer().to_le_bytes());
        out.extend_from_slice(&self.denom().to_le_bytes());
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Ratio, StoreError> {
        let num = cur.i128()?;
        let den = cur.i128()?;
        Ratio::new(num, den).map_err(StoreError::from)
    }

    fn encoded_len(&self) -> usize {
        32
    }
}

// --------------------------------------------------------- focal sets

/// Append a focal set as its canonical bit pattern: a `u16` word
/// count followed by that many little-endian `u64` words (trailing
/// zero words trimmed; the empty set writes zero words). A `u16`
/// count supports frames of up to ~4.2 million values — and the
/// count is checked, not truncated, so an outlandish frame fails
/// loudly instead of corrupting the segment.
pub fn encode_focal(set: &FocalSet, out: &mut Vec<u8>) {
    match set.as_bits() {
        Some(bits) => {
            let words = [(bits as u64), ((bits >> 64) as u64)];
            let n = if words[1] != 0 {
                2
            } else {
                usize::from(words[0] != 0)
            };
            put_u16(out, n as u16);
            for w in &words[..n] {
                put_u64(out, *w);
            }
        }
        None => {
            // Boxed set: rebuild the trimmed words from the indices.
            let max = set.max_index().expect("boxed sets are non-empty");
            let n = max / 64 + 1;
            assert!(
                u16::try_from(n).is_ok(),
                "focal set spans {n} words; frames above u16::MAX * 64 values are unsupported"
            );
            let mut words = vec![0u64; n];
            for i in set.iter() {
                words[i / 64] |= 1 << (i % 64);
            }
            put_u16(out, n as u16);
            for w in words {
                put_u64(out, w);
            }
        }
    }
}

/// Encoded size of [`encode_focal`]'s output.
pub fn focal_len(set: &FocalSet) -> usize {
    let words = match set.as_bits() {
        Some(0) => 0,
        Some(bits) if (bits >> 64) == 0 => 1,
        Some(_) => 2,
        None => set.max_index().expect("boxed sets are non-empty") / 64 + 1,
    };
    2 + 8 * words
}

/// Decode one focal set written by [`encode_focal`].
///
/// # Errors
/// [`StoreError::Corrupt`] on truncation.
pub fn decode_focal(cur: &mut Cursor<'_>) -> Result<FocalSet, StoreError> {
    let n = cur.u16()? as usize;
    if n <= 2 {
        let lo = if n > 0 { cur.u64()? } else { 0 } as u128;
        let hi = if n > 1 { cur.u64()? } else { 0 } as u128;
        return Ok(FocalSet::from_bits(lo | (hi << 64)));
    }
    let mut indices = Vec::new();
    for wi in 0..n {
        let mut word = cur.u64()?;
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            indices.push(wi * 64 + b);
        }
    }
    Ok(FocalSet::from_indices(indices))
}

// ------------------------------------------------------ mass functions

/// Append a mass function: the weight tag, the focal count, then
/// `(focal bit pattern, weight)` entries in canonical order.
pub fn encode_mass<W: WeightCodec>(m: &MassFunction<W>, out: &mut Vec<u8>) {
    out.push(W::TAG);
    put_u32(out, m.focal_count() as u32);
    for (set, w) in m.iter() {
        encode_focal(set, out);
        w.encode(out);
    }
}

/// Encoded size of [`encode_mass`]'s output.
pub fn mass_len<W: WeightCodec>(m: &MassFunction<W>) -> usize {
    1 + 4
        + m.iter()
            .map(|(set, w)| focal_len(set) + w.encoded_len())
            .sum::<usize>()
}

/// Decode one mass function over `frame`.
///
/// # Errors
/// [`StoreError::Corrupt`] on truncation or a weight-tag mismatch;
/// mass-function validation errors if the stored entries do not form
/// a valid assignment.
pub fn decode_mass<W: WeightCodec>(
    cur: &mut Cursor<'_>,
    frame: &Arc<evirel_evidence::Frame>,
) -> Result<MassFunction<W>, StoreError> {
    let tag = cur.u8()?;
    if tag != W::TAG {
        return Err(StoreError::corrupt(format!(
            "weight tag {tag} does not match the requested weight type"
        )));
    }
    let count = cur.u32()? as usize;
    // Each entry costs ≥ 10 bytes (2-byte focal word count + 8-byte
    // weight) — cap the pre-allocation so a corrupted count cannot
    // request gigabytes before the truncation error surfaces.
    let mut entries = Vec::with_capacity(count.min(cur.remaining() / 10));
    for _ in 0..count {
        let set = decode_focal(cur)?;
        let w = W::decode(cur)?;
        entries.push((set, w));
    }
    MassFunction::from_entries(Arc::clone(frame), entries).map_err(StoreError::from)
}

// -------------------------------------------------------- scalar values

const VALUE_INT: u8 = 0;
const VALUE_FLOAT: u8 = 1;
const VALUE_STR: u8 = 2;

/// Append a definite scalar value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(VALUE_FLOAT);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_str(out, s);
        }
    }
}

/// Encoded size of [`encode_value`]'s output.
pub fn value_len(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 1 + 4 + s.len(),
    }
}

/// Decode one scalar value.
///
/// # Errors
/// [`StoreError::Corrupt`] on truncation or an unknown tag.
pub fn decode_value(cur: &mut Cursor<'_>) -> Result<Value, StoreError> {
    match cur.u8()? {
        VALUE_INT => Ok(Value::Int(cur.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(f64::from_bits(cur.u64()?))),
        VALUE_STR => Ok(Value::str(cur.str()?)),
        tag => Err(StoreError::corrupt(format!("unknown value tag {tag}"))),
    }
}

fn kind_tag(kind: ValueKind) -> u8 {
    match kind {
        ValueKind::Int => VALUE_INT,
        ValueKind::Float => VALUE_FLOAT,
        ValueKind::Str => VALUE_STR,
    }
}

fn kind_of(tag: u8) -> Result<ValueKind, StoreError> {
    match tag {
        VALUE_INT => Ok(ValueKind::Int),
        VALUE_FLOAT => Ok(ValueKind::Float),
        VALUE_STR => Ok(ValueKind::Str),
        other => Err(StoreError::corrupt(format!("unknown kind tag {other}"))),
    }
}

// ------------------------------------------------------- tuple records

const ATTR_DEFINITE: u8 = 0;
const ATTR_EVIDENTIAL: u8 = 1;

/// Append one tuple record: the membership pair (raw `f64` bits),
/// then one tagged value per attribute in schema order.
pub fn encode_record(tuple: &Tuple, out: &mut Vec<u8>) {
    put_u64(out, tuple.membership().sn().to_bits());
    put_u64(out, tuple.membership().sp().to_bits());
    for value in tuple.values() {
        match value {
            AttrValue::Definite(v) => {
                out.push(ATTR_DEFINITE);
                encode_value(v, out);
            }
            AttrValue::Evidential(m) => {
                out.push(ATTR_EVIDENTIAL);
                encode_mass(m, out);
            }
        }
    }
}

/// Exact encoded size of [`encode_record`]'s output — used by the
/// spill accounting in the plan layer to decide when a build side has
/// outgrown its memory budget without encoding anything twice.
pub fn record_len(tuple: &Tuple) -> usize {
    16 + tuple
        .values()
        .iter()
        .map(|value| {
            1 + match value {
                AttrValue::Definite(v) => value_len(v),
                AttrValue::Evidential(m) => mass_len(m),
            }
        })
        .sum::<usize>()
}

/// What [`decode_record`] makes of one position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Walked by its own length fields, tags and bounds checked, and
    /// not built.
    Skip,
    /// Checked and borrowed where it lies, not built: see [`View`].
    View,
    /// Built.
    Full,
}

/// A position decoded under [`Column::View`].
#[derive(Debug, Clone, Copy)]
pub enum View<'a> {
    /// A definite value's encoding — its tag, then its payload — with a
    /// string UTF-8-checked. `Value`'s equality is bitwise (`total_cmp`
    /// on floats), so equal encodings are equal values.
    Definite(ValueKind, &'a [u8]),
    /// An `f64` mass function's focal entries, which [`FocalView::new`]
    /// accepted: exactly what the full decode would build.
    Evidence(FocalView<'a>),
    /// A mass function [`FocalView::new`] refused: only its full decode
    /// says what it is (a rescaled total, or an error).
    Refused,
}

/// One decoded record: the membership pair, the values of the built
/// positions and the views of the viewed ones, each dense, in schema
/// order.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// The stored `(sn, sp)`.
    pub membership: SupportPair,
    /// One value per [`Column::Full`] position, in schema order.
    pub values: Vec<AttrValue>,
    /// One view per [`Column::View`] position, in schema order.
    pub views: Vec<View<'a>>,
}

impl Record<'_> {
    /// The tuple a record decoded under the all-`Full` mask holds,
    /// revalidated by [`Tuple::new`] — a corrupt record cannot smuggle
    /// an ill-typed tuple into the executor.
    ///
    /// # Errors
    /// Relational validation errors on type mismatches (and on a
    /// record decoded under a narrower mask: its arity is short).
    pub fn into_tuple(self, schema: &Schema) -> Result<Tuple, StoreError> {
        Tuple::new(schema, self.values, self.membership).map_err(StoreError::from)
    }
}

/// Walk over one definite value without building it: tag checked,
/// string bytes skipped by their length field (and UTF-8-checked when
/// `utf8`). Returns the value's kind.
fn skip_value(cur: &mut Cursor<'_>, utf8: bool) -> Result<ValueKind, StoreError> {
    let kind = match cur.u8()? {
        VALUE_INT => ValueKind::Int,
        VALUE_FLOAT => ValueKind::Float,
        VALUE_STR => ValueKind::Str,
        tag => return Err(StoreError::corrupt(format!("unknown value tag {tag}"))),
    };
    match kind {
        ValueKind::Str if utf8 => {
            cur.str()?;
        }
        ValueKind::Str => {
            let len = cur.u32()? as usize;
            cur.bytes(len)?;
        }
        _ => {
            cur.bytes(8)?;
        }
    }
    Ok(kind)
}

/// Walk over one `f64` mass function without building it: weight tag
/// checked, every entry skipped by its own word count. Returns the
/// entry count and the entries' bytes.
fn skip_mass<'a>(cur: &mut Cursor<'a>) -> Result<(usize, &'a [u8]), StoreError> {
    let tag = cur.u8()?;
    if tag != <f64 as WeightCodec>::TAG {
        return Err(StoreError::corrupt(format!(
            "weight tag {tag} does not match the requested weight type"
        )));
    }
    let count = cur.u32()? as usize;
    let start = cur.pos;
    for _ in 0..count {
        let words = cur.u16()? as usize;
        cur.bytes(8 * words + 8)?;
    }
    Ok((count, &cur.data[start..cur.pos]))
}

/// Decode one tuple record — the one record decoder. `record` is
/// exactly one record's bytes (a page's length prefix delimits it),
/// `domains` the per-position evidential domains of its schema, and
/// `mask[pos]` says what becomes of position `pos`: built, skipped
/// (walked by its own length fields, every tag checked), or viewed
/// (walked the same way, a string UTF-8-checked and a mass function's
/// entries checked by [`FocalView::new`], and borrowed). Whatever the
/// mask, the membership pair is validated and the record must be
/// consumed exactly.
///
/// # Errors
/// [`StoreError::Corrupt`] on malformed, truncated or over-long
/// records; mass-function validation errors at built positions.
pub fn decode_record<'a>(
    record: &'a [u8],
    domains: &[Option<Arc<AttrDomain>>],
    mask: &[Column],
) -> Result<Record<'a>, StoreError> {
    let mut cur = Cursor::new(record, "record");
    let cur = &mut cur;
    let sn = f64::from_bits(cur.u64()?);
    let sp = f64::from_bits(cur.u64()?);
    let membership = SupportPair::new(sn, sp)?;
    debug_assert_eq!(mask.len(), domains.len(), "one mask entry per position");
    let count = |column| mask.iter().filter(|&&c| c == column).count();
    let mut values = Vec::with_capacity(count(Column::Full));
    let mut views = Vec::with_capacity(count(Column::View));
    for (pos, (domain, &column)) in domains.iter().zip(mask).enumerate() {
        match (cur.u8()?, column) {
            (ATTR_DEFINITE, Column::Full) => values.push(AttrValue::Definite(decode_value(cur)?)),
            (ATTR_DEFINITE, Column::View) => {
                let start = cur.pos;
                let kind = skip_value(cur, true)?;
                views.push(View::Definite(kind, &cur.data[start..cur.pos]));
            }
            (ATTR_DEFINITE, Column::Skip) => {
                skip_value(cur, false)?;
            }
            (ATTR_EVIDENTIAL, column) => {
                let domain = domain.as_ref().ok_or_else(|| {
                    StoreError::corrupt(format!(
                        "evidential value in definite attribute position {pos}"
                    ))
                })?;
                match column {
                    Column::Full => values.push(AttrValue::Evidential(decode_mass::<f64>(
                        cur,
                        domain.frame(),
                    )?)),
                    Column::View => {
                        let (count, entries) = skip_mass(cur)?;
                        views.push(match FocalView::new(domain.frame(), count, entries) {
                            Some(view) => View::Evidence(view),
                            None => View::Refused,
                        });
                    }
                    Column::Skip => {
                        skip_mass(cur)?;
                    }
                }
            }
            (tag, _) => return Err(StoreError::corrupt(format!("unknown attribute tag {tag}"))),
        }
    }
    if !cur.is_exhausted() {
        return Err(cur.corrupt(&format!("{} trailing bytes", cur.remaining())));
    }
    Ok(Record {
        membership,
        values,
        views,
    })
}

/// Append a key — the values at a schema's key positions — as the key
/// index holds it: each value's encoding ([`encode_value`]) in turn,
/// which is what a record holds at those positions. Encodings are
/// self-delimiting and `Value`'s equality is bitwise, so two keys are
/// equal exactly when their encodings are.
pub fn encode_key(key: &[Value], out: &mut Vec<u8>) {
    for v in key {
        encode_value(v, out);
    }
}

/// The values of a key written by [`encode_key`].
///
/// # Errors
/// [`StoreError::Corrupt`] on malformed bytes.
pub fn decode_key(mut bytes: &[u8]) -> Result<Vec<Value>, StoreError> {
    let mut values = Vec::new();
    while !bytes.is_empty() {
        let mut cur = Cursor::new(bytes, "key");
        values.push(decode_value(&mut cur)?);
        bytes = &bytes[cur.pos..];
    }
    Ok(values)
}

// ------------------------------------------------------- schema block

const TYPE_DEFINITE: u8 = 0;
const TYPE_EVIDENTIAL: u8 = 1;
const FLAG_KEY: u8 = 1;

/// Append the schema block: relation name, the interned domain
/// dictionary (each distinct frame dictionary written once), then the
/// attribute list referencing domains by index.
pub fn encode_schema(schema: &Schema, out: &mut Vec<u8>) {
    put_str(out, schema.name());
    // Intern domains: attributes sharing one `Arc` (or a structurally
    // identical domain) share one dictionary entry.
    let mut domains: Vec<Arc<AttrDomain>> = Vec::new();
    let mut refs: Vec<Option<u16>> = Vec::with_capacity(schema.arity());
    for attr in schema.attrs() {
        refs.push(attr.ty().domain().map(
            |d| match domains.iter().position(|seen| seen.same_as(d)) {
                Some(i) => i as u16,
                None => {
                    domains.push(Arc::clone(d));
                    (domains.len() - 1) as u16
                }
            },
        ));
    }
    put_u16(out, domains.len() as u16);
    for domain in &domains {
        put_str(out, domain.name());
        out.push(kind_tag(domain.kind()));
        put_u32(out, domain.len() as u32);
        for v in domain.values() {
            encode_value(v, out);
        }
    }
    put_u16(out, schema.arity() as u16);
    for (attr, domain_ref) in schema.attrs().iter().zip(refs) {
        put_str(out, attr.name());
        out.push(if attr.is_key() { FLAG_KEY } else { 0 });
        match domain_ref {
            None => {
                out.push(TYPE_DEFINITE);
                let AttrType::Definite(kind) = attr.ty() else {
                    unreachable!("no domain ⇒ definite");
                };
                out.push(kind_tag(*kind));
            }
            Some(i) => {
                out.push(TYPE_EVIDENTIAL);
                put_u16(out, i);
            }
        }
    }
}

/// Per-position evidential domains of a schema, `None` for definite
/// attributes — the decode context tuple records need.
pub type AttrDomains = Vec<Option<Arc<AttrDomain>>>;

/// Decode a schema block written by [`encode_schema`], returning the
/// rebuilt schema plus the per-position evidential domains (shared
/// `Arc`s, interned exactly as written).
///
/// # Errors
/// [`StoreError::Corrupt`] on malformed bytes; schema validation
/// errors.
pub fn decode_schema(cur: &mut Cursor<'_>) -> Result<(Arc<Schema>, AttrDomains), StoreError> {
    let name = cur.str()?.to_owned();
    let domain_count = cur.u16()? as usize;
    let mut domains = Vec::with_capacity(domain_count);
    for _ in 0..domain_count {
        let dname = cur.str()?.to_owned();
        let _kind = kind_of(cur.u8()?)?;
        let value_count = cur.u32()? as usize;
        // Each value costs ≥ 5 bytes (tag + shortest payload) — cap
        // the pre-allocation against the untrusted count.
        let mut values = Vec::with_capacity(value_count.min(cur.remaining() / 5));
        for _ in 0..value_count {
            values.push(decode_value(cur)?);
        }
        domains.push(Arc::new(
            AttrDomain::from_values(&dname, values).map_err(StoreError::from)?,
        ));
    }
    let arity = cur.u16()? as usize;
    let mut builder = Schema::builder(name);
    let mut by_position: AttrDomains = Vec::with_capacity(arity);
    for _ in 0..arity {
        let attr_name = cur.str()?.to_owned();
        let is_key = cur.u8()? & FLAG_KEY != 0;
        match cur.u8()? {
            TYPE_DEFINITE => {
                let kind = kind_of(cur.u8()?)?;
                builder = if is_key {
                    builder.key(attr_name, kind)
                } else {
                    builder.definite(attr_name, kind)
                };
                by_position.push(None);
            }
            TYPE_EVIDENTIAL => {
                let i = cur.u16()? as usize;
                let domain = domains.get(i).ok_or_else(|| {
                    StoreError::corrupt(format!("domain reference {i} out of range"))
                })?;
                builder = builder.evidential(attr_name, Arc::clone(domain));
                by_position.push(Some(Arc::clone(domain)));
            }
            tag => return Err(StoreError::corrupt(format!("unknown type tag {tag}"))),
        }
    }
    let schema = Arc::new(builder.build().map_err(StoreError::from)?);
    Ok((schema, by_position))
}

/// The per-position evidential domains of an already-built schema —
/// what [`decode_schema`] returns, extracted from a live schema so
/// spill segments can decode against the executor's own domain
/// `Arc`s (pointer-identical frames, no structural re-checks).
pub fn domains_of(schema: &Schema) -> Vec<Option<Arc<AttrDomain>>> {
    schema
        .attrs()
        .iter()
        .map(|attr| attr.ty().domain().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evirel_evidence::{Entries, Frame};
    use proptest::prelude::*;

    fn frame() -> Arc<Frame> {
        Arc::new(Frame::new("f", ["a", "b", "c", "d"]))
    }

    #[test]
    fn focal_roundtrip_inline_and_boxed() {
        for set in [
            FocalSet::empty(),
            FocalSet::singleton(0),
            FocalSet::singleton(63),
            FocalSet::singleton(127),
            FocalSet::from_indices([1, 5, 100]),
            FocalSet::from_indices([3, 150, 400]),
            FocalSet::full(200),
        ] {
            let mut buf = Vec::new();
            encode_focal(&set, &mut buf);
            assert_eq!(buf.len(), focal_len(&set), "{set:?}");
            let mut cur = Cursor::new(&buf, "test");
            let back = decode_focal(&mut cur).unwrap();
            assert_eq!(back, set);
            assert!(cur.is_exhausted());
        }
    }

    #[test]
    fn mass_roundtrip_f64_is_bit_exact() {
        let m = MassFunction::<f64>::builder(frame())
            .add(["a"], 1.0 / 3.0)
            .unwrap()
            .add(["b", "c"], 0.25)
            .unwrap()
            .add_omega(1.0 - 1.0 / 3.0 - 0.25)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        encode_mass(&m, &mut buf);
        assert_eq!(buf.len(), mass_len(&m));
        let mut cur = Cursor::new(&buf, "test");
        let back = decode_mass::<f64>(&mut cur, &frame()).unwrap();
        // Exact equality, not approx: raw bits round-trip.
        assert_eq!(back, m);
    }

    #[test]
    fn mass_roundtrip_ratio_is_exact() {
        let r = |n, d| Ratio::new(n, d).unwrap();
        let m = MassFunction::<Ratio>::builder(frame())
            .add(["a"], r(1, 3))
            .unwrap()
            .add(["b", "c"], r(1, 4))
            .unwrap()
            .add_omega(r(5, 12))
            .build()
            .unwrap();
        let mut buf = Vec::new();
        encode_mass(&m, &mut buf);
        let mut cur = Cursor::new(&buf, "test");
        let back = decode_mass::<Ratio>(&mut cur, &frame()).unwrap();
        assert_eq!(back, m);
        // Requesting the wrong weight type is detected, not garbled.
        let mut cur = Cursor::new(&buf, "test");
        assert!(matches!(
            decode_mass::<f64>(&mut cur, &frame()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            Value::int(-42),
            Value::int(i64::MAX),
            Value::float(0.1 + 0.2), // a value that does NOT print exactly
            Value::float(f64::MIN_POSITIVE),
            Value::str(""),
            Value::str("snow ☃ man | with, separators"),
        ] {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            assert_eq!(buf.len(), value_len(&v));
            let mut cur = Cursor::new(&buf, "test");
            assert_eq!(decode_value(&mut cur).unwrap(), v);
        }
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        encode_value(&Value::str("hello"), &mut buf);
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut], "test");
            assert!(decode_value(&mut cur).is_err(), "cut at {cut}");
        }
    }

    /// Every kind of attribute value a record can hold: string key,
    /// int/float/string definite, evidence over a small frame, over a
    /// frame wide enough for boxed focal sets, and a definite value in
    /// an evidential attribute.
    fn record_schema() -> Arc<Schema> {
        let small = Arc::new(AttrDomain::categorical("small", ["a", "b", "c", "d", "e"]).unwrap());
        let wide = Arc::new(AttrDomain::integers("wide", 0, 199).unwrap());
        Arc::new(
            Schema::builder("T")
                .key_str("k")
                .definite("n", ValueKind::Int)
                .definite("x", ValueKind::Float)
                .definite("s", ValueKind::Str)
                .evidential("e", Arc::clone(&small))
                .evidential("w", wide)
                .evidential("d", small)
                .build()
                .unwrap(),
        )
    }

    /// Drawn `(indices, weight)` entries as a mass function (equal
    /// focal sets pool their weight).
    fn mass_of(domain: &AttrDomain, entries: &[(Vec<usize>, u32)]) -> AttrValue {
        let mut pooled = std::collections::BTreeMap::new();
        for (indices, w) in entries {
            let set: std::collections::BTreeSet<usize> =
                indices.iter().map(|i| i % domain.len()).collect();
            *pooled.entry(set).or_insert(0u32) += w;
        }
        let total: u32 = pooled.values().sum();
        let entries = pooled
            .into_iter()
            .map(|(set, w)| (FocalSet::from_indices(set), f64::from(w) / f64::from(total)));
        AttrValue::Evidential(
            MassFunction::from_entries(Arc::clone(domain.frame()), entries).unwrap(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The one decoder under every mask: built positions equal the
        /// full decode's values bit for bit, a viewed one is what the
        /// full decode built, unbuilt — a definite value's encoding, a
        /// mass function's entries, refused over a frame wider than 128
        /// values — the record is consumed to the same (final) offset —
        /// one byte more is corruption — and a record cut short
        /// anywhere is `Corrupt`, whatever the mask skips or views.
        #[test]
        fn every_mask_agrees_with_the_full_decode(
            scalars in (0u32..100_000, -1_000_000i64..1_000_000, -1000i64..1000, 0usize..40),
            e in proptest::collection::vec((proptest::collection::vec(0usize..5, 1..4), 1u32..50), 1..4),
            w in proptest::collection::vec((proptest::collection::vec(0usize..200, 1..5), 1u32..50), 1..5),
            d in 0usize..5,
            membership in (0u32..=100, 0u32..=100),
        ) {
            let (key, n, x, s_len) = scalars;
            let (sn, sp) = membership;
            let schema = record_schema();
            let domain = |pos: usize| schema.attr(pos).ty().domain().unwrap();
            let (sn, sp) = (f64::from(sn.min(sp)) / 100.0, f64::from(sn.max(sp)) / 100.0);
            let tuple = Tuple::new(
                &schema,
                vec![
                    AttrValue::Definite(Value::str(format!("key-{key}"))),
                    AttrValue::Definite(Value::int(n)),
                    AttrValue::Definite(Value::float(x as f64 / 7.0)),
                    AttrValue::Definite(Value::str("☃".repeat(s_len))),
                    mass_of(domain(4), &e),
                    mass_of(domain(5), &w),
                    AttrValue::Definite(domain(6).value(d).unwrap().clone()),
                ],
                SupportPair::new(sn, sp).unwrap(),
            )
            .unwrap();
            let mut buf = Vec::new();
            encode_record(&tuple, &mut buf);
            prop_assert_eq!(buf.len(), record_len(&tuple));

            let domains = domains_of(&schema);
            let arity = schema.arity();
            let full = decode_record(&buf, &domains, &vec![Column::Full; arity]).unwrap();
            prop_assert_eq!(&full.clone().into_tuple(&schema).unwrap(), &tuple);
            let mut long = buf.clone();
            long.push(0);

            for (bits, rest) in (0u32..1 << arity).flat_map(|bits| [(bits, Column::Skip), (bits, Column::View)]) {
                let mask: Vec<Column> = (0..arity)
                    .map(|pos| if bits >> pos & 1 == 1 { Column::Full } else { rest })
                    .collect();
                let got = decode_record(&buf, &domains, &mask).unwrap();
                let of = |column: Column| {
                    full.values.iter().zip(&mask).filter(move |(_, &c)| c == column).map(|(v, _)| v)
                };
                let want: Vec<AttrValue> = of(Column::Full).cloned().collect();
                prop_assert_eq!(&got.values, &want, "mask {:?}", &mask);
                prop_assert_eq!(got.views.len(), of(Column::View).count());
                for (view, value) in got.views.iter().zip(of(Column::View)) {
                    let same = match (view, value) {
                        (View::Definite(kind, bytes), AttrValue::Definite(v)) => {
                            let mut encoded = Vec::new();
                            encode_value(v, &mut encoded);
                            *kind == v.kind() && *bytes == &encoded[..]
                        }
                        (View::Evidence(view), AttrValue::Evidential(m)) => view
                            .bits()
                            .eq(m.iter().map(|(s, w)| (s.as_bits().unwrap(), *w))),
                        (View::Refused, AttrValue::Evidential(m)) => m.frame().len() > 128,
                        _ => false,
                    };
                    prop_assert!(same, "{:?} viewed as {:?}", value, view);
                }
                prop_assert_eq!(got.membership.sn().to_bits(), tuple.membership().sn().to_bits());
                prop_assert_eq!(got.membership.sp().to_bits(), tuple.membership().sp().to_bits());
                prop_assert!(
                    matches!(decode_record(&long, &domains, &mask), Err(StoreError::Corrupt { .. })),
                    "trailing byte accepted under mask {:?}", &mask
                );
                for cut in 0..buf.len() {
                    prop_assert!(
                        matches!(
                            decode_record(&buf[..cut], &domains, &mask),
                            Err(StoreError::Corrupt { .. })
                        ),
                        "cut at {} accepted under mask {:?}", cut, &mask
                    );
                }
            }
        }
    }

    /// A skipped position is still tag-checked: a bad attribute, value
    /// or weight tag is `Corrupt` under the empty mask too.
    #[test]
    fn skipped_positions_are_tag_checked() {
        let schema = record_schema();
        let domains = domains_of(&schema);
        for rest in [Column::Skip, Column::View] {
            skipped_or_viewed_positions_are_tag_checked(&domains, &vec![rest; schema.arity()]);
        }
    }

    fn skipped_or_viewed_positions_are_tag_checked(
        domains: &[Option<Arc<AttrDomain>>],
        none: &[Column],
    ) {
        let record = |values: &[&[u8]]| {
            let mut buf = vec![0u8; 16];
            buf[..8].copy_from_slice(&1f64.to_bits().to_le_bytes());
            buf[8..16].copy_from_slice(&1f64.to_bits().to_le_bytes());
            for v in values {
                buf.extend_from_slice(v);
            }
            buf
        };
        for bad in [
            &[7u8][..],                        // unknown attribute tag
            &[ATTR_DEFINITE, 9],               // unknown value tag
            &[ATTR_EVIDENTIAL, 0, 0, 0, 0, 0], // evidence in a definite position
        ] {
            assert!(matches!(
                decode_record(&record(&[bad]), domains, none),
                Err(StoreError::Corrupt { .. })
            ));
        }
        // Position 4 is evidential: a Ratio weight tag there is refused.
        let int = [ATTR_DEFINITE, VALUE_INT, 0, 0, 0, 0, 0, 0, 0, 0];
        let bad_weight = [ATTR_EVIDENTIAL, 1, 0, 0, 0, 0];
        assert!(matches!(
            decode_record(
                &record(&[&int, &int, &int, &int, &bad_weight]),
                domains,
                none
            ),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn schema_block_interns_shared_domains() {
        let d = Arc::new(AttrDomain::categorical("spec", ["x", "y"]).unwrap());
        let schema = Schema::builder("R")
            .key_str("k")
            .definite("n", ValueKind::Int)
            .evidential("e1", Arc::clone(&d))
            .evidential("e2", Arc::clone(&d))
            .build()
            .unwrap();
        let mut buf = Vec::new();
        encode_schema(&schema, &mut buf);
        let mut cur = Cursor::new(&buf, "test");
        let (back, domains) = decode_schema(&mut cur).unwrap();
        assert!(cur.is_exhausted());
        assert_eq!(back.name(), "R");
        assert_eq!(back.arity(), 4);
        assert!(back.attr(0).is_key());
        // Both evidential attributes decode to ONE shared Arc.
        let d1 = domains[2].as_ref().unwrap();
        let d2 = domains[3].as_ref().unwrap();
        assert!(Arc::ptr_eq(d1, d2));
        assert!(d1.same_as(&d));
        // And the rebuilt schema is union-compatible with the original.
        schema.check_union_compatible(&back).unwrap();
    }
}
