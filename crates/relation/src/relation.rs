//! Keyed extended relations.

use crate::cwa::CwaPolicy;
use crate::error::RelationError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// An extended relation: a schema, an extension (set of tuples keyed
/// by their definite key values), and the CWA_ER invariant that every
/// stored tuple has `sn > 0`.
///
/// Tuples are stored behind [`Arc`] so streaming operators can pass
/// unmodified tuples through whole pipelines — and into result
/// relations — without deep-copying attribute values (copy-on-write:
/// only an operator that actually revises a tuple pays for a copy).
#[derive(Debug, Clone)]
pub struct ExtendedRelation {
    schema: Arc<Schema>,
    tuples: Vec<Arc<Tuple>>,
    key_index: HashMap<Vec<Value>, usize>,
}

impl ExtendedRelation {
    /// An empty relation over `schema`.
    pub fn new(schema: Arc<Schema>) -> ExtendedRelation {
        ExtendedRelation {
            schema,
            tuples: Vec::new(),
            key_index: HashMap::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the extension is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple, enforcing CWA_ER (`sn > 0`) and key uniqueness.
    ///
    /// # Errors
    /// * [`RelationError::CwaViolation`] if `sn == 0`;
    /// * [`RelationError::DuplicateKey`] if the key already exists;
    /// * validation errors from [`Tuple::new`] if the tuple was not
    ///   built against this relation's schema (call sites constructing
    ///   raw tuples should prefer [`crate::builder::RelationBuilder`]).
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), RelationError> {
        self.insert_with_policy(tuple, CwaPolicy::Enforce)
    }

    /// Insert an already-shared tuple without copying it — the
    /// zero-copy path streaming operators use for tuples that pass
    /// through a pipeline unmodified.
    ///
    /// # Errors
    /// As [`ExtendedRelation::insert`].
    pub fn insert_shared(&mut self, tuple: Arc<Tuple>) -> Result<(), RelationError> {
        self.insert_shared_with_policy(tuple, CwaPolicy::Enforce)
    }

    /// Insert with an explicit [`CwaPolicy`]. `CwaPolicy::AllowZero`
    /// is for the boundedness-property verifier, which must
    /// materialize complement tuples with `sn = 0` (§3.6), and for
    /// steps that pass on the tuples their input holds (renaming,
    /// integration preprocessing); a new tuple goes through
    /// [`ExtendedRelation::insert`].
    ///
    /// # Errors
    /// As [`ExtendedRelation::insert`], minus the CWA check when the
    /// policy allows zero-support tuples.
    pub fn insert_with_policy(
        &mut self,
        tuple: Tuple,
        policy: CwaPolicy,
    ) -> Result<(), RelationError> {
        self.insert_shared_with_policy(Arc::new(tuple), policy)
    }

    fn insert_shared_with_policy(
        &mut self,
        tuple: Arc<Tuple>,
        policy: CwaPolicy,
    ) -> Result<(), RelationError> {
        if policy == CwaPolicy::Enforce && !tuple.membership().is_positive() {
            return Err(RelationError::CwaViolation);
        }
        let key = tuple.key(&self.schema);
        if self.key_index.contains_key(&key) {
            return Err(RelationError::DuplicateKey {
                key: Value::render_key(&key),
            });
        }
        self.key_index.insert(key, self.tuples.len());
        self.tuples.push(tuple);
        Ok(())
    }

    /// Look up a tuple by its key values.
    pub fn get_by_key(&self, key: &[Value]) -> Option<&Tuple> {
        self.key_index.get(key).map(|&i| self.tuples[i].as_ref())
    }

    /// The tuple at insertion position `idx`, if any — constant-time
    /// cursor access for streaming scan operators.
    pub fn get(&self, idx: usize) -> Option<&Tuple> {
        self.tuples.get(idx).map(|t| t.as_ref())
    }

    /// Shared handle to the tuple at insertion position `idx` —
    /// lets scan operators emit without deep-copying.
    pub fn get_shared(&self, idx: usize) -> Option<Arc<Tuple>> {
        self.tuples.get(idx).cloned()
    }

    /// Shared handle to the tuple with the given key.
    pub fn get_shared_by_key(&self, key: &[Value]) -> Option<Arc<Tuple>> {
        self.key_index
            .get(key)
            .map(|&i| Arc::clone(&self.tuples[i]))
    }

    /// `true` if a tuple with this key is stored.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.key_index.contains_key(key)
    }

    /// Iterate over the stored tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter().map(|t| t.as_ref())
    }

    /// Iterate over `(key, tuple)` pairs in insertion order.
    pub fn iter_keyed(&self) -> impl Iterator<Item = (Vec<Value>, &Tuple)> + '_ {
        self.tuples
            .iter()
            .map(|t| (t.key(&self.schema), t.as_ref()))
    }

    /// Iterate over `(key, shared handle)` pairs in insertion order —
    /// the zero-copy companion of [`ExtendedRelation::iter_keyed`] for
    /// operators that pass unmodified tuples through to an output
    /// relation (set operations, the sequential ∪̃).
    pub fn iter_keyed_shared(&self) -> impl Iterator<Item = (Vec<Value>, &Arc<Tuple>)> + '_ {
        self.tuples.iter().map(|t| (t.key(&self.schema), t))
    }

    /// The keys of all stored tuples, in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.tuples.iter().map(|t| t.key(&self.schema))
    }

    /// Validate every stored tuple against the schema and the CWA_ER
    /// invariant — a consistency audit used after bulk operations and
    /// in tests.
    ///
    /// # Errors
    /// The first violation found.
    pub fn validate(&self) -> Result<(), RelationError> {
        for t in &self.tuples {
            // Re-validate attribute typing.
            Tuple::new(&self.schema, t.values().to_vec(), t.membership())?;
            if !t.membership().is_positive() {
                return Err(RelationError::CwaViolation);
            }
        }
        Ok(())
    }

    /// Structural comparison up to `f64` tolerance and tuple order:
    /// same schema name/arity, same key set, approximately equal
    /// tuples per key.
    pub fn approx_eq(&self, other: &ExtendedRelation) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.iter_keyed()
            .all(|(key, t)| other.get_by_key(&key).is_some_and(|o| o.approx_eq(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::AttrDomain;
    use crate::membership::SupportPair;
    use crate::value::ValueKind;
    use evirel_evidence::MassFunction;

    fn domain() -> Arc<AttrDomain> {
        Arc::new(AttrDomain::categorical("spec", ["am", "hu", "si"]).unwrap())
    }

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder("r")
                .key_str("name")
                .definite("bldg", ValueKind::Int)
                .evidential("spec", domain())
                .build()
                .unwrap(),
        )
    }

    fn tuple(name: &str, sn: f64, sp: f64) -> Tuple {
        Tuple::new(
            &schema(),
            vec![
                Value::str(name).into(),
                Value::int(1).into(),
                MassFunction::<f64>::vacuous(Arc::clone(domain().frame()))
                    .unwrap()
                    .into(),
            ],
            SupportPair::new(sn, sp).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut r = ExtendedRelation::new(schema());
        assert!(r.is_empty());
        r.insert(tuple("wok", 1.0, 1.0)).unwrap();
        r.insert(tuple("garden", 0.5, 0.75)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains_key(&[Value::str("wok")]));
        let t = r.get_by_key(&[Value::str("garden")]).unwrap();
        assert!((t.membership().sn() - 0.5).abs() < 1e-12);
        assert!(r.get_by_key(&[Value::str("nope")]).is_none());
    }

    #[test]
    fn cwa_enforced() {
        let mut r = ExtendedRelation::new(schema());
        let err = r.insert(tuple("ghost", 0.0, 1.0));
        assert!(matches!(err, Err(RelationError::CwaViolation)));
        // …but the boundedness verifier can opt out.
        r.insert_with_policy(tuple("ghost", 0.0, 1.0), CwaPolicy::AllowZero)
            .unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.validate().is_err());
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut r = ExtendedRelation::new(schema());
        r.insert(tuple("wok", 1.0, 1.0)).unwrap();
        let err = r.insert(tuple("wok", 0.5, 0.5));
        assert!(matches!(err, Err(RelationError::DuplicateKey { .. })));
    }

    #[test]
    fn iteration() {
        let mut r = ExtendedRelation::new(schema());
        r.insert(tuple("a", 1.0, 1.0)).unwrap();
        r.insert(tuple("b", 1.0, 1.0)).unwrap();
        assert_eq!(r.iter().count(), 2);
        let keys: Vec<_> = r.keys().collect();
        assert_eq!(keys, vec![vec![Value::str("a")], vec![Value::str("b")]]);
        let keyed: Vec<_> = r.iter_keyed().map(|(k, _)| k).collect();
        assert_eq!(keyed.len(), 2);
    }

    #[test]
    fn validate_passes_for_good_relation() {
        let mut r = ExtendedRelation::new(schema());
        r.insert(tuple("a", 0.7, 0.9)).unwrap();
        assert!(r.validate().is_ok());
    }

    #[test]
    fn approx_eq_ignores_order() {
        let mut r1 = ExtendedRelation::new(schema());
        r1.insert(tuple("a", 1.0, 1.0)).unwrap();
        r1.insert(tuple("b", 0.5, 0.5)).unwrap();
        let mut r2 = ExtendedRelation::new(schema());
        r2.insert(tuple("b", 0.5, 0.5)).unwrap();
        r2.insert(tuple("a", 1.0, 1.0)).unwrap();
        assert!(r1.approx_eq(&r2));
        let mut r3 = ExtendedRelation::new(schema());
        r3.insert(tuple("a", 1.0, 1.0)).unwrap();
        assert!(!r1.approx_eq(&r3));
    }
}
