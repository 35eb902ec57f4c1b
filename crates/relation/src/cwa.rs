//! The generalized closed-world assumption CWA_ER (§2.3).
//!
//! Traditional relations interpret absent facts as false (CWA). With
//! graded membership `(sn, sp)` that dichotomy no longer fits, and the
//! paper weighs two generalizations:
//!
//! 1. *absent ⇒ (0, 1)* — complete ignorance. Rejected: relations
//!    would have to store tuples known **not** to hold (membership
//!    `(0,0)`), e.g. closed restaurants, burdening storage and query
//!    processing.
//! 2. *absent ⇒ sn = 0* — no necessary support. **Chosen** (CWA_ER):
//!    a tuple is stored iff there is positive evidence for its
//!    membership, i.e. `sn > 0`; an absent tuple implicitly carries
//!    `(0, sp)` for some unknown `sp ≤ 1`. Standard CWA is the special
//!    case `sn = sp = 0`.
//!
//! Consequently every extended operation must guarantee the *closure*
//! property (results only contain `sn > 0` tuples) and the
//! *boundedness* property (evaluating over complements adds nothing),
//! which together keep query processing finite (§3.6). The verifiers
//! for those properties live in `evirel-algebra::properties`; this
//! module provides the storage-side enforcement and the membership
//! interpretation of absent tuples.

use crate::membership::SupportPair;
use crate::relation::ExtendedRelation;
use crate::value::Value;

/// Storage policy for tuple insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CwaPolicy {
    /// Enforce CWA_ER: reject tuples with `sn = 0`. The default.
    Enforce,
    /// Admit zero-support tuples: to materialize complement relations
    /// inside the boundedness-property verifier, and to pass on an
    /// input's tuples unchanged (renaming, integration preprocessing).
    AllowZero,
}

/// The membership the model ascribes to a key under CWA_ER: the stored
/// pair when present, and `(0, 1)` (no necessary support, unknown
/// possibility) when absent.
pub fn membership_under_cwa(relation: &ExtendedRelation, key: &[Value]) -> SupportPair {
    match relation.get_by_key(key) {
        Some(t) => t.membership(),
        None => SupportPair::unknown(),
    }
}

/// `true` if the relation satisfies CWA_ER (every stored tuple has
/// `sn > 0`).
pub fn satisfies_cwa(relation: &ExtendedRelation) -> bool {
    relation.iter().all(|t| t.membership().is_positive())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::AttrDomain;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::ValueKind;
    use evirel_evidence::MassFunction;
    use std::sync::Arc;

    fn relation_with(sn: f64, sp: f64, policy: CwaPolicy) -> ExtendedRelation {
        let domain = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let schema = Arc::new(
            Schema::builder("r")
                .key_str("k")
                .definite("n", ValueKind::Int)
                .evidential("d", Arc::clone(&domain))
                .build()
                .unwrap(),
        );
        let mut r = ExtendedRelation::new(Arc::clone(&schema));
        let t = Tuple::new(
            &schema,
            vec![
                Value::str("a").into(),
                Value::int(0).into(),
                MassFunction::<f64>::vacuous(Arc::clone(domain.frame()))
                    .unwrap()
                    .into(),
            ],
            SupportPair::new(sn, sp).unwrap(),
        )
        .unwrap();
        r.insert_with_policy(t, policy).unwrap();
        r
    }

    #[test]
    fn absent_tuples_have_unknown_membership() {
        let r = relation_with(1.0, 1.0, CwaPolicy::Enforce);
        let absent = membership_under_cwa(&r, &[Value::str("zz")]);
        assert!(absent.approx_eq(&SupportPair::unknown()));
        let present = membership_under_cwa(&r, &[Value::str("a")]);
        assert!(present.is_certain());
    }

    #[test]
    fn satisfies_cwa_checks_all_tuples() {
        assert!(satisfies_cwa(&relation_with(0.5, 0.6, CwaPolicy::Enforce)));
        assert!(!satisfies_cwa(&relation_with(
            0.0,
            0.6,
            CwaPolicy::AllowZero
        )));
    }
}
