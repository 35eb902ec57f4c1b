//! Extended selection σ̃ (§3.1).
//!
//! ```text
//! σ̃QP(R) = { (r.Ã, t_TM) | r ∈ R ∧ t_TM = F_TM(r.(sn,sp), F_SS(r, P)) ∧ Q(t_TM) }
//! ```
//!
//! For each tuple: evaluate the selection condition's support
//! `F_SS(r, P)` (see [`crate::support`]), derive the revised
//! membership with the multiplicative `F_TM` (§3.1.2, independent
//! events), and keep the tuple iff the membership threshold `Q`
//! admits the revised pair. Original attribute values are **retained**
//! (footnote 4: unlike DeMichiel's approach, selection does not modify
//! attribute values).

use crate::error::AlgebraError;
use crate::predicate::Predicate;
use crate::support::BoundPredicate;
use crate::threshold::Threshold;
use evirel_relation::ExtendedRelation;
use std::sync::Arc;

/// Apply the extended selection to `rel`.
///
/// # Errors
/// * [`AlgebraError::ThresholdNotPositive`] if `Q` could admit tuples
///   with `sn = 0`;
/// * predicate-evaluation errors from [`BoundPredicate::support`].
pub fn select(
    rel: &ExtendedRelation,
    pred: &Predicate,
    threshold: &Threshold,
) -> Result<ExtendedRelation, AlgebraError> {
    if !threshold.ensures_positive_support() {
        return Err(AlgebraError::ThresholdNotPositive {
            threshold: threshold.to_string(),
        });
    }
    let schema = rel.schema();
    let out_schema = Arc::new(schema.renamed(format!("σ({})", schema.name())));
    let mut out = ExtendedRelation::new(Arc::clone(&out_schema));
    let bound = BoundPredicate::bind(schema, pred);
    for tuple in rel.iter() {
        let fss = bound.support(tuple)?;
        // F_TM: selection support and original membership are
        // independent events (§3.1.2).
        let revised = tuple.membership().and_independent(&fss);
        if threshold.admits(&revised) && revised.is_positive() {
            out.insert(tuple.with_membership(revised))
                .map_err(AlgebraError::Relation)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Operand, ThetaOp};
    use evirel_relation::{AttrDomain, RelationBuilder, Schema, SupportPair, Value, ValueKind};

    fn speciality_domain() -> Arc<AttrDomain> {
        Arc::new(
            AttrDomain::categorical("speciality", ["am", "hu", "si", "ca", "mu", "it", "ta"])
                .unwrap(),
        )
    }

    fn rating_domain() -> Arc<AttrDomain> {
        Arc::new(AttrDomain::categorical("rating", ["avg", "gd", "ex"]).unwrap())
    }

    /// A three-tuple slice of the paper's R_A (garden, wok, ashiana).
    fn ra() -> ExtendedRelation {
        let schema = Arc::new(
            Schema::builder("RA")
                .key_str("rname")
                .definite("bldg", ValueKind::Int)
                .evidential("speciality", speciality_domain())
                .evidential("rating", rating_domain())
                .build()
                .unwrap(),
        );
        RelationBuilder::new(schema)
            .tuple(|t| {
                t.set_str("rname", "garden")
                    .set_int("bldg", 2011)
                    .set_evidence_with_omega(
                        "speciality",
                        [(&["si"][..], 0.5), (&["hu"][..], 0.25)],
                        0.25,
                    )
                    .set_evidence(
                        "rating",
                        [
                            (&["ex"][..], 0.33),
                            (&["gd"][..], 0.5),
                            (&["avg"][..], 0.17),
                        ],
                    )
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("rname", "wok")
                    .set_int("bldg", 600)
                    .set_evidence("speciality", [(&["si"][..], 1.0)])
                    .set_evidence("rating", [(&["gd"][..], 0.25), (&["avg"][..], 0.75)])
            })
            .unwrap()
            .tuple(|t| {
                t.set_str("rname", "ashiana")
                    .set_int("bldg", 353)
                    .set_evidence_with_omega("speciality", [(&["mu"][..], 0.9)], 0.1)
                    .set_evidence("rating", [(&["ex"][..], 1.0)])
            })
            .unwrap()
            .build()
    }

    /// Table 2: σ̃_{sn>0, speciality is {si}} keeps garden at
    /// (0.5, 0.75) and wok at (1,1); ashiana (sn = 0) is dropped.
    #[test]
    fn paper_table2_selection() {
        let result = select(
            &ra(),
            &Predicate::is("speciality", ["si"]),
            &Threshold::POSITIVE,
        )
        .unwrap();
        assert_eq!(result.len(), 2);
        let garden = result.get_by_key(&[Value::str("garden")]).unwrap();
        assert!(garden
            .membership()
            .approx_eq(&SupportPair::new(0.5, 0.75).unwrap()));
        let wok = result.get_by_key(&[Value::str("wok")]).unwrap();
        assert!(wok.membership().is_certain());
        assert!(result.get_by_key(&[Value::str("ashiana")]).is_none());
    }

    /// Attribute values are retained in the selection result
    /// (footnote 4).
    #[test]
    fn selection_retains_attribute_values() {
        let input = ra();
        let result = select(
            &input,
            &Predicate::is("speciality", ["si"]),
            &Threshold::POSITIVE,
        )
        .unwrap();
        let orig = input.get_by_key(&[Value::str("garden")]).unwrap();
        let got = result.get_by_key(&[Value::str("garden")]).unwrap();
        assert_eq!(orig.values(), got.values());
    }

    /// Table 3 shape: compound predicate with the multiplicative rule,
    /// then F_TM against the original membership.
    #[test]
    fn paper_table3_compound_selection() {
        let result = select(
            &ra(),
            &Predicate::is("speciality", ["mu"]).and(Predicate::is("rating", ["ex"])),
            &Threshold::POSITIVE,
        )
        .unwrap();
        assert_eq!(result.len(), 1);
        let ashiana = result.get_by_key(&[Value::str("ashiana")]).unwrap();
        // F_SS = (0.9, 1.0) × (1, 1) = (0.9, 1.0); membership (1,1).
        assert!(ashiana
            .membership()
            .approx_eq(&SupportPair::new(0.9, 1.0).unwrap()));
    }

    #[test]
    fn definite_threshold_selects_certain_only() {
        let result = select(
            &ra(),
            &Predicate::is("speciality", ["si"]),
            &Threshold::Definite,
        )
        .unwrap();
        assert_eq!(result.len(), 1);
        assert!(result.contains_key(&[Value::str("wok")]));
    }

    #[test]
    fn theta_predicate_selection() {
        // rating >= gd with threshold sn >= 0.5.
        let result = select(
            &ra(),
            &Predicate::theta(Operand::attr("rating"), ThetaOp::Ge, Operand::value("gd")),
            &Threshold::SnAtLeast(0.5),
        )
        .unwrap();
        // garden: 0.83; wok: 0.25 (dropped); ashiana: 1.0.
        assert_eq!(result.len(), 2);
        assert!(result.contains_key(&[Value::str("garden")]));
        assert!(result.contains_key(&[Value::str("ashiana")]));
    }

    #[test]
    fn bad_threshold_rejected() {
        let err = select(
            &ra(),
            &Predicate::is("speciality", ["si"]),
            &Threshold::SnAtLeast(0.0),
        );
        assert!(matches!(
            err,
            Err(AlgebraError::ThresholdNotPositive { .. })
        ));
    }

    #[test]
    fn selection_result_satisfies_cwa() {
        let result = select(
            &ra(),
            &Predicate::is("speciality", ["si", "mu"]),
            &Threshold::POSITIVE,
        )
        .unwrap();
        assert!(evirel_relation::cwa::satisfies_cwa(&result));
        assert!(result.validate().is_ok());
    }

    #[test]
    fn empty_selection_is_fine() {
        let result = select(
            &ra(),
            &Predicate::is("speciality", ["it"]),
            &Threshold::POSITIVE,
        )
        .unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn result_schema_is_renamed_copy() {
        let result = select(
            &ra(),
            &Predicate::is("speciality", ["si"]),
            &Threshold::POSITIVE,
        )
        .unwrap();
        assert_eq!(result.schema().name(), "σ(RA)");
        assert_eq!(result.schema().arity(), ra().schema().arity());
    }
}
