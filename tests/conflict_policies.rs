//! Total conflict (κ = 1) under each `ConflictPolicy`: what ∪̃ resolves
//! it to on an evidential attribute, a definite attribute and the
//! membership pair, and that the integration pipeline's registry merge
//! resolves it through the same kernel.

use evirel::algebra::union::{union_with, UnionOptions};
use evirel::integrate::IntegrateError;
use evirel::prelude::*;
use evirel_testkit::{config, definite_pair, hazardous_pair, identical, same_report, OrFail};
use std::sync::Arc;

const ALL: [ConflictPolicy; 4] = [
    ConflictPolicy::Error,
    ConflictPolicy::KeepLeft,
    ConflictPolicy::KeepRight,
    ConflictPolicy::Vacuous,
];

fn options(policy: ConflictPolicy) -> UnionOptions {
    UnionOptions {
        on_total_conflict: policy,
    }
}

/// The kit's `definite_pair(0)` meets each kind of total conflict once:
/// `b` on the definite `n`, `c` on `e0`, `d` on `e1`, `m` on the
/// membership pair (`(1, 1)` on the left, `(0, 0)` on the right). Each
/// non-error policy reports all four as total and resolves them as
/// `ConflictPolicy`'s docs say.
#[test]
fn each_policy_resolves_each_kind_of_total_conflict() {
    let (l, r) = definite_pair(0);
    let at = |rel: &ExtendedRelation, k: &str, pos: usize| -> AttrValue {
        rel.get_by_key(&[Value::str(k)]).unwrap().value(pos).clone()
    };
    let err = union_with(&l, &r, &options(ConflictPolicy::Error)).unwrap_err();
    assert!(err.to_string().contains("\"n\""), "{err}");
    for policy in &ALL[1..] {
        let out = union_with(&l, &r, &options(*policy)).unwrap();
        let totals: Vec<(Vec<Value>, &str, f64)> = out
            .report
            .total_conflicts()
            .map(|c| (c.key.to_vec(), &*c.attr, c.kappa))
            .collect();
        let expected: Vec<(Vec<Value>, &str, f64)> =
            [("b", "n"), ("c", "e0"), ("d", "e1"), ("m", "(sn,sp)")]
                .map(|(k, attr)| (vec![Value::str(k)], attr, 1.0))
                .into();
        assert_eq!(totals, expected, "{policy}");

        let merged = &out.relation;
        // Definite: there is no vacuous definite value, so only
        // keep-right departs from the left one.
        let n = if *policy == ConflictPolicy::KeepRight {
            2
        } else {
            1
        };
        assert_eq!(at(merged, "b", 1), AttrValue::Definite(Value::int(n)));
        // Evidential: the side kept, or total ignorance.
        for (k, pos) in [("c", 2), ("d", 3)] {
            let got = at(merged, k, pos);
            match policy {
                ConflictPolicy::KeepLeft => assert_eq!(got, at(&l, k, pos)),
                ConflictPolicy::KeepRight => assert_eq!(got, at(&r, k, pos)),
                _ => assert!(got.as_evidential().unwrap().is_vacuous(), "{k}"),
            }
        }
        // Membership: keep-left keeps the certain member; the right
        // `(0, 0)` and the vacuous `(0, 1)` have no support, so under
        // CWA_ER the merged tuple is not stored.
        let m = merged.get_by_key(&[Value::str("m")]);
        match policy {
            ConflictPolicy::KeepLeft => assert!(m.unwrap().membership().is_certain()),
            _ => assert!(m.is_none(), "{policy}"),
        }
    }
}

/// `Integrator::run` with every attribute evidential is ∪̃ under the
/// same policy: the same tuples bit for bit in the same order, the same
/// report, and under `Error` the same error. The inputs are the kit's
/// hazard pairs, zero-support tuples included.
#[test]
fn registry_merge_is_the_union_kernel_under_total_conflict() {
    for policy in ALL {
        for seed in 0..4 {
            for tuples in [0, 20, 90] {
                let (ga, gb) = hazardous_pair(seed, tuples);
                let context = format!("{policy}, seed {seed}, {tuples} tuples");
                let union = union_with(&ga, &gb, &options(policy));
                let integrated = Integrator::new(Arc::clone(ga.schema()))
                    .with_config(config())
                    .with_methods(MethodRegistry::new().with_conflict_policy(policy))
                    .run(&ga, &gb);
                match (union, integrated) {
                    (Ok(union), Ok(integrated)) => {
                        identical(&union.relation, &integrated.relation).or_fail(&context);
                        same_report(&union.report, &integrated.report).or_fail(&context);
                        assert!(union.report.total_conflicts().count() > 0, "{context}");
                    }
                    (Err(union), Err(IntegrateError::Algebra(integrated))) => {
                        assert_eq!(policy, ConflictPolicy::Error, "{context}");
                        assert_eq!(union.to_string(), integrated.to_string(), "{context}");
                    }
                    (union, integrated) => panic!(
                        "{context}: ∪̃ {:?}, integrator {:?}",
                        union.map(|u| u.relation.len()),
                        integrated.map(|i| i.relation.len()),
                    ),
                }
            }
        }
    }
}
