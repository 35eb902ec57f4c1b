//! Comparators. Each returns `Err` naming the first difference, which
//! [`OrFail::or_fail`] turns into a test failure with the caller's
//! context.

use evirel_algebra::ConflictReport;
use evirel_plan::ExecStats;
use evirel_relation::{ExtendedRelation, Tuple, Value};
use std::fmt;

/// Values and `(sn, sp)` bit for bit, tuple by tuple, in order.
pub fn same_tuples<'a>(
    expected: impl IntoIterator<Item = &'a Tuple>,
    got: impl IntoIterator<Item = &'a Tuple>,
) -> Result<(), String> {
    let (expected, got): (Vec<_>, Vec<_>) =
        (expected.into_iter().collect(), got.into_iter().collect());
    if expected.len() != got.len() {
        return Err(format!("sizes differ: {} vs {}", expected.len(), got.len()));
    }
    for (at, (e, g)) in expected.into_iter().zip(got).enumerate() {
        let (em, gm) = (e.membership(), g.membership());
        if e.values() != g.values()
            || em.sn().to_bits() != gm.sn().to_bits()
            || em.sp().to_bits() != gm.sp().to_bits()
        {
            return Err(format!(
                "tuple {at} differs: {:?} ({}, {}) vs {:?} ({}, {})",
                e.values(),
                em.sn(),
                em.sp(),
                g.values(),
                gm.sn(),
                gm.sp()
            ));
        }
    }
    Ok(())
}

/// [`same_tuples`] of two relations.
pub fn identical(expected: &ExtendedRelation, got: &ExtendedRelation) -> Result<(), String> {
    same_tuples(expected.iter(), got.iter())
}

/// Equal up to the model's tolerance, as a result is compared with the
/// reference: the same attribute names and size, and every key of
/// `expected` in `got` with `(sn, sp)` within 1e-12 and approx-equal
/// values. Order is not compared.
pub fn equivalent(expected: &ExtendedRelation, got: &ExtendedRelation) -> Result<(), String> {
    let names = |rel: &ExtendedRelation| -> Vec<String> {
        rel.schema()
            .attrs()
            .iter()
            .map(|a| a.name().to_owned())
            .collect()
    };
    if names(expected) != names(got) {
        return Err(format!(
            "schemas differ: {:?} vs {:?}",
            names(expected),
            names(got)
        ));
    }
    if expected.len() != got.len() {
        return Err(format!("sizes differ: {} vs {}", expected.len(), got.len()));
    }
    for (key, e) in expected.iter_keyed() {
        let at = || Value::render_key(&key);
        let g = got
            .get_by_key(&key)
            .ok_or_else(|| format!("missing key {}", at()))?;
        let (em, gm) = (e.membership(), g.membership());
        if (em.sn() - gm.sn()).abs() > 1e-12 || (em.sp() - gm.sp()).abs() > 1e-12 {
            return Err(format!(
                "membership differs at {}: ({}, {}) vs ({}, {})",
                at(),
                em.sn(),
                em.sp(),
                gm.sn(),
                gm.sp()
            ));
        }
        let values = e.values().iter().zip(g.values());
        if let Some(pos) = values.into_iter().position(|(ev, gv)| !ev.approx_eq(gv)) {
            return Err(format!("value differs at {} position {pos}", at()));
        }
    }
    Ok(())
}

/// The same conflict observations, in the same order.
pub fn same_report(expected: &ConflictReport, got: &ConflictReport) -> Result<(), String> {
    let (e, g) = (expected.conflicts(), got.conflicts());
    match e.iter().zip(g).position(|(a, b)| a != b) {
        Some(at) => Err(format!(
            "observation {at} differs: {:?} vs {:?}",
            e[at], g[at]
        )),
        None if e.len() != g.len() => Err(format!(
            "reports differ in length: {} vs {}",
            e.len(),
            g.len()
        )),
        None => Ok(()),
    }
}

/// The counters a stored run may differ from an in-memory one in —
/// records skipped undecoded, key indexes built — zeroed.
pub fn masked(stats: ExecStats) -> ExecStats {
    ExecStats {
        records_skipped: 0,
        key_index_builds: 0,
        ..stats
    }
}

/// A comparison's outcome as a test assertion.
pub trait OrFail {
    /// Panic with the difference, then `context`, if there is one.
    fn or_fail(self, context: impl fmt::Display);
}

impl OrFail for Result<(), String> {
    #[track_caller]
    fn or_fail(self, context: impl fmt::Display) {
        if let Err(reason) = self {
            panic!("{reason}\n{context}");
        }
    }
}
