//! Conflict reporting for the extended union.
//!
//! §2.2: *"In case none of the focal elements of two mass functions
//! intersect, we use ∅ to denote the conflicting information provided
//! by the source databases. Some actions may be necessary to inform
//! the data administrators or integrators about the conflict."*
//!
//! The extended union therefore records, per merged attribute, the
//! observed conflict mass κ, and resolves κ = 1 (total conflict)
//! according to a caller-chosen [`ConflictPolicy`]. The accumulated
//! [`ConflictReport`] is the artifact handed to the data
//! administrator.
//!
//! A merge of two large relations records an observation for most of
//! its attribute pairs, so an observation is cheap to make and is
//! never copied: its key and attribute name are shared handles
//! ([`PairKey`] makes one key handle per matched pair, the schema
//! already holds the name), and whoever owns the reports at the end of
//! an execution takes them whole ([`ConflictReport::append`]).

use evirel_relation::Value;
use std::fmt;
use std::sync::Arc;

/// What to do when two matched tuples are in *total* conflict (κ = 1).
///
/// A pair can conflict totally at three kinds of target, and a policy
/// resolves each in its own way:
/// * an *evidential* attribute, whose evidence sets have no focal
///   elements in common — Dempster's rule is undefined;
/// * a *definite* attribute, whose two values differ — an open domain
///   has no evidence to combine;
/// * the *membership pair*, where `F` finds one side a certain member
///   `(1, 1)` and the other certainly not one, `(0, 0)`.
///
/// Whatever the policy, every total conflict is recorded in the
/// [`ConflictReport`] with κ = 1 and `total = true`, in the order the
/// kernel meets them. Under CWA_ER a merged tuple whose resolved
/// membership has `sn = 0` is not stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// Abort the union with [`crate::AlgebraError::TotalConflict`] at
    /// the first total conflict — the strictest reading of the paper's
    /// "inform the integrators".
    #[default]
    Error,
    /// Keep the left tuple's evidence set, definite value or membership
    /// pair. A left `(0, 0)` drops the merged tuple.
    KeepLeft,
    /// Keep the right tuple's evidence set, definite value or membership
    /// pair. A right `(0, 0)` drops the merged tuple.
    KeepRight,
    /// Replace an evidential value with total ignorance, the vacuous
    /// evidence set — Yager's treatment of conflict as ignorance. A
    /// definite attribute has no vacuous value, so it keeps the *left*
    /// value, as under [`ConflictPolicy::KeepLeft`]. A membership pair
    /// becomes the unknown `(0, 1)`, which has no support, so the merged
    /// tuple is not stored.
    Vacuous,
}

impl fmt::Display for ConflictPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConflictPolicy::Error => "error",
            ConflictPolicy::KeepLeft => "keep-left",
            ConflictPolicy::KeepRight => "keep-right",
            ConflictPolicy::Vacuous => "vacuous",
        };
        f.write_str(s)
    }
}

/// The key of the tuple pair being merged, as that pair's conflict
/// observations record it: the shared handle is made on the pair's
/// first conflict and every later observation of the pair clones it —
/// a pair without conflict allocates nothing.
#[derive(Debug)]
pub struct PairKey<'a> {
    key: &'a [Value],
    shared: Option<Arc<[Value]>>,
}

impl<'a> PairKey<'a> {
    /// The key of one matched pair.
    pub fn new(key: &'a [Value]) -> PairKey<'a> {
        PairKey { key, shared: None }
    }

    /// The key values.
    pub fn values(&self) -> &'a [Value] {
        self.key
    }

    /// The handle an [`AttributeConflict`] of this pair stores.
    pub fn shared(&mut self) -> Arc<[Value]> {
        Arc::clone(self.shared.get_or_insert_with(|| Arc::from(self.key)))
    }
}

/// One attribute-level conflict observation from a tuple merge.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeConflict {
    /// Key of the matched tuple pair (one handle per pair, see
    /// [`PairKey`]).
    pub key: Arc<[Value]>,
    /// Attribute that was merged (the schema's own handle).
    pub attr: Arc<str>,
    /// Conflict mass κ of the Dempster combination (1.0 for total
    /// conflict).
    pub kappa: f64,
    /// `true` if κ = 1 and a [`ConflictPolicy`] had to be applied.
    pub total: bool,
}

/// The union's conflict artifact: every nonzero κ observed, plus any
/// total conflicts and how they were resolved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConflictReport {
    conflicts: Vec<AttributeConflict>,
}

impl ConflictReport {
    /// An empty report.
    pub fn new() -> ConflictReport {
        ConflictReport::default()
    }

    /// Record an observation.
    pub fn record(&mut self, c: AttributeConflict) {
        self.conflicts.push(c);
    }

    /// Move every observation of `other` behind this report's own.
    pub fn append(&mut self, mut other: ConflictReport) {
        self.conflicts.append(&mut other.conflicts);
    }

    /// All observations in merge order.
    pub fn conflicts(&self) -> &[AttributeConflict] {
        &self.conflicts
    }

    /// Observations with κ = 1.
    pub fn total_conflicts(&self) -> impl Iterator<Item = &AttributeConflict> {
        self.conflicts.iter().filter(|c| c.total)
    }

    /// `true` when no conflict at all was observed.
    pub fn is_empty(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.conflicts.len()
    }

    /// The largest κ observed (0.0 for an empty report).
    pub fn max_kappa(&self) -> f64 {
        self.conflicts.iter().map(|c| c.kappa).fold(0.0, f64::max)
    }

    /// Mean κ over all observations (0.0 for an empty report).
    pub fn mean_kappa(&self) -> f64 {
        if self.conflicts.is_empty() {
            0.0
        } else {
            self.conflicts.iter().map(|c| c.kappa).sum::<f64>() / self.conflicts.len() as f64
        }
    }
}

impl fmt::Display for ConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "no attribute conflicts");
        }
        writeln!(
            f,
            "{} attribute conflict(s), max κ = {:.3}, mean κ = {:.3}",
            self.len(),
            self.max_kappa(),
            self.mean_kappa()
        )?;
        for c in &self.conflicts {
            writeln!(
                f,
                "  key {} attr {:?}: κ = {:.3}{}",
                Value::render_key(&c.key),
                c.attr,
                c.kappa,
                if c.total {
                    " (TOTAL, policy applied)"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(kappa: f64, total: bool) -> AttributeConflict {
        AttributeConflict {
            key: vec![Value::str("wok")].into(),
            attr: "rating".into(),
            kappa,
            total,
        }
    }

    #[test]
    fn report_statistics() {
        let mut r = ConflictReport::new();
        assert!(r.is_empty());
        assert_eq!(r.max_kappa(), 0.0);
        assert_eq!(r.mean_kappa(), 0.0);
        r.record(obs(0.2, false));
        r.record(obs(0.6, false));
        r.record(obs(1.0, true));
        assert_eq!(r.len(), 3);
        assert!((r.max_kappa() - 1.0).abs() < 1e-12);
        assert!((r.mean_kappa() - 0.6).abs() < 1e-12);
        assert_eq!(r.total_conflicts().count(), 1);
    }

    #[test]
    fn report_display() {
        let mut r = ConflictReport::new();
        assert_eq!(r.to_string(), "no attribute conflicts");
        r.record(obs(1.0, true));
        let text = r.to_string();
        assert!(text.contains("(wok)"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn append_moves_observations_in_order() {
        let mut first = ConflictReport::new();
        first.record(obs(0.2, false));
        let mut second = ConflictReport::new();
        second.record(obs(0.6, false));
        second.record(obs(1.0, true));
        first.append(second);
        let kappas: Vec<f64> = first.conflicts().iter().map(|c| c.kappa).collect();
        assert_eq!(kappas, [0.2, 0.6, 1.0]);
    }

    #[test]
    fn pair_key_is_made_once_and_shared() {
        let key = [Value::str("wok")];
        let mut pair = PairKey::new(&key);
        assert_eq!(pair.values(), &key);
        let (a, b) = (pair.shared(), pair.shared());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, &key);
    }

    #[test]
    fn policy_display_and_default() {
        assert_eq!(ConflictPolicy::default(), ConflictPolicy::Error);
        assert_eq!(ConflictPolicy::Vacuous.to_string(), "vacuous");
    }
}
