//! The end-to-end integration pipeline (Figure 1).
//!
//! [`Integrator`] wires the stages together: attribute preprocessing
//! of both sources, entity identification, tuple merging, and hands
//! back the integrated relation plus a [`StageTrace`] that records
//! what each stage did — the executable rendition of the paper's
//! dataflow figure.

use crate::entity_id::{EntityMatcher, KeyMatcher, MatchOutcome};
use crate::error::IntegrateError;
use crate::merge::{merge_relations, MergeOutcome};
use crate::methods::MethodRegistry;
use crate::preprocess::Preprocessor;
use evirel_algebra::ConflictReport;
use evirel_plan::BoundRelation;
use evirel_relation::{ExtendedRelation, Schema};
use std::fmt;
use std::sync::Arc;

/// Per-stage statistics of one integration run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    /// Tuples in the left source before preprocessing.
    pub left_in: usize,
    /// Tuples in the right source before preprocessing.
    pub right_in: usize,
    /// Tuples in the preprocessed left relation.
    pub left_preprocessed: usize,
    /// Tuples in the preprocessed right relation.
    pub right_preprocessed: usize,
    /// Matched entity pairs.
    pub matched: usize,
    /// Left-only tuples.
    pub left_only: usize,
    /// Right-only tuples.
    pub right_only: usize,
    /// Tuples in the integrated relation.
    pub integrated: usize,
    /// Attribute conflicts observed during merging.
    pub conflicts: usize,
    /// Largest κ observed.
    pub max_kappa: f64,
}

impl fmt::Display for StageTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Integration trace (Figure 1):")?;
        writeln!(
            f,
            "  attribute preprocessing: R_A {} → R'_A {} tuples; R_B {} → R'_B {} tuples",
            self.left_in, self.left_preprocessed, self.right_in, self.right_preprocessed
        )?;
        writeln!(
            f,
            "  entity identification:   {} matched, {} left-only, {} right-only",
            self.matched, self.left_only, self.right_only
        )?;
        writeln!(
            f,
            "  tuple merging:           {} integrated tuples, {} conflicts (max κ = {:.3})",
            self.integrated, self.conflicts, self.max_kappa
        )
    }
}

/// The complete result of an integration run.
#[derive(Debug, Clone)]
pub struct IntegrationOutcome {
    /// The integrated relation, ready for query processing.
    pub relation: ExtendedRelation,
    /// The conflict report for the data administrator.
    pub report: ConflictReport,
    /// Tuple-matching info from entity identification.
    pub matching: MatchOutcome,
    /// Per-stage statistics.
    pub trace: StageTrace,
}

/// Builder-style integration pipeline.
pub struct Integrator {
    global_schema: Arc<Schema>,
    left_pre: Preprocessor,
    right_pre: Preprocessor,
    matcher: Box<dyn EntityMatcher>,
    registry: MethodRegistry,
}

impl Integrator {
    /// An integrator targeting `global_schema`, with identity
    /// preprocessing, key matching, and evidential-by-default merging.
    pub fn new(global_schema: Arc<Schema>) -> Integrator {
        Integrator {
            global_schema,
            left_pre: Preprocessor::new(),
            right_pre: Preprocessor::new(),
            matcher: Box::new(KeyMatcher),
            registry: MethodRegistry::new(),
        }
    }

    /// Set the left source's preprocessor.
    pub fn with_left_preprocessor(mut self, p: Preprocessor) -> Self {
        self.left_pre = p;
        self
    }

    /// Set the right source's preprocessor.
    pub fn with_right_preprocessor(mut self, p: Preprocessor) -> Self {
        self.right_pre = p;
        self
    }

    /// Set the entity matcher.
    pub fn with_matcher(mut self, m: impl EntityMatcher + 'static) -> Self {
        self.matcher = Box::new(m);
        self
    }

    /// Set the method registry.
    pub fn with_methods(mut self, r: MethodRegistry) -> Self {
        self.registry = r;
        self
    }

    /// Integrate more than two sources by folding [`Integrator::run`]
    /// left to right — sound because Dempster's rule (and therefore
    /// the extended union) is associative and commutative, so the
    /// integration order does not affect the result (§2.2).
    ///
    /// All sources after the first are preprocessed with the *right*
    /// preprocessor; heterogeneous many-way integration should
    /// preprocess each source into the global schema first and then
    /// call this with identity preprocessing.
    ///
    /// Returns the final outcome; the trace and report accumulate
    /// totals across the fold.
    ///
    /// # Errors
    /// As [`Integrator::run`]; fails on the first erroring stage.
    pub fn run_many(
        &self,
        sources: &[&ExtendedRelation],
    ) -> Result<IntegrationOutcome, IntegrateError> {
        let (first, rest) = sources.split_first().ok_or(IntegrateError::BadMatch {
            reason: "run_many requires at least one source".to_owned(),
        })?;
        // Single source: preprocess and pass through.
        let mut acc = Arc::new(
            self.left_pre
                .apply(first, Arc::clone(&self.global_schema))?,
        );
        let mut outcome: Option<IntegrationOutcome> = None;
        for source in rest {
            // The accumulator is already in global terms; only the new
            // source passes through (right) preprocessing, so e.g.
            // reliability discounting is never applied twice.
            let step = self.run_step(Arc::clone(&acc), source)?;
            acc = Arc::new(step.relation.clone());
            outcome = Some(match outcome {
                None => step,
                Some(prev) => IntegrationOutcome {
                    relation: step.relation,
                    report: {
                        let mut merged = prev.report.clone();
                        for c in step.report.conflicts() {
                            merged.record(c.clone());
                        }
                        merged
                    },
                    matching: step.matching,
                    trace: StageTrace {
                        left_in: prev.trace.left_in,
                        right_in: prev.trace.right_in + step.trace.right_in,
                        left_preprocessed: prev.trace.left_preprocessed,
                        right_preprocessed: prev.trace.right_preprocessed
                            + step.trace.right_preprocessed,
                        matched: prev.trace.matched + step.trace.matched,
                        left_only: step.trace.left_only,
                        right_only: prev.trace.right_only + step.trace.right_only,
                        integrated: step.trace.integrated,
                        conflicts: prev.trace.conflicts + step.trace.conflicts,
                        max_kappa: prev.trace.max_kappa.max(step.trace.max_kappa),
                    },
                },
            });
        }
        match outcome {
            Some(o) => Ok(o),
            None => {
                // Exactly one source: report a pass-through outcome.
                let trace = StageTrace {
                    left_in: first.len(),
                    right_in: 0,
                    left_preprocessed: acc.len(),
                    right_preprocessed: 0,
                    matched: 0,
                    left_only: acc.len(),
                    right_only: 0,
                    integrated: acc.len(),
                    conflicts: 0,
                    max_kappa: 0.0,
                };
                Ok(IntegrationOutcome {
                    relation: Arc::try_unwrap(acc).unwrap_or_else(|shared| (*shared).clone()),
                    report: ConflictReport::new(),
                    matching: crate::entity_id::MatchOutcome {
                        matched: Vec::new(),
                        left_only: Vec::new(),
                        right_only: Vec::new(),
                    },
                    trace,
                })
            }
        }
    }

    /// Run the pipeline on two actual source relations.
    ///
    /// # Errors
    /// Stage errors, in stage order: preprocessing, matching, merging.
    pub fn run(
        &self,
        left: &ExtendedRelation,
        right: &ExtendedRelation,
    ) -> Result<IntegrationOutcome, IntegrateError> {
        // Stage 1 (left half): attribute preprocessing.
        let left_pre = Arc::new(self.left_pre.apply(left, Arc::clone(&self.global_schema))?);
        self.run_step(left_pre, right)
    }

    /// Stages 1 (right half) – 3 with an already-preprocessed left
    /// relation.
    fn run_step(
        &self,
        left_pre: Arc<ExtendedRelation>,
        right: &ExtendedRelation,
    ) -> Result<IntegrationOutcome, IntegrateError> {
        let right_pre = Arc::new(
            self.right_pre
                .apply(right, Arc::clone(&self.global_schema))?,
        );

        // Stage 2: entity identification.
        let matching = self.matcher.match_tuples(&left_pre, &right_pre)?;

        // Stage 3: tuple merging — streamed, no input copies, on the
        // process's thread budget (`EVIREL_THREADS`).
        let MergeOutcome { relation, report } = merge_relations(
            &BoundRelation::Memory(Arc::clone(&left_pre)),
            &BoundRelation::Memory(Arc::clone(&right_pre)),
            &matching,
            &self.registry,
            evirel_plan::default_parallelism(),
        )?;

        let trace = StageTrace {
            left_in: left_pre.len(),
            right_in: right.len(),
            left_preprocessed: left_pre.len(),
            right_preprocessed: right_pre.len(),
            matched: matching.matched_count(),
            left_only: matching.left_only.len(),
            right_only: matching.right_only.len(),
            integrated: relation.len(),
            conflicts: report.len(),
            max_kappa: report.max_kappa(),
        };
        Ok(IntegrationOutcome {
            relation,
            report,
            matching,
            trace,
        })
    }
}

impl fmt::Debug for Integrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Integrator")
            .field("global_schema", &self.global_schema.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain_map::DomainMapping;
    use crate::methods::IntegrationMethod;
    use crate::schema_map::SchemaMapping;
    use evirel_algebra::ConflictPolicy;
    use evirel_relation::{AttrDomain, RelationBuilder, Value, ValueKind};

    #[test]
    fn full_pipeline_with_heterogeneous_sources() {
        // Global schema.
        let rating = Arc::new(AttrDomain::categorical("rating", ["avg", "gd", "ex"]).unwrap());
        let global = Arc::new(
            Schema::builder("restaurants")
                .key_str("rname")
                .evidential("rating", Arc::clone(&rating))
                .build()
                .unwrap(),
        );

        // Left source: already in global terms, evidential ratings.
        let left = RelationBuilder::new(Arc::clone(&global))
            .tuple(|t| {
                t.set_str("rname", "wok")
                    .set_evidence("rating", [(&["gd"][..], 0.6), (&["ex"][..], 0.4)])
            })
            .unwrap()
            .build();

        // Right source: letter grades under different attribute names.
        let src_schema = Arc::new(
            Schema::builder("rb")
                .key_str("name")
                .definite("grade", ValueKind::Str)
                .build()
                .unwrap(),
        );
        let right = RelationBuilder::new(src_schema)
            .tuple(|t| t.set_str("name", "wok").set_str("grade", "B"))
            .unwrap()
            .tuple(|t| t.set_str("name", "new-place").set_str("grade", "A"))
            .unwrap()
            .build();

        let integrator = Integrator::new(Arc::clone(&global))
            .with_right_preprocessor(
                Preprocessor::new()
                    .with_schema_mapping(
                        SchemaMapping::identity()
                            .map("name", "rname")
                            .map("grade", "rating"),
                    )
                    .with_domain_mapping(
                        "rating",
                        DomainMapping::new(Arc::clone(&rating))
                            .to_definite("A", "ex")
                            .to_uncertain(
                                "B",
                                vec![
                                    (vec![Value::str("gd")], 0.8),
                                    (vec![Value::str("gd"), Value::str("avg")], 0.2),
                                ],
                            ),
                    ),
            )
            .with_methods(
                MethodRegistry::new()
                    .assign("rating", IntegrationMethod::Evidential)
                    .with_conflict_policy(ConflictPolicy::Vacuous),
            );

        let out = integrator.run(&left, &right).unwrap();
        assert_eq!(out.relation.len(), 2);
        assert_eq!(out.trace.matched, 1);
        assert_eq!(out.trace.right_only, 1);
        // wok's rating is the Dempster combination of the evidential
        // left value and the mapped right value.
        let wok = out.relation.get_by_key(&[Value::str("wok")]).unwrap();
        let m = wok.value(1).as_evidential().unwrap();
        let gd = rating.subset_of_values([&Value::str("gd")]).unwrap();
        assert!(m.mass_of(&gd) > 0.5);
        // Stage trace prints the Figure 1 flow.
        let text = out.trace.to_string();
        assert!(text.contains("attribute preprocessing"));
        assert!(text.contains("entity identification"));
        assert!(text.contains("tuple merging"));
    }

    #[test]
    fn run_many_folds_sources_order_independently() {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
        let global = Arc::new(
            Schema::builder("g")
                .key_str("k")
                .evidential("d", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let mk = |label: &str, mass: f64| {
            RelationBuilder::new(Arc::clone(&global))
                .tuple(|t| {
                    t.set_str("k", "a").set_evidence_with_omega(
                        "d",
                        [(&[label][..], mass)],
                        1.0 - mass,
                    )
                })
                .unwrap()
                .build()
        };
        let (s1, s2, s3) = (mk("x", 0.5), mk("x", 0.4), mk("y", 0.3));
        let integrator = Integrator::new(Arc::clone(&global));
        let abc = integrator.run_many(&[&s1, &s2, &s3]).unwrap();
        let cba = integrator.run_many(&[&s3, &s2, &s1]).unwrap();
        assert!(abc.relation.approx_eq(&cba.relation));
        assert_eq!(abc.trace.right_in, 2);
        assert_eq!(abc.trace.matched, 2);
        // Single source passes through.
        let single = integrator.run_many(&[&s1]).unwrap();
        assert!(single.relation.approx_eq(&s1));
        assert!(single.report.is_empty());
        // Zero sources error.
        assert!(integrator.run_many(&[]).is_err());
    }

    #[test]
    fn run_many_applies_reliability_once_per_source() {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let global = Arc::new(
            Schema::builder("g")
                .key_str("k")
                .evidential("d", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let certain = |label: &str| {
            RelationBuilder::new(Arc::clone(&global))
                .tuple(|t| t.set_str("k", "a").set_evidence("d", [(&[label][..], 1.0)]))
                .unwrap()
                .build()
        };
        let integrator = Integrator::new(Arc::clone(&global))
            .with_left_preprocessor(Preprocessor::new().with_reliability(0.8))
            .with_right_preprocessor(Preprocessor::new().with_reliability(0.8));
        // Three fully-conflicting certain sources survive because each
        // is discounted exactly once before combining.
        let (s1, s2, s3) = (certain("x"), certain("x"), certain("y"));
        let out = integrator.run_many(&[&s1, &s2, &s3]).unwrap();
        let t = out.relation.get_by_key(&[Value::str("a")]).unwrap();
        let m = t.value(1).as_evidential().unwrap();
        let x = d.subset_of_values([&Value::str("x")]).unwrap();
        // Two 0.8-discounted x-votes against one 0.8-discounted y-vote.
        assert!(m.bel(&x) > 0.5);
        assert!(m.bel(&x) < 1.0);
    }

    #[test]
    fn default_pipeline_is_key_matched_evidential() {
        let d = Arc::new(AttrDomain::categorical("d", ["x", "y"]).unwrap());
        let global = Arc::new(
            Schema::builder("g")
                .key_str("k")
                .evidential("d", Arc::clone(&d))
                .build()
                .unwrap(),
        );
        let mk = |mass_x: f64| {
            RelationBuilder::new(Arc::clone(&global))
                .tuple(|t| {
                    t.set_str("k", "a").set_evidence_with_omega(
                        "d",
                        [(&["x"][..], mass_x)],
                        1.0 - mass_x,
                    )
                })
                .unwrap()
                .build()
        };
        let out = Integrator::new(Arc::clone(&global))
            .run(&mk(0.5), &mk(0.5))
            .unwrap();
        assert_eq!(out.relation.len(), 1);
        let t = out.relation.get_by_key(&[Value::str("a")]).unwrap();
        let m = t.value(1).as_evidential().unwrap();
        let x = d.subset_of_values([&Value::str("x")]).unwrap();
        // 0.5 ⊕ 0.5 (with Ω rest): m(x) = 0.75.
        assert!((m.mass_of(&x) - 0.75).abs() < 1e-9);
    }
}
