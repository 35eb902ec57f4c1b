//! Generated inputs. Each keeps the exact `GeneratorConfig` its suites
//! drew from before they shared it. [`pair`] and [`relation`] then put
//! a definite in-domain label in place of one evidential value in
//! [`DEFINITE_EVERY`]: `Tuple::new` accepts a definite value in an
//! evidential attribute, and every reader of evidence has to decide it
//! as the certain mass function on that label, but the generator never
//! draws one.

use evirel_evidence::MassFunction;
use evirel_relation::cwa::CwaPolicy;
use evirel_relation::{
    AttrDomain, AttrValue, ExtendedRelation, Schema, SupportPair, Tuple, Value, ValueKind,
};
use evirel_workload::generator::{generate, generate_pair, GeneratorConfig, PairConfig};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// One evidential value in this many is a definite label instead.
pub const DEFINITE_EVERY: u64 = 8;

/// `rel` with one evidential value in [`DEFINITE_EVERY`] replaced by a
/// definite label of the attribute's domain. Which values, and which
/// label, depend on the tuple's key and the position only, so the two
/// tuples of a shared key agree: the generator's evidence keeps mass on
/// Ω, and a definite value meets no total conflict it did not.
fn with_definites(rel: ExtendedRelation) -> ExtendedRelation {
    let schema = Arc::clone(rel.schema());
    let mut out = ExtendedRelation::new(Arc::clone(&schema));
    for tuple in rel.iter() {
        let key = tuple.key(&schema);
        let values = tuple.values().iter().enumerate().map(|(pos, value)| {
            let mut hasher = DefaultHasher::new();
            (&key, pos).hash(&mut hasher);
            let draw = hasher.finish();
            match schema.attr(pos).ty().domain() {
                Some(domain) if draw.is_multiple_of(DEFINITE_EVERY) => {
                    let label = (draw / DEFINITE_EVERY) as usize % domain.len();
                    AttrValue::Definite(domain.value(label).expect("in the domain").clone())
                }
                _ => value.clone(),
            }
        });
        let tuple = Tuple::new(&schema, values.collect(), tuple.membership()).unwrap();
        out.insert_with_policy(tuple, CwaPolicy::AllowZero).unwrap();
    }
    out
}

/// Two generated relations `GA`, `GB` of `tuples` tuples each over
/// `(k, e0, e1, e2)`: half their keys shared (`shared-N`, the rest
/// `left-N` / `right-N`), conflict bias 0.3; one evidential value in
/// [`DEFINITE_EVERY`] definite.
pub fn pair(seed: u64, tuples: usize) -> (ExtendedRelation, ExtendedRelation) {
    let (ga, gb) = generated_pair(seed, tuples);
    (with_definites(ga), with_definites(gb))
}

/// [`pair`] as the generator draws it: every non-key value evidence
/// that keeps mass on Ω — for a suite that addresses a record's bytes
/// by that layout.
pub fn generated_pair(seed: u64, tuples: usize) -> (ExtendedRelation, ExtendedRelation) {
    generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples,
            seed,
            ..Default::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.3,
    })
    .expect("generator config is valid")
}

/// The durability suites' generator: one evidential attribute over a
/// five-value domain, at most two focal sets of at most two values, a
/// quarter of the memberships uncertain. A suite that drew from a
/// four-value domain overrides `domain_size`.
pub fn small_domain(seed: u64, tuples: usize) -> GeneratorConfig {
    GeneratorConfig {
        tuples,
        domain_size: 5,
        evidential_attrs: 1,
        max_focal: 2,
        max_focal_size: 2,
        omega_mass: 0.2,
        uncertain_membership: 0.25,
        seed,
    }
}

/// [`small_domain`]'s relation, named `R`; one evidential value in
/// [`DEFINITE_EVERY`] definite.
pub fn relation(seed: u64, tuples: usize) -> ExtendedRelation {
    with_definites(generate("R", &small_domain(seed, tuples)).expect("generator config is valid"))
}

/// [`pair`] plus hand-made tuples the generator never draws (its
/// evidence always keeps mass on Ω, and its memberships are positive),
/// appended in this order to both sides unless noted: a total conflict
/// on `e0` alone, on `e2` alone, on every attribute; a total conflict
/// on the membership pair — `(1, 1)` against `(0, 0)`; a weak pair no
/// threshold admits; and one zero-support tuple on each side alone,
/// which a ∪̃ drops before any σ̃ sees it.
pub fn hazardous_pair(seed: u64, tuples: usize) -> (ExtendedRelation, ExtendedRelation) {
    let (mut ga, mut gb) = pair(seed, tuples);
    let frame = {
        let domain = ga.schema().attr(1).ty().domain().expect("e0 is evidential");
        Arc::clone(domain.frame())
    };
    let certain = |label: &str| {
        AttrValue::Evidential(MassFunction::certain(Arc::clone(&frame), label).unwrap())
    };
    let vacuous = || AttrValue::Evidential(MassFunction::vacuous(Arc::clone(&frame)).unwrap());
    let add = |rel: &mut ExtendedRelation, key: &str, e: [AttrValue; 3], sn: f64, sp: f64| {
        let mut values = vec![AttrValue::Definite(Value::str(key))];
        values.extend(e);
        let tuple = Tuple::new(rel.schema(), values, SupportPair::new(sn, sp).unwrap()).unwrap();
        rel.insert_with_policy(tuple, CwaPolicy::AllowZero).unwrap();
    };
    let agree = || [certain("v1"), certain("v2"), vacuous()];
    let evidence = |a: &str, b: &str, c: &str| {
        [a, b, c].map(|x| if x.is_empty() { vacuous() } else { certain(x) })
    };
    add(&mut ga, "hz-e0", evidence("v0", "v2", ""), 1.0, 1.0);
    add(&mut gb, "hz-e0", evidence("v1", "v2", ""), 1.0, 1.0);
    add(&mut ga, "hz-e2", evidence("v0", "", "v4"), 1.0, 1.0);
    add(&mut gb, "hz-e2", evidence("v0", "", "v5"), 0.9, 1.0);
    add(&mut ga, "hz-all", evidence("v1", "v2", "v3"), 1.0, 1.0);
    add(&mut gb, "hz-all", evidence("v2", "v3", "v1"), 1.0, 1.0);
    add(&mut ga, "hz-member", agree(), 1.0, 1.0);
    add(&mut gb, "hz-member", agree(), 0.0, 0.0);
    add(&mut ga, "hz-weak", agree(), 0.05, 0.4);
    add(&mut gb, "hz-weak", agree(), 0.05, 0.3);
    add(&mut ga, "hz-zero-l", agree(), 0.0, 0.5);
    add(&mut gb, "hz-zero-r", agree(), 0.0, 1.0);
    (ga, gb)
}

/// A hand-made pair over `(k key, n definite, e0, e1)` whose matched
/// pairs are, in order: `a` agreeing; `b` unequal on the *definite*
/// `n`; `c` totally conflicting on `e0` (and partially on `e1`); `d`
/// totally conflicting on `e1`; `m` on the membership pair. Each side
/// also has one tuple of its own and one zero-support tuple of its own.
/// `skip` drops that many of `b`, `c`, `d`, `m` from the front, so that
/// under `ConflictPolicy::Error` each in turn is the first to abort.
pub fn definite_pair(skip: usize) -> (ExtendedRelation, ExtendedRelation) {
    let domain = Arc::new(AttrDomain::categorical("d", ["x", "y", "z"]).unwrap());
    let schema = |name: &str| {
        Arc::new(
            Schema::builder(name)
                .key_str("k")
                .definite("n", ValueKind::Int)
                .evidential("e0", Arc::clone(&domain))
                .evidential("e1", Arc::clone(&domain))
                .build()
                .unwrap(),
        )
    };
    let certain = |label: &str| {
        AttrValue::Evidential(MassFunction::certain(Arc::clone(domain.frame()), label).unwrap())
    };
    let leaning = |label: &str, mass: f64| {
        let m = MassFunction::<f64>::builder(Arc::clone(domain.frame()))
            .add([label], mass)
            .unwrap()
            .add_omega(1.0 - mass)
            .build()
            .unwrap();
        AttrValue::Evidential(m)
    };
    let (mut l, mut r) = (
        ExtendedRelation::new(schema("L")),
        ExtendedRelation::new(schema("R")),
    );
    let add = |rel: &mut ExtendedRelation, k: &str, n: i64, e: [AttrValue; 2], m: (f64, f64)| {
        let [e0, e1] = e;
        let values = vec![
            AttrValue::Definite(Value::str(k)),
            AttrValue::Definite(Value::int(n)),
            e0,
            e1,
        ];
        let tuple = Tuple::new(rel.schema(), values, SupportPair::new(m.0, m.1).unwrap());
        rel.insert_with_policy(tuple.unwrap(), CwaPolicy::AllowZero)
            .unwrap();
    };
    let (x, y) = (|| certain("x"), || certain("y"));
    add(&mut l, "l-zero", 7, [x(), y()], (0.0, 0.5));
    add(&mut r, "r-zero", 7, [x(), y()], (0.0, 1.0));
    add(&mut l, "a", 1, [x(), leaning("y", 0.7)], (1.0, 1.0));
    add(&mut r, "a", 1, [leaning("x", 0.6), y()], (0.9, 1.0));
    if skip < 1 {
        add(&mut l, "b", 1, [x(), y()], (1.0, 1.0));
        add(&mut r, "b", 2, [x(), y()], (1.0, 1.0));
    }
    if skip < 2 {
        add(&mut l, "c", 3, [x(), leaning("y", 0.6)], (1.0, 1.0));
        add(&mut r, "c", 3, [y(), leaning("z", 0.5)], (1.0, 1.0));
    }
    if skip < 3 {
        add(&mut l, "d", 4, [leaning("x", 0.9), x()], (1.0, 1.0));
        add(&mut r, "d", 4, [x(), certain("z")], (1.0, 1.0));
    }
    if skip < 4 {
        add(&mut l, "m", 1, [x(), y()], (1.0, 1.0));
        add(&mut r, "m", 1, [x(), y()], (0.0, 0.0));
    }
    add(&mut l, "l-only", 4, [x(), y()], (0.8, 1.0));
    add(&mut r, "r-only", 1, [leaning("x", 0.9), y()], (1.0, 1.0));
    (l, r)
}
