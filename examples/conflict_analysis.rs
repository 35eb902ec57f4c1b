//! Conflict analysis across merge approaches — the paper's §1.3
//! comparison, measured.
//!
//! Sweeps the workload generator's conflict bias and reports, per
//! approach: how many matched pairs survive the merge (vs. abort on
//! total conflict), how specific the surviving values are, and what
//! Dempster's κ distribution looks like. Closes with Zadeh's paradox
//! under all four combination rules, applied directly through
//! `CombinationRule::combine` — ∪̃ itself always uses Dempster's rule.
//!
//! ```sh
//! cargo run --example conflict_analysis
//! ```

use evirel::baselines::{compare, compare_merge};
use evirel::evidence::rules::CombinationRule;
use evirel::prelude::*;
use evirel::workload::generator::{generate_pair, GeneratorConfig, PairConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("conflict-bias sweep (1000 matched pairs per row)\n");
    println!(
        "{:>6} | {:>8} | {:>12} {:>12} | {:>10} {:>10} {:>10} | {:>12}",
        "bias", "mean κ", "evid. surv", "evid. spec", "partial", "bayes", "mixing", "partial spec"
    );
    for bias in [0.0, 0.25, 0.5, 0.75, 1.0] {
        // Narrow focal structure and no Ω floor, so disagreement
        // between the sources actually shows up as conflict.
        let (a, b) = generate_pair(&PairConfig {
            base: GeneratorConfig {
                tuples: 1000,
                evidential_attrs: 1,
                omega_mass: 0.0,
                max_focal: 2,
                max_focal_size: 2,
                uncertain_membership: 0.0,
                ..Default::default()
            },
            key_overlap: 1.0,
            conflict_bias: bias,
        })?;
        let mut kappa_sum = 0.0;
        let mut n = 0usize;
        let mut evid_survived = 0usize;
        let mut evid_spec = 0.0;
        let mut partial_survived = 0usize;
        let mut partial_spec = 0.0;
        let mut bayes_survived = 0usize;
        let mut mixing_entropy = 0.0;
        for (key, ta) in a.iter_keyed() {
            let Some(tb) = b.get_by_key(&key) else {
                continue;
            };
            let ma = ta.value(1).as_evidential().expect("generated evidential");
            let mb = tb.value(1).as_evidential().expect("generated evidential");
            let cmp = compare_merge(ma, mb)?;
            n += 1;
            kappa_sum += cmp.kappa;
            if let Some(spec) = cmp.evidential {
                evid_survived += 1;
                evid_spec += spec;
            }
            if let Some(spec) = cmp.partial {
                partial_survived += 1;
                partial_spec += spec;
            }
            if cmp.prob_bayes_entropy.is_some() {
                bayes_survived += 1;
            }
            mixing_entropy += cmp.prob_mixing_entropy;
        }
        println!(
            "{:>6.2} | {:>8.3} | {:>11.1}% {:>12.2} | {:>9.1}% {:>9.1}% {:>9.1}% | {:>12.2}",
            bias,
            kappa_sum / n as f64,
            100.0 * evid_survived as f64 / n as f64,
            evid_spec / evid_survived.max(1) as f64,
            100.0 * partial_survived as f64 / n as f64,
            100.0 * bayes_survived as f64 / n as f64,
            100.0, // mixing never fails by construction
            partial_spec / partial_survived.max(1) as f64,
        );
        let _ = mixing_entropy;
    }

    println!("\nZadeh's paradox under the four combination rules");
    println!("(source 1: a^0.99, c^0.01 — source 2: b^0.99, c^0.01)\n");
    let frame = Arc::new(evirel::evidence::Frame::new("zadeh", ["a", "b", "c"]));
    let m1 = MassFunction::<f64>::builder(Arc::clone(&frame))
        .add(["a"], 0.99)?
        .add(["c"], 0.01)?
        .build()?;
    let m2 = MassFunction::<f64>::builder(Arc::clone(&frame))
        .add(["b"], 0.99)?
        .add(["c"], 0.01)?
        .build()?;
    for rule in CombinationRule::ALL {
        match rule.combine(&m1, &m2) {
            Ok(m) => println!("{:>12}: {}", rule.name(), m),
            Err(e) => println!("{:>12}: {e}", rule.name()),
        }
    }

    println!("\nspecificity of the paper's own Table 4 merge:");
    let ra = evirel::workload::restaurant_db_a().restaurants;
    let rb = evirel::workload::restaurant_db_b().restaurants;
    let merged = union_extended(&ra, &rb)?;
    for (key, tuple) in merged.relation.iter_keyed() {
        let spec: f64 = [4usize, 5, 6]
            .iter()
            .map(|&pos| {
                tuple
                    .value(pos)
                    .as_evidential()
                    .map(compare::specificity)
                    .unwrap_or(1.0)
            })
            .sum::<f64>()
            / 3.0;
        println!(
            "  {:<22} mean specificity {:.3}",
            Value::render_key(&key),
            spec
        );
    }
    println!(
        "\nconflicts the data administrator would see:\n{}",
        merged.report
    );
    Ok(())
}
