//! Behavioural sweep series (CSV) — the figure-style counterpart of
//! `repro_tables`.
//!
//! The 1994 paper contains no measurement figures; these sweeps
//! document the *behaviour* of the reproduced system along the axes
//! its design exposes, ready for plotting:
//!
//! * `conflict` — mean Dempster κ and per-approach survival rate vs.
//!   generator conflict bias (the §1.3 comparison);
//! * `sharpening` — nonspecificity (bits) of an integrated attribute
//!   vs. number of combined sources (why integrating more databases
//!   helps);
//! * `overlap` — integrated-relation size and conflict count vs. key
//!   overlap between two sources;
//! * `discount` — post-combination conflict κ vs. source reliability
//!   α (how discounting defuses conflict).
//!
//! ```sh
//! repro_sweeps            # all series
//! repro_sweeps conflict   # one series
//! ```
//!
//! Exit code 0 once the series asked for are written, or once the
//! reader stops taking them (as `| head` does); 2 on an argument that
//! names no series.

use evirel_baselines::compare_merge;
use evirel_evidence::{combine, discount, measures, MassFunction};
use evirel_workload::generator::{generate_pair, GeneratorConfig, PairConfig};
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// A series' name, and what writes it.
type Series = (&'static str, fn(&mut dyn Write) -> io::Result<()>);

const SERIES: [Series; 4] = [
    ("conflict", conflict_sweep),
    ("sharpening", sharpening_sweep),
    ("overlap", overlap_sweep),
    ("discount", discount_sweep),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<&Series> = match args.as_slice() {
        [] => SERIES.iter().collect(),
        [name] => SERIES.iter().filter(|(series, _)| series == name).collect(),
        _ => Vec::new(),
    };
    if chosen.is_empty() {
        eprintln!("usage: repro_sweeps [conflict|sharpening|overlap|discount]");
        return ExitCode::from(2);
    }
    let mut out = io::stdout().lock();
    let written = chosen
        .into_iter()
        .try_for_each(|(_, write)| write(&mut out));
    match written.and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader stopped taking rows: what it took was written.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_sweeps: {e}");
            ExitCode::FAILURE
        }
    }
}

fn matched_evidence(bias: f64, tuples: usize) -> Vec<(MassFunction<f64>, MassFunction<f64>)> {
    let (a, b) = generate_pair(&PairConfig {
        base: GeneratorConfig {
            tuples,
            evidential_attrs: 1,
            omega_mass: 0.0,
            max_focal: 2,
            max_focal_size: 2,
            uncertain_membership: 0.0,
            ..Default::default()
        },
        key_overlap: 1.0,
        conflict_bias: bias,
    })
    .expect("valid generator config");
    a.iter_keyed()
        .filter_map(|(key, ta)| {
            let tb = b.get_by_key(&key)?;
            Some((
                ta.value(1).as_evidential()?.clone(),
                tb.value(1).as_evidential()?.clone(),
            ))
        })
        .collect()
}

/// Series: conflict bias → mean κ, survival rates.
fn conflict_sweep(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# series: conflict")?;
    writeln!(
        out,
        "bias,mean_kappa,evidential_survival,partial_survival,bayes_survival"
    )?;
    for step in 0..=10 {
        let bias = step as f64 / 10.0;
        let pairs = matched_evidence(bias, 400);
        let mut kappa = 0.0;
        let (mut ev, mut pv, mut by) = (0usize, 0usize, 0usize);
        for (a, b) in &pairs {
            let cmp = compare_merge(a, b).expect("same frame");
            kappa += cmp.kappa;
            ev += usize::from(cmp.evidential.is_some());
            pv += usize::from(cmp.partial.is_some());
            by += usize::from(cmp.prob_bayes_entropy.is_some());
        }
        let n = pairs.len() as f64;
        writeln!(
            out,
            "{bias:.1},{:.4},{:.4},{:.4},{:.4}",
            kappa / n,
            ev as f64 / n,
            pv as f64 / n,
            by as f64 / n
        )?;
    }
    Ok(())
}

/// Series: number of combined sources → mean nonspecificity (bits).
fn sharpening_sweep(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# series: sharpening")?;
    writeln!(out, "sources,mean_nonspecificity_bits,mean_specificity")?;
    // Independent overlapping surveys of the same ground truth.
    let domain = evirel_workload::generator::generated_domain(8);
    let mut surveys = Vec::new();
    for seed in 0..8u64 {
        let mut survey = evirel_workload::Survey::new(
            Arc::clone(&domain),
            evirel_workload::SurveyConfig {
                panel_size: 6,
                abstain_rate: 0.15,
                ambiguity_rate: 0.25,
                seed,
            },
        );
        let per_entity: Vec<MassFunction<f64>> = (0..50)
            .map(|e| {
                survey
                    .conduct(e % 8, 0.2)
                    .expect("valid survey")
                    .as_evidential()
                    .expect("survey yields evidence")
                    .clone()
            })
            .collect();
        surveys.push(per_entity);
    }
    for k in 1..=surveys.len() {
        let mut nonspec = 0.0;
        let mut spec = 0.0;
        let mut n = 0usize;
        for entity in 0..50 {
            let sources: Vec<&MassFunction<f64>> =
                surveys[..k].iter().map(|s| &s[entity]).collect();
            match combine::dempster_all(sources) {
                Ok(c) => {
                    nonspec += measures::nonspecificity(&c.mass);
                    spec += measures::specificity(&c.mass);
                    n += 1;
                }
                Err(_) => continue,
            }
        }
        writeln!(out, "{k},{:.4},{:.4}", nonspec / n as f64, spec / n as f64)?;
    }
    Ok(())
}

/// Series: key overlap → integrated size, matched count, conflicts.
fn overlap_sweep(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# series: overlap")?;
    writeln!(
        out,
        "overlap,integrated_tuples,matched,conflicts,mean_kappa"
    )?;
    for step in 0..=10 {
        let overlap = step as f64 / 10.0;
        let (a, b) = generate_pair(&PairConfig {
            base: GeneratorConfig {
                tuples: 500,
                ..Default::default()
            },
            key_overlap: overlap,
            conflict_bias: 0.0,
        })
        .expect("valid generator config");
        let merged =
            evirel_algebra::union_extended(&a, &b).expect("Ω floor prevents total conflict");
        let matched = a.keys().filter(|k| b.contains_key(k)).count();
        writeln!(
            out,
            "{overlap:.1},{},{},{},{:.4}",
            merged.relation.len(),
            matched,
            merged.report.len(),
            merged.report.mean_kappa()
        )?;
    }
    Ok(())
}

/// Series: reliability α → κ between two discounted contradicting
/// sources, and the resulting belief in the left source's value.
fn discount_sweep(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# series: discount")?;
    writeln!(out, "alpha,kappa,bel_left_value")?;
    let frame = Arc::new(evirel_evidence::Frame::new("d", ["x", "y", "z"]));
    let a = MassFunction::<f64>::certain(Arc::clone(&frame), "x").expect("label in frame");
    let b = MassFunction::<f64>::certain(Arc::clone(&frame), "y").expect("label in frame");
    let x = frame.subset(["x"]).expect("label in frame");
    for step in 0..=10 {
        let alpha = step as f64 / 10.0;
        let da = discount::discount(&a, &alpha).expect("alpha in range");
        let db = discount::discount(&b, &alpha).expect("alpha in range");
        match combine::dempster(&da, &db) {
            Ok(c) => writeln!(out, "{alpha:.1},{:.4},{:.4}", c.conflict, c.mass.bel(&x))?,
            Err(_) => writeln!(out, "{alpha:.1},1.0000,NaN")?,
        }
    }
    Ok(())
}
