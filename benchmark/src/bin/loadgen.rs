//! `loadgen` — the end-to-end side of the benchmark. `run.sh` builds
//! the binaries and passes their paths in; everything else is here.
//!
//! ```text
//! loadgen --serve-bin P --replay-bin P --home benchmark
//!         [--seed N] [--seconds S]
//!         [--workload W --trace 0|1]     one workload, result line last (the driver's form)
//!         [--repeat K] [--smoke] [--bless]   every workload (the developer's form)
//! ```

use evirel_benchmark::metrics::{self, Values, END_TO_END, REPLAY_VS_SERVER};
use evirel_benchmark::run::{run, Config, Outcome, QUERY_REQUESTS};
use evirel_benchmark::stats::iqr_share;
use evirel_benchmark::stream::{workload, workloads, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    serve_bin: PathBuf,
    replay_bin: PathBuf,
    home: PathBuf,
    seed: u64,
    seconds: u32,
    workload: Option<String>,
    trace: bool,
    repeat: u32,
    smoke: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        serve_bin: PathBuf::new(),
        replay_bin: PathBuf::new(),
        home: PathBuf::from("benchmark"),
        seed: 1,
        seconds: 15,
        workload: None,
        trace: false,
        repeat: 1,
        smoke: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--serve-bin" => a.serve_bin = value()?.into(),
            "--replay-bin" => a.replay_bin = value()?.into(),
            "--home" => a.home = value()?.into(),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.clamp(1, 60) as u32,
            "--workload" => a.workload = Some(value()?),
            "--trace" => a.trace = number(value()?)? != 0,
            "--repeat" => a.repeat = number(value()?)?.clamp(1, 10) as u32,
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.serve_bin.as_os_str().is_empty() {
        return Err("--serve-bin is required (run benchmark/run.sh, which builds it)".into());
    }
    Ok(a)
}

/// Where a result came from: the ROADMAP asks that every recorded
/// number carry its machine.
fn machine_tag() -> Vec<(&'static str, String)> {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|x| x.1))
        .map_or_else(|| "unknown".to_owned(), |m| m.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_owned(),
        ),
        ("rustc", tool("rustc", &["-V"])),
        ("git_rev", tool("git", &["rev-parse", "HEAD"])),
    ]
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write `out/result-<workload>-seed<N>.json`: every value measured,
/// the failures, and the machine tag.
fn write_result(
    a: &Args,
    spec: &Spec,
    outcome: &Outcome,
    seed: u64,
    trace: bool,
) -> Result<(), String> {
    let tag: Vec<String> = machine_tag()
        .into_iter()
        .chain(outcome.env.iter().map(|(k, v)| (*k, v.clone())))
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(&v)))
        .collect();
    let values: Vec<String> = outcome
        .values
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    let errors: Vec<String> = outcome.errors.iter().map(|e| json_string(e)).collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"trace\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \"machine\": {{{}}},\n \
         \"errors\": [{}],\n \"values\": {{{}}}}}\n",
        json_string(spec.name),
        seed,
        a.seconds,
        a.smoke,
        trace,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        tag.join(", "),
        errors.join(", "),
        values.join(", "),
    );
    let path = a
        .home
        .join("out")
        .join(format!("result-{}-seed{seed}.json", spec.name));
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the traced in-process replay and fold its metrics in.
fn replay(a: &Args, spec: &Spec, outcome: &mut Outcome) -> Result<(), String> {
    let scale = if a.smoke { "10" } else { "1" };
    let output = Command::new(&a.replay_bin)
        .args(["--workload", spec.name, "--seed", &a.seed.to_string()])
        .args(["--scale", scale, "--home"])
        .arg(&a.home)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", a.replay_bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "replay of {} failed: {}",
            spec.name,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let parsed = line
            .split_once(' ')
            .and_then(|(name, v)| Some((name, v.parse::<f64>().ok()?)));
        match parsed {
            Some((name, v)) if metrics::FROM_REPLAY.iter().any(|(m, _)| *m == name) => {
                outcome.values.insert(name.to_owned(), v);
            }
            _ => return Err(format!("replay printed an unexpected line: {line:?}")),
        }
    }
    // Replay time per query over the server's own handler time per
    // query, taken from the scrape of the end-to-end window.
    let v = &outcome.values;
    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let queries = get(QUERY_REQUESTS);
    let server_ns = if queries > 0.0 {
        get("serve.handle_s.query") * 1e9 / queries
    } else {
        0.0
    };
    let ratio = if server_ns > 0.0 {
        get("trace.replay_query_ns") / server_ns
    } else {
        0.0
    };
    outcome.values.insert(REPLAY_VS_SERVER.0.to_owned(), ratio);
    Ok(())
}

fn config(a: &Args, time_setup: bool) -> Config {
    Config {
        serve_bin: a.serve_bin.clone(),
        home: a.home.clone(),
        seed: a.seed,
        seconds: a.seconds,
        scale: if a.smoke { 50 } else { 1 },
        time_setup,
        bless: a.bless,
    }
}

fn report_errors(spec: &Spec, outcome: &Outcome) {
    for e in &outcome.errors {
        eprintln!("[{}] FAILED: {e}", spec.name);
    }
}

/// The driver's form: one workload, the result object as the last
/// line of stdout.
fn one_workload(a: &Args, name: &str) -> Result<bool, String> {
    let spec = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut outcome = run(&spec, &config(a, !a.trace))?;
    if a.trace {
        replay(a, &spec, &mut outcome)?;
    }
    write_result(a, &spec, &outcome, a.seed, a.trace)?;
    report_errors(&spec, &outcome);
    let list = if a.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics::metrics_json(&list, &outcome.values)?
    );
    Ok(outcome.correct())
}

fn print_values(spec: &Spec, list: &[(&str, &str)], values: &Values) {
    for (name, unit) in list {
        match values.get(*name) {
            Some(v) => println!("{:<14} {name:<32} {v:>16.4} {unit}", spec.name),
            None => println!("{:<14} {name:<32} {:>16} {unit}", spec.name, "-"),
        }
    }
}

/// The developer's form: every workload, end-to-end then traced
/// replay, every metric printed by name with its unit. With
/// `--repeat K` the end-to-end set runs K times and the sets must
/// agree within each metric's bound.
fn all_workloads(a: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<Vec<(Spec, Outcome)>> = Vec::new();
    for set in 0..a.repeat {
        let mut outcomes = Vec::new();
        for spec in workloads() {
            eprintln!("[{}] end-to-end run (set {})", spec.name, set + 1);
            // Each set has its own request stream, as the runs that
            // decide the benchmark's acceptance do.
            let mut cfg = config(a, true);
            cfg.seed += u64::from(set);
            let mut outcome = run(&spec, &cfg)?;
            if set + 1 == a.repeat {
                eprintln!("[{}] traced replay", spec.name);
                replay(a, &spec, &mut outcome)?;
            }
            report_errors(&spec, &outcome);
            ok &= outcome.correct();
            outcomes.push((spec, outcome));
        }
        sets.push(outcomes);
    }
    let last = sets.last().expect("repeat is at least 1");
    println!("{:<14} {:<32} {:>16} unit", "workload", "metric", "value");
    for (spec, outcome) in last {
        write_result(a, spec, outcome, a.seed + u64::from(a.repeat - 1), true)?;
        print_values(spec, &metrics::end_to_end(), &outcome.values);
        print_values(spec, &metrics::per_layer(), &outcome.values);
        println!(
            "{:<14} {:<32} {:>16} count",
            spec.name, "attempted", outcome.attempted
        );
        println!(
            "{:<14} {:<32} {:>16} count",
            spec.name, "failed", outcome.failed
        );
    }
    if a.repeat > 1 {
        ok &= agreement(&sets, a.smoke);
    }
    Ok(ok)
}

/// Repeatability self-check: for every end-to-end metric × workload,
/// how far the sets disagree, against the metric's bound. Two sets:
/// the worse reading over the better, less one. Three or more: the
/// interquartile range as a share of the median — the rule by which
/// the benchmark itself is accepted, over ten sets.
fn agreement(sets: &[Vec<(Spec, Outcome)>], smoke: bool) -> bool {
    let mut ok = true;
    println!();
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>8} {:>10} {:>8} {:>6}",
        "workload", "metric", "first", "last", "ratio", "slice_iqr", "spread", "bound"
    );
    for (w, (spec, _)) in sets[0].iter().enumerate() {
        for (name, _, bound) in END_TO_END {
            let readings: Vec<f64> = sets
                .iter()
                .filter_map(|s| s[w].1.values.get(*name).copied())
                .collect();
            let spread = match readings[..] {
                [a, b] if a.min(b) > 0.0 => a.max(b) / a.min(b) - 1.0,
                [_, _] => f64::INFINITY,
                _ => iqr_share(&readings),
            };
            let iqr = match *name {
                "query_ops_per_s" => sets[0][w].1.values.get("client.query_ops_per_s.iqr"),
                "merge_ops_per_s" => sets[0][w].1.values.get("client.merge_ops_per_s.iqr"),
                _ => None,
            };
            let (first, last) = (readings[0], readings[readings.len() - 1]);
            let verdict = if spread <= *bound {
                ""
            } else if smoke {
                "  (over; not enforced in --smoke)"
            } else {
                ok = false;
                "  OVER BOUND"
            };
            println!(
                "{:<14} {name:<26} {first:>14.4} {last:>14.4} {:>8.4} {:>10} {spread:>8.4} {bound:>6}{verdict}",
                spec.name,
                if first > 0.0 { last / first } else { 0.0 },
                iqr.map_or_else(|| "-".to_owned(), |i| format!("{i:.4}")),
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&a.serve_bin).is_file() {
        eprintln!("loadgen: no server binary at {}", a.serve_bin.display());
        return ExitCode::from(2);
    }
    let outcome = match &a.workload {
        Some(name) => one_workload(&a, name),
        None => all_workloads(&a),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::from(1)
        }
    }
}
