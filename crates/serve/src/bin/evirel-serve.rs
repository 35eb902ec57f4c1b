//! `evirel-serve` — the query-service daemon.
//!
//! ```text
//! evirel-serve [--addr HOST:PORT] [--workers N] [--max-pending N]
//!              [--allow-remote-shutdown] [--data-dir DIR]
//!              [--follow HOST:PORT] [--promote-on-disconnect]
//!              [--retry-budget N]
//!              [--seed-workload TUPLES] [file.evr | file.evb ...]
//! ```
//!
//! Relations given on the command line load under their file
//! basename (`.evb` segments attach as stored relations streaming
//! through the buffer pool). An argument that starts with `-` and is
//! not a flag above prints the usage line and exits 2; pass a file
//! literally named `-x` as `./-x`. `--seed-workload N` additionally
//! registers the paper's restaurant databases (`ra`, `rb`) and a
//! generated union-compatible pair (`ga`, `gb`) of N tuples each —
//! the dataset the `evirel-bombard` load driver (this crate's other
//! binary) targets.
//!
//! With `--data-dir DIR` the server runs **durably**: on boot it
//! recovers the directory's committed catalog (manifest + write-ahead
//! journal replay, checksum-verified segments) and publishes it at
//! the recovered generation; every `MERGE` is written to a
//! checksummed segment and journaled + fsync'd before its generation
//! becomes visible; a clean shutdown checkpoints (manifest swap +
//! journal truncation + segment GC). Command-line relations and
//! `--seed-workload` overlay the recovered state in memory only —
//! recovered bindings win name collisions — so re-running with the
//! same flags reproduces the same catalog without re-journaling the
//! seeds on every boot.
//!
//! With `--follow HOST:PORT` (requires `--data-dir`) the server runs
//! as a **replication standby**: it subscribes to the primary's
//! durable generation stream with the `FOLLOW` verb, journals +
//! fsyncs every replicated record before publishing it, serves
//! `QUERY`/`EXPLAIN`/`STATS` at the applied generation, and rejects
//! `MERGE` with `ERR readonly`. Promotion — the `PROMOTE` verb from
//! loopback, or automatically after `--retry-budget` failed
//! reconnects when `--promote-on-disconnect` is given — stops
//! following and makes the server writable.
//!
//! `main` reads the configuration once ([`Config::from_env`]) and
//! passes it down: `EVIREL_THREADS` (worker threads for query
//! execution) and `EVIREL_BUFFER_BYTES` (buffer-pool/spill budget),
//! both carved across the session pool. `EVIREL_SLOW_QUERY_MS` sets
//! the slow-query threshold: queries at or above it emit one
//! structured `slow_query` event (normalized EQL, per-stage span
//! timings, est-vs-actual rows) to stderr and the in-process event
//! ring — default 500, `0` logs every query, junk values warn once and
//! fall back. Every counter the server keeps is scrapable over the
//! `METRICS` verb in Prometheus text form; `STATS` renders the same
//! registry human-readably. The server prints one line —
//! `evirel-serve listening on <addr>` — to stdout once the socket is
//! bound, then runs until a client sends `SHUTDOWN` — which only
//! loopback clients may do unless `--allow-remote-shutdown` is given
//! (anyone who can connect to a public `--addr` could otherwise stop
//! the server).

use evirel_plan::Config;
use evirel_query::{Catalog, DurableCatalog};
use evirel_serve::{start_with_durability, FollowConfig, ServeConfig};
use std::io::Write;

const USAGE: &str = "usage: evirel-serve [--addr HOST:PORT] [--workers N] \
                     [--max-pending N] [--allow-remote-shutdown] \
                     [--data-dir DIR] [--follow HOST:PORT] \
                     [--promote-on-disconnect] [--retry-budget N] \
                     [--seed-workload TUPLES] [file.evr|file.evb ...]";

fn main() {
    let env = Config::from_env();
    let mut config = ServeConfig {
        addr: "127.0.0.1:4643".into(),
        slow_query_ms: env.slow_query_ms,
        ..ServeConfig::default()
    };
    let mut seed_tuples: Option<usize> = None;
    let mut data_dir: Option<String> = None;
    let mut follow: Option<FollowConfig> = None;
    let mut promote_on_disconnect = false;
    let mut retry_budget: Option<u32> = None;
    let mut files = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--addr" => config.addr = required(&mut args, "--addr"),
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "--workers" => config.workers = parse_num(&required(&mut args, "--workers")),
            "--max-pending" => {
                config.max_pending = parse_num(&required(&mut args, "--max-pending"));
            }
            "--seed-workload" => {
                seed_tuples = Some(parse_num(&required(&mut args, "--seed-workload")));
            }
            "--data-dir" => data_dir = Some(required(&mut args, "--data-dir")),
            "--follow" => follow = Some(FollowConfig::new(required(&mut args, "--follow"))),
            "--promote-on-disconnect" => promote_on_disconnect = true,
            "--retry-budget" => {
                let n = parse_num(&required(&mut args, "--retry-budget"));
                retry_budget = Some(u32::try_from(n).unwrap_or(u32::MAX));
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown argument {flag:?}\n{USAGE}");
                std::process::exit(2);
            }
            path => files.push(path.to_owned()),
        }
    }
    match &mut follow {
        Some(f) => {
            f.promote_on_disconnect = promote_on_disconnect;
            if let Some(budget) = retry_budget {
                f.retry_budget = budget;
            }
            if data_dir.is_none() {
                eprintln!("--follow requires --data-dir (replicated records are journaled)");
                std::process::exit(2);
            }
        }
        None if promote_on_disconnect || retry_budget.is_some() => {
            eprintln!("--promote-on-disconnect / --retry-budget only apply with --follow");
            std::process::exit(2);
        }
        None => {}
    }
    config.follow = follow;

    let mut catalog = Catalog::with_config(&env);
    for path in &files {
        if let Err(e) = load(&mut catalog, path) {
            eprintln!("error loading {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(tuples) = seed_tuples {
        if let Err(e) = seed(&mut catalog, tuples) {
            eprintln!("error seeding workload: {e}");
            std::process::exit(1);
        }
    }

    // Recover the data directory last and overlay its committed
    // bindings on top of the seeds/files: the durable state is the
    // authority on name collisions.
    let (catalog, durable) = match data_dir {
        None => (catalog, None),
        Some(dir) => match DurableCatalog::open_into(&dir, catalog) {
            Ok((durable, catalog)) => {
                let names: Vec<&str> = catalog
                    .names()
                    .into_iter()
                    .filter(|name| durable.segment(name).is_some())
                    .collect();
                eprintln!(
                    "evirel-serve: recovered {dir} at generation {} ({} binding(s){}{})",
                    durable.recovered_generation(),
                    names.len(),
                    if names.is_empty() { "" } else { ": " },
                    names.join(", "),
                );
                (catalog, Some(durable))
            }
            Err(e) => {
                eprintln!("error recovering {dir}: {e}");
                std::process::exit(1);
            }
        },
    };

    let handle = match start_with_durability(catalog, config, durable) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("evirel-serve listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    let metrics = handle.join();
    let v = |name: &str| metrics.value(name, &[]).unwrap_or(0);
    eprintln!(
        "evirel-serve: shut down cleanly — {} session(s), {} request(s), \
         {} error(s), {} busy rejection(s), {} merge(s), {} panic(s)",
        v("evirel_serve_sessions_total"),
        v("evirel_serve_requests_handled_total"),
        v("evirel_serve_request_errors_total"),
        v("evirel_serve_busy_rejected_total"),
        v("evirel_serve_merges_total"),
        v("evirel_serve_panics_total"),
    );
    if v("evirel_serve_panics_total") > 0 {
        std::process::exit(1);
    }
}

fn required(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn parse_num(raw: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("expected a positive integer, got {raw:?}");
            std::process::exit(2);
        }
    }
}

fn load(catalog: &mut Catalog, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation")
        .to_owned();
    if path.ends_with(".evb") {
        catalog.attach_stored(name, path)?;
        return Ok(());
    }
    let text = std::fs::read_to_string(path)?;
    catalog.register(name, evirel_storage::read_relation(&text)?);
    Ok(())
}

fn seed(catalog: &mut Catalog, tuples: usize) -> Result<(), Box<dyn std::error::Error>> {
    catalog.register("ra", evirel_workload::restaurant_db_a().restaurants);
    catalog.register("rb", evirel_workload::restaurant_db_b().restaurants);
    let pair = evirel_workload::PairConfig {
        base: evirel_workload::GeneratorConfig {
            tuples,
            ..evirel_workload::GeneratorConfig::default()
        },
        key_overlap: 0.5,
        conflict_bias: 0.25,
    };
    let (ga, gb) = evirel_workload::generator::generate_pair(&pair)?;
    catalog.register("ga", ga);
    catalog.register("gb", gb);
    Ok(())
}
