//! `eql` — an interactive shell for extended relations.
//!
//! ```text
//! eql ra.evr rb.evr              # load stored relations, start a REPL
//! eql -e "SELECT * FROM ra" ra.evr
//! ```
//!
//! Relations load under the basename of their file (`ra.evr` → `ra`).
//! The shell runs on the same epoch-snapshot machinery as the
//! `evirel-serve` query service: every query pins one catalog
//! generation, plans resolve through a prepared-plan cache keyed by
//! (normalized text, generation), and meta-commands that change
//! bindings (`\load`) publish a new generation — which invalidates
//! affected cached plans automatically.
//!
//! Meta-commands inside the REPL:
//!
//! * `\d` — list relations and schemas;
//! * `\explain <query>` — logical plan, fired rewrites, optimized
//!   plan, physical operator tree with estimated vs actual rows per
//!   operator (the query executes; its result is discarded),
//!   plan-cache state;
//! * `\conflicts` — the ∪̃ conflict report of the last query;
//! * `\rank` — render the next query's result ranked by `sn`;
//! * `\set threads <N>` — worker threads for query execution (plan
//!   fragments run through the parallel exchange operator when > 1;
//!   the initial value is `EVIREL_THREADS`, default 1);
//! * `\save <name> <path>` — write a relation back to disk (text
//!   notation);
//! * `\store <name> <path>` — write a relation to a paged binary
//!   segment (the storage engine's format);
//! * `\load <name> <path>` — attach a binary segment as a *stored*
//!   relation: queries stream its pages through the buffer pool
//!   (budget: `EVIREL_BUFFER_BYTES`) instead of loading it into
//!   memory;
//! * `\open <dir>` — open a durable data directory: recover its
//!   committed bindings (manifest + write-ahead journal replay) and
//!   publish them into the catalog; subsequent `\checkpoint`s persist
//!   into this directory;
//! * `\checkpoint` — durably persist every current relation into the
//!   open data directory (checksummed segments + manifest swap) and
//!   truncate the journal;
//! * `\stats` — per-relation statistics (tuple count, distinct-key
//!   estimate, average focal width, observed κ) as the planner's cost
//!   model sees them;
//! * `\pool` — buffer-pool statistics (hits/misses/evictions/bytes),
//!   read from the shared metrics registry;
//! * `\cache` — prepared-plan cache statistics (hits = re-executions
//!   that skipped lowering/rewrite) and the current generation, read
//!   from the shared metrics registry;
//! * `\metrics` — every counter/gauge/histogram in Prometheus text
//!   exposition (what the query service's `METRICS` verb returns);
//! * `\q` — quit.
//!
//! Files ending in `.evb` on the command line are attached as stored
//! relations; anything else is parsed as the text notation.
//!
//! `EVIREL_THREADS`, `EVIREL_BUFFER_BYTES` and `EVIREL_SLOW_QUERY_MS`
//! are read once, at startup ([`Config::from_env`]).

use evirel_algebra::ConflictReport;
use evirel_plan::Config;
use evirel_query::{Catalog, DurableCatalog, PlanCache, QueryError, Session, SharedCatalog};
use evirel_relation::Value;
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    let config = Config::from_env();
    let mut catalog = Catalog::with_config(&config);
    let mut inline_query: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    let mut loaded = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" | "--execute" => match args.next() {
                Some(q) => inline_query = Some(q),
                None => {
                    eprintln!("-e requires a query argument");
                    std::process::exit(2);
                }
            },
            "-h" | "--help" => {
                println!("usage: eql [-e QUERY] [file.evr ...]");
                return;
            }
            path => match load(&mut catalog, path) {
                Ok(name) => loaded.push(name),
                Err(e) => {
                    eprintln!("error loading {path}: {e}");
                    std::process::exit(1);
                }
            },
        }
    }

    let shared = Arc::new(SharedCatalog::new(catalog));
    let cache = Arc::new(PlanCache::default());
    // The REPL shares the server's collector wiring against the
    // process-global registry: `\pool`, `\cache` and `\metrics` read
    // the exact series the `METRICS` verb would expose.
    evirel_query::register_query_collectors(evirel_obs::global(), &shared, &cache);
    let mut session = Session::new(shared, cache);
    session.set_slow_query_ms(config.slow_query_ms);

    if let Some(q) = inline_query {
        run_query(&session, &q, false);
        return;
    }

    eprintln!(
        "eql — evidential query shell ({} relation(s) loaded: {})",
        loaded.len(),
        loaded.join(", ")
    );
    eprintln!(
        "type \\q to quit, \\d to describe relations, \\explain <query> for plans, \
         \\conflicts for the last query's ∪̃ report, \\set threads N for parallel execution"
    );
    let stdin = std::io::stdin();
    let mut ranked = false;
    let mut last_report: Option<ConflictReport> = None;
    let mut durable: Option<DurableCatalog> = None;
    loop {
        eprint!("eql> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix('\\') {
            let mut parts = meta.split_whitespace();
            match parts.next() {
                Some("q") => break,
                Some("d") => {
                    let snapshot = session.pin();
                    let catalog = snapshot.catalog();
                    for name in catalog.names() {
                        if let Some(rel) = catalog.get(name) {
                            println!("{name}: {} ({} tuples)", rel.schema(), rel.len());
                        } else if let Some(stored) = catalog.get_stored(name) {
                            println!(
                                "{name}: {} ({} tuples, stored: {} pages on disk)",
                                stored.schema(),
                                stored.len(),
                                stored.segment().page_count(),
                            );
                        }
                    }
                }
                Some("explain") => {
                    let rest = meta.strip_prefix("explain").unwrap_or("").trim();
                    if rest.is_empty() {
                        println!("usage: \\explain <query>");
                    } else {
                        // Full optimizer/physical explain against the
                        // pinned snapshot (with the plan-cache line).
                        // When the plan cannot be built (unknown
                        // relation/attribute, …), report the error —
                        // and still show the bare logical tree for
                        // context if the query at least parses.
                        match session.explain(rest) {
                            Ok(plan) => print!("{plan}"),
                            Err(e) => {
                                println!("error: {e}");
                                if let Ok(logical) = evirel_query::explain(rest) {
                                    print!("logical (unvalidated):\n{logical}");
                                }
                            }
                        }
                    }
                }
                Some("conflicts") => match &last_report {
                    None => println!("no report (no query has run yet, or the last one failed)"),
                    Some(report) => print_report(report),
                },
                Some("rank") => {
                    ranked = !ranked;
                    println!("ranked output {}", if ranked { "on" } else { "off" });
                }
                Some("set") => match (parts.next(), parts.next()) {
                    (Some("threads"), Some(n)) => match n.parse::<usize>() {
                        Ok(n) if (1..=evirel_plan::MAX_PARALLELISM).contains(&n) => {
                            let set = session.update(|c| {
                                c.parallelism = n;
                                Ok(())
                            });
                            match set {
                                Ok(()) => println!(
                                    "execution threads set to {n}{}",
                                    if n == 1 { " (sequential)" } else { "" }
                                ),
                                Err(e) => println!("error: {e}"),
                            }
                        }
                        _ => println!(
                            "threads must be an integer in 1..={}, got {n:?}",
                            evirel_plan::MAX_PARALLELISM
                        ),
                    },
                    (Some("threads"), None) => {
                        println!("execution threads: {}", session.pin().catalog().parallelism);
                    }
                    _ => println!("usage: \\set threads <N>"),
                },
                Some("save") => match (parts.next(), parts.next()) {
                    // `materialize` covers stored attachments too, so
                    // everything \d lists can be saved as text.
                    (Some(name), Some(path)) => match session.pin().catalog().materialize(name) {
                        Ok(rel) => {
                            let text = evirel_storage::write_relation(&rel);
                            match std::fs::write(path, text) {
                                Ok(()) => println!("wrote {name} to {path}"),
                                Err(e) => println!("write failed: {e}"),
                            }
                        }
                        Err(e) => println!("save failed: {e}"),
                    },
                    _ => println!("usage: \\save <name> <path>"),
                },
                Some("store") => match (parts.next(), parts.next()) {
                    (Some(name), Some(path)) => {
                        match session.pin().catalog().store_segment(name, path) {
                            Ok(()) => println!("wrote {name} to binary segment {path}"),
                            Err(e) => println!("store failed: {e}"),
                        }
                    }
                    _ => println!("usage: \\store <name> <path>"),
                },
                Some("load") => match (parts.next(), parts.next()) {
                    (Some(name), Some(path)) => {
                        // The attach publishes a new catalog
                        // generation; cached plans over the old
                        // binding go stale automatically.
                        let attached = session.update(|c| {
                            c.attach_stored(name.to_owned(), path)?;
                            c.get_stored(name).ok_or_else(|| QueryError::Execution {
                                message: format!("{name} vanished during attach"),
                            })
                        });
                        match attached {
                            Ok(stored) => println!(
                                "attached {name} from {path} ({} tuples, {} pages; \
                                 queries stream through the buffer pool)",
                                stored.len(),
                                stored.segment().page_count(),
                            ),
                            Err(e) => println!("load failed: {e}"),
                        }
                    }
                    _ => println!("usage: \\load <name> <path>"),
                },
                Some("open") => match parts.next() {
                    Some(dir) => {
                        // Recover into the live catalog — its pool, its
                        // budget — and publish the recovered bindings
                        // as one new generation.
                        let opened = session.update(|c| {
                            let (d, recovered) = DurableCatalog::open_into(dir, c.clone())?;
                            *c = recovered;
                            let names = c.names().into_iter().filter(|n| d.segment(n).is_some());
                            let names: Vec<String> = names.map(str::to_owned).collect();
                            Ok((d, names))
                        });
                        match opened {
                            Ok((d, names)) => {
                                println!(
                                    "opened {dir}: recovered generation {}, {} binding(s){}{}",
                                    d.recovered_generation(),
                                    names.len(),
                                    if names.is_empty() { "" } else { ": " },
                                    names.join(", "),
                                );
                                durable = Some(d);
                            }
                            Err(e) => println!("open failed: {e}"),
                        }
                    }
                    None => println!("usage: \\open <dir>"),
                },
                Some("checkpoint") => match durable.as_mut() {
                    Some(d) => {
                        let pinned = session.pin();
                        match d.checkpoint_full(pinned.catalog()) {
                            Ok(persisted) => {
                                let stats = d.stats();
                                println!(
                                    "checkpointed {persisted} binding(s) into {} \
                                     (durable generation {})",
                                    d.dir().display(),
                                    stats.committed_generation,
                                );
                            }
                            Err(e) => println!("checkpoint failed: {e}"),
                        }
                    }
                    None => println!("no data directory open — \\open <dir> first"),
                },
                Some("stats") => {
                    print!("{}", session.pin().catalog().stats_summary());
                }
                // `\pool` and `\cache` read the shared metrics
                // registry — the same series `\metrics` renders —
                // not the subsystems directly, so every surface
                // reports identical numbers.
                Some("pool") => {
                    let registry = evirel_obs::global();
                    registry.refresh();
                    let v = |name: &str| registry.value(name, &[]).unwrap_or(0);
                    println!(
                        "buffer pool: budget {} B, cached {} B in {} page(s); \
                         {} hit(s), {} miss(es), {} eviction(s), {} overcommit(s)",
                        session.pin().catalog().pool.budget_bytes(),
                        v("evirel_store_pool_cached_bytes"),
                        v("evirel_store_pool_cached_pages"),
                        v("evirel_store_pool_hits_total"),
                        v("evirel_store_pool_misses_total"),
                        v("evirel_store_pool_evictions_total"),
                        v("evirel_store_pool_overcommits_total"),
                    );
                }
                Some("cache") => {
                    let registry = evirel_obs::global();
                    registry.refresh();
                    let v = |name: &str| registry.value(name, &[]).unwrap_or(0);
                    println!(
                        "plan cache: {} entries, generation {}; {} hit(s) \
                         (lowering/rewrite skipped), {} miss(es), {} stale \
                         (a scanned relation was rebound), {} eviction(s)",
                        v("evirel_query_cache_entries"),
                        v("evirel_catalog_generation"),
                        v("evirel_query_cache_hits_total"),
                        v("evirel_query_cache_misses_total"),
                        v("evirel_query_cache_stale_total"),
                        v("evirel_query_cache_evictions_total"),
                    );
                }
                Some("metrics") => {
                    // Full Prometheus-style exposition — everything
                    // the server's METRICS verb would return for this
                    // process.
                    print!("{}", evirel_obs::global().render());
                }
                other => println!("unknown meta-command {other:?}"),
            }
            continue;
        }
        // A failed query clears the report — \conflicts always refers
        // to the *last* statement, never a stale earlier one.
        last_report = run_query(&session, line, ranked);
    }
}

fn load(catalog: &mut Catalog, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation")
        .to_owned();
    // Binary segments attach as stored relations (paged, never fully
    // in memory); everything else is the text notation.
    if path.ends_with(".evb") {
        catalog.attach_stored(name.clone(), path)?;
        return Ok(name);
    }
    let text = std::fs::read_to_string(path)?;
    let rel = evirel_storage::read_relation(&text)?;
    catalog.register(name.clone(), rel);
    Ok(name)
}

fn run_query(session: &Session, query: &str, ranked: bool) -> Option<ConflictReport> {
    match session.query(query) {
        Ok(out) => {
            if ranked {
                print!(
                    "{}",
                    evirel_query::format::render_ranked(&out.outcome.relation)
                );
            } else {
                print!("{}", out.outcome.relation);
            }
            let cached = if out.cached_plan { ", cached plan" } else { "" };
            if out.outcome.report.is_empty() {
                println!("({} tuple(s){cached})", out.outcome.relation.len());
            } else {
                println!(
                    "({} tuple(s), {} conflict(s) — \\conflicts for the report{cached})",
                    out.outcome.relation.len(),
                    out.outcome.report.len()
                );
            }
            Some(out.outcome.report)
        }
        Err(e) => {
            println!("error: {e}");
            None
        }
    }
}

/// Print a conflict report, one observation per line.
fn print_report(report: &ConflictReport) {
    if report.is_empty() {
        println!("no conflicts observed in the last query");
        return;
    }
    println!(
        "{} conflict(s), max κ = {:.3}, mean κ = {:.3}:",
        report.len(),
        report.max_kappa(),
        report.mean_kappa()
    );
    for c in report.conflicts() {
        println!(
            "  key={} attr={} κ={:.3}{}",
            Value::render_key(&c.key),
            c.attr,
            c.kappa,
            if c.total {
                " (TOTAL — policy applied)"
            } else {
                ""
            }
        );
    }
}
