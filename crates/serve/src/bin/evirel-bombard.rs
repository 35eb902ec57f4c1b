//! `evirel-bombard` — load generator for the evirel-serve service, over
//! [`evirel_serve::load`]: it speaks the server's own frame codec.
//!
//! ```text
//! evirel-bombard --addr HOST:PORT [--read-addr HOST:PORT]
//!                [--sessions N] [--ops N] [--merge-every K]
//!                [--shutdown]
//! evirel-bombard --addr HOST:PORT --request PAYLOAD
//! ```
//!
//! Opens `--sessions` concurrent connections (barrier-synchronized,
//! one thread each), issues `--ops` requests per session mixing
//! `QUERY` reads with a `MERGE` write every `--merge-every`-th
//! request, and prints the exact counters plus per-verb
//! client-observed latency percentiles (p50/p90/p99/max — what the
//! client waited, queueing and wire included, unlike the server's own
//! handling-time histograms). A request answered `BUSY` is retried
//! once on a fresh connection, and the retry's reply is counted like a
//! first reply. With `--shutdown` it sends the
//! `SHUTDOWN` verb after the run (the CI clean-shutdown gate).
//!
//! `--read-addr` splits the load across a replicated pair: `QUERY`
//! reads go to the standby at that address (each session opens a
//! second connection) while `MERGE` writes stay on `--addr` — a
//! follower answers writes with `ERR readonly`, so the split is what
//! lets the mixed workload drive a primary/follower deployment with
//! zero expected errors.
//!
//! `--request PAYLOAD` skips the load run entirely: one connection,
//! one request, response printed to stdout (literal `\n` in the
//! payload becomes a newline, so `--request 'QUERY\nSELECT …'` works
//! from a shell). Exit 0 iff the server answered `OK`. This is the
//! scripting interface the crash-recovery CI harness drives STATS and
//! QUERY probes through.
//!
//! Exit status: 0 iff the run saw **zero protocol errors and zero
//! server errors** — the acceptance bar for the service under
//! ≥ 1000 concurrent sessions.

use evirel_serve::load::{request_once, run_load, LoadConfig};
use std::time::{Duration, Instant};

fn main() {
    let mut config = LoadConfig::default();
    let mut shutdown_after = false;
    let mut one_shot: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!(
                    "usage: evirel-bombard --addr HOST:PORT [--read-addr HOST:PORT] \
                     [--sessions N] [--ops N] [--merge-every K] [--shutdown]\n\
                     \x20      evirel-bombard --addr HOST:PORT --request PAYLOAD"
                );
                return;
            }
            "--request" => one_shot = Some(required(&mut args, "--request")),
            "--addr" => config.addr = required(&mut args, "--addr"),
            "--read-addr" => config.read_addr = Some(required(&mut args, "--read-addr")),
            "--sessions" => config.sessions = parse_num(&required(&mut args, "--sessions"), 1),
            "--ops" => config.ops_per_session = parse_num(&required(&mut args, "--ops"), 1),
            "--merge-every" => {
                // 0 = read-only workload.
                config.merge_every = parse_num(&required(&mut args, "--merge-every"), 0);
            }
            "--shutdown" => shutdown_after = true,
            other => {
                eprintln!("unknown argument {other:?} (see --help)");
                std::process::exit(2);
            }
        }
    }

    if let Some(payload) = one_shot {
        // `\n` from the shell → a real newline, so multi-line verbs
        // (QUERY, MERGE) are expressible in one argument.
        let payload = payload.replace("\\n", "\n");
        match request_once(&config.addr, &payload, Duration::from_secs(30)) {
            Ok(resp) => {
                println!("{resp}");
                if !resp.starts_with("OK") {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let started = Instant::now();
    let report = run_load(&config);
    let elapsed = started.elapsed();

    println!(
        "evirel-bombard: {} session(s) x {} op(s) against {}{} in {:.2?}",
        config.sessions,
        config.ops_per_session,
        config.addr,
        match &config.read_addr {
            Some(read) => format!(" (reads -> {read})"),
            None => String::new(),
        },
        elapsed
    );
    println!(
        "  completed={} ok={} cached_plans={} merges={} busy_retries={} \
         busy_give_ups={} protocol_errors={} server_errors={}",
        report.sessions_completed,
        report.ops_ok,
        report.cached_plans,
        report.merges_ok,
        report.busy_retries,
        report.busy_give_ups,
        report.protocol_errors,
        report.server_errors,
    );
    for (verb, lat) in [
        ("query", report.query_latency),
        ("merge", report.merge_latency),
        ("ping", report.ping_latency),
    ] {
        if lat.count > 0 {
            println!(
                "  {verb} latency (client-observed, n={}): p50={} p90={} p99={} max={}",
                lat.count,
                format_us(lat.p50_us),
                format_us(lat.p90_us),
                format_us(lat.p99_us),
                format_us(lat.max_us),
            );
        }
    }

    if shutdown_after {
        match request_once(&config.addr, "SHUTDOWN", Duration::from_secs(30)) {
            Ok(resp) if resp.starts_with("OK") => println!("  shutdown acknowledged"),
            Ok(resp) => {
                eprintln!("  shutdown not acknowledged: {resp:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("  shutdown request failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if report.protocol_errors > 0 || report.server_errors > 0 {
        std::process::exit(1);
    }
}

/// Render a microsecond reading at a human scale (µs/ms/s).
fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn required(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn parse_num(raw: &str, min: usize) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n >= min => n,
        _ => {
            eprintln!("expected an integer >= {min}, got {raw:?}");
            std::process::exit(2);
        }
    }
}
