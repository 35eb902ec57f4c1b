//! `replay` — the per-layer side of the benchmark: the first requests
//! of a workload's stream handled in-process, on one thread, with one
//! span around each call into a layer (see `layers.rs`, the only file
//! that names the repository's symbols).
//!
//! ```text
//! replay --workload W --seed N [--scale K] --home benchmark
//! ```
//!
//! Prints `<metric> <value>` lines for the metrics of
//! `metrics::FROM_REPLAY` and writes the spans to
//! `out/trace-<workload>.jsonl`.
//!
//! Two kinds of root span. A `request` span's children are the calls
//! the server makes for that request, in order, so the children sum to
//! the request. A `detail` span follows it and re-runs, each on its
//! own, the public steps that the request made inside one call (the
//! steps of a prepare, the steps of a publish), on the same input.

use evirel_benchmark::layers::{Decoded, Engine, Pinned, Rows};
use evirel_benchmark::metrics::FROM_REPLAY;
use evirel_benchmark::span::{durations_of, self_times, Tracer};
use evirel_benchmark::stats::percentile;
use evirel_benchmark::stream::{workload, Mix, Request, Spec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

type Failure = Box<dyn std::error::Error>;

/// Pairs the merge kernels time, at most.
const KERNEL_PAIRS: usize = 2000;

fn frame_of(req: &Request) -> Vec<u8> {
    let mut frame = (req.payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(req.payload.as_bytes());
    frame
}

/// The single-threaded stand-in for a workload's two connections:
/// reads alternate between the two query streams; with a writer, one
/// merge goes out for every two reads.
fn requests(spec: &Spec, seed: u64, n: usize) -> Vec<Request> {
    let mut a = spec.queries(seed, 0);
    let mut b = spec.queries(seed, 1);
    let mut merges = 0u64;
    (0..n)
        .map(|i| match (spec.mix, i % 3) {
            (Mix::WriterAndReader, 0) => {
                merges += 1;
                spec.merge(merges - 1)
            }
            _ if i % 2 == 0 => a.next().expect("endless"),
            _ => b.next().expect("endless"),
        })
        .collect()
}

/// pin → prepare → execute, as `Session::query` does.
fn query(engine: &Engine, t: &mut Tracer, text: &str) -> Result<(Pinned, Rows, bool), Failure> {
    let pinned = t.span("query.pin", |_| engine.pin());
    let planned = t.span_named(|_| {
        let planned = engine.prepare(&pinned, text);
        let hit = planned.as_ref().is_ok_and(|p| p.hit);
        let name = if hit {
            "query.cache_hit"
        } else {
            "query.prepare_miss"
        };
        (name, planned)
    })?;
    let rows = t.span("plan.execute", |_| engine.execute(&pinned, &planned))?;
    Ok((pinned, rows, planned.hit))
}

/// One request, the way the server's connection loop handles it.
fn handle(
    engine: &mut Engine,
    t: &mut Tracer,
    frame: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), Failure> {
    let decoded = t.span("request", |t| -> Result<Decoded, Failure> {
        let decoded = t.span("serve.decode", |_| Engine::decode(frame))?;
        match &decoded {
            Decoded::Query(text) => {
                let (pinned, rows, hit) = query(engine, t, text)?;
                let body = t.span("relation.render", |_| Engine::render(&rows, hit, &pinned));
                t.span("serve.encode", |_| Engine::encode(body, out))?;
            }
            Decoded::Merge { name, query: text } => {
                let (_, rows, _) = query(engine, t, text)?;
                let generation = t.span("query.publish", |_| engine.publish(name, &rows))?;
                let body = format!(
                    "merged {name} tuples={} generation={generation}",
                    Engine::tuples(&rows)
                );
                t.span("serve.encode", |_| Engine::encode(body, out))?;
            }
        }
        Ok(decoded)
    })?;
    // The same input once more, one public step at a time.
    t.span("detail", |t| -> Result<(), Failure> {
        let (Decoded::Query(text) | Decoded::Merge { query: text, .. }) = &decoded;
        let pinned = engine.pin();
        t.span("query.normalize", |_| Engine::normalize(text));
        let stmt = t.span("query.lex_parse", |_| Engine::lex_parse(text))?;
        let lowered = t.span("query.lower", |_| Engine::lower(&stmt, &pinned))?;
        t.span("plan.optimize", |_| Engine::optimize(&lowered, &pinned));
        if let Decoded::Merge { name, .. } = &decoded {
            let planned = engine.prepare(&pinned, text)?;
            let rows = engine.execute(&pinned, &planned)?;
            t.span("store.segment_write", |_| engine.segment_write(&rows))?;
            t.span("store.journal_fsync", |_| engine.journal_append(name, 1))?;
        }
        Ok(())
    })
}

/// Median of ascending nanosecond durations; 0 for none.
fn median_ns(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, 0.5) as f64
    }
}

fn run(spec: &Spec, seed: u64, scale: usize, home: PathBuf) -> Result<(), Failure> {
    let out_dir = home.join("out");
    let work_dir = out_dir.join(format!("replay-{}", spec.name));
    let mut engine = Engine::open(spec, &work_dir)?;
    let n = (spec.replay_requests as usize / scale).max(8);
    let warmup = (spec.warmup_per_conn as usize * 2).min(n);
    let all = requests(spec, seed, warmup + 2 * n);
    let frames: Vec<Vec<u8>> = all.iter().map(frame_of).collect();
    let (warm, rest) = frames.split_at(warmup);
    let (traced_frames, untraced_frames) = rest.split_at(n);
    let mut out = Vec::new();

    let mut off = Tracer::new(false);
    if spec.stored.is_empty() {
        // Every end-to-end run writes m0..m7 at some point; the scan
        // kernel of a workload without stored segments reads m0.
        handle(&mut engine, &mut off, &frame_of(&spec.merge(0)), &mut out)?;
    }
    for frame in warm {
        handle(&mut engine, &mut off, frame, &mut out)?;
    }

    // Traced and untraced requests alternate in ten chunks each, so
    // that a slow second on the box lands on both sides of the
    // overhead ratio. The untraced side takes the same code path with
    // the tracer off (and so also runs the detail steps): the ratio
    // isolates what recording spans costs.
    let mut tracer = Tracer::new(true);
    let (mut traced_wall, mut untraced_wall) = (0.0f64, 0.0f64);
    let chunk = n.div_ceil(10);
    for (c, (traced, untraced)) in traced_frames
        .chunks(chunk)
        .zip(untraced_frames.chunks(chunk))
        .enumerate()
    {
        let started = Instant::now();
        for (i, frame) in traced.iter().enumerate() {
            tracer.set_trace((c * chunk + i) as u32);
            handle(&mut engine, &mut tracer, frame, &mut out)?;
        }
        traced_wall += started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        for frame in untraced {
            handle(&mut engine, &mut off, frame, &mut out)?;
        }
        untraced_wall += started.elapsed().as_nanos() as f64;
    }

    let spans = tracer.spans();
    let selfs = self_times(spans);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in FROM_REPLAY {
        if let Some(span_name) = name.strip_suffix("_ns") {
            values.insert(name, median_ns(&durations_of(spans, span_name)));
        }
    }

    // Handler time of a query request: what the server's own
    // per-verb latency histogram covers (pin, prepare, execute,
    // render — not decode, not encode).
    let merges: BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "query.publish")
        .map(|s| s.trace)
        .collect();
    let mut handler: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        let in_request = s
            .parent
            .is_some_and(|p| spans[p as usize].name == "request");
        let counted = matches!(
            s.name,
            "query.pin"
                | "query.cache_hit"
                | "query.prepare_miss"
                | "plan.execute"
                | "relation.render"
        );
        if in_request && counted && !merges.contains(&s.trace) {
            *handler.entry(s.trace).or_default() += s.duration();
        }
    }
    let mut per_query: Vec<u64> = handler.into_values().collect();
    per_query.sort_unstable();
    values.insert("trace.replay_query_ns", median_ns(&per_query));

    let (mut request_total, mut request_self) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.name == "request" {
            request_total += s.duration();
            request_self += own;
        }
    }
    values.insert(
        "trace.unattributed_share",
        request_self as f64 / request_total.max(1) as f64,
    );
    values.insert("trace.overhead_ratio", traced_wall / untraced_wall.max(1.0));

    // Kernels on the relations this workload reads or writes.
    let scanned = spec.stored.first().map_or("m0", |(name, _)| name);
    let (tuples, scan_ns) = engine.scan_kernel(scanned)?;
    values.insert(
        "store.scan_ns_per_tuple",
        scan_ns as f64 / tuples.max(1) as f64,
    );
    let (left, right) = match spec.stored {
        [(a, _), (b, _)] => (*a, *b),
        _ => ("ra", "rb"),
    };
    let (pairs, merge_ns, attrs, dempster_ns) = engine.merge_kernels(left, right, KERNEL_PAIRS)?;
    values.insert(
        "algebra.merge_ns_per_pair",
        merge_ns as f64 / pairs.max(1) as f64,
    );
    values.insert(
        "evidence.dempster_ns_per_pair",
        dempster_ns as f64 / attrs.max(1) as f64,
    );

    let trace_path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&trace_path)?);
    tracer.write_jsonl(&mut file)?;
    std::io::Write::flush(&mut file)?;
    let _ = std::fs::remove_dir_all(work_dir);

    for (name, _) in FROM_REPLAY {
        let v = values
            .get(name)
            .ok_or_else(|| format!("{name} not measured"))?;
        println!("{name} {v}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let (mut name, mut seed, mut scale, mut home) =
        (None, 1u64, 1usize, PathBuf::from("benchmark"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse().unwrap_or(1),
            "--scale" => scale = value.parse().unwrap_or(1).max(1),
            "--home" => home = value.into(),
            other => {
                eprintln!("replay: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(spec) = name.as_deref().and_then(workload) else {
        eprintln!("replay: --workload must name one of the benchmark's workloads");
        return ExitCode::from(2);
    };
    match run(&spec, seed, scale, home) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("replay: {e}");
            ExitCode::from(1)
        }
    }
}
