//! The metric names and units this benchmark reports — the same lists
//! as `BENCHMARK.json` (a test keeps the two in step).

use std::collections::BTreeMap;

/// End-to-end metrics: what a client of the service sees, each with
/// its unit and the share of the parent's median by which it may
/// worsen before a change counts as a regression. Each is reported on
/// every workload.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("query_ops_per_s", "1/s", 0.25),
    ("query_p50_us", "us", 0.25),
    ("merge_ops_per_s", "1/s", 0.25),
    ("merge_p50_us", "us", 0.25),
    ("server_peak_rss_mb", "MiB", 0.1),
    ("disk_bytes_per_user_byte", "B/B", 0.01),
];

/// [`END_TO_END`] without the bounds.
pub fn end_to_end() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect()
}

/// Per-layer metrics the generator measures itself.
pub const FROM_GENERATOR: &[(&str, &str)] = &[
    ("client.query_p99_us", "us"),
    ("client.merge_p99_us", "us"),
    ("client.query_max_us", "us"),
    ("client.query_ops_per_s.iqr", "ratio"),
    ("client.merge_ops_per_s.iqr", "ratio"),
    ("client.samples", "count"),
    ("client.failed", "count"),
    ("store.recover_ms", "ms"),
];

/// Per-layer metrics from the `METRICS` scrape: deltas across the main
/// window.
pub const FROM_SCRAPE: &[(&str, &str)] = &[
    ("serve.requests", "count"),
    ("serve.bytes_read", "B"),
    ("serve.bytes_written", "B"),
    ("serve.busy_rejected", "count"),
    ("serve.errors", "count"),
    ("serve.handle_s.query", "s"),
    ("serve.handle_s.merge", "s"),
    ("serve.outside_handler_share", "ratio"),
    ("query.cache_hits", "count"),
    ("query.cache_misses", "count"),
    ("query.cache_stale", "count"),
    ("query.cache_evictions", "count"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.stage_s.parse", "s"),
    ("query.stage_s.cache_lookup", "s"),
    ("query.stage_s.lower_rewrite", "s"),
    ("query.stage_s.execute", "s"),
    ("plan.tuples_scanned", "count"),
    ("plan.tuples_emitted", "count"),
    ("plan.pairs_merged", "count"),
    ("plan.conflicts", "count"),
    ("plan.scanned_per_emitted", "ratio"),
    ("store.pool_hits", "count"),
    ("store.pool_misses", "count"),
    ("store.pool_evictions", "count"),
    ("store.pool_hit_ratio", "ratio"),
    ("store.segment_bytes_written", "B"),
    ("store.journal_records", "count"),
    ("store.journal_append_s", "s"),
];

/// Per-layer metrics the `replay` binary prints: medians over the
/// traced in-process replay.
pub const FROM_REPLAY: &[(&str, &str)] = &[
    ("serve.decode_ns", "ns"),
    ("query.pin_ns", "ns"),
    ("query.cache_hit_ns", "ns"),
    ("query.prepare_miss_ns", "ns"),
    ("query.normalize_ns", "ns"),
    ("query.lex_parse_ns", "ns"),
    ("query.lower_ns", "ns"),
    ("plan.optimize_ns", "ns"),
    ("plan.execute_ns", "ns"),
    ("relation.render_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("query.publish_ns", "ns"),
    ("store.segment_write_ns", "ns"),
    ("store.journal_fsync_ns", "ns"),
    ("store.scan_ns_per_tuple", "ns"),
    ("algebra.merge_ns_per_pair", "ns"),
    ("evidence.dempster_ns_per_pair", "ns"),
    ("trace.replay_query_ns", "ns"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// How far the replay stands in for the server: replay time per query
/// over the server's own handler time per query.
pub const REPLAY_VS_SERVER: (&str, &str) = ("trace.replay_vs_server", "ratio");

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    [
        FROM_GENERATOR,
        FROM_SCRAPE,
        FROM_REPLAY,
        &[REPLAY_VS_SERVER],
    ]
    .concat()
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Render `values` as the `metrics` object of the result line: every
/// metric of `list`, each `{"value": …, "unit": …}`.
///
/// # Errors
/// When a metric of `list` was not measured or is not finite.
pub fn metrics_json(list: &[(&str, &str)], values: &Values) -> Result<String, String> {
    let mut parts = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let v = values
            .get(*name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let section = |from: &str, to: &str| {
            let start = json.find(from).unwrap();
            let end = json[start..].find(to).map_or(json.len(), |e| start + e);
            &json[start..end]
        };
        let e2e = section("\"end_to_end\"", "\"per_layer\"");
        for (name, _, bound) in END_TO_END {
            assert!(
                e2e.lines().any(|l| l.contains(&format!("\"{name}\""))
                    && l.contains(&format!("\"bound\": {bound}}}"))),
                "bound of {name} differs from BENCHMARK.json"
            );
        }
        for (list, text) in [
            (end_to_end(), e2e),
            (per_layer(), section("\"per_layer\"", "\u{0}")),
        ] {
            assert_eq!(text.matches("\"name\"").count(), list.len());
            for (name, unit) in list {
                assert!(
                    text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{name} [{unit}] missing from BENCHMARK.json"
                );
            }
        }
        for spec in crate::stream::workloads() {
            assert!(section("\"workloads\"", "\"end_to_end\"")
                .contains(&format!("\"name\": \"{}\"", spec.name)));
        }
    }

    #[test]
    fn metrics_json_needs_every_metric_finite() {
        let list = &[("a", "s"), ("b.c", "1/s")];
        let mut v = Values::new();
        v.insert("a".into(), 1.5);
        assert!(metrics_json(list, &v).is_err());
        v.insert("b.c".into(), 2.0);
        assert_eq!(
            metrics_json(list, &v).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b.c\": {\"value\": 2, \"unit\": \"1/s\"}}"
        );
        v.insert("a".into(), f64::NAN);
        assert!(metrics_json(list, &v).is_err());
    }
}
