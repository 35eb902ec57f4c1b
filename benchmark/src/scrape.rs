//! Parser for the Prometheus text exposition the `METRICS` verb
//! returns. Only what this benchmark reads: sample lines
//! `name{label="v",...} value`; `# HELP` / `# TYPE` lines are skipped.

use std::collections::BTreeMap;

/// One scrape: every sample keyed by its series — the metric name
/// plus its labels sorted by label name, e.g.
/// `evirel_serve_request_seconds_sum{verb="query"}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

impl Scrape {
    /// Parse an exposition body.
    ///
    /// # Errors
    /// A description of the first line that is neither a comment, a
    /// blank, nor a well-formed sample.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("sample line without a value: {line:?}"))?;
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v
                    .parse::<f64>()
                    .map_err(|e| format!("bad value in {line:?}: {e}"))?,
            };
            let key = match series.split_once('{') {
                None => series.to_owned(),
                Some((name, rest)) => {
                    let inner = rest
                        .strip_suffix('}')
                        .ok_or_else(|| format!("unterminated label set: {line:?}"))?;
                    let mut labels = Vec::new();
                    // Label values this server emits never contain
                    // commas or escaped quotes; reject what we cannot
                    // split safely instead of mis-keying it.
                    for pair in inner.split(',').filter(|p| !p.is_empty()) {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("label without '=': {line:?}"))?;
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .filter(|v| !v.contains(['"', '\\']))
                            .ok_or_else(|| format!("unsupported label value: {line:?}"))?;
                        labels.push((k.trim(), v));
                    }
                    series_key(name.trim(), &labels)
                }
            };
            samples.insert(key, value);
        }
        Ok(Scrape { samples })
    }

    /// The value of one series; `None` when the server does not
    /// export it (e.g. durability series on an in-memory server).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples.get(&series_key(name, labels)).copied()
    }

    /// `later − self` for one series, a missing series reading 0.
    pub fn delta(&self, later: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
        later.get(name, labels).unwrap_or(0.0) - self.get(name, labels).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = "\
# HELP evirel_serve_requests_total Requests received, by verb
# TYPE evirel_serve_requests_total counter
evirel_serve_requests_total{verb=\"merge\"} 3
evirel_serve_requests_total{verb=\"query\"} 120
# TYPE evirel_serve_request_seconds histogram
evirel_serve_request_seconds_bucket{verb=\"query\",le=\"0.00005\"} 7
evirel_serve_request_seconds_bucket{verb=\"query\",le=\"+Inf\"} 120
evirel_serve_request_seconds_sum{verb=\"query\"} 0.012345
evirel_serve_request_seconds_count{verb=\"query\"} 120

evirel_catalog_generation 42
evirel_store_pool_hits_total 1e3
";

    #[test]
    fn parses_plain_labelled_and_histogram_series() {
        let s = Scrape::parse(BODY).unwrap();
        assert_eq!(s.get("evirel_catalog_generation", &[]), Some(42.0));
        assert_eq!(s.get("evirel_store_pool_hits_total", &[]), Some(1000.0));
        assert_eq!(
            s.get("evirel_serve_requests_total", &[("verb", "query")]),
            Some(120.0)
        );
        assert_eq!(
            s.get("evirel_serve_request_seconds_sum", &[("verb", "query")]),
            Some(0.012345)
        );
        assert_eq!(
            s.get("evirel_serve_request_seconds_count", &[("verb", "query")]),
            Some(120.0)
        );
        // Label order in the lookup does not matter.
        assert_eq!(
            s.get(
                "evirel_serve_request_seconds_bucket",
                &[("le", "0.00005"), ("verb", "query")]
            ),
            Some(7.0)
        );
        assert_eq!(
            s.get(
                "evirel_serve_request_seconds_bucket",
                &[("verb", "query"), ("le", "+Inf")]
            ),
            Some(120.0)
        );
        assert_eq!(
            s.get("evirel_serve_requests_total", &[("verb", "ping")]),
            None
        );
        assert_eq!(s.get("nope", &[]), None);
    }

    #[test]
    fn delta_treats_missing_series_as_zero() {
        let before = Scrape::parse("a 5\n").unwrap();
        let after = Scrape::parse("a 9\nb{x=\"y\"} 2\n").unwrap();
        assert_eq!(before.delta(&after, "a", &[]), 4.0);
        assert_eq!(before.delta(&after, "b", &[("x", "y")]), 2.0);
        assert_eq!(before.delta(&after, "c", &[]), 0.0);
    }

    #[test]
    fn malformed_lines_are_errors_not_silently_dropped() {
        assert!(Scrape::parse("novalue\n").is_err());
        assert!(Scrape::parse("a{x=\"y\" 1\n").is_err());
        assert!(Scrape::parse("a{x=y} 1\n").is_err());
        assert!(Scrape::parse("a notanumber\n").is_err());
    }
}
