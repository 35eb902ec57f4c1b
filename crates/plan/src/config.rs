//! The three `EVIREL_*` knobs, read once where a process starts (a
//! binary's `main`, a test suite's `config()`) and passed down: nothing
//! else reads the environment, so two in-process servers can differ. An
//! invalid value is rejected **loudly**, never silently taken as the
//! default (`EVIREL_THREADS=O4`, a typo for `04`, once cost real
//! debugging time running on one thread).

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::sync::Mutex;

/// Largest worker-thread count `EVIREL_THREADS` accepts. Anything
/// above this is almost certainly a typo (and would oversubscribe any
/// real machine), so it is rejected like garbage input.
pub const MAX_PARALLELISM: usize = 1024;

/// Default slow-query threshold in milliseconds.
pub const DEFAULT_SLOW_QUERY_MS: u64 = 500;

/// What a process runs under. [`Config::default`] is the built-in
/// defaults; [`Config::from_env`] overrides them from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Worker threads for query execution (`EVIREL_THREADS`, `1..=1024`,
    /// default 1): shardable plan fragments run through the exchange
    /// operator when > 1. CI runs the suites at 4.
    pub threads: usize,
    /// Buffer-pool byte budget (`EVIREL_BUFFER_BYTES`, `1..=usize::MAX`,
    /// default 64 MiB; `0` would make every page access an overcommit).
    /// Build sides spill past it: CI's 4 KiB run spills every one.
    pub buffer_bytes: usize,
    /// Queries at or over this many milliseconds emit one structured
    /// `slow_query` event (`EVIREL_SLOW_QUERY_MS`, any `u64`, default
    /// 500; `0` logs every query).
    pub slow_query_ms: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            threads: 1,
            buffer_bytes: evirel_store::DEFAULT_BUFFER_BYTES,
            slow_query_ms: DEFAULT_SLOW_QUERY_MS,
        }
    }
}

impl Config {
    /// The defaults, overridden by each of `EVIREL_THREADS`,
    /// `EVIREL_BUFFER_BYTES` and `EVIREL_SLOW_QUERY_MS` that is set and
    /// valid. A set-but-invalid value warns (see the module docs).
    pub fn from_env() -> Config {
        Config::from_vars(|var| std::env::var(var).ok())
    }

    /// [`Config::from_env`] over any variable lookup.
    fn from_vars(read: impl Fn(&'static str) -> Option<String>) -> Config {
        let base = Config::default();
        Config {
            threads: knob(&read, "EVIREL_THREADS", 1..=MAX_PARALLELISM, base.threads),
            buffer_bytes: knob(
                &read,
                "EVIREL_BUFFER_BYTES",
                1..=usize::MAX,
                base.buffer_bytes,
            ),
            slow_query_ms: knob(
                &read,
                "EVIREL_SLOW_QUERY_MS",
                0..=u64::MAX,
                base.slow_query_ms,
            ),
        }
    }
}

/// `var` when it is set to an integer inside `range` (surrounding
/// whitespace ignored), else `default`. Anything else that is set —
/// garbage text, negatives, floats, out-of-range counts — warns on
/// stderr, once per variable per process, naming the value, the
/// accepted range and the default used instead.
fn knob<T: FromStr + PartialOrd + Display>(
    read: impl Fn(&'static str) -> Option<String>,
    var: &'static str,
    range: RangeInclusive<T>,
    default: T,
) -> T {
    let Some(raw) = read(var) else {
        return default;
    };
    if let Some(n) = raw.trim().parse().ok().filter(|n| range.contains(n)) {
        return n;
    }
    static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    // A poisoned lock still guards a valid list.
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.contains(&var) {
        warned.push(var);
        eprintln!(
            "warning: ignoring invalid {var}={raw:?}: expected an integer in {}..={}; \
             using the default {default}",
            range.start(),
            range.end(),
        );
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The config read from `vars` alone, as if nothing else were set.
    fn with(vars: &[(&str, &str)]) -> Config {
        Config::from_vars(|var| {
            vars.iter()
                .find(|(name, _)| *name == var)
                .map(|(_, value)| (*value).to_owned())
        })
    }

    #[test]
    fn unset_is_the_default() {
        assert_eq!(with(&[]), Config::default());
        let default = Config::default();
        assert_eq!(
            (default.threads, default.buffer_bytes, default.slow_query_ms),
            (1, 64 * 1024 * 1024, 500)
        );
    }

    /// Past `u64::MAX`: more than any knob's integer holds.
    const PAST_U64: &str = "18446744073709551616";

    /// Asserts that `var` set to each of `invalid` falls back to its
    /// default (with one warning) and leaves the other knobs alone.
    fn rejects(var: &str, invalid: &[&str]) {
        let garbage = ["", "lots", "O4", "64MiB", "0x10", "-4", "1.0", "1e6", "4 4"];
        for value in garbage.iter().chain(invalid).chain([&PAST_U64]) {
            assert_eq!(with(&[(var, *value)]), Config::default(), "{var}={value:?}");
        }
    }

    #[test]
    fn threads_rejects_invalid_values() {
        // No threads, past MAX_PARALLELISM, and typos of valid counts.
        rejects(
            "EVIREL_THREADS",
            &["0", "-2", "4.0", "four", "1025", "9999999999"],
        );
    }

    #[test]
    fn buffer_bytes_rejects_invalid_values() {
        // An empty pool would make every page access an overcommit.
        rejects("EVIREL_BUFFER_BYTES", &["0", "-4096"]);
    }

    #[test]
    fn slow_query_ms_rejects_invalid_values() {
        rejects("EVIREL_SLOW_QUERY_MS", &["-1"]);
        // A zero threshold is valid: it logs every query.
        assert_eq!(with(&[("EVIREL_SLOW_QUERY_MS", "0")]).slow_query_ms, 0);
    }

    #[test]
    fn each_knob_takes_a_valid_value_with_surrounding_whitespace() {
        let config = with(&[
            ("EVIREL_THREADS", " 4\n"),
            ("EVIREL_BUFFER_BYTES", "\t4096 "),
            ("EVIREL_SLOW_QUERY_MS", " 600000 "),
        ]);
        assert_eq!(
            config,
            Config {
                threads: 4,
                buffer_bytes: 4096,
                slow_query_ms: 600_000,
            }
        );
        let bounds = with(&[
            ("EVIREL_THREADS", "1024"),
            ("EVIREL_BUFFER_BYTES", "1"),
            ("EVIREL_SLOW_QUERY_MS", "18446744073709551615"),
        ]);
        assert_eq!(bounds.threads, MAX_PARALLELISM);
        assert_eq!(bounds.buffer_bytes, 1);
        assert_eq!(bounds.slow_query_ms, u64::MAX);
    }

    /// What the suites run under: CI sets `EVIREL_THREADS=4`, and
    /// `EVIREL_BUFFER_BYTES=4096` with it, and every suite's contexts
    /// and catalogs are built from `Config::from_env()`.
    #[test]
    fn from_env_returns_the_set_values() {
        let set = |var| std::env::var(var).ok().map(|v| v.trim().parse::<usize>());
        let config = Config::from_env();
        let want = Config::default();
        match set("EVIREL_THREADS") {
            Some(n) => assert_eq!(Ok(config.threads), n),
            None => assert_eq!(config.threads, want.threads),
        }
        match set("EVIREL_BUFFER_BYTES") {
            Some(n) => assert_eq!(Ok(config.buffer_bytes), n),
            None => assert_eq!(config.buffer_bytes, want.buffer_bytes),
        }
    }
}
