//! The one reader of integer `EVIREL_*` environment knobs. Each knob
//! is declared where it is used as an [`EnvKnob`] constant and read
//! with [`EnvKnob::get`], so all share one policy: an *invalid* value
//! is rejected **loudly**, never silently treated as the default
//! (`EVIREL_THREADS=O4`, a typo for `04`, once cost real debugging
//! time running on one thread).

use std::ops::RangeInclusive;
use std::sync::Mutex;

/// One integer environment knob.
#[derive(Debug, Clone)]
pub struct EnvKnob {
    /// The environment variable's name.
    pub var: &'static str,
    /// Accepted values; anything else is invalid.
    pub range: RangeInclusive<usize>,
    /// The value when the variable is unset or invalid.
    pub default: usize,
}

impl EnvKnob {
    /// Parse one raw value: `Some(n)` for an integer inside the range
    /// (surrounding whitespace ignored), `None` for anything else —
    /// garbage text, negatives, floats, out-of-range counts.
    pub fn parse(&self, raw: &str) -> Option<usize> {
        let n = raw.trim().parse().ok()?;
        self.range.contains(&n).then_some(n)
    }

    /// The knob's value for this process: the variable when set and
    /// valid, else the default. A set-but-invalid value warns on
    /// stderr — once per variable per process — naming the value, the
    /// accepted range and the default used instead.
    pub fn get(&self) -> usize {
        let Ok(raw) = std::env::var(self.var) else {
            return self.default;
        };
        self.parse(&raw).unwrap_or_else(|| {
            static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
            // A poisoned lock still guards a valid list.
            let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
            if !warned.contains(&self.var) {
                warned.push(self.var);
                eprintln!(
                    "warning: ignoring invalid {}={raw:?}: expected an integer in {}..={}; \
                     using the default {}",
                    self.var,
                    self.range.start(),
                    self.range.end(),
                    self.default
                );
            }
            self.default
        })
    }
}
